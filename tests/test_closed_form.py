import numpy as np
import pytest

from vendingrd.closed_form import (
    CASE_TAGS,
    ExampleCase,
    appendixB_policy,
    case1_r1,
    case2_r1,
    case2_ts_r1,
    case3_r1,
    example_rate,
    hb_abstention_cost,
    hb_case2_r1,
    hb_rate_formula,
)
from vendingrd.model import InfeasibleError
from vendingrd.probability import binary_entropy

H2_02 = 0.7219280948873623


def test_case1_frozen_values():
    assert case1_r1(0.2, 0.4) == pytest.approx(1.1219280948873624, abs=1e-12)
    assert case1_r1(0.2, 0.0) == pytest.approx(H2_02 + 0.8, abs=1e-12)


def test_case1_plateau_above_one_minus_epsilon():
    for g in (0.8, 0.85, 0.9, 1.0):
        assert case1_r1(0.2, g) == pytest.approx(H2_02, abs=1e-15)


def test_case2_frozen_values():
    assert case2_r1(0.2, 0.6) == pytest.approx(0.17095059445466865, abs=1e-12)
    assert case2_r1(0.2, 1.0) == 0.0
    assert case2_r1(0.2, 0.2) == pytest.approx(H2_02, abs=1e-12)


def test_case2_ts_frozen_value_and_gap():
    assert case2_ts_r1(0.2, 0.6) == pytest.approx(0.36096404744368116, abs=1e-12)
    gap = case2_ts_r1(0.2, 0.6) - case2_r1(0.2, 0.6)
    assert gap == pytest.approx(0.1900134529890125, abs=1e-9)


def test_time_sharing_strictly_worse_inside():
    for g in np.arange(0.25, 0.951, 0.05):
        g = float(g)
        assert case2_ts_r1(0.2, g) > case2_r1(0.2, g)


def test_time_sharing_meets_case2_at_the_ends():
    assert case2_ts_r1(0.2, 0.2) == pytest.approx(case2_r1(0.2, 0.2), abs=1e-12)
    assert case2_ts_r1(0.2, 1.0) == pytest.approx(case2_r1(0.2, 1.0), abs=1e-12)


def test_case3_frozen_value():
    assert case3_r1(0.2, 0.6) == pytest.approx(1.1219280948873624, abs=1e-12)
    assert case3_r1(0.2, 1.0) == pytest.approx(H2_02, abs=1e-12)


def test_rates_nonincreasing_in_gamma():
    grid = [round(0.05 * k, 2) for k in range(4, 21)]
    for fn in (case1_r1, case2_r1, case2_ts_r1, case3_r1):
        vals = [fn(0.2, g) for g in grid]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-12


def test_domain_validation():
    with pytest.raises(ValueError):
        case1_r1(-0.1, 0.5)
    with pytest.raises(ValueError):
        case1_r1(0.2, 1.5)
    for fn in (case2_r1, case2_ts_r1, case3_r1):
        with pytest.raises(InfeasibleError):
            fn(0.2, 0.1)


def test_example_case_validation():
    with pytest.raises(ValueError):
        ExampleCase("case9", 0.2, 0.5)
    with pytest.raises(ValueError):
        ExampleCase("hb_case2", 0.2, 0.5)
    with pytest.raises(ValueError):
        ExampleCase("case1", 0.2, 0.5, d3=0.4)
    assert set(CASE_TAGS) == {"case1", "case2", "case2_ts", "case3", "hb_case2"}


def test_example_rate_dispatch():
    assert example_rate(ExampleCase("case1", 0.2, 0.4)) == case1_r1(0.2, 0.4)
    assert example_rate(ExampleCase("case2", 0.2, 0.6)) == case2_r1(0.2, 0.6)
    assert example_rate(ExampleCase("case2_ts", 0.2, 0.6)) == case2_ts_r1(0.2, 0.6)
    assert example_rate(ExampleCase("case3", 0.2, 0.6)) == case3_r1(0.2, 0.6)
    hb = ExampleCase("hb_case2", 0.2, 0.6, d3=0.4)
    assert example_rate(hb) == pytest.approx(hb_case2_r1(0.2, 0.6, 0.4), abs=0.0)


def test_abstention_rate_with_full_pattern_recovers_case2():
    rng = np.random.default_rng(7)
    for _ in range(20):
        eps = float(rng.uniform(0.05, 0.95))
        g = float(rng.uniform(eps, 1.0))
        full = float(hb_rate_formula(eps, g, 1.0, 1.0, 1.0))
        assert full == pytest.approx(case2_r1(eps, g), abs=1e-12)


def test_abstention_p2_terms_cancel():
    rng = np.random.default_rng(11)
    for _ in range(30):
        eps = float(rng.uniform(0.05, 0.9))
        g = float(rng.uniform(eps, 1.0))
        p1, p3 = rng.uniform(0.0, 1.0, size=2)
        r_low = float(hb_rate_formula(eps, g, p1, 0.1, p3))
        r_high = float(hb_rate_formula(eps, g, p1, 0.9, p3))
        assert r_low == pytest.approx(r_high, abs=1e-12)


def test_abstention_cost_is_linear_combination():
    val = hb_abstention_cost(0.2, 0.6, 1.0, 0.5, 0.25)
    assert float(val) == pytest.approx(0.2 + 0.4 * 0.5 + 0.4 * 0.25, abs=1e-15)


def test_third_node_curve_matches_case2_when_budget_slack():
    for g in (0.2, 0.3, 0.4):
        assert hb_case2_r1(0.2, g, 0.4) == pytest.approx(case2_r1(0.2, g), abs=1e-6)


def test_third_node_curve_constant_beyond_its_distortion():
    vals = [hb_case2_r1(0.2, g, 0.4) for g in (0.5, 0.6, 0.8, 1.0)]
    assert vals[0] == pytest.approx(H2_02 - 0.4, abs=1e-6)
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], abs=1e-6)


def test_third_node_curve_at_unit_distortion_is_case2():
    for g in (0.2, 0.5, 0.8, 1.0):
        assert hb_case2_r1(0.2, g, 1.0) == pytest.approx(case2_r1(0.2, g), abs=1e-6)


@pytest.mark.parametrize(
    "epsilon,gamma,d3",
    [(0.2, 0.6, 0.0), (0.2, 0.6, 0.1), (0.2, 0.6, 0.3), (0.2, 0.6, 0.5),
     (0.2, 0.4, 0.25), (0.5, 0.9, 0.3), (0.1, 0.3, 0.05), (0.3, 0.5, 0.45)],
)
def test_third_node_curve_matches_brute_force_oracle(epsilon, gamma, d3):
    step = 1.0 / 40
    axis = np.linspace(0.0, 1.0, 41)
    p1, p2, p3 = np.meshgrid(axis, axis, axis, indexing="ij")
    rate = hb_rate_formula(epsilon, gamma, p1, p2, p3)
    cost = hb_abstention_cost(epsilon, gamma, p1, p2, p3)
    grid_min = float(rate[cost <= d3 + 1e-12].min())
    # The rate falls in p1 and in p3, so rounding an optimal pattern down to
    # the grid stays within budget and raises the rate by at most one
    # cell's change along each of those two axes.
    step_error = np.abs(np.diff(rate, axis=0)).max() + np.abs(np.diff(rate, axis=2)).max()
    exact = hb_case2_r1(epsilon, gamma, d3)
    assert exact <= grid_min + 1e-12
    assert grid_min - exact <= step_error
    assert step_error < 10 * step
    assert exact > case2_r1(epsilon, gamma) + 1e-6


def test_third_node_curve_needs_d3():
    with pytest.raises(ValueError):
        ExampleCase("hb_case2", 0.2, 0.6)
    with pytest.raises(InfeasibleError):
        hb_case2_r1(0.2, 0.1, 0.4)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ExampleCase("hb_case2", 0.2, 0.6, d3=bad)
        with pytest.raises(ValueError):
            hb_case2_r1(0.2, 0.6, bad)
        with pytest.raises(ValueError):
            hb_case2_r1(0.2, bad, 0.4)


def test_reference_policy_case1_action_probability():
    policy = appendixB_policy(ExampleCase("case1", 0.2, 0.4))
    f = policy.forward.table
    for zi in (0, 1):
        assert f[zi].sum() == pytest.approx(1.0, abs=1e-15)
        assert f[zi, 1].sum() == pytest.approx(0.5, abs=1e-15)
    assert f[2, 0].sum() == pytest.approx(1.0, abs=1e-15)
    assert f[2, 1].sum() == 0.0


def test_reference_policy_case2_always_acts_on_erasures():
    policy = appendixB_policy(ExampleCase("case2", 0.2, 0.6))
    f = policy.forward.table
    assert f.shape[2] == 1
    assert f[2, 1, 0] == 1.0
    for zi in (0, 1):
        assert f[zi, 1, 0] == pytest.approx(0.5, abs=1e-15)


def test_reference_policy_backward_relays_y():
    policy = appendixB_policy(ExampleCase("case3", 0.2, 0.6))
    b = policy.backward.table
    for yi in range(3):
        assert np.all(b[:, :, yi, yi] == 1.0)


def test_reference_policy_rejects_other_tags():
    with pytest.raises(ValueError):
        appendixB_policy(ExampleCase("case2_ts", 0.2, 0.6))
    with pytest.raises(InfeasibleError):
        appendixB_policy(ExampleCase("case2", 0.2, 0.1))


def test_entropy_helper_consistency():
    assert case1_r1(0.5, 1.0) == pytest.approx(binary_entropy(0.5), abs=1e-15)
