import json
from pathlib import Path

import numpy as np
import pytest

from vendingrd.closed_form import ExampleCase, appendixB_policy, case2_r1, example_rate
from vendingrd.model import binary_erasure_spec, with_node3_erasure_metric
from vendingrd.region import (
    OptimizerConfig,
    Targets,
    _embed_seed,
    _EvalContext,
    _run_group,
    default_cardinalities,
    evaluate_point,
    minimize_r1,
    sweep_gamma,
)

EPS = 0.2

CASE_TARGETS = {
    "case1": lambda g: Targets(d1=0.5, d2=0.0, gamma=g),
    "case2": lambda g: Targets(d1=0.0, d2=1.0 - g, gamma=g),
    "case3": lambda g: Targets(d1=0.0, d2=0.0, gamma=g),
}


def _seeded_config(**kw):
    base = dict(restarts=1, max_iters=6, hops=0, cardinality_override=(3, 3))
    base.update(kw)
    return OptimizerConfig(**base)


@pytest.mark.parametrize("tag,gamma", [("case1", 0.4), ("case2", 0.6), ("case3", 0.6)])
def test_seeded_search_recovers_reference_rate(tag, gamma):
    spec = binary_erasure_spec(EPS)
    case = ExampleCase(tag, EPS, gamma)
    result = minimize_r1(
        spec, CASE_TARGETS[tag](gamma), _seeded_config(), seeds=[appendixB_policy(case)]
    )
    assert result.feasible
    assert result.point.r1 == pytest.approx(example_rate(case), abs=1e-6)


def test_search_is_deterministic():
    spec = binary_erasure_spec(EPS)
    targets = Targets(d1=0.0, d2=0.6, gamma=0.6)
    config = OptimizerConfig(
        restarts=2, max_iters=4, hops=1, rng_seed=5, cardinality_override=(2, 3)
    )
    first = minimize_r1(spec, targets, config)
    second = minimize_r1(spec, targets, config)
    assert first.point.r1 == second.point.r1
    assert first.point.gamma == second.point.gamma
    assert np.array_equal(first.policy.forward.table, second.policy.forward.table)
    assert np.array_equal(first.policy.backward.table, second.policy.backward.table)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_search_output_is_pinned(monkeypatch, threads):
    """The search returns the recorded policies whatever the worker count."""
    pinned = json.loads((Path(__file__).parent / "data" / "search_pinned.json").read_text())
    monkeypatch.setenv("VENDINGRD_THREADS", threads)
    spec = binary_erasure_spec(EPS)
    case2 = Targets(d1=0.0, d2=0.4, gamma=0.6)
    node3 = with_node3_erasure_metric(spec)

    def two_restarts(sizes):
        return OptimizerConfig(restarts=2, max_iters=4, hops=1, cardinality_override=sizes)

    points = {
        "case2": (spec, case2, two_restarts((3, 3))),
        "case2_u4": (spec, case2, two_restarts((4, 3))),
        "case1": (spec, Targets(d1=0.5, d2=0.0, gamma=0.4), two_restarts((3, 3))),
        "third_node_slack": (node3, Targets(d1=0.5, d2=1.0, d3=0.6, gamma=0.6), two_restarts((3, 3))),
        "third_node": (node3, Targets(d1=0.0, d2=1.0, d3=0.6, gamma=0.6), two_restarts((3, 3))),
        # one group of 8 restarts at 1 worker, two groups of 4 at 2
        "case3_eight_restarts": (
            spec,
            Targets(d1=0.0, d2=0.0, gamma=0.6),
            OptimizerConfig(restarts=8, max_iters=6, hops=2, cardinality_override=(3, 3)),
        ),
    }
    for name, (point_spec, targets, config) in points.items():
        want = pinned[name]
        got = minimize_r1(point_spec, targets, config)
        assert got.feasible == want["feasible"], name
        assert got.point.r1 == pytest.approx(want["r1"], abs=1e-12), name
        assert got.point.r2 == pytest.approx(want["r2"], abs=1e-12), name
        np.testing.assert_allclose(got.policy.forward.table, want["forward"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.policy.backward.table, want["backward"], rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "node3,targets,r1",
    [
        # within 1e-12 of case1_r1(0.3) and 9.3e-5 above hb_case2_r1(0.6, 0.6)
        (False, Targets(d1=0.5, d2=0.0, gamma=0.3), 1.2219280948868294),
        (True, Targets(d1=0.0, d2=1.0, d3=0.6, gamma=0.6), 0.1710433327768568),
        # within 1e-11 of case2_r1(0.3)
        (False, Targets(d1=0.0, d2=0.6, gamma=0.3), 0.446439344669433),
    ],
    ids=["case1_g0.3", "hb_g0.6_d0.6", "case2_g0.3"],
)
def test_benchmark_search_config_is_pinned(node3, targets, r1):
    """The benchmark's optimize config (8 restarts, 12 iterations, 4 hops,
    sizes (3, 3)) returns the recorded r1 at seed 1, on the two points the
    penalty-descent search missed and one it reached, all now within the
    benchmark's 0.05 of their curves, so a change that moves the solver's
    output fails here before it moves the benchmark's share of failed ops."""
    spec = binary_erasure_spec(EPS)
    if node3:
        spec = with_node3_erasure_metric(spec)
    config = OptimizerConfig(restarts=8, max_iters=12, hops=4, cardinality_override=(3, 3), rng_seed=1)
    result = minimize_r1(spec, targets, config)
    assert result.feasible
    assert result.point.r1 == pytest.approx(r1, abs=1e-12)


@pytest.mark.parametrize("search", ["indirect", "third_node", "seeded"])
def test_group_returns_each_restart_as_run_alone(search):
    """Starts solved as one stack return, bit for bit, the kernel and r1
    that each returns solved alone."""
    spec = binary_erasure_spec(EPS)
    targets, sizes, seeds = Targets(d1=0.0, d2=0.6, gamma=0.6), (3, 3), [None] * 4
    if search == "third_node":
        spec = with_node3_erasure_metric(spec)
        targets = Targets(d1=0.0, d2=1.0, d3=0.6, gamma=0.6)
    elif search == "seeded":
        targets = Targets(d1=0.0, d2=0.4, gamma=0.6)
        seeds[1] = _embed_seed(spec, appendixB_policy(ExampleCase("case2", EPS, 0.6)), *sizes)
    config = OptimizerConfig(restarts=4, max_iters=6, hops=2, cardinality_override=sizes, rng_seed=3)
    ctx = _EvalContext(spec)
    group = _run_group((ctx, targets, config, [0, 1, 2, 3], seeds))
    for i, got in enumerate(group):
        (want,) = _run_group((ctx, targets, config, [i], [seeds[i]]))
        assert got["point"].r1 == want["point"].r1, i
        assert np.array_equal(got["F"], want["F"]), i
        assert np.array_equal(got["B"], want["B"]), i


def test_default_cardinality_search():
    spec = binary_erasure_spec(EPS)
    config = OptimizerConfig(restarts=1, max_iters=1, hops=0)
    result = minimize_r1(spec, Targets(d1=0.0, d2=0.6, gamma=0.6), config)
    sizes = (len(result.policy.u_alpha), len(result.policy.v_alpha))
    assert sizes == default_cardinalities(spec) == (9, 16)
    assert evaluate_point(spec, result.policy) == result.point


def test_unreachable_target_reported_infeasible():
    spec = binary_erasure_spec(EPS)
    # a lossless node-1 reconstruction needs the budget to cover the erasure
    # rate; gamma = 0.1 < epsilon leaves at least (eps - gamma) / 2 distortion
    targets = Targets(d1=0.0, d2=1.0, gamma=0.1)
    config = OptimizerConfig(restarts=2, max_iters=6, hops=0, cardinality_override=(3, 3))
    result = minimize_r1(spec, targets, config)
    assert not result.feasible
    assert result.residuals["d1"] > 0.02


def test_minimize_requires_budget():
    spec = binary_erasure_spec(EPS)
    with pytest.raises(ValueError):
        minimize_r1(spec, Targets(d1=0.0, d2=0.0))


def test_oversized_seed_rejected():
    spec = binary_erasure_spec(EPS)
    seed = appendixB_policy(ExampleCase("case3", EPS, 0.6))
    config = _seeded_config(cardinality_override=(1, 3))
    with pytest.raises(ValueError):
        minimize_r1(spec, Targets(d1=0.0, d2=0.0, gamma=0.6), config, seeds=[seed])


def test_enlarging_cardinalities_keeps_seeded_rate():
    spec = binary_erasure_spec(EPS)
    seed = appendixB_policy(ExampleCase("case2", EPS, 0.6))
    targets = Targets(d1=0.0, d2=0.4, gamma=0.6)
    small = minimize_r1(spec, targets, _seeded_config(cardinality_override=(1, 3)), seeds=[seed])
    large = minimize_r1(spec, targets, _seeded_config(cardinality_override=(4, 6)), seeds=[seed])
    assert small.feasible and large.feasible
    assert large.point.r1 <= small.point.r1 + 1e-9
    assert small.point.r1 == pytest.approx(case2_r1(EPS, 0.6), abs=1e-6)


def test_sweep_envelope_is_monotone():
    spec = binary_erasure_spec(EPS)
    grid = [0.3, 0.6, 0.9]
    seeds = [appendixB_policy(ExampleCase("case2", EPS, g)) for g in grid]
    entries = sweep_gamma(
        spec,
        Targets(d1=0.0, d2=1.0),
        grid,
        _seeded_config(restarts=4, max_iters=4),
        seeds=seeds,
    )
    assert [e.gamma for e in entries] == grid
    assert all(e.result.feasible for e in entries)
    rates = [e.result.point.r1 for e in entries]
    assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))
    for g, r in zip(grid, rates):
        assert r <= case2_r1(EPS, g) + 1e-6


def test_sweep_rejects_bad_grids():
    spec = binary_erasure_spec(EPS)
    with pytest.raises(ValueError):
        sweep_gamma(spec, Targets(d1=0.0, d2=1.0), [0.6, 0.3])
    with pytest.raises(ValueError):
        sweep_gamma(spec, Targets(d1=0.0, d2=1.0, gamma=0.5), [0.3, 0.6])


def test_thread_cap_must_parse(monkeypatch):
    spec = binary_erasure_spec(EPS)
    targets = Targets(d1=0.5, d2=1.0, gamma=0.5)
    config = OptimizerConfig(restarts=2, max_iters=2, hops=0, cardinality_override=(1, 3))
    monkeypatch.setenv("VENDINGRD_THREADS", "one")
    with pytest.raises(ValueError):
        minimize_r1(spec, targets, config)
    for cap in ("0", "-1"):
        monkeypatch.setenv("VENDINGRD_THREADS", cap)
        with pytest.raises(ValueError):
            minimize_r1(spec, targets, config)
    monkeypatch.setenv("VENDINGRD_THREADS", "1")
    minimize_r1(spec, targets, config)


def test_search_rejects_v_smaller_than_y():
    """The search relays Y, so |V| < |Y| is refused before any restart runs."""
    spec = binary_erasure_spec(EPS)
    config = OptimizerConfig(restarts=1, max_iters=1, hops=0, cardinality_override=(3, 2))
    with pytest.raises(ValueError, match=r"\|Y\| = 3"):
        minimize_r1(spec, Targets(d1=0.5, d2=1.0, gamma=0.5), config)
    with pytest.raises(ValueError, match=r"\|Y\| = 3"):
        sweep_gamma(spec, Targets(d1=0.5, d2=1.0), [0.5], config)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(hops=-1)
    with pytest.raises(ValueError):
        OptimizerConfig(cardinality_override=(0, 3))
