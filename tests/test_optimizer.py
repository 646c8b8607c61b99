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
    _identity_backward,
    _random_arrays,
    _run_group,
    _Search,
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
    # |V| = 2 < |Y| leaves the backward kernel to the search; |V| = 3 relays Y.
    # A slack d1 target keeps the softmaxed backward kernel out of the search.
    node3 = with_node3_erasure_metric(spec)

    def two_restarts(sizes):
        return OptimizerConfig(restarts=2, max_iters=4, hops=1, cardinality_override=sizes)

    points = {
        "case2": (spec, case2, two_restarts((3, 3))),
        "case2_searched_backward": (spec, case2, two_restarts((3, 2))),
        "case1_slack_backward": (spec, Targets(d1=0.5, d2=0.0, gamma=0.4), two_restarts((3, 2))),
        "third_node_slack_backward": (
            node3, Targets(d1=0.5, d2=1.0, d3=0.6, gamma=0.6), two_restarts((3, 2))
        ),
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
    "node3,targets",
    [(False, Targets(d1=0.1, d2=0.0, gamma=0.4)), (True, Targets(d1=0.5, d2=1.0, d3=0.6, gamma=0.6))],
    ids=["case1", "third_node"],
)
def test_backward_kernel_searched_only_while_d1_binds(monkeypatch, node3, targets):
    """At |V| = 2 < |Y| the backward kernel is searched, but only d1 reads it:
    with a d1 target the forward kernel meets anyway, no stack that varies
    the backward kernel is scored.  A stack varies it when two of its
    policies share a forward kernel but differ in backward kernel; a stack
    over several restarts carries one backward kernel per restart."""
    monkeypatch.setenv("VENDINGRD_THREADS", "1")
    spec = binary_erasure_spec(EPS)
    if node3:
        spec = with_node3_erasure_metric(spec)
    varied = []
    evaluate = _EvalContext.evaluate

    def counting(self, F, B, with_r2=True):
        varied.append(_varies_backward(F, B))
        return evaluate(self, F, B, with_r2)

    monkeypatch.setattr(_EvalContext, "evaluate", counting)
    config = OptimizerConfig(restarts=2, max_iters=12, hops=1, cardinality_override=(3, 2))
    result = minimize_r1(spec, targets, config)
    assert result.feasible
    assert varied and not any(varied)


def _varies_backward(F, B) -> bool:
    """Whether two policies of a stack share a forward kernel but differ in backward kernel."""
    n = max(len(F), len(B))
    backward_of = {}
    for f, b in zip(np.broadcast_to(F, (n,) + F.shape[1:]), np.broadcast_to(B, (n,) + B.shape[1:])):
        if backward_of.setdefault(f.tobytes(), b.tobytes()) != b.tobytes():
            return True
    return False


@pytest.mark.parametrize("search", ["indirect", "searched_backward", "third_node", "seeded"])
def test_group_returns_each_restart_as_run_alone(monkeypatch, search):
    """Restarts run in lockstep as one group return, bit for bit, what each
    returns run alone, though their loops stop at different iterations."""
    spec = binary_erasure_spec(EPS)
    targets, sizes, seeds = Targets(d1=0.0, d2=0.6, gamma=0.6), (3, 3), [None] * 4
    if search == "searched_backward":
        # d1 binds at the start of some restarts' row sweeps only
        targets, sizes = Targets(d1=0.05, d2=0.6, gamma=0.4), (3, 2)
    elif search == "third_node":
        spec = with_node3_erasure_metric(spec)
        targets = Targets(d1=0.0, d2=1.0, d3=0.6, gamma=0.6)
    elif search == "seeded":
        targets = Targets(d1=0.0, d2=0.4, gamma=0.6)
        seeds[1] = _embed_seed(spec, appendixB_policy(ExampleCase("case2", EPS, 0.6)), *sizes)
    config = OptimizerConfig(restarts=4, max_iters=6, hops=2, cardinality_override=sizes, rng_seed=3)
    ctx = _EvalContext(spec)
    calls = []
    improve = _Search._improve

    def recording(self, forward, rows, idx, steps):
        calls.append((forward, len(idx)))
        return improve(self, forward, rows, idx, steps)

    monkeypatch.setattr(_Search, "_improve", recording)
    group = _run_group((ctx, targets, config, [0, 1, 2, 3], seeds))
    assert any(moving < 4 for _, moving in calls)
    if search == "searched_backward":
        # some backward sweep covers fewer restarts than the row step before it
        assert any(not fwd and moving < prev for (_, prev), (fwd, moving) in zip(calls, calls[1:]))
    for i, got in enumerate(group):
        (want,) = _run_group((ctx, targets, config, [i], [seeds[i]]))
        assert got["point"].r1 == want["point"].r1, i
        assert np.array_equal(got["F"], want["F"]), i
        assert np.array_equal(got["B"], want["B"]), i


@pytest.mark.parametrize("node3", [False, True], ids=["binding_d1", "third_node"])
def test_search_carries_objective_and_d1(node3):
    """After a run, each restart's carried objective and d1 excess are, bit
    for bit, what its stored logits score."""
    spec = binary_erasure_spec(EPS)
    targets, sizes, b_exact = Targets(d1=0.05, d2=0.6, gamma=0.4), (3, 2), None
    if node3:
        spec = with_node3_erasure_metric(spec)
        targets, sizes = Targets(d1=0.0, d2=1.0, d3=0.6, gamma=0.6), (3, 3)
        b_exact = _identity_backward(spec, *sizes)
    config = OptimizerConfig(restarts=4, max_iters=6, cardinality_override=sizes)
    rng = np.random.default_rng(0)
    starts = [_random_arrays(spec, *sizes, rng) for _ in range(config.restarts)]
    theta_f, theta_b = (np.log(np.stack(side)) for side in zip(*starts))
    search = _Search(_EvalContext(spec), targets, config, theta_f, theta_b.copy(), b_exact)
    search.run()
    # with a d1 target the start misses, the backward kernel is searched
    assert node3 or not np.array_equal(search.theta_b, theta_b)
    base, d1 = search._scores(search.theta_f, search.theta_b)
    assert np.array_equal(search.base, base)
    assert np.array_equal(search.d1, d1)


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
    config = OptimizerConfig(restarts=2, max_iters=2, hops=0, cardinality_override=(1, 1))
    monkeypatch.setenv("VENDINGRD_THREADS", "one")
    with pytest.raises(ValueError):
        minimize_r1(spec, targets, config)
    for cap in ("0", "-1"):
        monkeypatch.setenv("VENDINGRD_THREADS", cap)
        with pytest.raises(ValueError):
            minimize_r1(spec, targets, config)
    monkeypatch.setenv("VENDINGRD_THREADS", "1")
    minimize_r1(spec, targets, config)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(hops=-1)
    with pytest.raises(ValueError):
        OptimizerConfig(cardinality_override=(0, 3))
