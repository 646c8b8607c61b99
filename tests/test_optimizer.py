import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_acceptance import _criterion5_targets
from test_region import _random_spec
from test_search_battery import battery
from vendingrd import region
from vendingrd.closed_form import ExampleCase, appendixB_policy, case2_r1, example_rate, hb_case2_r1
from vendingrd.model import ProblemSpec, binary_erasure_spec, with_node3_erasure_metric
from vendingrd.probability import Alphabet, JointPmf, Kernel
from vendingrd.region import (
    _BACKTRACK,
    _DRAW_ALPHA,
    _NEWTON_STEPS,
    _NU_CAP,
    OptimizerConfig,
    Targets,
    _better,
    _draw,
    _embed_seed,
    _EvalContext,
    _identity_backward,
    _judge,
    _kernel_shapes,
    _Solver,
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
    """The search returns the recorded policies whatever a leftover
    ``VENDINGRD_THREADS`` in the environment holds: no code reads it."""
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
        # eight starts in one stack
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
        # 7.6e-14 below case1_r1(0.3), inside the 1e-7 feasibility tolerance,
        # and 2.3e-4 above hb_case2_r1(0.6, 0.6)
        (False, Targets(d1=0.5, d2=0.0, gamma=0.3), 1.2219280948872862),
        (True, Targets(d1=0.0, d2=1.0, d3=0.6, gamma=0.6), 0.17117989393387334),
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
def test_stack_solves_and_judges_each_kernel_as_alone(search):
    """Kernels solved as one stack and judged together return, bit for bit,
    the kernel and point that each returns solved and judged alone."""
    spec = binary_erasure_spec(EPS)
    targets, sizes = Targets(d1=0.0, d2=0.6, gamma=0.6), (3, 3)
    if search == "third_node":
        spec = with_node3_erasure_metric(spec)
        targets = Targets(d1=0.0, d2=1.0, d3=0.6, gamma=0.6)
    shape = _kernel_shapes(spec, *sizes)[0]
    kernels = [_draw(random.Random(f"3 {i}"), shape) for i in range(12)]
    if search == "seeded":
        targets = Targets(d1=0.0, d2=0.4, gamma=0.6)
        kernels[1] = _embed_seed(spec, appendixB_policy(ExampleCase("case2", EPS, 0.6)), *sizes)[0]
    ctx, B = _EvalContext(spec), _identity_backward(spec, *sizes)
    solver = _Solver(ctx, targets)
    stack = _judge(ctx, targets, solver.solve(np.stack(kernels), 6), B)
    for i, f in enumerate(kernels):
        (alone,) = _judge(ctx, targets, solver.solve(f[None], 6), B)
        assert stack[i]["point"] == alone["point"], i
        assert np.array_equal(stack[i]["F"], alone["F"]), i


def test_start_returns_the_best_of_its_draws_solved_alone():
    """A seeded and an unseeded start each take the ``_better``-best of
    their 1 + hops kernels, the seed or a draw from the start's stream and
    then one draw per hop, each solved alone and judged, and of the seed as
    given; the search returns the better start's.  Here a hop's draw wins,
    so the oracle does not pass on a start's first kernel alone."""
    spec = binary_erasure_spec(EPS)
    targets, sizes = Targets(d1=0.0, d2=0.4, gamma=0.6), (3, 3)
    config = OptimizerConfig(restarts=2, max_iters=6, hops=3, cardinality_override=sizes, rng_seed=2)
    seed = appendixB_policy(ExampleCase("case3", EPS, 0.6))
    got = minimize_r1(spec, targets, config, seeds=[seed])
    ctx = _EvalContext(spec)
    solver, B = _Solver(ctx, targets), _identity_backward(spec, *sizes)
    shape = (len(spec.z_alpha), len(spec.a_alpha), sizes[0])
    seeded = _embed_seed(spec, seed, *sizes)
    want, won_at = None, None
    for index in range(config.restarts):
        stream = random.Random(f"{config.rng_seed} {index}")
        kernels = [seeded[0]] if index == 0 else []
        while len(kernels) < 1 + config.hops:
            rows = np.array([stream.gammavariate(_DRAW_ALPHA, 1.0) for _ in range(math.prod(shape))])
            rows = rows.reshape(shape[0], -1)
            kernels.append((rows / rows.sum(axis=1, keepdims=True)).reshape(shape))
        candidates = [_judge(ctx, targets, solver.solve(f[None], config.max_iters), B)[0] for f in kernels]
        if index == 0:
            candidates += _judge(ctx, targets, seeded[0][None], seeded[1])
        outcome, at = candidates[0], 0
        for k, cand in enumerate(candidates[1:], 1):
            if _better(cand, outcome):
                outcome, at = cand, k
        if want is None or _better(outcome, want):
            want, won_at = outcome, (index, at)
    assert 1 <= won_at[1] <= config.hops, won_at
    assert got.point == want["point"]
    assert np.array_equal(got.policy.forward.table, want["F"])
    assert np.array_equal(got.policy.backward.table, want["B"])


def test_judge_and_solver_share_one_bayes_rule():
    """Y has one letter, so node 1 observes Z and node 2 observes U.  Under
    the first kernel u0 pools z0 and z1, on which k0 and k1 tie exactly; u1
    sees z2 alone, whose k0 is the cheapest in finite terms but forbidden;
    u2 pools z3 and z4, which forbid every k between them, k1 with the least
    mass.  The second kernel splits u2 into z3's u2 and z4's u3.  The judge
    takes each observation's cheapest allowed k, +inf where none is left,
    and the solver prices its cells at the same choices: the earliest of a
    tie, the cheapest allowed k, else the least forbidden one, whose cells
    it marks forbidden where they carry forbidden mass."""
    x, y, a = (Alphabet(name, (name + "0",)) for name in "xya")
    z = Alphabet("z", tuple(f"z{i}" for i in range(5)))
    k = Alphabet("k", ("k0", "k1", "k2"))
    inf = np.inf
    metric = np.array([[0.25, 0.5, 1.0], [0.5, 0.25, 1.0], [inf, 0.75, 0.5], [0.25, inf, 0.75], [inf, 0.5, inf]])
    spec = ProblemSpec(
        mode="indirect", x_alpha=x, z_alpha=z, y_alpha=y, a_alpha=a, xhat1_alpha=k, xhat2_alpha=k,
        source=JointPmf((("x", x), ("z", z)), np.array([[0.25, 0.25, 0.125, 0.125, 0.25]])),
        vending=Kernel((a, x, z), (y,), np.ones((1, 1, 5, 1))),
        cost=np.zeros(1), d1=metric[None, None], d2=metric[None, None],
    )
    F = np.zeros((2, 5, 1, 4))
    for i, u_of_z in enumerate(((0, 0, 1, 2, 2), (0, 0, 1, 2, 3))):
        F[i, np.arange(5), 0, u_of_z] = 1.0
    ctx = _EvalContext(spec)
    pooled, split = ctx.evaluate(F, _identity_backward(spec, 4, 1))
    # node 1: each z's cheapest allowed k, k0 k1 k2 k0 k1
    assert pooled.d1 == split.d1 == 0.25 * 0.25 + 0.25 * 0.25 + 0.125 * 0.5 + 0.125 * 0.25 + 0.25 * 0.5
    # node 2: the tie, then k2, then nothing (pooled) or k0 and k1 (split)
    assert pooled.d2 == inf
    assert split.d2 == 0.25 * 0.25 + 0.25 * 0.5 + 0.125 * 0.5 + 0.125 * 0.25 + 0.25 * 0.5
    costs, forbidden = _Solver(ctx, Targets(d1=1.0, d2=1.0, gamma=0.0))._costs(F[..., None])
    assert np.array_equal(costs[:, 1], np.broadcast_to([[0.25], [0.25], [0.5], [0.25], [0.5]], (2, 5, 4)))
    # node 2's choices per u, the empty u3 of the first kernel taking k0
    choices = ((0, 2, 1, 0), (0, 2, 0, 1))
    want = np.where(np.isinf(metric[:, choices]), 0.0, metric[:, choices]).transpose(1, 0, 2)
    assert np.array_equal(costs[:, 2], want)
    assert np.array_equal(forbidden[:, :, 0, :, 0], np.isinf(metric[:, choices]).transpose(1, 0, 2))
    assert forbidden[0, 3, 0, 2, 0] and not forbidden[0, 4, 0, 2, 0]


def test_solver_prices_the_distortions_the_judge_reports():
    """With the backward kernel that relays Y, the solver's per-cell costs
    of each node, averaged over p(z) F, are the d1 and d2 the judge reports
    for every kernel of a stack, and the judge reports +inf exactly where
    the stack puts mass on a cell that the node's decoder forbids."""
    rng = np.random.default_rng(5150)
    modes = ("direct", "indirect", "heegard-berger")
    seen = {"finite": 0, "infinite": 0}
    for trial in range(300):
        mode = modes[trial % 3]
        spec = _random_spec(mode, rng, 3 if trial < 150 else 5)
        nu, nv, n = int(rng.integers(1, 5)), len(spec.y_alpha), int(rng.integers(1, 9))
        shape = _kernel_shapes(spec, nu, nv)[0]
        F = rng.dirichlet(np.full(math.prod(shape[1:]), 0.3), size=(n, shape[0]))
        if trial % 2:
            # zero the small entries so that forbidden cells can lose all mass
            F = np.where(F < np.minimum(0.1, F.max(axis=-1, keepdims=True)), 0.0, F)
            F /= F.sum(axis=-1, keepdims=True)
        F = F.reshape((n,) + shape)
        ctx = _EvalContext(spec)
        points = ctx.evaluate(F, _identity_backward(spec, nu, nv))
        solver = _Solver(ctx, Targets(d1=1.0, d2=1.0, gamma=1.0))
        F = F if mode == "heegard-berger" else F[..., None]
        mass = ctx.pz[:, None, None, None] * F
        costs = solver._costs(F)[0]
        for j, (key, (_, bad)) in enumerate(zip(("d1", "d2"), solver._decoders(F)), 1):
            priced = (mass.reshape(costs[:, j].shape) * costs[:, j]).sum(axis=(1, 2))
            bad = np.asarray(bad).reshape(np.shape(bad) + (1,) * (F.ndim - np.ndim(bad)))
            on_forbidden = (mass * bad).reshape(n, -1).sum(axis=1) > 0.0
            for i, point in enumerate(points):
                judged = getattr(point, key)
                assert np.isinf(judged) == on_forbidden[i], (trial, key, i)
                seen["infinite" if np.isinf(judged) else "finite"] += 1
                if np.isfinite(judged):
                    assert abs(priced[i] - judged) <= 1e-12, (trial, key, i, priced[i], judged)
    assert min(seen.values()) > 100, seen


def test_search_makes_one_solve(monkeypatch):
    """One search solves every kernel of every start in one stack."""
    stacks = []
    solve = _Solver.solve

    def spy(self, F, iters):
        stacks.append(len(F))
        return solve(self, F, iters)

    monkeypatch.setattr(_Solver, "solve", spy)
    spec = binary_erasure_spec(EPS)
    seed = appendixB_policy(ExampleCase("case2", EPS, 0.6))
    config = OptimizerConfig(restarts=3, max_iters=2, hops=2, cardinality_override=(3, 3))
    minimize_r1(spec, Targets(d1=0.0, d2=0.4, gamma=0.6), config, seeds=[seed])
    assert stacks == [9]


def _reference_dual(self, theta, costs, nu):
    """The dual objective at multipliers nu (..., J), and the Gibbs
    kernels (..., z, cells) it is taken at."""
    logits = theta - (nu[..., None, None] * costs).sum(axis=-3)
    top = logits.max(axis=-1, keepdims=True)
    mass = np.exp(logits - top)
    total = mass.sum(axis=-1, keepdims=True)
    g = -(self.pz * (top + np.log(total))[..., 0]).sum(axis=-1) - (nu * self.limits).sum(axis=-1)
    return g, mass / total


def _newton_step(self, theta, costs, nu):
    """The dual at nu, and the projected Newton step from nu, shortened to
    the cap."""
    g, P = _reference_dual(self, theta, costs, nu)
    mean = (P[:, None] * costs).sum(axis=-1)
    grad = (mean * self.pz).sum(axis=-1) - self.limits
    second = (P[:, None, None] * costs[:, :, None] * costs[:, None]).sum(axis=-1)
    hess = ((second - mean[:, :, None] * mean[:, None]) * self.pz).sum(axis=-1)
    free = ~(((nu <= 0.0) & (grad < 0.0)) | ((nu >= _NU_CAP) & (grad > 0.0)))
    system = np.where(free[:, :, None] & free[:, None], hess, 0.0)
    system += np.eye(nu.shape[1]) * np.where(free, 1e-12, 1.0)[:, :, None]
    step = np.linalg.solve(system, np.where(free, grad, 0.0)[..., None])[..., 0]
    # where the dual is flat the step is huge: shorten it to the cap
    step *= np.minimum(1.0, _NU_CAP / np.maximum(np.abs(step).max(axis=1), 1e-300))[:, None]
    return g, step


def _staged_step(self, theta, costs, nu):
    """One Newton step of every start by the staged rule: the full step
    where it raises the dual, else the best of ``_BACKTRACK[1:]`` where that
    raises it, else no move.  Returns the new multipliers and where the full
    step raised the dual."""
    g, step = _newton_step(self, theta, costs, nu)
    rows = np.arange(len(nu))
    full = np.clip(nu + step, 0.0, _NU_CAP)
    up = _reference_dual(self, theta, costs, full)[0] > g
    trials = np.clip(nu[:, None] + _BACKTRACK[1:, None] * step[:, None], 0.0, _NU_CAP)
    g_trials = _reference_dual(self, theta[:, None], costs[:, None], trials)[0]
    pick = g_trials.argmax(axis=1)
    shorter = np.where((g_trials[rows, pick] > g)[:, None], trials[rows, pick], nu)
    return np.where(up[:, None], full, shorter), up


def _best_of_12_step(self, theta, costs, nu):
    """One Newton step of every start by the former rule: the best of all
    of ``_BACKTRACK``'s sizes where it raises the dual, else no move.
    Returns the new multipliers and where that best is the full step."""
    g, step = _newton_step(self, theta, costs, nu)
    rows = np.arange(len(nu))
    trials = np.clip(nu[:, None] + _BACKTRACK[:, None] * step[:, None], 0.0, _NU_CAP)
    g_trials = _reference_dual(self, theta[:, None], costs[:, None], trials)[0]
    pick = g_trials.argmax(axis=1)
    return np.where((g_trials[rows, pick] > g)[:, None], trials[rows, pick], nu), pick == 0


def _reference_f_step(self, theta, costs, nu, steps=_NEWTON_STEPS):
    """``_Solver._f_step`` with no early stop: every start takes every
    staged Newton step, and the dual is taken afresh at each step's
    multipliers and once more at the last.  ``steps`` sets the number of
    steps."""
    for _ in range(steps):
        nu = _staged_step(self, theta, costs, nu)[0]
    return _reference_dual(self, theta, costs, nu)[1], nu


def _retire_steps(solver, theta, costs, nu):
    """Per start, the first Newton step that leaves its multipliers where
    they were, or ``_NEWTON_STEPS`` + 1 if every step moves them."""
    retire = np.full(len(nu), _NEWTON_STEPS + 1)
    for step in range(1, _NEWTON_STEPS + 1):
        after = _reference_f_step(solver, theta, costs, nu, 1)[1]
        retire[(after == nu).all(axis=1) & (retire > step)] = step
        nu = after
    return retire


def _f_step_inputs(spec, targets, rng):
    """Each (θ, costs, ν) that the F step meets in two iterations of a
    stack of four random starts: ν at zeros on the first, warm after; and
    each (θ, costs) once more with every ν at the cap."""
    solver = _Solver(_EvalContext(spec), targets)
    seen = []

    def record(theta, costs, nu):
        seen.append((theta, costs, nu))
        seen.append((theta, costs, np.full_like(nu, _NU_CAP)))
        return _Solver._f_step(solver, theta, costs, nu)

    solver._f_step = record
    shape = _kernel_shapes(spec, 3, 1)[0]
    rows = [rng.dirichlet(np.full(math.prod(shape[1:]), _DRAW_ALPHA), size=shape[0]) for _ in range(4)]
    solver.solve(np.stack(rows).reshape((4,) + shape), 2)
    del solver._f_step
    return solver, seen


def _f_step_problems():
    """Random specs in all three modes, and the erasure spec at the
    criterion-5 targets."""
    spec = binary_erasure_spec(EPS)
    problems = [(s, t) for _, s, t in battery()]
    return problems + [(spec, _criterion5_targets(tag, g)) for tag in ("case1", "case2", "case3") for g in (0.3, 0.6, 0.9)]


def test_f_step_matches_the_full_newton_loop():
    """The F step returns, bit for bit, the kernels and multipliers of six
    staged Newton steps and a final dual, on random specs in all three modes
    and on the erasure spec at the criterion-5 targets; the stacks include
    starts that retire at different steps, one at the first, and stacks
    where every start retires early."""
    rng = np.random.default_rng(2026)
    staggered = early = 0
    for spec, targets in _f_step_problems():
        solver, seen = _f_step_inputs(spec, targets, rng)
        for theta, costs, nu in seen:
            P, nu_out = solver._f_step(theta, costs, nu)
            want_P, want_nu = _reference_f_step(solver, theta, costs, nu)
            assert np.array_equal(P, want_P) and np.array_equal(nu_out, want_nu)
            retire = _retire_steps(solver, theta, costs, nu)
            staggered += retire.min() == 1 and len(set(retire)) > 1
            early += retire.max() < _NEWTON_STEPS
    assert staggered and early


def test_f_step_keeps_the_best_of_12_step_where_it_is_the_full_step(monkeypatch):
    """At every Newton step of the F step, run one step at a time, where
    the former rule (the best of all of ``_BACKTRACK``'s sizes) picks the
    full step, the F step returns its multipliers and kernels bit for bit;
    everywhere, it ends at a dual no lower than at the step's start.  The
    two rules part where the full step raised the dual and a shorter step
    raised it more, and both kinds of step occur here."""
    rng = np.random.default_rng(2026)
    inputs = [_f_step_inputs(spec, targets, rng) for spec, targets in _f_step_problems()]
    monkeypatch.setattr(region, "_NEWTON_STEPS", 1)
    agreed = parted = 0
    for solver, seen in inputs:
        for theta, costs, nu in seen:
            for _ in range(_NEWTON_STEPS):
                P, after = solver._f_step(theta, costs, nu)
                want, at_full = _best_of_12_step(solver, theta, costs, nu)
                assert np.array_equal(after[at_full], want[at_full])
                assert np.array_equal(P[at_full], _reference_dual(solver, theta, costs, want)[1][at_full])
                g_after, g_before = (_reference_dual(solver, theta, costs, v)[0] for v in (after, nu))
                assert (g_after >= g_before).all()
                agreed += at_full.sum()
                parted += (after != want).any(axis=1).sum()
                nu = after
    assert agreed and parted


def test_f_step_tries_shorter_sizes_only_where_the_full_step_fails(monkeypatch):
    """Each Newton step of the F step takes the dual at the full step of
    its live starts, shape (live, J), and then at the 11 shorter sizes of
    only the k starts whose full step did not raise it, shape (k, 11, J),
    with no second call when k is 0; the staged loop gives live and k."""
    rng = np.random.default_rng(7)
    spec = binary_erasure_spec(EPS)
    inputs = []
    for tag in ("case1", "case2", "case3"):
        for g in (0.3, 0.6, 0.9):
            solver, seen = _f_step_inputs(spec, _criterion5_targets(tag, g), rng)
            inputs += [(solver, *s) for s in seen]
    shapes = []
    dual = _Solver._dual

    def spy(self, theta, costs, nu):
        shapes.append(nu.shape)
        return dual(self, theta, costs, nu)

    monkeypatch.setattr(_Solver, "_dual", spy)
    skipped = partial = 0
    for solver, theta, costs, nu in inputs:
        n, J = nu.shape
        want, live, v = [(n, J)], np.arange(n), nu
        for _ in range(_NEWTON_STEPS):
            after, up = _staged_step(solver, theta, costs, v)
            k = int((~up[live]).sum())
            want.append((len(live), J))
            if k:
                want.append((k, len(_BACKTRACK) - 1, J))
            skipped += k == 0
            partial += 0 < k < len(live)
            live, v = live[(after[live] != v[live]).any(axis=1)], after
            if not len(live):
                break
        shapes.clear()
        solver._f_step(theta, costs, nu)
        assert shapes == want
    assert skipped and partial


def test_benchmark_search_config_stays_near_the_third_node_curve():
    """The benchmark's search config (8 restarts, 12 iterations, 4 hops,
    sizes (3, 3)) ends within 1e-3 of ``hb_case2_r1`` at seeds 0-4 at the
    two third-node points, 50 times tighter than the benchmark's 0.05, so
    a drift of the solver shows here before it fails an op."""
    spec = with_node3_erasure_metric(binary_erasure_spec(EPS))
    for gamma, d3 in ((0.6, 0.6), (0.9, 0.4)):
        targets = Targets(d1=0.0, d2=1.0, d3=d3, gamma=gamma)
        for seed in range(5):
            config = OptimizerConfig(restarts=8, max_iters=12, hops=4, cardinality_override=(3, 3), rng_seed=seed)
            result = minimize_r1(spec, targets, config)
            assert result.feasible, (gamma, d3, seed)
            assert result.point.r1 - hb_case2_r1(EPS, gamma, d3) <= 1e-3, (gamma, d3, seed)


def test_search_digest_is_pinned(monkeypatch, capsys):
    """``tools/search_digest.py`` prints the line recorded for seed 1 when
    the F step's Newton steps began trying the full step first: the whole
    optimize pass of the benchmark at that seed keeps its output bits."""
    # restores sys.path afterwards, with the entries the tool adds
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
    import search_digest

    search_digest.main(["1"])
    assert capsys.readouterr().out == "seed 1 misses 0 hb_gap 7.89e-05 digest aa8c13507c13dc73\n"


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
        sweep_gamma(spec, Targets(d1=0.0, d2=1.0), [0.6, 0.6])
    with pytest.raises(ValueError):
        sweep_gamma(spec, Targets(d1=0.0, d2=1.0, gamma=0.5), [0.3, 0.6])


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


def test_negative_rng_seed_is_rejected():
    with pytest.raises(ValueError, match="rng_seed"):
        OptimizerConfig(rng_seed=-1)
    OptimizerConfig(rng_seed=0)


def test_search_runs_in_process_without_numpy_random():
    """A search solves its starts in the calling process and draws them from
    stdlib streams, so it imports neither a process pool nor numpy.random."""
    code = (
        "import sys\n"
        "from vendingrd import OptimizerConfig, Targets, binary_erasure_spec, minimize_r1, with_node3_erasure_metric\n"
        "spec = with_node3_erasure_metric(binary_erasure_spec(0.2))\n"
        "config = OptimizerConfig(restarts=2, max_iters=2, hops=1, cardinality_override=(3, 3))\n"
        "assert minimize_r1(spec, Targets(d1=0.0, d2=1.0, d3=0.6, gamma=0.6), config).feasible\n"
        "print(sorted(m for m in ('numpy.random', 'multiprocessing') if m in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"
