from pathlib import Path

import numpy as np
import pytest

from vendingrd.closed_form import (
    ExampleCase,
    appendixB_policy,
    case1_r1,
    case2_r1,
    case3_r1,
    hb_abstention_cost,
    hb_rate_formula,
)
from vendingrd.model import (
    ProblemSpec,
    binary_erasure_spec,
    load_spec,
    save_spec,
    with_node3_erasure_metric,
)
from vendingrd.probability import (
    Alphabet,
    JointPmf,
    Kernel,
    TableError,
    check_markov,
    condition,
    conditional_mutual_information,
    expectation,
)
from vendingrd.region import (
    OptimizerConfig,
    Policy,
    OperatingPoint,
    Targets,
    assemble_joint,
    bayes_decoder,
    default_cardinalities,
    evaluate_point,
    load_policy,
    markov_chains,
    minimize_r1,
    policy_from_document,
    policy_to_document,
    random_policy,
    save_policy,
    _EvalContext,
)

EPS = 0.2


def _spec():
    return binary_erasure_spec(EPS)


def _hb_abstention_policy(spec, gamma, p1, p2, p3):
    z, a, y, w = spec.z_alpha, spec.a_alpha, spec.y_alpha, spec.xhat3_alpha
    u = Alphabet("u", ("u0",))
    q = (gamma - EPS) / (1.0 - EPS)
    f = np.zeros((3, 2, 1, 3))
    for zi in (0, 1):
        f[zi, 0, 0, 2] = (1.0 - q) * p2
        f[zi, 0, 0, 0] = (1.0 - q) * (1.0 - p2)
        f[zi, 1, 0, 2] = q * p3
        f[zi, 1, 0, 0] = q * (1.0 - p3)
    f[2, 1, 0, 2] = p1
    f[2, 1, 0, 1] = 1.0 - p1
    v = Alphabet("v", y.symbols)
    b = np.zeros((2, 1, 3, 3, 3))
    for yi in range(3):
        b[:, :, yi, :, yi] = 1.0
    return Policy(Kernel((z,), (a, u, w), f), Kernel((a, u, y, w), (v,), b))


def test_policy_shape_validation():
    spec = _spec()
    z, a, y = spec.z_alpha, spec.a_alpha, spec.y_alpha
    u = Alphabet("u", ("u0",))
    v = Alphabet("v", ("v0",))
    good_f = Kernel((z,), (a, u), np.ones((3, 2, 1)) / 2.0)
    good_b = Kernel((a, u, y), (v,), np.ones((2, 1, 3, 1)))
    Policy(good_f, good_b)
    with pytest.raises(TableError):
        Policy(good_f, Kernel((u, a, y), (v,), np.ones((1, 2, 3, 1))))
    with pytest.raises(TableError):
        Policy(Kernel((z, a), (u,), np.ones((3, 2, 1)) / 1.0), good_b)


def test_default_cardinalities():
    spec = _spec()
    nu, nv = default_cardinalities(spec)
    assert nu == 9
    assert nv == 16


def test_default_cardinalities_relay_a_large_y_alphabet():
    """|V| is capped at 16 but never falls below |Y|, so the search, which
    relays Y, runs at the default sizes on a 17-letter Y alphabet."""
    x, z, a = Alphabet("x", ("0", "1")), Alphabet("z", ("0", "1")), Alphabet("a", ("0",))
    y = Alphabet("y", tuple(f"y{i}" for i in range(17)))
    d = np.zeros((2, 17, 2, 2))
    spec = ProblemSpec(
        mode="indirect", x_alpha=x, z_alpha=z, y_alpha=y, a_alpha=a, xhat1_alpha=x, xhat2_alpha=x,
        source=JointPmf((("x", x), ("z", z)), np.full((2, 2), 0.25)),
        vending=Kernel((a, x, z), (y,), np.full((1, 2, 2, 17), 1.0 / 17)),
        cost=np.zeros(1), d1=d, d2=d,
    )
    assert default_cardinalities(spec) == (5, 17)
    config = OptimizerConfig(restarts=1, max_iters=1, hops=0)
    result = minimize_r1(spec, Targets(d1=0.0, d2=0.0, gamma=0.0), config)
    assert len(result.policy.v_alpha) == 17 and result.feasible


def test_assemble_joint_normalizes_and_marginalizes():
    spec = _spec()
    policy = appendixB_policy(ExampleCase("case1", EPS, 0.4))
    joint = assemble_joint(spec, policy)
    assert joint.table.sum() == pytest.approx(1.0, abs=1e-13)
    a_axis = joint.axis("a")
    pa = joint.table.sum(axis=tuple(i for i in range(joint.table.ndim) if i != a_axis))
    assert pa[1] == pytest.approx(0.4, abs=1e-13)


def test_markov_chains_hold_for_random_policies():
    spec = _spec()
    rng = np.random.default_rng(3)
    chains = markov_chains(spec)
    for _ in range(20):
        policy = random_policy(spec, 4, 3, rng)
        joint = assemble_joint(spec, policy)
        for left, mid, right in chains:
            ok, resid = check_markov(joint, left, mid, right, tol=1e-10)
            assert ok, resid


def test_markov_chains_hold_for_hb_policies():
    spec = with_node3_erasure_metric(_spec())
    rng = np.random.default_rng(5)
    chains = markov_chains(spec)
    for _ in range(10):
        policy = random_policy(spec, 3, 3, rng)
        joint = assemble_joint(spec, policy)
        for left, mid, right in chains:
            ok, resid = check_markov(joint, left, mid, right, tol=1e-10)
            assert ok, resid


def test_bayes_decoder_matches_hand_computation():
    spec = _spec()
    policy = appendixB_policy(ExampleCase("case2", EPS, 0.6))
    joint = assemble_joint(spec, policy)
    mapping, dist = bayes_decoder(joint, ["a", "u", "y"], spec.d2, spec.xhat2_alpha)
    # a=1 with a non-blank output: z is the output w.p. 2/3, erased w.p. 1/3
    assert mapping[("1", "u0", "0")] == "0"
    assert mapping[("1", "u0", "1")] == "1"
    # a=0 leaves z uniform over {0, 1}: a tie, broken toward the first symbol
    assert mapping[("0", "u0", "phi")] == "0"
    assert dist == pytest.approx(0.4, abs=1e-12)


def test_bayes_decoder_respects_forbidden_reconstructions():
    spec = with_node3_erasure_metric(_spec())
    p1, p2, p3 = 0.4, 0.7, 0.7
    policy = _hb_abstention_policy(spec, 0.6, p1, p2, p3)
    joint = assemble_joint(spec, policy)
    mapping, dist = bayes_decoder(joint, ["a", "u", "y", "xhat3"], spec.d3, spec.xhat3_alpha)
    for key, out in mapping.items():
        if key[3] != "*":
            # a committed indicator is the only finite choice left
            assert out == key[3]
        elif key[0] == "0":
            # no action means z was surely not erased: better than abstaining
            assert out == "0"
        else:
            # under a=1 both z kinds retain mass, so abstention is forced
            assert out == "*"
    assert dist == pytest.approx(EPS * p1 + (0.6 - EPS) * p3, abs=1e-12)


def test_evaluate_point_case1_frozen():
    spec = _spec()
    pt = evaluate_point(spec, appendixB_policy(ExampleCase("case1", EPS, 0.4)))
    assert pt.r1 == pytest.approx(1.1219280948873624, abs=1e-9)
    assert pt.r2 == pytest.approx(0.0, abs=1e-12)
    assert pt.d1 == pytest.approx(0.1, abs=1e-12)
    assert pt.d2 == pytest.approx(0.0, abs=1e-12)
    assert pt.gamma == pytest.approx(0.4, abs=1e-12)


def test_evaluate_point_case2_frozen():
    spec = _spec()
    pt = evaluate_point(spec, appendixB_policy(ExampleCase("case2", EPS, 0.6)))
    assert pt.r1 == pytest.approx(0.1709505944546686, abs=1e-9)
    assert pt.r2 == pytest.approx(0.2, abs=1e-9)
    assert pt.d1 == pytest.approx(0.0, abs=1e-12)
    assert pt.gamma == pytest.approx(0.6, abs=1e-12)


def test_evaluate_point_case3_frozen():
    spec = _spec()
    pt = evaluate_point(spec, appendixB_policy(ExampleCase("case3", EPS, 0.6)))
    assert pt.r1 == pytest.approx(1.1219280948873624, abs=1e-9)
    assert pt.r2 == pytest.approx(0.2, abs=1e-9)
    assert pt.d1 == pytest.approx(0.0, abs=1e-12)
    assert pt.d2 == pytest.approx(0.0, abs=1e-12)


def test_evaluate_point_tracks_closed_forms_across_budgets():
    spec = _spec()
    grid = [round(0.05 * k, 2) for k in range(0, 21)]
    for tag, fn in (("case1", case1_r1), ("case2", case2_r1), ("case3", case3_r1)):
        for g in grid:
            if tag != "case1" and g < EPS:
                continue
            pt = evaluate_point(spec, appendixB_policy(ExampleCase(tag, EPS, g)))
            assert pt.r1 == pytest.approx(fn(EPS, g), abs=1e-9), (tag, g)


def test_random_case1_structured_policies_never_beat_closed_form():
    spec = _spec()
    rng = np.random.default_rng(17)
    z, a, y = spec.z_alpha, spec.a_alpha, spec.y_alpha
    u = Alphabet("u", z.symbols)
    v = Alphabet("v", ("v0",))
    for _ in range(50):
        f = np.zeros((3, 2, 3))
        probs = rng.uniform(0.0, 1.0, size=3)
        for zi in range(3):
            f[zi, 1, zi] = probs[zi]
            f[zi, 0, zi] = 1.0 - probs[zi]
        policy = Policy(
            Kernel((z,), (a, u), f), Kernel((a, u, y), (v,), np.ones((2, 3, 3, 1)))
        )
        pt = evaluate_point(spec, policy)
        assert pt.r1 >= case1_r1(EPS, pt.gamma) - 1e-9


def test_random_case2_structured_policies_never_beat_closed_form():
    spec = _spec()
    rng = np.random.default_rng(23)
    z, a, y = spec.z_alpha, spec.a_alpha, spec.y_alpha
    u = Alphabet("u", ("u0",))
    v = Alphabet("v", y.symbols)
    b = np.zeros((2, 1, 3, 3))
    for yi in range(3):
        b[:, :, yi, yi] = 1.0
    for _ in range(50):
        f = np.zeros((3, 2, 1))
        probs = rng.uniform(0.0, 1.0, size=2)
        for zi in (0, 1):
            f[zi, 1, 0] = probs[zi]
            f[zi, 0, 0] = 1.0 - probs[zi]
        f[2, 1, 0] = 1.0
        policy = Policy(Kernel((z,), (a, u), f), Kernel((a, u, y), (v,), b))
        pt = evaluate_point(spec, policy)
        assert pt.gamma >= EPS - 1e-12
        assert pt.r1 >= case2_r1(EPS, pt.gamma) - 1e-9


def test_hb_evaluation_matches_abstention_formula():
    spec = with_node3_erasure_metric(_spec())
    rng = np.random.default_rng(7)
    for _ in range(10):
        p1, p2, p3 = rng.random(3)
        g = float(rng.uniform(EPS, 1.0))
        policy = _hb_abstention_policy(spec, g, p1, p2, p3)
        pt = evaluate_point(spec, policy)
        assert pt.r1 == pytest.approx(float(hb_rate_formula(EPS, g, p1, p2, p3)), abs=1e-9)
        assert pt.d3 == pytest.approx(float(hb_abstention_cost(EPS, g, p1, p2, p3)), abs=1e-12)


def test_hb_wrong_indicator_mass_makes_d3_infinite():
    spec = with_node3_erasure_metric(_spec())
    policy = _hb_abstention_policy(spec, 0.6, 1.0, 0.0, 0.0)
    f = policy.forward.table.copy()
    f[0, 0, 0, 0] -= 0.01
    f[0, 0, 0, 1] += 0.01
    bad = Policy(Kernel(policy.forward.inputs, policy.forward.outputs, f), policy.backward)
    pt = evaluate_point(spec, bad)
    assert np.isinf(pt.d3)
    assert not pt.feasible


def test_operating_point_validation_and_feasible_flag():
    with pytest.raises(ValueError):
        OperatingPoint(r1=-0.5, r2=0.0, d1=0.0, d2=0.0, gamma=0.0)
    pt = OperatingPoint(r1=0.1, r2=0.0, d1=np.inf, d2=0.0, gamma=0.3)
    assert not pt.feasible
    assert OperatingPoint(r1=0.1, r2=0.0, d1=0.0, d2=0.0, gamma=0.3).feasible


def test_targets_validation():
    with pytest.raises(ValueError):
        Targets(d1=-0.1, d2=0.0)
    with pytest.raises(ValueError):
        Targets(d1=0.0, d2=0.0, gamma=-0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            Targets(d1=bad, d2=0.0)
        with pytest.raises(ValueError):
            Targets(d1=0.0, d2=0.0, d3=bad, gamma=0.5)
        with pytest.raises(ValueError):
            Targets(d1=0.0, d2=0.0, gamma=bad)
    Targets(d1=0.0, d2=0.0, d3=0.2, gamma=0.5)


def test_evaluation_invariant_under_u_relabeling():
    spec = _spec()
    rng = np.random.default_rng(29)
    policy = random_policy(spec, 4, 3, rng)
    pt = evaluate_point(spec, policy)
    perm = [2, 0, 3, 1]
    f = policy.forward.table[:, :, perm]
    b = policy.backward.table[:, perm, :, :]
    u2 = Alphabet("u", tuple(policy.u_alpha.symbols[i] for i in perm))
    z, a, y = spec.z_alpha, spec.a_alpha, spec.y_alpha
    shuffled = Policy(
        Kernel((z,), (a, u2), f), Kernel((a, u2, y), policy.backward.outputs, b)
    )
    pt2 = evaluate_point(spec, shuffled)
    assert pt2.r1 == pytest.approx(pt.r1, abs=1e-12)
    assert pt2.r2 == pytest.approx(pt.r2, abs=1e-12)
    assert pt2.d1 == pytest.approx(pt.d1, abs=1e-12)
    assert pt2.d2 == pytest.approx(pt.d2, abs=1e-12)


def test_policy_round_trip_is_bit_exact(tmp_path):
    spec = _spec()
    rng = np.random.default_rng(31)
    policy = random_policy(spec, 5, 4, rng)
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    loaded = load_policy(path)
    assert np.array_equal(loaded.forward.table, policy.forward.table)
    assert np.array_equal(loaded.backward.table, policy.backward.table)
    assert loaded.u_alpha.symbols == policy.u_alpha.symbols


def test_policy_document_round_trip_hb():
    spec = with_node3_erasure_metric(_spec())
    policy = _hb_abstention_policy(spec, 0.6, 0.3, 0.2, 0.9)
    doc = policy_to_document(policy)
    back = policy_from_document(doc)
    assert np.array_equal(back.forward.table, policy.forward.table)
    assert back.hb


# Documents recorded under tests/data, with the builder each one was written
# from and the loader/saver pair that must reproduce it byte for byte.
GOLDEN_DOCUMENTS = {
    "spec_erasure.json": (_spec, load_spec, save_spec),
    "spec_erasure_node3.json": (lambda: with_node3_erasure_metric(_spec()), load_spec, save_spec),
    "policy_case3.json": (
        lambda: appendixB_policy(ExampleCase("case3", EPS, 0.6)), load_policy, save_policy
    ),
    "policy_node3.json": (
        lambda: _hb_abstention_policy(with_node3_erasure_metric(_spec()), 0.6, 0.3, 0.2, 0.9),
        load_policy,
        save_policy,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCUMENTS))
def test_documents_match_golden_files(name, tmp_path):
    build, load, save = GOLDEN_DOCUMENTS[name]
    path = Path(__file__).parent / "data" / name
    golden = path.read_bytes()
    save(load(path), tmp_path / "reloaded.json")
    assert (tmp_path / "reloaded.json").read_bytes() == golden
    save(build(), tmp_path / "built.json")
    assert (tmp_path / "built.json").read_bytes() == golden


def test_conditioned_joint_recovers_vending_row():
    spec = _spec()
    policy = appendixB_policy(ExampleCase("case3", EPS, 0.6))
    joint = assemble_joint(spec, policy)
    given = condition(joint, {"a": "1", "x": "1", "z": "1"})
    y_axis = given.axis("y")
    py = given.table.sum(axis=tuple(i for i in range(given.table.ndim) if i != y_axis))
    assert py[given.alphabet("y").index("1")] == pytest.approx(1.0, abs=1e-12)


def _random_spec(mode, rng, largest=3):
    """A random finite spec with some +inf metric cells, and 2 to ``largest``
    letters in each alphabet but A, which has 1 to ``largest`` - 1."""

    def alpha(name, n):
        return Alphabet(name, tuple(f"{name}{i}" for i in range(n)))

    def size():
        return int(rng.integers(2, largest + 1))

    x = alpha("x", size())
    z = Alphabet("z", x.symbols) if mode == "direct" else alpha("z", size())
    y = alpha("y", size())
    a = alpha("a", int(rng.integers(1, largest)))
    if mode == "direct":
        source = np.diag(rng.dirichlet(np.ones(len(x))))
    else:
        source = rng.dirichlet(np.ones(len(x) * len(z))).reshape(len(x), len(z))
    vending = rng.dirichlet(np.ones(len(y)), size=(len(a), len(x), len(z)))

    def metric(recon):
        shape = (len(x), len(y), len(z), len(recon))
        table = rng.random(shape)
        table[rng.random(shape) < rng.choice((0.0, 0.25))] = np.inf
        # every (x, y, z) cell keeps one finite reconstruction
        keep = rng.integers(len(recon), size=shape[:3])
        np.put_along_axis(table, keep[..., None], rng.random(shape[:3] + (1,)), axis=3)
        return table

    xhat1, xhat2 = alpha("xhat1", size()), alpha("xhat2", size())
    extra = {}
    if mode == "heegard-berger":
        xhat3 = alpha("xhat3", size())
        extra = {"xhat3_alpha": xhat3, "d3": metric(xhat3)}
    return ProblemSpec(
        mode=mode,
        x_alpha=x,
        z_alpha=z,
        y_alpha=y,
        a_alpha=a,
        xhat1_alpha=xhat1,
        xhat2_alpha=xhat2,
        source=JointPmf((("x", x), ("z", z)), source),
        vending=Kernel((a, x, z), (y,), vending),
        cost=rng.random(len(a)),
        d1=metric(xhat1),
        d2=metric(xhat2),
        **extra,
    )


def _sparsified(policy, rng):
    """Zero the small entries of both kernels so forbidden cells can lose all mass."""

    def snap(kernel):
        table = kernel.table
        out_axes = tuple(range(len(kernel.inputs), table.ndim))
        cut = np.minimum(0.2, table.max(axis=out_axes, keepdims=True))
        table = np.where(table < cut, 0.0, table)
        return Kernel(kernel.inputs, kernel.outputs, table / table.sum(axis=out_axes, keepdims=True))

    if rng.random() < 0.5:
        return policy
    return Policy(snap(policy.forward), snap(policy.backward))


def _close(got, want):
    if np.isinf(want):
        return np.isinf(got)
    return abs(got - want) <= 1e-12


def test_fast_evaluator_matches_generic_measures():
    """evaluate_point agrees with the joint-table measures on random specs.

    Node 1 decodes from (Z, V), node 2 from (U, Y); d3 is the expected
    third-node metric of the forward kernel's reconstruction W.
    """
    rng = np.random.default_rng(2024)
    modes = ("direct", "indirect", "heegard-berger")
    for trial in range(300):
        mode = modes[trial % 3]
        spec = _random_spec(mode, rng)
        policy = _sparsified(
            random_policy(spec, int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng), rng
        )
        pt = evaluate_point(spec, policy)
        joint = assemble_joint(spec, policy)
        w = ["xhat3"] if mode == "heegard-berger" else []
        want = {
            "r1": conditional_mutual_information(joint, ["z"], ["a"] + w)
            + conditional_mutual_information(joint, ["z"], ["u"], ["a", "y"] + w),
            "r2": conditional_mutual_information(joint, ["y"], ["v"], ["z", "a", "u"] + w),
            "d1": bayes_decoder(joint, ["z", "v"], spec.d1, spec.xhat1_alpha)[1],
            "d2": bayes_decoder(joint, ["u", "y"], spec.d2, spec.xhat2_alpha)[1],
            "gamma": expectation(joint, spec.cost, ["a"]),
        }
        if w:
            want["d3"] = expectation(joint, spec.d3, ["x", "y", "z", "xhat3"])
        else:
            assert pt.d3 is None
        for key, value in want.items():
            assert _close(getattr(pt, key), value), (trial, mode, key, getattr(pt, key), value)


def test_stacked_evaluation_matches_single():
    """A stack of policies scores each one exactly as a stack of one does.

    The search scores its probes as stacks, so its output must not depend
    on how many policies share a call: every point is compared with ==.
    """
    rng = np.random.default_rng(77)
    modes = ("direct", "indirect", "heegard-berger")
    # 300 small stacks, then large ones of 432 third-node and 1152 indirect
    # policies
    trials = [(modes[t % 3], None) for t in range(300)]
    trials += [("heegard-berger", 432), ("indirect", 1152)] * 2
    for trial, (mode, size) in enumerate(trials):
        spec = _random_spec(mode, rng)
        ctx = _EvalContext(spec)
        nu, nv, n = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 21))
        if size is not None:
            nu, nv, n = 3, 3, size
        policies = [_sparsified(random_policy(spec, nu, nv, rng), rng) for _ in range(n)]
        F = np.stack([p.forward.table for p in policies])
        # the stack shares one backward kernel
        B = policies[0].backward.table
        got = ctx.evaluate(F, B)
        want = [ctx.evaluate(f[None], B)[0] for f in F]
        assert got == want, trial


def test_evaluator_output_is_pinned():
    """``evaluate_point`` keeps its output bits on random specs.

    A SHA-256 over the ``repr`` of every ``OperatingPoint`` field of 300
    fixed-seed draws, recorded when d3 became one einsum over the stack, so
    a refactor of the evaluator can show that it moved no bit.
    """
    import hashlib

    rng = np.random.default_rng(4441)
    modes = ("direct", "indirect", "heegard-berger")
    digest, infinite = hashlib.sha256(), {"d1": 0, "d2": 0, "d3": 0}
    for trial in range(300):
        spec = _random_spec(modes[trial % 3], rng)
        nu, nv = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        point = evaluate_point(spec, _sparsified(random_policy(spec, nu, nv, rng), rng))
        fields = (point.r1, point.r2, point.d1, point.d2, point.gamma, point.d3)
        digest.update(repr(fields).encode())
        for key in infinite:
            infinite[key] += getattr(point, key) == np.inf
    assert all(infinite.values()), infinite
    assert digest.hexdigest()[:16] == "3f6c47222706b578"
