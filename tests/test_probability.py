import numpy as np
import pytest

from vendingrd.probability import (
    Alphabet,
    JointPmf,
    Kernel,
    TableError,
    binary_entropy,
    check_markov,
    condition,
    conditional_mutual_information,
    entropy,
    expectation,
    marginalize,
    plog2p,
    product_joint,
)

B = Alphabet("b", ("0", "1"))
T = Alphabet("t", ("0", "1", "2"))


def random_joint(rng, sizes=(2, 3, 2)):
    alphas = [Alphabet(f"v{i}", tuple(str(s) for s in range(n))) for i, n in enumerate(sizes)]
    table = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
    return JointPmf(tuple((al.name, al) for al in alphas), table)


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.2) == pytest.approx(0.7219280948873623, abs=1e-12)
    assert binary_entropy(1 / 3) == pytest.approx(0.9182958340544896, abs=1e-12)


@pytest.mark.parametrize("p", [-0.1, 1.1, 2.0, float("nan"), float("inf"), float("-inf")])
def test_binary_entropy_domain(p):
    with pytest.raises(ValueError):
        binary_entropy(p)


def test_binary_entropy_matches_the_array_path():
    """The scalar entropy on Python floats agrees with plog2p, the array
    primitive, to within two ulps of 1 bit."""
    draws = np.random.default_rng(3).random(10_000)
    for p in np.concatenate([np.linspace(0.0, 1.0, 10_000), draws]):
        h = binary_entropy(p)
        assert type(h) is float
        assert abs(h - float(-plog2p(p) - plog2p(1.0 - p))) <= 4.5e-16, p
    assert (binary_entropy(0.0), binary_entropy(1.0), binary_entropy(0.5)) == (0.0, 0.0, 1.0)
    assert all(np.isfinite(binary_entropy(p)) for p in (5e-324, 1.0 - 2.0**-53))


def test_alphabet_validation():
    with pytest.raises(TableError):
        Alphabet("x", ("0", "0"))
    with pytest.raises(TableError):
        Alphabet("x", ())
    assert B.index("1") == 1
    with pytest.raises(TableError):
        B.index("2")


def test_kernel_row_stochastic():
    Kernel((B,), (T,), [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    with pytest.raises(TableError):
        Kernel((B,), (T,), [[0.2, 0.3, 0.4], [1.0, 0.0, 0.0]])


def test_joint_mass_check():
    with pytest.raises(TableError):
        JointPmf((("b", B),), np.array([0.5, 0.6]))
    with pytest.raises(TableError):
        JointPmf((("b", B), ("b", B)), np.full((2, 2), 0.25))


def test_entropy_of_uniform_and_marginals():
    j = JointPmf((("b", B), ("t", T)), np.full((2, 3), 1 / 6))
    assert entropy(j, ["b", "t"]) == pytest.approx(np.log2(6), abs=1e-12)
    assert entropy(j, ["b"]) == pytest.approx(1.0, abs=1e-12)
    assert entropy(j, ["t"]) == pytest.approx(np.log2(3), abs=1e-12)
    assert entropy(j, []) == 0.0
    m = marginalize(j, ["t"])
    assert m.names == ("t",)
    assert np.allclose(m.table, 1 / 3)


def test_copied_bit_has_one_bit_of_information():
    table = np.array([[0.5, 0.0], [0.0, 0.5]])
    j = JointPmf((("a", B), ("c", B)), table)
    assert conditional_mutual_information(j, ["a"], ["c"]) == pytest.approx(1.0, abs=1e-12)


def test_cmi_rejects_overlapping_groups():
    rng = np.random.default_rng(0)
    j = random_joint(rng)
    with pytest.raises(TableError):
        conditional_mutual_information(j, ["v0"], ["v0"])
    with pytest.raises(TableError):
        conditional_mutual_information(j, ["v0"], ["v1"], ["v1"])
    with pytest.raises(TableError):
        conditional_mutual_information(j, [], ["v1"])


@pytest.mark.parametrize("seed", range(30))
def test_chain_rule_and_nonnegativity(seed):
    rng = np.random.default_rng(seed)
    j = random_joint(rng, sizes=(2, 3, 2, 2))
    lhs = conditional_mutual_information(j, ["v0"], ["v1", "v2"])
    rhs = conditional_mutual_information(j, ["v0"], ["v1"]) + conditional_mutual_information(
        j, ["v0"], ["v2"], ["v1"]
    )
    assert lhs == pytest.approx(rhs, abs=1e-10)
    for groups in ((["v0"], ["v1"], []), (["v0"], ["v2"], ["v1", "v3"])):
        assert conditional_mutual_information(j, *groups) >= 0.0


@pytest.mark.parametrize("seed", range(10))
def test_relabeling_invariance(seed):
    rng = np.random.default_rng(seed)
    j = random_joint(rng, sizes=(3, 3, 2))
    perm = rng.permutation(3)
    al = j.variables[0][1]
    relabeled = Alphabet(al.name, tuple(al.symbols[i] for i in perm))
    j2 = JointPmf(
        (("v0", relabeled),) + j.variables[1:],
        j.table[perm, :, :],
    )
    assert entropy(j2, ["v0", "v1"]) == pytest.approx(entropy(j, ["v0", "v1"]), abs=1e-12)
    assert conditional_mutual_information(j2, ["v0"], ["v1"], ["v2"]) == pytest.approx(
        conditional_mutual_information(j, ["v0"], ["v1"], ["v2"]), abs=1e-12
    )


def test_condition_and_expectation():
    table = np.array([[0.1, 0.2], [0.3, 0.4]])
    j = JointPmf((("a", B), ("c", B)), table)
    c = condition(j, {"a": "1"})
    assert c.names == ("c",)
    assert np.allclose(c.table, [3 / 7, 4 / 7])
    with pytest.raises(TableError):
        condition(JointPmf((("a", B), ("c", B)), np.array([[0.0, 0.0], [0.5, 0.5]])), {"a": "0"})
    vals = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert expectation(j, vals, ["a", "c"]) == pytest.approx(0.2 + 0.6 + 1.2, abs=1e-12)
    assert expectation(j, vals.T, ["c", "a"]) == pytest.approx(0.2 + 0.6 + 1.2, abs=1e-12)


def test_expectation_infinite_cells():
    table = np.array([[0.5, 0.5], [0.0, 0.0]])
    j = JointPmf((("a", B), ("c", B)), table)
    vals = np.array([[0.0, 1.0], [np.inf, np.inf]])
    assert expectation(j, vals, ["a", "c"]) == pytest.approx(0.5, abs=1e-12)
    vals2 = np.array([[0.0, np.inf], [0.0, 0.0]])
    assert expectation(j, vals2, ["a", "c"]) == np.inf


def test_check_markov_detects_product_and_coupling():
    pa = np.array([0.3, 0.7])
    pb = np.array([0.6, 0.4])
    pm = np.array([0.5, 0.5])
    indep = pa[:, None, None] * pm[None, :, None] * pb[None, None, :]
    j = JointPmf((("a", B), ("m", B), ("c", B)), indep)
    ok, viol = check_markov(j, ["a"], ["m"], ["c"])
    assert ok and viol < 1e-15

    coupled = np.zeros((2, 2, 2))
    coupled[0, 0, 0] = coupled[1, 0, 1] = 0.25
    coupled[0, 1, 0] = coupled[1, 1, 1] = 0.25
    j2 = JointPmf((("a", B), ("m", B), ("c", B)), coupled)
    ok2, viol2 = check_markov(j2, ["a"], ["m"], ["c"])
    assert not ok2
    assert viol2 == pytest.approx(0.125, abs=1e-12)


def test_check_markov_skips_null_mid_values():
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = table[1, 0, 1] = 0.5
    j = JointPmf((("a", B), ("m", B), ("c", B)), table)
    ok, _ = check_markov(j, ["a"], ["m"], ["c"])
    assert not ok
    table2 = np.zeros((2, 2, 2))
    table2[:, 0, :] = np.array([[0.3, 0.3], [0.2, 0.2]])
    j2 = JointPmf((("a", B), ("m", B), ("c", B)), table2)
    ok2, viol2 = check_markov(j2, ["a"], ["m"], ["c"])
    assert ok2 and viol2 < 1e-12


def _markov_via_marginalize(joint, left, mid, right, tol=1e-10):
    """check_markov as written on marginalize and the alphabet sizes."""
    marg = marginalize(joint, tuple(left) + tuple(mid) + tuple(right))
    order = tuple(marg.names.index(n) for n in tuple(left) + tuple(mid) + tuple(right))
    sizes = [int(np.prod([len(joint.alphabet(n)) for n in g])) for g in (left, mid, right)]
    plmr = marg.table.transpose(order).reshape(sizes)
    pm = plmr.sum(axis=(0, 2))
    plm = plmr.sum(axis=2)
    pmr = plmr.sum(axis=0)
    keep = pm >= 1e-14
    pm_safe = np.where(keep, pm, 1.0)
    resid = np.abs(plmr - plm[:, :, None] * pmr[None, :, :] / pm_safe[None, :, None])
    worst = float(np.where(keep[None, :, None], resid, 0.0).max())
    return worst <= tol, worst


def test_check_markov_matches_marginalize_formula_bit_for_bit():
    rng = np.random.default_rng(7)
    names = ("v0", "v1", "v2", "v3", "v4")
    chains = [
        (["v0"], ["v1"], ["v2"]),
        (["v2"], ["v0", "v3"], ["v1"]),
        (["v4", "v1"], ["v3"], ["v0"]),
        (["v3"], ["v2", "v4", "v0"], ["v1"]),
    ]
    for trial in range(40):
        joint = random_joint(rng, sizes=(2, 3, 2, 3, 2))
        if trial % 2:
            # zero the mass of some mid values: those conditioning events are skipped
            table = joint.table.copy()
            table[:, 1] = 0.0
            table[..., 0, :] = 0.0
            joint = JointPmf(joint.variables, table / table.sum())
        assert joint.names == names
        for left, mid, right in chains:
            ok, worst = check_markov(joint, left, mid, right)
            want_ok, want = _markov_via_marginalize(joint, left, mid, right)
            assert ok == want_ok and worst.hex() == want.hex()


def test_check_markov_rejects_unknown_variables():
    j = random_joint(np.random.default_rng(3))
    with pytest.raises(TableError, match="'w' not in joint"):
        check_markov(j, ["v0"], ["w"], ["v2"])


def test_product_joint_builds_factorization():
    pz = np.array([0.2, 0.8])
    k = np.array([[0.9, 0.1], [0.4, 0.6]])
    j = product_joint((("z", B), ("y", B)), [(pz, ["z"]), (k, ["z", "y"])])
    assert np.allclose(j.table, pz[:, None] * k)
    with pytest.raises(TableError):
        product_joint((("z", B),), [(pz, ["w"])])


@pytest.mark.parametrize(
    "cells, message",
    [
        ([[np.nan, 1.0, 0.0], [-1.0, 2.0, 0.0]], "non-finite entries"),
        ([[-np.inf, 1.0, 0.0], [1.0, 0.0, 0.0]], "non-finite entries"),
        ([[np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]], "non-finite entries"),
        ([[-0.5, 1.5, 0.0], [1.0, 0.0, 0.0]], "negative entries"),
    ],
)
def test_table_checks_name_the_first_failure(cells, message):
    """Non-finite entries are reported before negative ones."""
    with pytest.raises(TableError) as err:
        Kernel((B,), (T,), cells)
    assert str(err.value) == f"kernel p(t|b): {message}"
