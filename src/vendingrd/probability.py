"""Finite-alphabet probability tables and information measures.

Everything here works on dense numpy tables indexed by alphabet position.
All logarithms are base 2 and 0*log(0) is taken as 0, so entropies and
mutual informations come out in bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

PROB_TOL = 1e-12
ZERO_MASS = 1e-14


class TableError(ValueError):
    """A probability table failed validation (shape, sign, or normalization)."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite symbol set."""

    name: str
    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise TableError("alphabet name must be non-empty")
        if not self.symbols:
            raise TableError(f"alphabet {self.name!r} has no symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise TableError(f"alphabet {self.name!r} has repeated symbols")
        if any("," in s for s in self.symbols):
            raise TableError(f"alphabet {self.name!r} has a symbol with a comma, the codec's key separator")

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise TableError(f"symbol {symbol!r} not in alphabet {self.name!r}") from None


def _as_prob_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise TableError(f"{what}: expected shape {shape}, got {arr.shape}")
    # only min and max on the valid path: NaN fails every comparison
    if not 0.0 <= arr.min() <= arr.max() < math.inf:
        if not np.all(np.isfinite(arr)):
            raise TableError(f"{what}: non-finite entries")
        raise TableError(f"{what}: negative entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Kernel:
    """A conditional distribution p(outputs | inputs).

    The table has one axis per input alphabet followed by one axis per output
    alphabet, and every row (slice over the output axes) must sum to 1.
    """

    inputs: tuple[Alphabet, ...]
    outputs: tuple[Alphabet, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        if not self.outputs:
            raise TableError("kernel needs at least one output alphabet")
        shape = tuple(len(al) for al in self.inputs) + tuple(len(al) for al in self.outputs)
        name = "kernel " + self._signature()
        arr = _as_prob_array(self.table, shape, name)
        object.__setattr__(self, "table", arr)
        out_axes = tuple(range(len(self.inputs), arr.ndim))
        row_sums = np.atleast_1d(arr.sum(axis=out_axes))
        bad = np.abs(row_sums - 1.0) > PROB_TOL
        if bad.any():
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            row = ",".join(al.symbols[i] for al, i in zip(self.inputs, idx))
            raise TableError(f"{name}: row {row!r} sums to {float(row_sums[idx])!r}")

    def _signature(self) -> str:
        ins = ",".join(al.name for al in self.inputs)
        outs = ",".join(al.name for al in self.outputs)
        return f"p({outs}|{ins})"


@dataclass(frozen=True)
class JointPmf:
    """A joint distribution over named variables, stored as a dense table."""

    variables: tuple[tuple[str, Alphabet], ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        names = [name for name, _ in self.variables]
        if len(set(names)) != len(names):
            raise TableError(f"joint has repeated variable names: {names}")
        shape = tuple(len(al) for _, al in self.variables)
        arr = _as_prob_array(self.table, shape, f"joint over {tuple(names)}")
        object.__setattr__(self, "table", arr)
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise TableError(f"joint over {tuple(names)} has mass {total!r}, not 1")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    def axis(self, name: str) -> int:
        for i, (n, _) in enumerate(self.variables):
            if n == name:
                return i
        raise TableError(f"variable {name!r} not in joint over {self.names}")

    def alphabet(self, name: str) -> Alphabet:
        return self.variables[self.axis(name)][1]


def plog2p(p: np.ndarray) -> np.ndarray:
    """Elementwise p*log2(p) with the 0*log(0) = 0 convention."""
    p = np.asarray(p, dtype=float)
    safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, p * np.log2(safe), 0.0)


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable, on Python floats; p must lie in [0, 1]."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy argument {p!r} outside [0, 1]")
    q = 1.0 - p
    return -(p * math.log2(p) if p > 0.0 else 0.0) - (q * math.log2(q) if q > 0.0 else 0.0)


def _resolve(joint: JointPmf, names: Iterable[str]) -> tuple[int, ...]:
    return tuple(joint.axis(n) for n in names)


def marginalize(joint: JointPmf, keep: Sequence[str]) -> JointPmf:
    """Marginal joint over ``keep``, in the order the variables appear in ``joint``."""
    keep_axes = set(_resolve(joint, keep))
    drop = tuple(i for i in range(joint.table.ndim) if i not in keep_axes)
    variables = tuple(v for i, v in enumerate(joint.variables) if i in keep_axes)
    return JointPmf(variables, joint.table.sum(axis=drop))


def condition(joint: JointPmf, evidence: Mapping[str, str]) -> JointPmf:
    """Condition on exact values for some variables, renormalizing the rest."""
    sel: list = [slice(None)] * joint.table.ndim
    for name, symbol in evidence.items():
        ax = joint.axis(name)
        sel[ax] = joint.alphabet(name).index(symbol)
    sub = joint.table[tuple(sel)]
    mass = float(sub.sum())
    if mass < ZERO_MASS:
        raise TableError(f"conditioning event {dict(evidence)!r} has probability {mass!r}")
    variables = tuple(v for v in joint.variables if v[0] not in evidence)
    return JointPmf(variables, sub / mass)


def expectation(joint: JointPmf, values: np.ndarray, over: Sequence[str]) -> float:
    """E[g] for a table g indexed by the variables ``over`` (in that order).

    Infinite table entries are allowed: the result is +inf exactly when an
    infinite cell carries probability mass, so impossible-but-infinite cells
    do not poison the sum.
    """
    marg = marginalize(joint, over)
    perm = tuple(marg.names.index(n) for n in over)
    p = marg.table.transpose(perm)
    g = np.asarray(values, dtype=float)
    if g.shape != p.shape:
        raise TableError(f"expectation: value table shape {g.shape} != marginal shape {p.shape}")
    finite = np.isfinite(g)
    if float(p[~finite].sum()) > ZERO_MASS:
        return float("inf")
    return float((p[finite] * g[finite]).sum())


def entropy(joint: JointPmf, vars: Sequence[str]) -> float:
    """Joint entropy H(vars) in bits; H of the empty set is 0."""
    if not vars:
        return 0.0
    p = marginalize(joint, vars).table
    h = float(-plog2p(p).sum())
    return h if h > 0.0 else 0.0


def conditional_mutual_information(
    joint: JointPmf, left: Sequence[str], right: Sequence[str], given: Sequence[str] = ()
) -> float:
    """I(left; right | given) in bits by exact summation over the table.

    The three variable groups must be disjoint; tiny negative round-off is
    clamped to 0 so the result is always a valid information quantity.
    """
    lset, rset, gset = set(left), set(right), set(given)
    if not left or not right:
        raise TableError("conditional_mutual_information needs non-empty left and right sets")
    if lset & rset or lset & gset or rset & gset:
        raise TableError(
            f"variable groups overlap: left={sorted(lset)} right={sorted(rset)} given={sorted(gset)}"
        )
    for name in lset | rset | gset:
        joint.axis(name)
    lg = tuple(lset) + tuple(gset)
    rg = tuple(rset) + tuple(gset)
    lrg = tuple(lset) + tuple(rset) + tuple(gset)
    value = entropy(joint, lg) + entropy(joint, rg) - entropy(joint, lrg) - entropy(joint, tuple(gset))
    return value if value > 0.0 else 0.0


def product_joint(
    variables: Sequence[tuple[str, Alphabet]],
    factors: Sequence[tuple[np.ndarray, Sequence[str]]],
) -> JointPmf:
    """Assemble a joint as a product of factors, each indexed by named axes.

    Every factor is broadcast onto the full variable set and multiplied in.
    The factor list must describe a valid factorization (the result is
    validated as a probability table).
    """
    names = [name for name, _ in variables]
    shape = tuple(len(al) for _, al in variables)
    table = np.ones(shape)
    for arr, axes in factors:
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != len(axes):
            raise TableError(f"factor over {tuple(axes)} has {arr.ndim} axes")
        unknown = [n for n in axes if n not in names]
        if unknown:
            raise TableError(f"factor axis names {unknown} not among joint variables {names}")
        expand = [slice(None) if n in axes else None for n in names]
        order = tuple(list(axes).index(n) for n in names if n in axes)
        table = table * arr.transpose(order)[tuple(expand)]
    return JointPmf(tuple(variables), table)


def check_markov(
    joint: JointPmf,
    left: Sequence[str],
    mid: Sequence[str],
    right: Sequence[str],
    tol: float = 1e-10,
) -> tuple[bool, float]:
    """Test the chain left -- mid -- right on the joint.

    Returns (holds, max_violation) where the violation at a cell (l, m, r) is
    |p(l, r | m) - p(l | m) p(r | m)| * p(m); conditioning events with
    probability below 1e-14 are skipped.
    """
    for group, label in ((left, "left"), (mid, "mid"), (right, "right")):
        if not group:
            raise TableError(f"check_markov: empty {label} group")
    # the marginal over the three groups, summed as marginalize does
    axes = _resolve(joint, tuple(left) + tuple(mid) + tuple(right))
    kept = sorted(set(axes))
    drop = tuple(i for i in range(joint.table.ndim) if i not in kept)
    arr = joint.table.sum(axis=drop).transpose([kept.index(ax) for ax in axes])
    j, k = len(left), len(left) + len(mid)
    plmr = arr.reshape(math.prod(arr.shape[:j]), math.prod(arr.shape[j:k]), math.prod(arr.shape[k:]))
    pm = plmr.sum(axis=(0, 2))
    plm = plmr.sum(axis=2)
    pmr = plmr.sum(axis=0)
    keep = pm >= ZERO_MASS
    pm_safe = np.where(keep, pm, 1.0)
    resid = np.abs(plmr - plm[:, :, None] * pmr[None, :, :] / pm_safe[None, :, None])
    resid = np.where(keep[None, :, None], resid, 0.0)
    worst = float(resid.max()) if resid.size else 0.0
    return worst <= tol, worst
