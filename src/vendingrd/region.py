"""Operating points, policy evaluation, and heuristic rate minimization.

A policy is a pair of conditional kernels: the forward side picks the action
and the index sent ahead of the channel use, p(a, u | z) (plus the third
node's reconstruction in heegard-berger mode), and the backward side picks
the reply index, p(v | a, u, y[, xhat3]).  ``evaluate_point`` turns a policy
into the rate pair it earns, the expected action cost and the distortions:
node 1 decodes from (Z, V) and node 2 from (U, Y), each with the Bayes-optimal
deterministic decoder, and d3 is the expected third-node metric of the
reconstruction W = Xhat3 that the forward kernel draws.  One evaluator serves
all three modes: a spec without a third node is evaluated as the third-node
case with a one-letter W.  ``minimize_r1`` searches policy space for the
smallest forward rate meeting distortion and cost targets.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import (
    MODES,
    ProblemSpec,
    SpecFormatError,
    kernel_from_rows,
    kernel_to_rows,
    read_alphabets,
    read_json,
    require_field,
)
from .probability import Alphabet, JointPmf, Kernel, TableError, product_joint

FEASIBILITY_TOL = 1e-7


@dataclass(frozen=True)
class Policy:
    """Forward and backward kernels of one coding strategy."""

    forward: Kernel
    backward: Kernel

    def __post_init__(self) -> None:
        n_out = len(self.forward.outputs)
        if len(self.forward.inputs) != 1 or n_out not in (2, 3):
            raise TableError("policy forward kernel must map z to (a, u) or (a, u, xhat3)")
        expected_back = (self.forward.outputs[0], self.forward.outputs[1])
        if len(self.backward.inputs) != n_out + 1 or len(self.backward.outputs) != 1:
            raise TableError("policy backward kernel must map (a, u, y[, xhat3]) to v")
        if self.backward.inputs[:2] != expected_back:
            raise TableError("policy backward kernel must condition on the forward (a, u) alphabets")
        if n_out == 3 and self.backward.inputs[3] != self.forward.outputs[2]:
            raise TableError("policy backward kernel must condition on the forward xhat3 alphabet")

    @property
    def z_alpha(self) -> Alphabet:
        return self.forward.inputs[0]

    @property
    def a_alpha(self) -> Alphabet:
        return self.forward.outputs[0]

    @property
    def u_alpha(self) -> Alphabet:
        return self.forward.outputs[1]

    @property
    def y_alpha(self) -> Alphabet:
        return self.backward.inputs[2]

    @property
    def v_alpha(self) -> Alphabet:
        return self.backward.outputs[0]

    @property
    def hb(self) -> bool:
        return len(self.forward.outputs) == 3


@dataclass(frozen=True)
class OperatingPoint:
    """Rates, Bayes distortions, and expected action cost of one policy."""

    r1: float
    r2: float
    d1: float
    d2: float
    gamma: float
    d3: float | None = None

    def __post_init__(self) -> None:
        if self.r1 < -1e-9 or self.r2 < -1e-9:
            raise ValueError(f"negative rate in operating point: r1={self.r1}, r2={self.r2}")
        if self.gamma < -1e-12:
            raise ValueError(f"negative action cost {self.gamma}")

    @property
    def feasible(self) -> bool:
        """False when some distortion average touched a forbidden (+inf) cell."""
        values = [self.d1, self.d2] + ([] if self.d3 is None else [self.d3])
        return all(np.isfinite(v) for v in values)


@dataclass(frozen=True)
class Targets:
    """Constraint levels for the search: distortions and action-cost budget."""

    d1: float
    d2: float
    d3: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        levels = [self.d1, self.d2] + [v for v in (self.d3, self.gamma) if v is not None]
        if not all(math.isfinite(v) for v in levels):
            raise ValueError(f"targets must be finite, got {self}")
        if self.d1 < 0.0 or self.d2 < 0.0 or (self.d3 is not None and self.d3 < 0.0):
            raise ValueError("distortion targets must be nonnegative")
        if self.gamma is not None and self.gamma < 0.0:
            raise ValueError("cost budget must be nonnegative")


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of ``minimize_r1``.

    ``restarts`` is the number of solver starts; ``hops`` the extra fresh
    draws per start, all solved in the calling process as one stack;
    ``max_iters`` the iterations of one solve; ``rng_seed``, a nonnegative
    integer, keys every start's stdlib stream with the start's index;
    ``cardinality_override`` sets (|U|, |V|) in place of
    ``default_cardinalities``.
    """

    restarts: int = 8
    max_iters: int = 40
    rng_seed: int = 0
    hops: int = 2
    cardinality_override: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.hops < 0:
            raise ValueError("hops must be nonnegative")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be nonnegative, got {self.rng_seed}")
        if self.cardinality_override is not None:
            nu, nv = self.cardinality_override
            if nu < 1 or nv < 1:
                raise ValueError("cardinality override sizes must be positive")


@dataclass(frozen=True)
class MinimizeResult:
    """Best policy found by minimize_r1 with its constraint residuals."""

    point: OperatingPoint
    policy: Policy
    residuals: dict
    feasible: bool


@dataclass(frozen=True)
class SweepEntry:
    gamma: float
    result: MinimizeResult


def aux_alphabet(prefix: str, size: int) -> Alphabet:
    return Alphabet(prefix, tuple(f"{prefix}{i}" for i in range(size)))


def default_cardinalities(spec: ProblemSpec) -> tuple[int, int]:
    """Index-set sizes |U| = |Z||A|+3 and |V| = |U||Y||A|+1, with |V| capped
    at 16 but never below |Y|, the least |V| that relays Y."""
    nu = len(spec.z_alpha) * len(spec.a_alpha) + 3
    ny = len(spec.y_alpha)
    return nu, max(min(nu * ny * len(spec.a_alpha) + 1, 16), ny)


def random_policy(spec: ProblemSpec, nu: int, nv: int, rng: np.random.Generator) -> Policy:
    """A fully random policy with Dirichlet(1) rows at the given index sizes."""
    f_shape, b_shape = _kernel_shapes(spec, nu, nv)
    f_table = rng.dirichlet(np.ones(int(np.prod(f_shape[1:]))), size=f_shape[0]).reshape(f_shape)
    b_table = rng.dirichlet(np.ones(nv), size=int(np.prod(b_shape[:-1]))).reshape(b_shape)
    return _policy_from_arrays(spec, f_table, b_table)


def _kernel_alphabets(spec: ProblemSpec, nu: int, nv: int) -> tuple[tuple, tuple]:
    """The forward kernel's outputs (a, u[, xhat3]) and the backward kernel's
    axes (a, u, y[, xhat3], v) for the spec at index sizes (nu, nv)."""
    w = (spec.xhat3_alpha,) if spec.mode == "heegard-berger" else ()
    u = aux_alphabet("u", nu)
    return (spec.a_alpha, u) + w, (spec.a_alpha, u, spec.y_alpha) + w + (aux_alphabet("v", nv),)


def _kernel_shapes(spec: ProblemSpec, nu: int, nv: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    fwd, back = _kernel_alphabets(spec, nu, nv)
    return (len(spec.z_alpha),) + tuple(map(len, fwd)), tuple(map(len, back))


def _identity_backward(spec, nu, nv):
    """The backward kernel that relays Y verbatim, padded to nv letters; the
    solver's only backward kernel, so it needs nv >= |Y|.

    When node 1 decodes from (Z, A, U, V), as in the paper's protocol, this
    attains the smallest d1 for any forward kernel: every other backward
    choice hands the decoder a garbling of (A, U, Y), and node 1 knows (A, U).
    The evaluator decodes node 1 from (Z, V) alone, where a V that also
    carries A can do better.
    """
    ny = len(spec.y_alpha.symbols)
    shape = _kernel_shapes(spec, nu, nv)[1]
    eye = np.zeros((ny, nv))
    eye[np.arange(ny), np.arange(ny)] = 1.0
    expand = (1, 1, ny) + (1,) * (len(shape) - 4) + (nv,)
    return np.broadcast_to(eye.reshape(expand), shape).copy()


def _policy_from_arrays(spec: ProblemSpec, f_table, b_table) -> Policy:
    fwd, back = _kernel_alphabets(spec, f_table.shape[2], b_table.shape[-1])
    return Policy(
        forward=Kernel((spec.z_alpha,), fwd, f_table),
        backward=Kernel(back[:-1], back[-1:], b_table),
    )


def _check_compatible(spec: ProblemSpec, policy: Policy) -> None:
    hb = spec.mode == "heegard-berger"
    if policy.hb != hb:
        raise TableError(f"policy shape does not match spec mode {spec.mode!r}")
    pairs = [
        ("z", policy.z_alpha, spec.z_alpha),
        ("a", policy.a_alpha, spec.a_alpha),
        ("y", policy.y_alpha, spec.y_alpha),
    ]
    if hb:
        pairs.append(("xhat3", policy.forward.outputs[2], spec.xhat3_alpha))
    for name, got, want in pairs:
        if got.symbols != want.symbols:
            raise TableError(f"policy {name} alphabet {got.symbols} != spec {want.symbols}")


def assemble_joint(spec: ProblemSpec, policy: Policy) -> JointPmf:
    """The joint law of (X, Z, A, U[, Xhat3], Y, V) under the spec and policy."""
    _check_compatible(spec, policy)
    hb = policy.hb
    variables = [
        ("x", spec.x_alpha),
        ("z", spec.z_alpha),
        ("a", spec.a_alpha),
        ("u", policy.u_alpha),
    ]
    fwd_axes = ["z", "a", "u"]
    back_axes = ["a", "u", "y"]
    if hb:
        variables.append(("xhat3", spec.xhat3_alpha))
        fwd_axes.append("xhat3")
        back_axes.append("xhat3")
    variables += [("y", spec.y_alpha), ("v", policy.v_alpha)]
    factors = [
        (spec.source.table, ["x", "z"]),
        (policy.forward.table, fwd_axes),
        (spec.vending.table, ["a", "x", "z", "y"]),
        (policy.backward.table, back_axes + ["v"]),
    ]
    return product_joint(tuple(variables), factors)


def markov_chains(spec: ProblemSpec) -> list[tuple[list, list, list]]:
    """The conditional-independence chains the factorization must satisfy."""
    if spec.mode == "heegard-berger":
        return [
            (["u", "xhat3"], ["z", "a"], ["y"]),
            (["v"], ["a", "u", "y", "xhat3"], ["z"]),
        ]
    return [(["u"], ["z", "a"], ["y"]), (["v"], ["a", "u", "y"], ["x"])]


def bayes_decoder(
    joint: JointPmf,
    observed: Sequence[str],
    metric: np.ndarray,
    recon: Alphabet,
) -> tuple[dict, float]:
    """Optimal deterministic decoder from the observed variables.

    Returns the decoding map {observed symbols -> reconstruction symbol} and
    the distortion it achieves.  Ties pick the earliest reconstruction symbol;
    observation tuples with zero probability are left out of the map.  The
    achieved distortion is +inf when some positive-probability observation
    only has forbidden reconstructions.
    """
    from .probability import marginalize

    obs = tuple(observed)
    uniq = tuple(dict.fromkeys(("x", "y", "z") + obs))
    marg = marginalize(joint, uniq)
    p = marg.table.transpose(tuple(marg.names.index(n) for n in uniq))
    # give every observed variable its own trailing axis; the indicator copy
    # keeps observations that are themselves x, y, or z consistent
    for name in obs:
        src = uniq.index(name)
        k = p.shape[src]
        shape = [1] * (p.ndim + 1)
        shape[src] = k
        shape[-1] = k
        p = p[..., None] * np.eye(k).reshape(shape)
    p = p.sum(axis=tuple(range(3, len(uniq))))
    obs_sizes = p.shape[3:]
    p2 = p.reshape(p.shape[0], p.shape[1], p.shape[2], -1)
    metric = np.asarray(metric, dtype=float)
    finite = np.isfinite(metric)
    w_fin = np.einsum("xyzo,xyzk->ok", p2, np.where(finite, metric, 0.0))
    w_inf = np.einsum("xyzo,xyzk->ok", p2, (~finite).astype(float))
    w = np.where(w_inf > 0.0, np.inf, w_fin)
    p_obs = p2.sum(axis=(0, 1, 2))
    choice = np.argmin(w, axis=1)
    total = float(np.where(p_obs > 0.0, w[np.arange(w.shape[0]), choice], 0.0).sum())
    mapping = {}
    alphas = [joint.alphabet(n) for n in obs]
    for flat in np.nonzero(p_obs > 0.0)[0]:
        idx = np.unravel_index(flat, obs_sizes)
        key = tuple(al.symbols[i] for al, i in zip(alphas, idx))
        mapping[key] = recon.symbols[int(choice[flat])]
    return mapping, total


def _entropy_of(p: np.ndarray) -> np.ndarray:
    """Entropy of each table in a stack (leading axis)."""
    # Hot path; the additive floor keeps 0 log 0 = 0 without masking.
    return -(p * np.log2(p + 1e-300)).reshape(len(p), -1).sum(axis=1)


def _bayes(weights, terms, subscript):
    """A node's Bayes decoder: the weights of each observation (the output
    letters of ``subscript`` before k) and reconstruction k, +inf where k
    has forbidden mass, and each observation's choice, the earliest cheapest
    allowed k or, where every k has forbidden mass, the k with the least.
    ``terms`` is a metric's (z, a, y, k) finite part and forbidden mass, the
    mass None where the metric forbids nothing."""
    fin, inf = terms
    w = np.einsum(subscript, weights, fin)
    if inf is None:
        return w, w.argmin(axis=-1)
    mass = np.einsum(subscript, weights, inf)
    w = np.where(mass > 0.0, np.inf, w)
    return w, np.where((mass > 0.0).all(axis=-1), mass.argmin(axis=-1), w.argmin(axis=-1))


class _EvalContext:
    """Precompiled tables for fast repeated policy evaluation on one spec.

    ``evaluate`` scores a stack of policies: F carries a leading policy axis
    of length n, B is one backward kernel shared by the stack, and the
    result is the n policies' ``OperatingPoint``s.  A point has
    r1 = I(Z; A, W) + I(Z; U | A, W, Y), r2 = I(Y; V | Z, A, U, W), the
    expected cost, the Bayes distortions of node 1 from (Z, V) and node 2
    from (U, Y), and, with a third node, d3 averaged over W.  Both decoders
    are ``_bayes``, the solver's too, and the output letters of its einsum
    subscript name what the node observes.  A distortion is +inf where its
    decoder is forced onto a forbidden (+inf) cell.
    Without a third node W has one letter.  Each policy's point equals,
    bit for bit, that of the same policy evaluated as a stack of one.
    """

    def __init__(self, spec: ProblemSpec):
        self.hb = spec.mode == "heegard-berger"
        S = spec.source.table
        self.pz = S.sum(axis=0)
        self.hz = _entropy_of(self.pz[None])[0]
        self.cost = spec.cost
        SV = S[None, :, :, None] * spec.vending.table
        # sum_x p(x, z) p(y | a, x, z) on the (z, a, u, w, y) axes; F does not
        # depend on x, so p(z, a, u, w, y) is F times this, a broadcast
        self.pzay = SV.sum(axis=1).transpose(1, 0, 2)[:, :, None, None, :]
        self.c1, self.c2 = (self._metric_terms(SV, metric) for metric in (spec.d1, spec.d2))
        if self.hb:
            d3 = spec.d3
            fin = np.isfinite(d3)
            # collapse x and y straight away: d3 is averaged, not decoded;
            # the finite part and the forbidden mass share one table
            self.c3 = np.einsum("axzy,kxyzw->kzaw", SV, np.stack([np.where(fin, d3, 0.0), ~fin]))

    @staticmethod
    def _metric_terms(SV, metric):
        fin = np.isfinite(metric)
        c_fin = np.einsum("axzy,xyzk->zayk", SV, np.where(fin, metric, 0.0))
        c_inf = np.einsum("axzy,xyzk->zayk", SV, (~fin).astype(float))
        if not c_inf.any():
            c_inf = None
        return c_fin, c_inf

    def evaluate(self, F: np.ndarray, B: np.ndarray) -> list[OperatingPoint]:
        if not self.hb:
            # the two-node region is the third-node one with a one-letter W
            F, B = F[..., None], B[..., None, :]
        pzauw = self.pz[:, None, None, None] * F
        pzaw = pzauw.sum(axis=3)
        pza = pzaw.sum(axis=3)
        gamma = (pza.sum(axis=1) * self.cost).sum(axis=1)
        pzauwy = F[..., None] * self.pzay
        pzawy = pzauwy.sum(axis=3)
        h_zauwy = _entropy_of(pzauwy)
        # I(Z; A, W) + I(Z; U | A, W, Y)
        r1 = (
            self.hz
            + _entropy_of(pzaw.sum(axis=1))
            - _entropy_of(pzaw)
            + _entropy_of(pzawy)
            + _entropy_of(pzauwy.sum(axis=1))
            - h_zauwy
            - _entropy_of(pzawy.sum(axis=1))
        )
        r1[r1 < 0.0] = 0.0
        w1 = _bayes(np.einsum("nzauw,auywv->nzayv", F, B), self.c1, "nzayv,zayk->nvzk")[0]
        w2 = _bayes(F.sum(axis=4), self.c2, "nzau,zayk->nuyk")[0]
        # per policy, the sum over observations of the cheapest reconstruction
        d1, d2 = (w.reshape(len(F), -1, w.shape[-1]).min(axis=2).sum(axis=1) for w in (w1, w2))
        pzauwyv = np.einsum("nzauwy,auywv->nzauwyv", pzauwy, B)
        r2 = h_zauwy + _entropy_of(pzauwyv.sum(axis=5)) - _entropy_of(pzauwyv) - _entropy_of(pzauw)
        r2[r2 < 0.0] = 0.0
        d3 = [None] * len(F)
        if self.hb:
            fin, forbidden = np.einsum("nzaw,kzaw->kn", F.sum(axis=3), self.c3)
            d3 = np.where(forbidden > 0.0, np.inf, fin).tolist()
        columns = (r1, r2, d1, d2, gamma)
        return [OperatingPoint(*point) for point in zip(*(c.tolist() for c in columns), d3)]


def evaluate_point(spec: ProblemSpec, policy: Policy) -> OperatingPoint:
    """Rates, distortions, and action cost of one policy.

    d1 is the Bayes distortion of node 1 decoding from (Z, V), d2 that of
    node 2 decoding from (U, Y), and d3 (third-node mode only) the expected
    metric of the forward kernel's reconstruction W.
    """
    _check_compatible(spec, policy)
    return _EvalContext(spec).evaluate(policy.forward.table[None], policy.backward.table)[0]


# --- policy serialization ---------------------------------------------------

def policy_to_document(policy: Policy) -> dict:
    alphas = {"z": policy.z_alpha, "a": policy.a_alpha, "u": policy.u_alpha}
    alphas.update(y=policy.y_alpha, v=policy.v_alpha)
    if policy.hb:
        alphas["xhat3"] = policy.forward.outputs[2]
    return {
        "kind": "policy",
        "mode": "heegard-berger" if policy.hb else "indirect",
        "alphabets": {name: list(al.symbols) for name, al in alphas.items()},
        "forward": kernel_to_rows(policy.forward),
        "backward": kernel_to_rows(policy.backward),
    }


def policy_from_document(doc: dict) -> Policy:
    if not isinstance(doc, dict) or doc.get("kind") != "policy":
        raise SpecFormatError("kind: expected a policy document")
    mode = require_field(doc, "mode", "policy")
    if mode not in MODES:
        raise SpecFormatError(f"policy.mode: unknown mode {mode!r}")
    hb = mode == "heegard-berger"
    names = ["z", "a", "u", "y", "v"] + (["xhat3"] if hb else [])
    alphas = read_alphabets(require_field(doc, "alphabets", "policy"), names, "policy.alphabets")
    z, a, u, y, v = (alphas[n] for n in ("z", "a", "u", "y", "v"))
    w = (alphas["xhat3"],) if hb else ()
    forward = kernel_from_rows(require_field(doc, "forward", "policy"), (z,), (a, u) + w, "policy.forward")
    backward = kernel_from_rows(require_field(doc, "backward", "policy"), (a, u, y) + w, (v,), "policy.backward")
    return Policy(forward=forward, backward=backward)


def save_policy(policy: Policy, path) -> None:
    Path(path).write_text(json.dumps(policy_to_document(policy), indent=2) + "\n")


def load_policy(path) -> Policy:
    return policy_from_document(read_json(path, "policy"))


# --- alternating-minimization solver ----------------------------------------

def _true_residuals(point: OperatingPoint, targets: Targets) -> dict:
    res = {
        "d1": max(0.0, point.d1 - targets.d1),
        "d2": max(0.0, point.d2 - targets.d2),
        "gamma": max(0.0, point.gamma - targets.gamma),
    }
    if point.d3 is not None and targets.d3 is not None:
        res["d3"] = max(0.0, point.d3 - targets.d3)
    return res


# Each multiplier is capped.  A target met only at the cap, such as a zero
# distortion, leaves about exp(-1e4 e) of mass on a cell that costs e more;
# a cap of 400 left some tight nonzero targets unmet.
_NU_CAP = 1e4
# Newton steps per F step at most, and the step sizes each one may try: the
# full step first, the shorter ones only where it does not raise the dual
_NEWTON_STEPS = 6
_BACKTRACK = 0.5 ** np.arange(12)
# r, q and F sweeps per decoder update
_SWEEPS = 2
# A start's draws, its first kernel and one per hop, have sparse Dirichlet
# rows: near-deterministic kernels reach corner optima that uniform ones miss.
_DRAW_ALPHA = 0.1
# keeps 0 log 0 = 0 in the r and q steps without masking
_TINY = 1e-300


def _draw(stream: random.Random, shape: tuple[int, ...]) -> np.ndarray:
    """A forward kernel of the given shape from ``stream``: Gamma(``_DRAW_ALPHA``)
    variates with each z row normalized, a Dirichlet(``_DRAW_ALPHA``) row."""
    rows = np.array([stream.gammavariate(_DRAW_ALPHA, 1.0) for _ in range(math.prod(shape))])
    rows = rows.reshape(shape[0], -1)
    return (rows / rows.sum(axis=1, keepdims=True)).reshape(shape)


class _Solver:
    """Constrained alternating minimization of r1 over a stack of forward
    kernels F = p(a, u, w | z); the backward kernel relays Y.

    r1 ln 2 is the minimum over r(a, w) and q(u | a, w, y) of
    E[ln F - ln r - ln q], reached at r = p(a, w) and q = p(u | a, w, y).
    One iteration fixes F's Bayes decoders, the judge's ``_bayes`` with
    node 1 decoding from (Z, Y) and node 2 from (U, Y), under which the cost
    and the distortions are linear in F, then takes ``_SWEEPS`` sweeps.  A
    sweep sets r and q to F's marginals, then F to the Gibbs kernel
    F(. | z) ∝ exp(θ - Σ_j ν_j c_j) with θ = ln r + Σ_y p(y | z, a) ln q,
    c_j the per-cell costs of the targets, and no mass on the cells whose
    chosen reconstruction is forbidden (+inf).  The multipliers ν maximize
    the concave dual by at most ``_NEWTON_STEPS`` projected Newton steps,
    with every ν capped at ``_NU_CAP``.  A step is taken in full where that
    raises the dual, and elsewhere at the best of ``_BACKTRACK``'s shorter
    sizes; a start whose multipliers did not move is final.  Every step is
    decided per start and every sum runs along a start's own axes, so a
    start's iterates do not depend on the rest of its stack.
    """

    def __init__(self, ctx: _EvalContext, targets: Targets):
        self.ctx = ctx
        self.pz = ctx.pz
        # the evaluator's tables carry p(z); the F step prices F(. | z)
        self.per_z = np.where(ctx.pz > 0.0, 1.0 / np.where(ctx.pz > 0.0, ctx.pz, 1.0), 0.0)[:, None, None, None]
        self.pyza = ctx.pzay * self.per_z[..., None]
        # each node's (z, a, y, k) tables, spread onto the axes of its cells
        self.node1 = [None if c is None else c[None] for c in ctx.c1]
        self.node2 = [None if c is None else c[None, :, :, None] for c in ctx.c2]
        # the cost's and d3's tables on the (z, a, u, w) axes
        self.cost, self.d3, self.bad3 = ctx.cost[:, None, None], [], False
        if ctx.hb:
            c3 = ctx.c3[:, :, :, None]
            self.bad3 = c3[1] > 0.0
            if targets.d3 is not None:
                self.d3 = [c3[0] * self.per_z]
        self.limits = np.array([v for v in (targets.gamma, targets.d1, targets.d2, targets.d3) if v is not None])

    def solve(self, F: np.ndarray, iters: int) -> np.ndarray:
        """A stack of forward kernels after ``iters`` iterations from F."""
        shape = F.shape
        F = F if self.ctx.hb else F[..., None]
        n, nz = len(F), len(self.pz)
        nu = np.zeros((n, len(self.limits)))
        for _ in range(iters):
            costs, forbidden = self._costs(F)
            for _ in range(_SWEEPS):
                theta = np.where(forbidden, -np.inf, self._theta(F)).reshape(n, nz, -1)
                P, nu = self._f_step(theta, costs, nu)
                F = P.reshape(F.shape)
        return F.reshape(shape)

    def _theta(self, F):
        """ln r + Σ_y p(y | z, a) ln q at the marginals of the stack F."""
        pauwy = (F[..., None] * self.ctx.pzay).sum(axis=1)
        ln_q = np.log((pauwy + _TINY) / (pauwy.sum(axis=2, keepdims=True) + F.shape[3] * _TINY))
        ln_r = np.log((self.pz[:, None, None, None] * F).sum(axis=(1, 3)) + _TINY)
        return ln_r[:, None, :, None, :] + (self.pyza * ln_q[:, None]).sum(axis=-1)

    def _costs(self, F):
        """The costs (n, J, z, cells) of the targets under the Bayes
        decoders of the stack F, and the cells they forbid."""
        (e1, bad1), (e2, bad2) = self._decoders(F)
        cells = [self.cost, e1[..., None, None] * self.per_z, e2[..., None] * self.per_z] + self.d3
        costs = np.stack([np.broadcast_to(c, F.shape) for c in cells], axis=1)
        forbidden = np.broadcast_to(np.asarray(bad1)[..., None, None] | np.asarray(bad2)[..., None] | self.bad3, F.shape)
        # a row with no allowed cell keeps them all: no kernel meets the targets
        forbidden = forbidden & ~forbidden.all(axis=(2, 3, 4), keepdims=True)
        return costs.reshape(len(F), len(self.limits), len(self.pz), -1), forbidden

    def _decoders(self, F):
        """Per node, each cell's cost under the Bayes decoder of the stack F,
        y summed out, and whether the cell is forbidden."""
        # node 1 observes (z, y), since V relays Y, and node 2 (u, y)
        choice1 = _bayes(F.sum(axis=(3, 4)), self.ctx.c1, "nza,zayk->nzyk")[1]
        choice2 = _bayes(F.sum(axis=4), self.ctx.c2, "nzau,zayk->nuyk")[1]
        picks = ((self.node1, choice1[:, :, None, :, None]), (self.node2, choice2[:, None, None, :, :, None]))
        for tables, pick in picks:
            fin, inf = (None if t is None else np.take_along_axis(t, pick, axis=-1).sum(axis=(-2, -1)) for t in tables)
            yield fin, False if inf is None else inf > 0.0

    def _dual(self, theta, costs, nu):
        """The dual objective at multipliers nu (..., J), and the Gibbs
        kernels (..., z, cells) it is taken at, unnormalized, with their
        row sums: the kernels are ``mass / total``."""
        logits = theta - (nu[..., None, None] * costs).sum(axis=-3)
        top = logits.max(axis=-1, keepdims=True)
        mass = np.exp(logits - top)
        total = mass.sum(axis=-1, keepdims=True)
        g = -(self.pz * (top + np.log(total))[..., 0]).sum(axis=-1) - (nu * self.limits).sum(axis=-1)
        return g, mass, total

    def _f_step(self, theta, costs, nu):
        """The F step from multipliers nu: the kernels and their multipliers.

        A start whose step left ν where it was is final, since its next step
        would be the same, so only the starts that moved step again.  Most
        full steps raise the dual, so the shorter sizes are tried only for
        the starts where the full step did not."""
        n, J = nu.shape
        eye = np.eye(J)
        g, mass, total = self._dual(theta, costs, nu)
        P, nu, live = mass / total, nu.copy(), np.arange(n)
        for _ in range(_NEWTON_STEPS):
            # views while every start is live
            at = slice(None) if len(live) == n else live
            th, co, p, v = theta[at], costs[at], P[at], nu[at]
            mean = (p[:, None] * co).sum(axis=-1)
            grad = (mean * self.pz).sum(axis=-1) - self.limits
            second = (p[:, None, None] * co[:, :, None] * co[:, None]).sum(axis=-1)
            hess = ((second - mean[:, :, None] * mean[:, None]) * self.pz).sum(axis=-1)
            free = ~(((v <= 0.0) & (grad < 0.0)) | ((v >= _NU_CAP) & (grad > 0.0)))
            system = np.where(free[:, :, None] & free[:, None], hess, 0.0)
            system += eye * np.where(free, 1e-12, 1.0)[:, :, None]
            step = np.linalg.solve(system, np.where(free, grad, 0.0)[..., None])[..., 0]
            # where the dual is flat the step is huge: shorten it to the cap
            step *= np.minimum(1.0, _NU_CAP / np.maximum(np.abs(step).max(axis=1), 1e-300))[:, None]
            new = np.clip(v + step, 0.0, _NU_CAP)
            g_new, mass, total = self._dual(th, co, new)
            short = np.flatnonzero(~(g_new > g[at]))
            if len(short):
                trials = np.clip(v[short, None] + _BACKTRACK[1:, None] * step[short, None], 0.0, _NU_CAP)
                g_trials, m_trials, t_trials = self._dual(th[short, None], co[short, None], trials)
                rows, pick = np.arange(len(short)), g_trials.argmax(axis=1)
                new[short], g_new[short] = trials[rows, pick], g_trials[rows, pick]
                mass[short], total[short] = m_trials[rows, pick], t_trials[rows, pick]
            moved = np.flatnonzero(g_new > g[at])
            live = live[moved]
            if not len(live):
                break
            # the chosen trial's dual is the dual at the new ν
            nu[live], g[live] = new[moved], g_new[moved]
            P[live] = mass[moved] / total[moved]
        return P, nu


def _judge(ctx, targets, F, B) -> list:
    """Each forward kernel of the stack F, with the shared backward kernel B,
    judged against the targets."""
    judged = []
    for f, point in zip(F, ctx.evaluate(F, B)):
        residuals = _true_residuals(point, targets)
        worst = max(residuals.values())
        judged.append({
            "F": f,
            "B": B,
            "point": point,
            "residuals": residuals,
            "worst": worst,
            "feasible": worst <= FEASIBILITY_TOL,
        })
    return judged


def _better(cand, incumbent) -> bool:
    if cand["feasible"] != incumbent["feasible"]:
        return cand["feasible"]
    if not cand["feasible"]:
        return cand["worst"] < incumbent["worst"]
    gap = cand["point"].r1 - incumbent["point"].r1
    if abs(gap) > 1e-12:
        return gap < 0.0
    return cand["point"].r2 < incumbent["point"].r2 - 1e-12


def _best(judged: list) -> dict:
    """The outcome kept when each of ``judged`` in turn replaces the one
    kept so far only if ``_better`` prefers it: ties go to the earlier."""
    best = judged[0]
    for cand in judged[1:]:
        if _better(cand, best):
            best = cand
    return best


def minimize_r1(
    spec: ProblemSpec,
    targets: Targets,
    config: OptimizerConfig = OptimizerConfig(),
    seeds: Sequence[Policy] = (),
) -> MinimizeResult:
    """Search for the cheapest forward rate meeting the targets.

    Start i draws from its own ``random.Random`` stream, seeded by the
    string of (``config.rng_seed``, i), which no process or platform
    changes: its first forward kernel, unless the i-th seed policy gives
    it, then ``config.hops`` more, each a ``_draw``.  Every kernel of every
    start is solved in the calling process, in one ``_Solver`` stack, for
    ``config.max_iters`` iterations; a kernel's result does not depend on
    the stack.  ``_best`` picks each start's outcome from its solved
    kernels and then its seed as given, so no start ends worse than its
    seed, and then the winner from the outcomes: ties go to the earlier
    start, then the earlier kernel.  When no start lands within the
    feasibility tolerance the result carries ``feasible=False`` and the
    smallest constraint residual seen.  A d3 target on a spec without a
    third node raises ``ValueError``.

    The backward kernel relays Y (``_identity_backward``), so |V| below |Y|
    raises ``ValueError``; only the forward kernel is solved for.
    """
    if targets.gamma is None:
        raise ValueError("minimize_r1 needs a cost budget in targets.gamma")
    if targets.d3 is not None and spec.mode != "heegard-berger":
        raise ValueError(f"a d3 target needs a third node, but the spec mode is {spec.mode!r}")
    nu, nv = config.cardinality_override or default_cardinalities(spec)
    if nv < len(spec.y_alpha):
        raise ValueError(f"the solver relays Y, so |V| must be at least |Y| = {len(spec.y_alpha)}, got {nv}")
    ctx = _EvalContext(spec)
    seed_arrays = [_embed_seed(spec, s, nu, nv) for s in seeds[: config.restarts]]
    seed_arrays += [None] * (config.restarts - len(seed_arrays))
    shape, per_start = _kernel_shapes(spec, nu, nv)[0], 1 + config.hops
    F, as_given = [], []
    for i, seeded in enumerate(seed_arrays):
        stream = random.Random(f"{config.rng_seed} {i}")
        first = [] if seeded is None else [seeded[0]]
        F += first + [_draw(stream, shape) for _ in range(per_start - len(first))]
        # a seed as given is judged with its own backward kernel
        as_given.append([] if seeded is None else _judge(ctx, targets, seeded[0][None], seeded[1]))
    solved = _Solver(ctx, targets).solve(np.stack(F), config.max_iters)
    judged = _judge(ctx, targets, solved, _identity_backward(spec, nu, nv))
    best = _best([_best(judged[i * per_start : (i + 1) * per_start] + g) for i, g in enumerate(as_given)])
    policy = _policy_from_arrays(spec, best["F"], best["B"])
    return MinimizeResult(
        point=best["point"],
        policy=policy,
        residuals=best["residuals"],
        feasible=best["feasible"],
    )


def _embed_seed(spec: ProblemSpec, seed: Policy, nu: int, nv: int):
    """Pad a seed policy's index sets up to the search cardinalities."""
    _check_compatible(spec, seed)
    f0, b0 = seed.forward.table, seed.backward.table
    nu0, nv0 = f0.shape[2], b0.shape[-1]
    if nu0 > nu or nv0 > nv:
        raise ValueError(
            f"seed policy has |U|={nu0}, |V|={nv0}, larger than the search sizes ({nu}, {nv})"
        )
    f_shape, b_shape = _kernel_shapes(spec, nu, nv)
    F = np.zeros(f_shape)
    B = np.zeros(b_shape)
    F[:, :, :nu0] = f0
    B[:, :nu0, ..., :nv0] = b0
    # unused padded rows of the backward kernel get a uniform placeholder
    row_sums = B.sum(axis=-1, keepdims=True)
    B = np.where(row_sums > 0.0, B, 1.0 / nv)
    return F, B


def sweep_gamma(
    spec: ProblemSpec,
    targets: Targets,
    gamma_grid: Sequence[float],
    config: OptimizerConfig = OptimizerConfig(),
    seeds: Sequence[Policy] = (),
) -> list[SweepEntry]:
    """minimize_r1 along a strictly ascending cost-budget grid with warm starts.

    Each grid point is seeded with the last feasible point's policy, which
    stays feasible at a larger budget.  The seeded restart never returns
    worse than its seed, so along the feasible points r1 is non-increasing
    up to the 1e-12 band within which the search breaks r1 ties by r2.
    """
    if targets.gamma is not None:
        raise ValueError("sweep_gamma varies gamma; leave targets.gamma unset")
    grid = [float(g) for g in gamma_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"gamma_grid must be strictly ascending, got {grid}")
    entries: list[SweepEntry] = []
    carry: list[Policy] = []
    for g in grid:
        point_targets = Targets(d1=targets.d1, d2=targets.d2, d3=targets.d3, gamma=g)
        result = minimize_r1(spec, point_targets, config, seeds=tuple(carry) + tuple(seeds))
        entries.append(SweepEntry(gamma=g, result=result))
        if result.feasible:
            carry = [result.policy]
    return entries
