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
import os
from concurrent.futures import ProcessPoolExecutor
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
_SEED_FLOOR = 1e-12
_SNAP_THRESHOLDS = (1e-8, 1e-5, 1e-3, 2e-2)
_INF_MASS_WEIGHT = 1e3
# Penalty weights swept by every descent, and the objective decrease below
# which a sweep over the rows counts as converged.
_PENALTY_SCHEDULE = (1e2, 1e4, 1e6, 1e8)
_STEP_TOLERANCE = 1e-9
# A basin hop re-descends from a mid weight so the kicked policy can
# restructure before the top weight freezes it onto the feasible set.
_HOP_SCHEDULE = (_PENALTY_SCHEDULE[1], _PENALTY_SCHEDULE[-1])


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
    f_table, b_table = _random_arrays(spec, nu, nv, rng)
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


def _random_arrays(spec, nu, nv, rng):
    f_shape, b_shape = _kernel_shapes(spec, nu, nv)
    f_cols = int(np.prod(f_shape[1:]))
    back_rows = int(np.prod(b_shape[:-1]))
    f_table = rng.dirichlet(np.ones(f_cols), size=f_shape[0]).reshape(f_shape)
    b_table = rng.dirichlet(np.ones(nv), size=back_rows).reshape(b_shape)
    return f_table, b_table


def _skeleton_forward(spec, nu, rng):
    """A random start whose description letter is a function of Z.

    Frontier policies tend to use U as a (possibly merging) quantizer of
    Z with only the action mixed.  Seeding half the restarts this way
    lets the smooth action parameters settle by descent instead of
    hoping a fully random table falls into the right corner pattern.
    """
    shape = _kernel_shapes(spec, nu, 1)[0]
    nz, na = shape[0], shape[1]
    table = np.full(shape, 1e-6)
    actions = rng.dirichlet(np.ones(na), size=nz)
    for z in range(nz):
        sel = (z, slice(None)) + tuple(int(rng.integers(n)) for n in shape[2:])
        table[sel] = actions[z]
    return table / table.sum(axis=tuple(range(1, table.ndim)), keepdims=True)


def _identity_backward(spec, nu, nv):
    """The backward kernel that relays Y verbatim, padded to nv letters; the
    search's only backward kernel, so it needs nv >= |Y|.

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


class _EvalContext:
    """Precompiled tables for fast repeated policy evaluation on one spec.

    ``evaluate`` scores a stack of policies: F carries a leading policy axis
    of length n, B one of length n or of length 1 when the whole stack shares
    it, and every metric comes back as an array of length n.  The metrics are
    r1 = I(Z; A, W) + I(Z; U | A, W, Y), r2 = I(Y; V | Z, A, U, W), the
    expected cost, the Bayes distortions of node 1 from (Z, V) and node 2
    from (U, Y), and, with a third node, d3 averaged over W.  Each
    distortion comes with the mass that lands on forbidden (+inf) cells.
    Without a third node W has one letter.  Each policy's metrics equal,
    bit for bit, those of the same policy evaluated as a stack of one.
    ``with_r2=False`` leaves out r2, which the search's objective never reads.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.hb = spec.mode == "heegard-berger"
        S = spec.source.table
        self.pz = S.sum(axis=0)
        self.hz = _entropy_of(self.pz[None])[0]
        self.cost = spec.cost
        SV = S[None, :, :, None] * spec.vending.table
        # sum_x p(x, z) p(y | a, x, z) on the (z, a, u, w, y) axes; F does not
        # depend on x, so p(z, a, u, w, y) is F times this, a broadcast
        self.pzay = SV.sum(axis=1).transpose(1, 0, 2)[:, :, None, None, :]
        self.c1_fin, self.c1_inf = self._metric_terms(SV, spec.d1)
        self.c2_fin, self.c2_inf = self._metric_terms(SV, spec.d2)
        if self.hb:
            d3 = spec.d3
            fin = np.isfinite(d3)
            # collapse x and y straight away: d3 is averaged, not decoded;
            # the finite part and the forbidden mass share one table
            self.c3 = np.einsum("axzy,kxyzw->kazw", SV, np.stack([np.where(fin, d3, 0.0), ~fin]))

    @staticmethod
    def _metric_terms(SV, metric):
        fin = np.isfinite(metric)
        c_fin = np.einsum("axzy,xyzk->azyk", SV, np.where(fin, metric, 0.0))
        c_inf = np.einsum("axzy,xyzk->azyk", SV, (~fin).astype(float))
        if not c_inf.any():
            c_inf = None
        return c_fin, c_inf

    def evaluate(self, F: np.ndarray, B: np.ndarray, with_r2: bool = True) -> dict:
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
        fb = np.einsum("nzauw,nauywv->nzayv", F, B)
        d1_fin, d1_inf = self._decode(np.einsum("nzayv,azyk->nvzk", fb, self.c1_fin), fb, self.c1_inf, "nzayv,azyk->nvzk")
        Fu = F.sum(axis=4)
        d2_fin, d2_inf = self._decode(np.einsum("nzau,azyk->nuyk", Fu, self.c2_fin), Fu, self.c2_inf, "nzau,azyk->nuyk")
        m = {
            "r1": r1,
            "gamma": gamma,
            "d1": d1_fin,
            "d1_inf_mass": d1_inf,
            "d2": d2_fin,
            "d2_inf_mass": d2_inf,
        }
        if with_r2:
            pzauwyv = np.einsum("nzauwy,nauywv->nzauwyv", pzauwy, B)
            r2 = h_zauwy + _entropy_of(pzauwyv.sum(axis=5)) - _entropy_of(pzauwyv) - _entropy_of(pzauw)
            r2[r2 < 0.0] = 0.0
            m["r2"] = r2
        if self.hb:
            Fw = F.sum(axis=3)
            # The sums over w, folded left in (a, z) order, add the terms
            # in the order of one policy's einsum "zaw,azw->", which runs a
            # single sum over (z, w) when |A| or |Z| is 1.
            sub = "nzaw,kazw->kn" if 1 in Fw.shape[1:3] else "nzaw,kazw->knaz"
            m["d3"], m["d3_inf_mass"] = np.cumsum(np.einsum(sub, Fw, self.c3).reshape(2, len(F), -1), axis=2)[..., -1]
        return m

    @staticmethod
    def _decode(w_fin, left, c_inf, subscript) -> tuple[np.ndarray, np.ndarray]:
        """Per policy, the sum of per-observation minima and the mass on
        forbidden cells."""
        n, k = len(w_fin), w_fin.shape[-1]
        if c_inf is None:
            return w_fin.reshape(n, -1, k).min(axis=2).sum(axis=1), np.zeros(n)
        w_inf = np.einsum(subscript, left, c_inf).reshape(n, -1, k)
        mins = np.where(w_inf > 0.0, np.inf, w_fin.reshape(n, -1, k)).min(axis=2)
        bad = ~np.isfinite(mins)
        fin, inf_mass = mins.sum(axis=1), np.zeros(n)
        for i in np.flatnonzero(bad.any(axis=1)):
            # drop the forbidden minima rather than add zeros in their place:
            # numpy's pairwise sum groups the terms by position
            fin[i] = mins[i][~bad[i]].sum()
            inf_mass[i] = w_inf[i].min(axis=1)[bad[i]].sum()
        return fin, inf_mass


def _point_from_metrics(stacked: dict, i: int) -> OperatingPoint:
    """The operating point of policy ``i`` of a stack's metrics."""
    m = {key: float(value[i]) for key, value in stacked.items()}
    d1 = np.inf if m["d1_inf_mass"] > 0.0 else m["d1"]
    d2 = np.inf if m["d2_inf_mass"] > 0.0 else m["d2"]
    d3 = None
    if "d3" in m:
        d3 = np.inf if m["d3_inf_mass"] > 0.0 else m["d3"]
    return OperatingPoint(r1=m["r1"], r2=m["r2"], d1=d1, d2=d2, gamma=m["gamma"], d3=d3)


def evaluate_point(spec: ProblemSpec, policy: Policy) -> OperatingPoint:
    """Rates, distortions, and action cost of one policy.

    d1 is the Bayes distortion of node 1 decoding from (Z, V), d2 that of
    node 2 decoding from (U, Y), and d3 (third-node mode only) the expected
    metric of the forward kernel's reconstruction W.
    """
    _check_compatible(spec, policy)
    metrics = _EvalContext(spec).evaluate(policy.forward.table[None], policy.backward.table[None])
    return _point_from_metrics(metrics, 0)


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


# --- penalty-descent search -------------------------------------------------

def worker_count() -> int:
    """The most workers a pool may start, restart processes or simulation
    threads: the core count, capped by ``VENDINGRD_THREADS`` when it is set."""
    workers = os.cpu_count() or 1
    cap_raw = os.environ.get("VENDINGRD_THREADS")
    if cap_raw:
        try:
            cap = int(cap_raw)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ValueError(f"VENDINGRD_THREADS must be a positive integer, got {cap_raw!r}")
        workers = min(workers, cap)
    return workers


def _softmax(theta: np.ndarray) -> np.ndarray:
    """The forward kernels of a stack of logits (restart and z axes lead)."""
    out_axes = tuple(range(2, theta.ndim))
    shifted = theta - theta.max(axis=out_axes, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=out_axes, keepdims=True)


def _violations(m: dict, targets: Targets) -> dict:
    """Each policy's penalized constraint excess, from stacked metrics."""
    res = {
        "d1": np.maximum(0.0, m["d1"] - targets.d1) + _INF_MASS_WEIGHT * m["d1_inf_mass"],
        "d2": np.maximum(0.0, m["d2"] - targets.d2) + _INF_MASS_WEIGHT * m["d2_inf_mass"],
        "gamma": np.maximum(0.0, m["gamma"] - targets.gamma),
    }
    if "d3" in m and targets.d3 is not None:
        res["d3"] = np.maximum(0.0, m["d3"] - targets.d3) + _INF_MASS_WEIGHT * m["d3_inf_mass"]
    return res


def _true_residuals(point: OperatingPoint, targets: Targets) -> dict:
    res = {
        "d1": max(0.0, point.d1 - targets.d1),
        "d2": max(0.0, point.d2 - targets.d2),
        "gamma": max(0.0, point.gamma - targets.gamma),
    }
    if point.d3 is not None and targets.d3 is not None:
        res["d3"] = max(0.0, point.d3 - targets.d3)
    return res


def _snap_rows(table: np.ndarray, cutoff: float) -> np.ndarray:
    """A stack of forward kernels with entries below ``cutoff`` zeroed; a row that keeps mass is renormalized."""
    out_axes = tuple(range(2, table.ndim))
    snapped = np.where(table < cutoff, 0.0, table)
    sums = snapped.sum(axis=out_axes, keepdims=True)
    ok = sums > 0.0
    return np.where(ok, snapped / np.where(ok, sums, 1.0), table)


class _Search:
    """Coordinate penalty descent of a group of restarts, run in lockstep.

    The forward logits carry a leading restart axis; every restart shares
    the backward kernel ``B``.  Each descent step scores the probes of every
    restart it moves as one stack, and each restart follows its own rules
    on its own values, so a restart's path is the one it takes alone;
    ``base`` carries the objective it was scored at."""

    def __init__(self, ctx, targets, config, theta_f, B):
        self.ctx = ctx
        self.targets = targets
        self.config = config
        self.theta_f = theta_f
        self.B = B[None]
        self.weight = _PENALTY_SCHEDULE[0]
        # a 3-D view of the logits (they are contiguous): restart, kernel row, entry
        n = len(theta_f)
        self.f_rows = theta_f.reshape(n, theta_f.shape[1], -1)
        self.f_steps = np.ones(self.f_rows.shape[:2])
        self.joint_step = np.ones(n)

    def _scores(self, tf: np.ndarray) -> np.ndarray:
        """The objective of a stack of logits."""
        m = self.ctx.evaluate(_softmax(tf), self.B, with_r2=False)
        return m["r1"] + self.weight * sum(v * v for v in _violations(m, self.targets).values())

    def _block_scores(self, rows: slice, idx: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """``_scores`` with each of ``blocks[j]`` in ``rows`` of restart
        ``idx[j]``'s logit rows, scored as one stack ordered by restart,
        then block."""
        stack = np.repeat(self.f_rows[idx], blocks.shape[1], axis=0)
        stack[:, rows] = blocks.reshape((-1,) + blocks.shape[2:])
        return self._scores(stack.reshape((-1,) + self.theta_f.shape[1:]))

    def _improve(self, rows: slice, idx: np.ndarray, steps: np.ndarray) -> None:
        """One finite-difference descent step over ``rows`` of the logits of
        restarts ``idx``, seen as 2-D arrays of kernel rows.  ``steps`` holds
        every restart's step to try; it is updated in place for ``idx``, as
        is ``base``.

        The forward-difference probes, +h on one entry each, are scored as
        one stack.  Per restart, the gradient is centred per row (softmax
        ignores a row's shift), scaled by its largest entry, and followed
        by a doubling/halving line search over the steps step * 2**k.  The
        rungs k = -6..3 are scored as one stack and each search is replayed
        on its own values; a rung above 3 is scored, one stack across the
        restarts that climb there, only when a search climbs past 3.  Each
        restart visits what a probe-at-a-time search would.  The accepted
        rung is stored minus its row maxima, which softmax subtracts anyway,
        so its scores stay those of the stored logits.
        """
        h = 1e-4
        block = self.f_rows[idx, rows]
        count, n = len(idx), block[0].size
        probes = np.repeat(block.reshape(count, 1, n), n, axis=1)
        probes[:, np.arange(n), np.arange(n)] += h
        scores = self._block_scores(rows, idx, probes.reshape((count, n) + block.shape[1:]))
        g = ((scores.reshape(count, n) - self.base[idx, None]) / h).reshape(block.shape)
        d = -(g - g.mean(axis=2, keepdims=True))
        norm = np.abs(d).reshape(count, -1).max(axis=1)
        live = ~(norm < 1e-13)
        if not live.any():
            return
        idx, block, d = idx[live], block[live], d[live] / norm[live, None, None]
        step = steps[idx]
        ks = np.arange(-6, 4)
        rungs = block[:, None] + (step[:, None] * 2.0**ks)[:, :, None, None] * d[:, None]
        rung_scores = self._block_scores(rows, idx, rungs).reshape(len(idx), -1)
        values = [dict(zip(ks.tolist(), r)) for r in rung_scores]
        pending = range(len(idx))
        while pending:
            climb = []
            for j in pending:
                k, best_k, best_val = _line_search(values[j], self.base[idx[j]])
                if k is not None:
                    climb.append((j, k))
                elif best_k is None:
                    steps[idx[j]] = max(step[j] * 0.5, 1e-4)
                else:
                    steps[idx[j]] = best_s = step[j] * 2.0**best_k
                    self.base[idx[j]] = best_val
                    moved = self.f_rows[idx[j], rows]
                    moved += best_s * d[j]
                    moved -= moved.max(axis=1, keepdims=True)
            if climb:
                tops = np.stack([block[j] + step[j] * 2.0**k * d[j] for j, k in climb])
                scores = self._block_scores(rows, idx[[j for j, _ in climb]], tops[:, None])
                for (j, k), value in zip(climb, scores):
                    values[j][k] = value
            pending = [j for j, _ in climb]

    def _descend(self, step) -> None:
        """Apply ``step`` to the restarts still moving, up to ``max_iters`` times."""
        moving = np.arange(len(self.theta_f))
        for _ in range(self.config.max_iters):
            before = self.base[moving]
            step(moving)
            # a NaN decrease is not below the tolerance: the restart moves on
            moving = moving[~(before - self.base[moving] < _STEP_TOLERANCE)]
            if not len(moving):
                break

    def _sweep_rows(self, moving: np.ndarray) -> None:
        for r in range(self.f_rows.shape[1]):
            self._improve(slice(r, r + 1), moving, self.f_steps[:, r])

    def run(self, schedule: tuple[float, ...] = _PENALTY_SCHEDULE) -> None:
        for weight in schedule:
            self.weight = weight
            self.base = self._scores(self.theta_f)
            self._descend(self._sweep_rows)
            # Row-at-a-time descent stalls in valleys that need compensating
            # moves across forward rows (raise one action probability, lower
            # another, keep the expected cost fixed).  A joint step slides
            # along them.
            self._descend(lambda moving: self._improve(slice(None), moving, self.joint_step))


def _line_search(values: dict, base: float):
    """Replay the doubling/halving line search on the rung objectives
    ``values`` (keyed by k).  Returns (k, None, None) when rung k is still
    to be scored, else (None, best_k, best_val), best_k None for no decrease."""
    best_val, best_k, k = base, None, 0
    for _ in range(24):
        if k not in values:
            return k, None, None
        if values[k] < best_val - 1e-15:
            best_val, best_k = values[k], k
            k += 1
        elif best_k is not None or k <= -6:
            break
        else:
            k -= 1
    return None, best_k, best_val


def _run_group(payload) -> list:
    """Restarts ``indices`` in lockstep; each one's best outcome, in order.

    Every restart draws from its own stream, seeded by (rng_seed, index),
    in the order it would alone, and hops run in lockstep by hop index, so
    each outcome is the one the restart reaches alone.
    """
    ctx, targets, config, indices, seed_arrays = payload
    spec = ctx.spec
    nu, nv = _search_sizes(spec, config)
    rngs, starts = [], []
    for restart_idx, seeded in zip(indices, seed_arrays):
        rng = np.random.default_rng(np.random.SeedSequence((config.rng_seed, restart_idx)))
        if seeded is not None:
            F0 = seeded[0]
        else:
            # the backward table is drawn and dropped: skipping it would shift every later draw
            F0 = _random_arrays(spec, nu, nv, rng)[0]
            if restart_idx % 2 == 0:
                F0 = _skeleton_forward(spec, nu, rng)
        rngs.append(rng)
        starts.append(F0)
    B = _identity_backward(spec, nu, nv)
    search = _Search(ctx, targets, config, np.log(np.maximum(np.stack(starts), _SEED_FLOOR)), B)
    search.run()
    best = _judge_snapped(ctx, targets, search)
    for hop_idx in range(config.hops):
        # Basin hop: soften the saturated logits, kick them, re-descend
        # through the upper penalty stages.  Row descent cannot move
        # action mass between observation symbols once a row has locked
        # in; a kick can.  Alternate between a plain noise kick and one
        # that keeps each row's description profile but redraws how the
        # actions attach to it.  ``search`` holds each restart's best
        # descent so far.
        tf = np.stack([_kick(search.theta_f[i], hop_idx, rng, B.shape) for i, rng in enumerate(rngs)])
        hop = _Search(ctx, targets, config, tf, B)
        hop.run(_HOP_SCHEDULE)
        for i, cand in enumerate(_judge_snapped(ctx, targets, hop)):
            if _better(cand, best[i]):
                best[i] = cand
                search.theta_f[i] = hop.theta_f[i]
    for i, seeded in enumerate(seed_arrays):
        if seeded is not None:
            # The penalty stages may wander off a hand-crafted start; never
            # return anything worse than the seed itself, judged with its own
            # backward kernel.
            (as_given,) = _judge(ctx, targets, *(side[None] for side in seeded))
            if _better(as_given, best[i]):
                best[i] = as_given
    return best


def _kick(theta_f: np.ndarray, hop_idx: int, rng: np.random.Generator, b_shape) -> np.ndarray:
    """One restart's kicked logits for basin hop ``hop_idx``."""
    if hop_idx % 2 == 0:
        tf = _tempered(theta_f) + rng.normal(0.0, 1.5, theta_f.shape)
    else:
        profile = _tempered(theta_f).max(axis=1, keepdims=True)
        noise_shape = theta_f.shape[:2] + (1,) * (theta_f.ndim - 2)
        tf = profile + rng.normal(0.0, 2.0, noise_shape)
    # noise of the backward kernel's shape, drawn and dropped: skipping it would shift every later draw
    rng.normal(0.0, 1.5, b_shape)
    return tf


def _tempered(theta: np.ndarray) -> np.ndarray:
    """One restart's logits shifted to row maximum 0 and clipped at -6."""
    shifted = theta - theta.max(axis=tuple(range(1, theta.ndim)), keepdims=True)
    return np.clip(shifted, -6.0, 0.0)


def _judge_snapped(ctx, targets, search: "_Search") -> list:
    """Each restart of the search, judged as found and after snapping, one
    stack per snap cutoff."""
    F = _softmax(search.theta_f)
    best = _judge(ctx, targets, F, search.B)
    # Finite-difference descent cannot drive stray row mass much below
    # ~1e-5, which is enough to miss hard distortion targets.  Rounding
    # small entries away restores exact corners; try a few thresholds and
    # keep whichever evaluation judges best.
    for cutoff in _SNAP_THRESHOLDS:
        snapped = _judge(ctx, targets, _snap_rows(F, cutoff), search.B)
        best = [cand if _better(cand, inc) else inc for cand, inc in zip(snapped, best)]
    return best


def _search_sizes(spec, config) -> tuple[int, int]:
    """(|U|, |V|) of the search: the config's override, else the defaults.
    |V| below |Y| raises ``ValueError``: the search relays Y."""
    nu, nv = config.cardinality_override or default_cardinalities(spec)
    if nv < len(spec.y_alpha):
        raise ValueError(f"the search relays Y, so |V| must be at least |Y| = {len(spec.y_alpha)}, got {nv}")
    return nu, nv


def _judge(ctx, targets, F, B) -> list:
    """Each policy of a stack judged against the targets; B may be shared."""
    m = ctx.evaluate(F, B)
    judged = []
    for i in range(len(F)):
        point = _point_from_metrics(m, i)
        residuals = _true_residuals(point, targets)
        worst = max(residuals.values())
        judged.append({
            "F": F[i],
            "B": B[i % len(B)],
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


def minimize_r1(
    spec: ProblemSpec,
    targets: Targets,
    config: OptimizerConfig = OptimizerConfig(),
    seeds: Sequence[Policy] = (),
) -> MinimizeResult:
    """Search for the cheapest forward rate meeting the targets.

    Exterior-penalty descent on softmax-parameterized kernels: the objective
    is r1 plus weighted squared constraint violations, with the weight swept
    over ``_PENALTY_SCHEDULE``.  Restarts begin at the supplied seed policies
    and continue from Dirichlet-random ones; every restart is deterministic
    given (rng_seed, restart index) and the best feasible result wins, with
    ties broken by restart index.  The restarts are split into contiguous
    groups, one per worker, and each group's restarts descend in lockstep,
    one stacked evaluation per step for the whole group; a restart's
    outcome does not depend on its group, so neither does the result on
    the worker count.  When no restart lands within the
    feasibility tolerance the result carries ``feasible=False`` and the
    smallest constraint residual seen.  A d3 target on a spec without a
    third node raises ``ValueError``.

    The backward kernel relays Y (``_identity_backward``), so |V| below |Y|
    raises ``ValueError``; only the forward kernel is searched.
    """
    if targets.gamma is None:
        raise ValueError("minimize_r1 needs a cost budget in targets.gamma")
    if targets.d3 is not None and spec.mode != "heegard-berger":
        raise ValueError(f"a d3 target needs a third node, but the spec mode is {spec.mode!r}")
    ctx = _EvalContext(spec)
    nu, nv = _search_sizes(spec, config)
    seed_arrays = [_embed_seed(spec, s, nu, nv) for s in seeds[: config.restarts]]
    seed_arrays += [None] * (config.restarts - len(seed_arrays))
    workers = min(worker_count(), config.restarts)
    groups = np.array_split(np.arange(config.restarts), workers)
    payloads = [(ctx, targets, config, g.tolist(), [seed_arrays[i] for i in g]) for g in groups]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            group_outcomes = list(pool.map(_run_group, payloads))
    else:
        group_outcomes = [_run_group(p) for p in payloads]
    best = None
    for outcomes in group_outcomes:
        for cand in outcomes:
            if best is None or _better(cand, best):
                best = cand
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
    """minimize_r1 along an ascending cost-budget grid with warm starts.

    Each grid point is seeded with the last feasible point's policy, which
    stays feasible at a larger budget.  The seeded restart never returns
    worse than its seed, so along the feasible points r1 is non-increasing
    up to the 1e-12 band within which the search breaks r1 ties by r2.
    """
    if targets.gamma is not None:
        raise ValueError("sweep_gamma varies gamma; leave targets.gamma unset")
    grid = [float(g) for g in gamma_grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("gamma_grid must be ascending")
    entries: list[SweepEntry] = []
    carry: list[Policy] = []
    for g in grid:
        point_targets = Targets(d1=targets.d1, d2=targets.d2, d3=targets.d3, gamma=g)
        result = minimize_r1(spec, point_targets, config, seeds=tuple(carry) + tuple(seeds))
        entries.append(SweepEntry(gamma=g, result=result))
        if result.feasible:
            carry = [result.policy]
    return entries
