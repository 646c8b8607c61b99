"""Closed-form rate curves and reference policies for the erasure example.

Every function here is specific to the binary-erasure family built by
``model.binary_erasure_spec``: X ~ Bernoulli(1/2) erased with probability
epsilon, unit-cost action revealing X.  The case tags name the constraint
patterns: case1 wants a perfect node-2 copy of Z, case2 wants a perfect
node-1 copy of X, case3 wants both, case2_ts is the two-segment
time-sharing strategy for the case-2 constraints, and hb_case2 adds the
third node's erasure-indicator constraint at level d3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InfeasibleError, binary_erasure_spec
from .probability import Alphabet, Kernel, binary_entropy, plog2p
from .region import Policy, _identity_backward

@dataclass(frozen=True)
class ExampleCase:
    """One point on one closed-form curve of the erasure example."""

    tag: str
    epsilon: float
    gamma: float
    d3: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in CASE_TAGS:
            raise ValueError(f"unknown case tag {self.tag!r}; expected one of {CASE_TAGS}")
        _check_budget(self.epsilon, self.gamma)
        if self.tag == "hb_case2":
            if self.d3 is None or not (math.isfinite(self.d3) and self.d3 >= 0.0):
                raise ValueError("hb_case2 needs a finite, nonnegative d3 level")
        elif self.d3 is not None:
            raise ValueError(f"case tag {self.tag!r} does not take a d3 level")


def _h2_array(p: np.ndarray) -> np.ndarray:
    return -plog2p(p) - plog2p(1.0 - p)


def case1_r1(epsilon: float, gamma: float) -> float:
    """Forward rate for a perfect node-2 copy of Z (no backward link needed)."""
    _check_budget(epsilon, gamma)
    return binary_entropy(epsilon) + max(1.0 - epsilon - gamma, 0.0)


def case2_r1(epsilon: float, gamma: float) -> float:
    """Forward rate for a perfect node-1 copy of X; needs gamma >= epsilon."""
    _check_budget(epsilon, gamma, "perfect node-1 reconstruction")
    if gamma == 0.0:
        return 0.0
    return binary_entropy(epsilon) - gamma * binary_entropy(epsilon / gamma)


def case2_ts_r1(epsilon: float, gamma: float) -> float:
    """Time-sharing alternative for the case-2 constraints (strictly worse inside)."""
    _check_budget(epsilon, gamma, "time sharing")
    if epsilon == 1.0:
        return 0.0
    return (1.0 - gamma) / (1.0 - epsilon) * binary_entropy(epsilon)


def case3_r1(epsilon: float, gamma: float) -> float:
    """Forward rate when both terminals reconstruct perfectly; needs gamma >= epsilon."""
    _check_budget(epsilon, gamma, "perfect two-sided reconstruction")
    return binary_entropy(epsilon) + 1.0 - gamma


def hb_rate_formula(epsilon: float, gamma: float, p1, p2, p3):
    """Case-2 rate under a third-node abstention pattern (p1, p2, p3).

    p1, p2, p3 are the abstention probabilities of the third node given
    (A=1, Z=e), (A=0, Z binary), and (A=1, Z binary).  The expression is
    kept in unsimplified form, including the pair of p2 terms that cancel;
    the bracketed fraction terms take the value 0 when eps*p1 +
    (gamma-eps)*p3 is 0.  Vectorized over the p arguments.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    p3 = np.asarray(p3, dtype=float)
    s = epsilon * p1 + (gamma - epsilon) * p3
    safe = np.where(s > 0.0, s, 1.0)
    bracket = _h2_array(epsilon * p1 / safe) + (gamma - epsilon) * p3 / safe
    tail = np.where(s > 0.0, s * bracket, 0.0)
    return (
        binary_entropy(epsilon)
        + 1.0
        - epsilon
        - (1.0 - gamma) * (1.0 - p2)
        - (gamma - epsilon) * (1.0 - p3)
        - (1.0 - gamma) * p2
        - tail
    )


def hb_abstention_cost(epsilon: float, gamma: float, p1, p2, p3):
    """Third-node distortion of the abstention pattern (p1, p2, p3)."""
    return (
        epsilon * np.asarray(p1, dtype=float)
        + (1.0 - gamma) * np.asarray(p2, dtype=float)
        + (gamma - epsilon) * np.asarray(p3, dtype=float)
    )


def hb_case2_r1(epsilon: float, gamma: float, d3: float) -> float:
    """Minimal case-2 forward rate with the third node held to distortion d3.

    The exact minimum of hb_rate_formula over the abstention patterns with
    hb_abstention_cost <= d3.  Write a = eps*p1, b = (gamma-eps)*p3 and
    s = a + b.  In hb_rate_formula the two p2 terms cancel, and so do the
    (gamma-eps)*p3 terms, leaving

        rate = H(eps) - s*h2(a/s),        cost = s + (1-gamma)*p2.

    The rate does not depend on p2 while the cost grows with it, so p2 = 0.
    s*h2(a/s) = -a*log2(a/s) - b*log2(b/s) is concave and increasing in
    (a, b), so the optimum spends the whole budget, s = min(d3, gamma)
    (a <= eps and b <= gamma-eps cap s at gamma), and for that s takes the
    a in [s-(gamma-eps), eps] nearest to s/2, where h2(a/s) peaks.  At s = 0
    the rate is H(eps); at s = gamma it is case2_r1.
    """
    if not (math.isfinite(d3) and d3 >= 0.0):
        raise ValueError(f"d3 level {d3!r} must be finite and nonnegative")
    _check_budget(epsilon, gamma, "the third-node curve")
    s = min(d3, gamma)
    if s == 0.0:
        return binary_entropy(epsilon)
    a = min(max(s / 2.0, s - (gamma - epsilon)), epsilon)
    return binary_entropy(epsilon) - s * binary_entropy(a / s)


_CASE_RATE = {"case1": case1_r1, "case2": case2_r1, "case2_ts": case2_ts_r1, "case3": case3_r1,
              "hb_case2": hb_case2_r1}
CASE_TAGS = tuple(_CASE_RATE)


def curve_rate(tag: str, epsilon: float, gamma: float, d3: float | None = None) -> float:
    """Closed-form rate of curve ``tag`` at (epsilon, gamma), and at d3 for the third-node curve."""
    return _CASE_RATE[tag](epsilon, gamma, *(() if d3 is None else (d3,)))


def example_rate(case: ExampleCase) -> float:
    """Dispatch a validated ExampleCase to its closed-form rate."""
    return curve_rate(case.tag, case.epsilon, case.gamma, case.d3)


def appendixB_policy(case: ExampleCase) -> Policy:
    """The optimal single-letter policy achieving the case's closed form.

    Only case1, case2, and case3 have one; the time-sharing and third-node
    curves are not the value of a single policy of this shape.
    """
    if case.tag not in ("case1", "case2", "case3"):
        raise ValueError(f"no single reference policy for case tag {case.tag!r}")
    spec = binary_erasure_spec(case.epsilon)
    eps, g = case.epsilon, case.gamma
    z, a, y = spec.z_alpha, spec.a_alpha, spec.y_alpha
    if case.tag == "case1":
        # measure a share q of the unerased letters, and no erasure
        q = 1.0 if eps >= 1.0 else min(g / (1.0 - eps), 1.0)
        erasure_action = 0
    else:
        # measure every erasure, and spend the rest of the budget on a
        # share q of the unerased letters
        _check_budget(eps, g, f"case {case.tag}")
        q = 0.0 if eps >= 1.0 else (g - eps) / (1.0 - eps)
        erasure_action = 1
    # U copies Z, except in case 2, where it has one letter
    u = Alphabet("u", ("u0",) if case.tag == "case2" else z.symbols)
    u_of_z = (0, 0, 0) if case.tag == "case2" else (0, 1, 2)
    f_table = np.zeros((3, 2, len(u)))
    for zi in (0, 1):
        f_table[zi, 1, u_of_z[zi]] = q
        f_table[zi, 0, u_of_z[zi]] = 1.0 - q
    f_table[2, erasure_action, u_of_z[2]] = 1.0
    if case.tag == "case1":
        # node 2 sends nothing back
        v = Alphabet("v", ("v0",))
        b_table = np.ones((2, len(u), 3, 1))
    else:
        # the relay of Y, with V's letters named after Y's
        v = Alphabet("v", y.symbols)
        b_table = _identity_backward(spec, len(u), len(y))
    return Policy(Kernel((z,), (a, u), f_table), Kernel((a, u, y), (v,), b_table))


def _check_budget(epsilon: float, gamma: float, needs: str | None = None) -> None:
    """Reject epsilon or gamma outside [0, 1] with ValueError and, when
    ``needs`` names what a budget of at least epsilon buys, gamma < epsilon
    with InfeasibleError."""
    for name, value in (("epsilon", epsilon), ("gamma", gamma)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} {value!r} outside [0, 1]")
    if needs is not None and gamma < epsilon:
        raise InfeasibleError(f"{needs} needs a cost budget of at least {epsilon}, got {gamma}")
