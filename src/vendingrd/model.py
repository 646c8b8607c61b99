"""Problem instances: source, action-driven side-information channel, metrics.

A :class:`ProblemSpec` bundles everything that defines one coding problem:
the source pair (X, Z), the channel p(y | a, x, z) whose output the decoder
buys with actions, the per-action cost table, and the distortion metrics for
each terminal.  Metrics are dense tables over (x, y, z, reconstruction) and
may contain +inf to forbid a reconstruction outright.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .probability import Alphabet, JointPmf, Kernel, TableError

MODES = ("direct", "indirect", "heegard-berger")

X_SYMBOLS = ("0", "1")
Z_SYMBOLS = ("0", "1", "e")
Y_SYMBOLS = ("0", "1", "phi")
NODE3_SYMBOLS = ("0", "1", "*")


class SpecFormatError(ValueError):
    """A spec document failed to parse or validate; the message names the field."""


class InfeasibleError(RuntimeError):
    """Raised when no operating point can satisfy the requested constraints."""


@dataclass(frozen=True)
class ProblemSpec:
    """A complete problem instance.

    Metric tables are indexed (x, y, z, reconstruction).  ``d3`` and
    ``xhat3_alpha`` are present exactly when ``mode`` is "heegard-berger".
    """

    mode: str
    x_alpha: Alphabet
    z_alpha: Alphabet
    y_alpha: Alphabet
    a_alpha: Alphabet
    xhat1_alpha: Alphabet
    xhat2_alpha: Alphabet
    source: JointPmf
    vending: Kernel
    cost: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    xhat3_alpha: Alphabet | None = None
    d3: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise SpecFormatError(f"mode: unknown mode {self.mode!r}")
        if self.source.names != ("x", "z"):
            raise SpecFormatError(f"source: variables must be ('x', 'z'), got {self.source.names}")
        if self.source.alphabet("x") != self.x_alpha or self.source.alphabet("z") != self.z_alpha:
            raise SpecFormatError("source: alphabets disagree with declared x/z alphabets")
        if self.vending.inputs != (self.a_alpha, self.x_alpha, self.z_alpha) or self.vending.outputs != (
            self.y_alpha,
        ):
            raise SpecFormatError("vending: kernel must map (a, x, z) to y with matching alphabets")
        cost = np.asarray(self.cost, dtype=float)
        if cost.shape != (len(self.a_alpha),):
            raise SpecFormatError(f"cost: expected {len(self.a_alpha)} action costs, got shape {cost.shape}")
        if not np.all(np.isfinite(cost)) or np.any(cost < 0.0):
            raise SpecFormatError("cost: entries must be finite and nonnegative")
        cost.flags.writeable = False
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "d1", self._check_metric("d1", self.d1, self.xhat1_alpha))
        object.__setattr__(self, "d2", self._check_metric("d2", self.d2, self.xhat2_alpha))
        if self.mode == "heegard-berger":
            if self.xhat3_alpha is None or self.d3 is None:
                raise SpecFormatError("d3: heegard-berger mode needs xhat3 alphabet and d3 metric")
            object.__setattr__(self, "d3", self._check_metric("d3", self.d3, self.xhat3_alpha))
        elif self.xhat3_alpha is not None or self.d3 is not None:
            raise SpecFormatError(f"d3: mode {self.mode!r} must not carry a third-node metric")
        if self.mode == "direct":
            if self.z_alpha.symbols != self.x_alpha.symbols:
                raise SpecFormatError("source: direct mode requires the z alphabet to copy x")
            off = self.source.table.copy()
            np.fill_diagonal(off, 0.0)
            if float(off.sum()) > 1e-12:
                raise SpecFormatError("source: direct mode requires all mass on z = x")

    def _check_metric(self, name: str, table, recon: Alphabet) -> np.ndarray:
        arr = np.asarray(table, dtype=float)
        shape = (len(self.x_alpha), len(self.y_alpha), len(self.z_alpha), len(recon))
        if arr.shape != shape:
            raise SpecFormatError(f"{name}: expected shape {shape}, got {arr.shape}")
        if np.any(np.isnan(arr)) or np.any(arr < 0.0):
            raise SpecFormatError(f"{name}: entries must be nonnegative (inf allowed)")
        if np.any(~np.isfinite(arr).any(axis=3)):
            raise SpecFormatError(f"{name}: some (x, y, z) cell has no finite reconstruction")
        arr = arr.copy()
        arr.flags.writeable = False
        return arr


def binary_erasure_spec(epsilon: float) -> ProblemSpec:
    """The binary-erasure example: X ~ Bernoulli(1/2), Z erases X w.p. epsilon.

    Action 1 reveals X through the channel at unit cost, action 0 returns the
    blank symbol for free.  d1 is Hamming on X, d2 is Hamming on Z (so a
    perfect node-2 reconstruction must reproduce erasures too).
    """
    eps = float(epsilon)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"erasure probability {epsilon!r} outside [0, 1]")
    x = Alphabet("x", X_SYMBOLS)
    z = Alphabet("z", Z_SYMBOLS)
    y = Alphabet("y", Y_SYMBOLS)
    a = Alphabet("a", ("0", "1"))
    source = np.zeros((2, 3))
    for i in range(2):
        source[i, i] = (1.0 - eps) / 2.0
        source[i, 2] = eps / 2.0
    vending = np.zeros((2, 2, 3, 3))
    vending[0, :, :, 2] = 1.0
    for i in range(2):
        vending[1, i, :, i] = 1.0
    d1 = np.zeros((2, 3, 3, 2))
    for i in range(2):
        for k in range(2):
            d1[i, :, :, k] = 0.0 if i == k else 1.0
    d2 = np.zeros((2, 3, 3, 3))
    for j in range(3):
        for k in range(3):
            d2[:, :, j, k] = 0.0 if j == k else 1.0
    return ProblemSpec(
        mode="indirect",
        x_alpha=x,
        z_alpha=z,
        y_alpha=y,
        a_alpha=a,
        xhat1_alpha=Alphabet("xhat1", X_SYMBOLS),
        xhat2_alpha=Alphabet("xhat2", Z_SYMBOLS),
        source=JointPmf((("x", x), ("z", z)), source),
        vending=Kernel((a, x, z), (y,), vending),
        cost=np.array([0.0, 1.0]),
        d1=d1,
        d2=d2,
    )


def with_node3_erasure_metric(spec: ProblemSpec) -> ProblemSpec:
    """Extend the binary-erasure spec with the third node's erasure indicator.

    Node 3 must output whether Z was erased: "1" and "0" are only accepted
    when exactly right (wrong guesses cost +inf), and "*" is the always-legal
    abstention at distortion 1.
    """
    if (
        spec.mode != "indirect"
        or spec.z_alpha.symbols != Z_SYMBOLS
        or spec.y_alpha.symbols != Y_SYMBOLS
        or spec.x_alpha.symbols != X_SYMBOLS
    ):
        raise SpecFormatError("mode: node-3 metric only extends the binary-erasure spec")
    xhat3 = Alphabet("xhat3", NODE3_SYMBOLS)
    d3 = np.zeros((2, 3, 3, 3))
    for j, zsym in enumerate(Z_SYMBOLS):
        erased = "1" if zsym == "e" else "0"
        for k, rsym in enumerate(NODE3_SYMBOLS):
            if rsym == "*":
                d3[:, :, j, k] = 1.0
            elif rsym == erased:
                d3[:, :, j, k] = 0.0
            else:
                d3[:, :, j, k] = np.inf
    return replace(spec, mode="heegard-berger", xhat3_alpha=xhat3, d3=d3)


# --- JSON round trip -------------------------------------------------------
#
# Probabilities are written as decimal strings with 17 significant digits so
# a load/save cycle is bit exact.  The loader never renormalizes: sums must
# already be within 1e-12.

def _fmt(value: float) -> str:
    if value == np.inf:
        return "inf"
    return format(float(value), ".17g")


def _parse_number(raw: Any, where: str, allow_inf: bool = False) -> float:
    if isinstance(raw, str):
        if raw == "inf":
            if allow_inf:
                return float("inf")
            raise SpecFormatError(f"{where}: 'inf' not allowed here")
        try:
            return float(raw)
        except ValueError:
            raise SpecFormatError(f"{where}: bad number {raw!r}") from None
    if isinstance(raw, (int, float)):
        return float(raw)
    raise SpecFormatError(f"{where}: bad number {raw!r}")


def _require(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise SpecFormatError(f"{where}: missing key {key!r}")
    return doc[key]


def _key_to_indices(key: str, alphas: tuple[Alphabet, ...], where: str) -> tuple[int, ...]:
    parts = key.split(",")
    if len(parts) != len(alphas):
        raise SpecFormatError(f"{where}: key {key!r} needs {len(alphas)} symbols")
    try:
        return tuple(al.index(sym) for al, sym in zip(alphas, parts))
    except TableError as exc:
        raise SpecFormatError(f"{where}: {exc}") from None


def spec_to_document(spec: ProblemSpec) -> dict:
    """Serialize a spec to a JSON-ready dict."""
    alphabets = {
        "x": list(spec.x_alpha.symbols),
        "z": list(spec.z_alpha.symbols),
        "y": list(spec.y_alpha.symbols),
        "a": list(spec.a_alpha.symbols),
        "xhat1": list(spec.xhat1_alpha.symbols),
        "xhat2": list(spec.xhat2_alpha.symbols),
    }
    if spec.xhat3_alpha is not None:
        alphabets["xhat3"] = list(spec.xhat3_alpha.symbols)
    source = {}
    for (i, xs) in enumerate(spec.x_alpha.symbols):
        for (j, zs) in enumerate(spec.z_alpha.symbols):
            p = spec.source.table[i, j]
            if p != 0.0:
                source[f"{xs},{zs}"] = _fmt(p)
    vending = {}
    for ai, asym in enumerate(spec.a_alpha.symbols):
        for xi, xsym in enumerate(spec.x_alpha.symbols):
            for zi, zsym in enumerate(spec.z_alpha.symbols):
                row = {}
                for yi, ysym in enumerate(spec.y_alpha.symbols):
                    p = spec.vending.table[ai, xi, zi, yi]
                    if p != 0.0:
                        row[ysym] = _fmt(p)
                vending[f"{asym},{xsym},{zsym}"] = row
    metrics = {}
    recons = [("d1", spec.d1, spec.xhat1_alpha), ("d2", spec.d2, spec.xhat2_alpha)]
    if spec.d3 is not None:
        recons.append(("d3", spec.d3, spec.xhat3_alpha))
    for name, table, recon in recons:
        cells = []
        for idx in np.argwhere(table != 0.0):
            xi, yi, zi, ki = (int(v) for v in idx)
            key = ",".join(
                (
                    spec.x_alpha.symbols[xi],
                    spec.y_alpha.symbols[yi],
                    spec.z_alpha.symbols[zi],
                    recon.symbols[ki],
                )
            )
            cells.append([key, _fmt(table[xi, yi, zi, ki])])
        metrics[name] = cells
    cost = {asym: _fmt(spec.cost[i]) for i, asym in enumerate(spec.a_alpha.symbols)}
    return {
        "mode": spec.mode,
        "alphabets": alphabets,
        "source": {"vars": ["x", "z"], "table": source},
        "vending": vending,
        "cost": cost,
        "metrics": metrics,
    }


def spec_from_document(doc: dict) -> ProblemSpec:
    """Parse and validate a spec document (the inverse of spec_to_document)."""
    if not isinstance(doc, dict):
        raise SpecFormatError("document: expected a JSON object at top level")
    mode = _require(doc, "mode", "document")
    raw_alphas = _require(doc, "alphabets", "document")
    alphas: dict[str, Alphabet] = {}
    needed = ["x", "z", "y", "a", "xhat1", "xhat2"]
    if mode == "heegard-berger":
        needed.append("xhat3")
    for name in needed:
        syms = _require(raw_alphas, name, "alphabets")
        if not isinstance(syms, list) or not all(isinstance(s, str) for s in syms):
            raise SpecFormatError(f"alphabets.{name}: expected a list of strings")
        try:
            alphas[name] = Alphabet(name, tuple(syms))
        except TableError as exc:
            raise SpecFormatError(f"alphabets.{name}: {exc}") from None

    src_doc = _require(doc, "source", "document")
    if _require(src_doc, "vars", "source") != ["x", "z"]:
        raise SpecFormatError("source.vars: must be ['x', 'z']")
    source = np.zeros((len(alphas["x"]), len(alphas["z"])))
    for key, raw in _require(src_doc, "table", "source").items():
        i, j = _key_to_indices(key, (alphas["x"], alphas["z"]), "source.table")
        source[i, j] = _parse_number(raw, f"source.table[{key!r}]")

    vend_doc = _require(doc, "vending", "document")
    vending = np.zeros((len(alphas["a"]), len(alphas["x"]), len(alphas["z"]), len(alphas["y"])))
    for key, row in vend_doc.items():
        ai, xi, zi = _key_to_indices(key, (alphas["a"], alphas["x"], alphas["z"]), "vending")
        if not isinstance(row, dict):
            raise SpecFormatError(f"vending[{key!r}]: expected an object of y probabilities")
        for ysym, raw in row.items():
            yi = alphas["y"].index(ysym) if ysym in alphas["y"].symbols else None
            if yi is None:
                raise SpecFormatError(f"vending[{key!r}]: unknown output symbol {ysym!r}")
            vending[ai, xi, zi, yi] = _parse_number(raw, f"vending[{key!r}][{ysym!r}]")

    cost_doc = _require(doc, "cost", "document")
    cost = np.zeros(len(alphas["a"]))
    for asym, raw in cost_doc.items():
        cost[alphas["a"].index(asym)] = _parse_number(raw, f"cost[{asym!r}]")

    metrics_doc = _require(doc, "metrics", "document")
    tables = {}
    metric_names = ["d1", "d2"] + (["d3"] if mode == "heegard-berger" else [])
    recon_of = {"d1": alphas["xhat1"], "d2": alphas["xhat2"]}
    if mode == "heegard-berger":
        recon_of["d3"] = alphas["xhat3"]
    for name in metric_names:
        cells = _require(metrics_doc, name, "metrics")
        recon = recon_of[name]
        table = np.zeros((len(alphas["x"]), len(alphas["y"]), len(alphas["z"]), len(recon)))
        for entry in cells:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise SpecFormatError(f"metrics.{name}: cells must be [key, value] pairs")
            key, raw = entry
            idx = _key_to_indices(key, (alphas["x"], alphas["y"], alphas["z"], recon), f"metrics.{name}")
            table[idx] = _parse_number(raw, f"metrics.{name}[{key!r}]", allow_inf=True)
        tables[name] = table

    try:
        return ProblemSpec(
            mode=mode,
            x_alpha=alphas["x"],
            z_alpha=alphas["z"],
            y_alpha=alphas["y"],
            a_alpha=alphas["a"],
            xhat1_alpha=alphas["xhat1"],
            xhat2_alpha=alphas["xhat2"],
            source=JointPmf((("x", alphas["x"]), ("z", alphas["z"])), source),
            vending=Kernel((alphas["a"], alphas["x"], alphas["z"]), (alphas["y"],), vending),
            cost=cost,
            d1=tables["d1"],
            d2=tables["d2"],
            xhat3_alpha=alphas.get("xhat3"),
            d3=tables.get("d3"),
        )
    except TableError as exc:
        raise SpecFormatError(str(exc)) from None


def save_spec(spec: ProblemSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(spec_to_document(spec), indent=2) + "\n")


def load_spec(path: str | Path) -> ProblemSpec:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"document: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return spec_from_document(doc)
