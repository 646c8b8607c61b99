"""Problem instances: source, action-driven side-information channel, metrics.

A :class:`ProblemSpec` bundles everything that defines one coding problem:
the source pair (X, Z), the channel p(y | a, x, z) whose output the decoder
buys with actions, the per-action cost table, and the distortion metrics for
each terminal.  Metrics are dense tables over (x, y, z, reconstruction) and
may contain +inf to forbid a reconstruction outright.
"""
from __future__ import annotations

import json
import math
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
# Every table, in instance and policy documents alike, is written as its
# nonzero cells under comma-joined symbol keys ("x,z" -> value), and a kernel
# as one such cells object per input row, keyed the same way.  Two sections
# differ: metric cells are a list of [key, value] pairs, and the action costs
# are written densely, zeros included.  Numbers are decimal strings with 17
# significant digits so a load/save cycle is bit exact.  The loader never
# renormalizes: sums must already be within 1e-12.

def _fmt(value: float) -> str:
    if value == np.inf:
        return "inf"
    return format(float(value), ".17g")


def require_field(doc: Any, key: str, where: str) -> Any:
    """``doc[key]``, where ``doc`` must be a JSON object holding ``key``."""
    if not isinstance(doc, dict):
        raise SpecFormatError(f"{where}: expected a JSON object")
    if key not in doc:
        raise SpecFormatError(f"{where}: missing key {key!r}")
    return doc[key]


def _key_to_indices(key: Any, alphas: tuple[Alphabet, ...], where: str) -> tuple[int, ...]:
    parts = key.split(",") if isinstance(key, str) else ()
    if len(parts) != len(alphas):
        raise SpecFormatError(f"{where}: key {key!r} is not {len(alphas)} comma-joined symbols")
    try:
        return tuple(map(Alphabet.index, alphas, parts))
    except TableError as exc:
        raise SpecFormatError(f"{where}: {exc}") from None


def _items(doc: Any, where: str, metric: bool) -> Any:
    if metric:
        if isinstance(doc, list) and all(isinstance(c, list) and len(c) == 2 for c in doc):
            return doc
        raise SpecFormatError(f"{where}: cells must be [key, value] pairs")
    if isinstance(doc, dict):
        return doc.items()
    raise SpecFormatError(f"{where}: expected a JSON object")


def table_to_cells(table: np.ndarray, alphas: tuple[Alphabet, ...]) -> dict:
    """The nonzero cells of a dense table, keyed by comma-joined symbols."""
    return {
        ",".join(al.symbols[i] for al, i in zip(alphas, idx)): _fmt(table[tuple(idx)])
        for idx in np.argwhere(table != 0.0).tolist()
    }


def table_from_cells(
    cells: Any,
    alphas: tuple[Alphabet, ...],
    where: str,
    out: np.ndarray | None = None,
    metric: bool = False,
) -> np.ndarray:
    """Fill a dense table (``out``, or a new zero one) from its cells object,
    or, for a ``metric``, from a list of ``[key, value]`` pairs.  Values are
    numbers or number strings; +inf only in a metric."""
    table = np.zeros(tuple(len(al) for al in alphas)) if out is None else out
    seen = set()
    for key, raw in _items(cells, where, metric):
        idx = _key_to_indices(key, alphas, where)
        if idx in seen:
            raise SpecFormatError(f"{where}: repeated cell {key!r}")
        seen.add(idx)
        try:
            value = math.nan if isinstance(raw, bool) else float(raw)
        except (TypeError, ValueError, OverflowError):
            value = math.nan
        if not (-math.inf < value < math.inf or (metric and value == math.inf)):
            raise SpecFormatError(f"{where}[{key!r}]: bad number {raw!r}")
        table[idx] = value
    return table


def kernel_to_rows(kernel: Kernel) -> dict:
    """One cells object per input row, keyed by the row's comma-joined inputs."""
    return {
        ",".join(al.symbols[i] for al, i in zip(kernel.inputs, idx)): table_to_cells(
            kernel.table[idx], kernel.outputs
        )
        for idx in np.ndindex(kernel.table.shape[: len(kernel.inputs)])
    }


def kernel_from_rows(
    rows: Any, inputs: tuple[Alphabet, ...], outputs: tuple[Alphabet, ...], where: str
) -> Kernel:
    """The inverse of kernel_to_rows.  A missing row stays all zero, which the
    Kernel check then rejects."""
    table = np.zeros(tuple(len(al) for al in inputs + outputs))
    for key, cells in _items(rows, where, False):
        row = table[_key_to_indices(key, inputs, where)]
        table_from_cells(cells, outputs, f"{where}[{key!r}]", out=row)
    try:
        return Kernel(inputs, outputs, table)
    except TableError as exc:
        raise SpecFormatError(f"{where}: {exc}") from None


def read_alphabets(doc: Any, names: list[str], where: str) -> dict[str, Alphabet]:
    """The named alphabets of an ``alphabets`` object (name -> symbol list)."""
    alphas = {}
    for name in names:
        syms = require_field(doc, name, where)
        if not isinstance(syms, list) or not all(isinstance(s, str) for s in syms):
            raise SpecFormatError(f"{where}.{name}: expected a list of strings")
        try:
            alphas[name] = Alphabet(name, tuple(syms))
        except TableError as exc:
            raise SpecFormatError(f"{where}.{name}: {exc}") from None
    return alphas


def read_json(path: str | Path, where: str) -> Any:
    """Parse a JSON file; bad JSON raises SpecFormatError with its position,
    and an object that repeats a key raises it naming the key."""

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise SpecFormatError(f"{where}: repeated key {key!r}")
            doc[key] = value
        return doc

    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        msg = f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        raise SpecFormatError(f"{where}: {msg}") from None
    except RecursionError:
        raise SpecFormatError(f"{where}: JSON nested too deeply") from None


def spec_to_document(spec: ProblemSpec) -> dict:
    """Serialize a spec to a JSON-ready dict."""
    x, y, z = spec.x_alpha, spec.y_alpha, spec.z_alpha
    alphas = {"x": x, "z": z, "y": y, "a": spec.a_alpha}
    alphas.update(xhat1=spec.xhat1_alpha, xhat2=spec.xhat2_alpha)
    recons = [("d1", spec.d1, spec.xhat1_alpha), ("d2", spec.d2, spec.xhat2_alpha)]
    if spec.d3 is not None:
        alphas["xhat3"] = spec.xhat3_alpha
        recons.append(("d3", spec.d3, spec.xhat3_alpha))
    return {
        "mode": spec.mode,
        "alphabets": {name: list(al.symbols) for name, al in alphas.items()},
        "source": {"vars": ["x", "z"], "table": table_to_cells(spec.source.table, (x, z))},
        "vending": kernel_to_rows(spec.vending),
        "cost": {asym: _fmt(c) for asym, c in zip(spec.a_alpha.symbols, spec.cost)},
        "metrics": {
            name: [list(cell) for cell in table_to_cells(table, (x, y, z, recon)).items()]
            for name, table, recon in recons
        },
    }


def spec_from_document(doc: dict) -> ProblemSpec:
    """Parse and validate a spec document (the inverse of spec_to_document)."""
    mode = require_field(doc, "mode", "document")
    hb = mode == "heegard-berger"
    names = ["x", "z", "y", "a", "xhat1", "xhat2"] + (["xhat3"] if hb else [])
    alphas = read_alphabets(require_field(doc, "alphabets", "document"), names, "alphabets")
    x, z, y, a = (alphas[n] for n in ("x", "z", "y", "a"))
    src_doc = require_field(doc, "source", "document")
    if require_field(src_doc, "vars", "source") != ["x", "z"]:
        raise SpecFormatError("source.vars: must be ['x', 'z']")
    source = table_from_cells(require_field(src_doc, "table", "source"), (x, z), "source.table")
    vending = kernel_from_rows(require_field(doc, "vending", "document"), (a, x, z), (y,), "vending")
    cost = table_from_cells(require_field(doc, "cost", "document"), (a,), "cost")
    metrics_doc = require_field(doc, "metrics", "document")
    tables = {
        name: table_from_cells(
            require_field(metrics_doc, name, "metrics"),
            (x, y, z, alphas["xhat" + name[1]]),
            f"metrics.{name}",
            metric=True,
        )
        for name in ["d1", "d2"] + (["d3"] if hb else [])
    }
    try:
        return ProblemSpec(
            mode=mode,
            x_alpha=x,
            z_alpha=z,
            y_alpha=y,
            a_alpha=a,
            xhat1_alpha=alphas["xhat1"],
            xhat2_alpha=alphas["xhat2"],
            source=JointPmf((("x", x), ("z", z)), source),
            vending=vending,
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
    return spec_from_document(read_json(path, "document"))
