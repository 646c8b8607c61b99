"""Command-line front end: curve tables, policy evaluation, sweeps, and runs.

Every command emits plot-ready CSV (or a plain-text report for ``evaluate``)
with a fixed column order and floats at 12 significant digits.  Infeasible
rows keep their ``feasible=0`` flag and leave rate cells empty instead of
printing inf or nan.  When ``--output`` is given the text goes to that file
and a ``<output>.manifest.json`` sidecar records the resolved parameters, so
a run can be reproduced bit for bit.

Exit codes: 0 on success, 2 for input errors, 3 for infeasible problems.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .closed_form import CASE_TAGS, curve_rate
from .model import InfeasibleError, SpecFormatError, load_spec
from .probability import TableError, check_markov
from .region import (
    OptimizerConfig,
    Targets,
    assemble_joint,
    evaluate_point,
    load_policy,
    markov_chains,
    save_policy,
    sweep_gamma,
)
from .sim import SCHEMES, SimConfig, run_scheme

FIG4_CASES = ("case1", "case2", "case2_ts", "case3")
FIG6_D3_LEVELS = (0.4, 0.6, 0.8, 1.0)
DEFAULT_GAMMA_STEP = 0.01


def _fmt(value) -> str:
    """One CSV cell: 12 significant digits, empty for non-finite values."""
    if isinstance(value, int):
        return str(value)
    if value is None or not math.isfinite(float(value)):
        return ""
    return f"{float(value):.12g}"


def _default_grid() -> list[float]:
    steps = round(1.0 / DEFAULT_GAMMA_STEP)
    return [round(i * DEFAULT_GAMMA_STEP, 10) for i in range(steps + 1)]


# --- closed-form tables ----------------------------------------------------

def _closed_form_curves(args) -> list[tuple[str, float | None]]:
    if args.preset == "fig6":
        levels = args.d3 or list(FIG6_D3_LEVELS)
        return [("hb_case2", float(d3)) for d3 in levels]
    if args.case == "hb_case2":
        if not args.d3:
            raise ValueError("the hb_case2 curve needs at least one --d3 level")
        return [("hb_case2", float(d3)) for d3 in args.d3]
    if args.d3:
        raise ValueError("--d3 only applies to the hb_case2 curve")
    tags = FIG4_CASES if args.preset == "fig4" else (args.case,)
    return [(tag, None) for tag in tags]


def cmd_closed_form(args) -> tuple[list[str], int, list[Path]]:
    curves = _closed_form_curves(args)
    grid = [float(g) for g in args.gamma] if args.gamma else _default_grid()
    epsilon = float(args.epsilon)
    lines = ["gamma,r1,r2,feasible"]
    for tag, d3 in curves:
        label = f"# {tag} epsilon={_fmt(epsilon)}"
        if d3 is not None:
            label += f" d3={_fmt(d3)}"
        lines.append(label)
        for g in grid:
            try:
                # each rate function checks epsilon, gamma and d3 itself
                r1 = curve_rate(tag, epsilon, g, d3)
            except InfeasibleError:
                lines.append(f"{_fmt(g)},,,0")
                continue
            r2 = 0.0 if tag == "case1" else epsilon
            lines.append(f"{_fmt(g)},{_fmt(r1)},{_fmt(r2)},1")
    return lines, 0, []


# --- operating-point reports -----------------------------------------------

def cmd_evaluate(args) -> tuple[list[str], int, list[Path]]:
    spec = load_spec(args.spec)
    policy = load_policy(args.policy)
    point = evaluate_point(spec, policy)
    lines = [
        f"r1 = {point.r1:.12g}",
        f"r2 = {point.r2:.12g}",
        f"d1 = {point.d1:.12g}",
        f"d2 = {point.d2:.12g}",
    ]
    if point.d3 is not None:
        lines.append(f"d3 = {point.d3:.12g}")
    lines.append(f"gamma = {point.gamma:.12g}")
    lines.append(f"feasible = {int(point.feasible)}")
    joint = assemble_joint(spec, policy)
    for left, mid, right in markov_chains(spec):
        ok, resid = check_markov(joint, left, mid, right)
        chain = " | ".join(",".join(group) for group in (left, mid, right))
        lines.append(f"markov {chain}: residual = {resid:.3g} ({'ok' if ok else 'violated'})")
    return lines, 0, []


# --- rate sweeps -----------------------------------------------------------

def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        hops=args.hops,
        rng_seed=args.seed,
        cardinality_override=tuple(args.cardinality) if args.cardinality else None,
    )


def cmd_sweep(args) -> tuple[list[str], int, list[Path]]:
    spec = load_spec(args.spec)
    targets = Targets(d1=args.d1, d2=args.d2, d3=args.d3)
    seeds = [load_policy(path) for path in args.seed_policy]
    entries = sweep_gamma(spec, targets, args.gammas, _optimizer_config(args), seeds=seeds)
    lines = ["gamma,r1,r2,d1,d2,d3,residual,feasible"]
    extra_outputs: list[Path] = []
    for entry in entries:
        result = entry.result
        point = result.point
        residual = max(result.residuals.values(), default=0.0)
        if result.feasible:
            cells = [point.r1, point.r2, point.d1, point.d2, point.d3]
        else:
            cells = [None, None, point.d1, point.d2, point.d3]
        row = [_fmt(entry.gamma)] + [_fmt(c) for c in cells]
        row += [_fmt(residual), str(int(result.feasible))]
        lines.append(",".join(row))
        if args.dump_policies is not None:
            directory = Path(args.dump_policies)
            directory.mkdir(parents=True, exist_ok=True)
            # repr keeps every digit: --gammas 0.6000001 0.6000002 are two files
            path = directory / f"policy_gamma_{entry.gamma!r}.json"
            save_policy(result.policy, path)
            extra_outputs.append(path)
    code = 0 if any(e.result.feasible for e in entries) else 3
    return lines, code, extra_outputs


# --- simulations -----------------------------------------------------------

def cmd_simulate(args) -> tuple[list[str], int, list[Path]]:
    config = SimConfig(args.scheme, args.n, args.epsilon, args.gamma,
                       rng_seed=args.seed, trials=args.trials)
    row = run_scheme(config).csv_row()
    lines = [",".join(row), ",".join(_fmt(v) if not isinstance(v, str) else v for v in row.values())]
    return lines, 0, []


# --- plumbing --------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_manifest(args, outputs: list[Path], duration: float) -> None:
    params = {
        k: _jsonable(v)
        for k, v in sorted(vars(args).items())
        if k != "func" and v is not None
    }
    manifest = {
        "command": args.command,
        "version": __version__,
        "parameters": params,
        "rng_seeds": [args.seed] if "seed" in params else [],
        "outputs": [str(p) for p in outputs],
        "duration_seconds": round(duration, 3),
        "cpu_count": os.cpu_count(),
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
    }
    sidecar = Path(str(outputs[0]) + ".manifest.json")
    sidecar.write_text(json.dumps(manifest, indent=2) + "\n")


# Built once per process: building takes about 0.8 ms, most of a short
# command, against 0.05 ms to parse, and parse_args leaves the parser as it is.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vendingrd",
        description="Rate-distortion-cost tables, sweeps, and simulations "
        "for action-controlled side-information coding.",
    )
    parser.add_argument("--version", action="version", version=f"vendingrd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cf = sub.add_parser("closed-form", help="tabulate the erasure-example curves")
    which = p_cf.add_mutually_exclusive_group(required=True)
    which.add_argument("--preset", choices=("fig4", "fig6"))
    which.add_argument("--case", choices=CASE_TAGS)
    p_cf.add_argument("--epsilon", type=float, default=0.2)
    p_cf.add_argument("--gamma", type=float, nargs="+", help="cost budgets (default: 0..1 step 0.01)")
    p_cf.add_argument("--d3", type=float, nargs="+", help="third-node levels for hb_case2")
    p_cf.add_argument("--output", type=Path)
    p_cf.set_defaults(func=cmd_closed_form)

    p_ev = sub.add_parser("evaluate", help="evaluate a policy file against a spec file")
    p_ev.add_argument("--spec", type=Path, required=True)
    p_ev.add_argument("--policy", type=Path, required=True)
    p_ev.add_argument("--output", type=Path)
    p_ev.set_defaults(func=cmd_evaluate)

    p_sw = sub.add_parser("sweep", help="minimize the forward rate along a budget grid")
    p_sw.add_argument("--spec", type=Path, required=True)
    p_sw.add_argument("--d1", type=float, required=True)
    p_sw.add_argument("--d2", type=float, required=True)
    p_sw.add_argument("--d3", type=float)
    p_sw.add_argument("--gammas", type=float, nargs="+", required=True)
    defaults = OptimizerConfig()
    p_sw.add_argument("--restarts", type=int, default=defaults.restarts)
    p_sw.add_argument("--max-iters", type=int, default=defaults.max_iters, help="iterations per solve")
    p_sw.add_argument("--hops", type=int, default=defaults.hops, help="extra fresh draws per start")
    p_sw.add_argument("--seed", type=int, default=defaults.rng_seed)
    p_sw.add_argument("--cardinality", type=int, nargs=2, metavar=("NU", "NV"),
                      help="solver sizes |U| and |V|; NV must be at least |Y|, since V relays Y")
    p_sw.add_argument("--seed-policy", type=Path, action="append", default=[])
    p_sw.add_argument("--dump-policies", type=Path)
    p_sw.add_argument("--output", type=Path)
    p_sw.set_defaults(func=cmd_sweep)

    p_si = sub.add_parser("simulate", help="run a block-coding scheme")
    p_si.add_argument("--scheme", choices=SCHEMES, required=True)
    p_si.add_argument("--n", type=int, required=True)
    p_si.add_argument("--epsilon", type=float, required=True)
    p_si.add_argument("--gamma", type=float, required=True)
    p_si.add_argument("--seed", type=int, default=0)
    p_si.add_argument("--trials", type=int, default=1)
    p_si.add_argument("--output", type=Path)
    p_si.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        lines, code, extra_outputs = args.func(args)
        text = "\n".join(lines) + "\n"
        if args.output is not None:
            args.output.write_text(text)
            _write_manifest(args, [args.output] + extra_outputs, time.perf_counter() - started)
        else:
            sys.stdout.write(text)
    except InfeasibleError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (SpecFormatError, TableError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
