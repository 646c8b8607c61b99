"""The benchmark's workloads: inputs made from the seed, ops and their checks.

All inputs are for epsilon = 0.2.  An op is one call into vendingrd, and its
check compares the output with a reference.  A check reports problems of two
kinds:

* ``miss``: a search ended farther from its reference rate than criterion 5
  allows, or found no feasible policy.  The op counts as failed, but what it
  returned is still a valid policy with its true operating point.
* ``wrong``: the output is not what the program claims (an exception, a bad
  exit code, a value off its closed form, a broken invariant).  The op
  counts as failed and the run is not correct.

Why these workloads: ``optimize`` is criterion 5 in miniature, so the search
in ``region`` does nearly all the work; ``tables`` is many short CLI calls,
each building its own spec and evaluation context, with the closed-form grid
search and short pooled simulations; ``simulate`` is long blocks, where the
per-symbol numpy work in ``sim`` and the fan-out of trials dominate.  The
short simulations in ``tables`` and the long ones in ``simulate`` use the
same pool in opposite regimes, so a pool change shows its cost on one of
them.
"""
from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import vendingrd as vr
from vendingrd import cli

EPS = 0.2
POINT_GAMMAS = (0.3, 0.6, 0.9)
POINT_CASES = ("case1", "case2", "case3")
SEARCH_TOL = 0.05
# A search may meet its distortion targets only to within the package's 1e-7
# feasibility tolerance, and near zero distortion that slack buys about
# h2(1e-7) = 2.5e-6 bits of rate; a rate further below the optimum is wrong.
BEAT_TOL = 1e-4
EVAL_GAMMA = 0.6
SIM_GAMMA = 0.6
FIG6_GAMMAS = tuple(f"{0.05 * k:.2f}" for k in range(21))


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    gap: float | None = None

    def miss(self, message):
        self.problems.append(("miss", message))

    def wrong(self, message):
        self.problems.append(("wrong", message))

    @property
    def is_wrong(self) -> bool:
        return any(kind == "wrong" for kind, _ in self.problems)


@dataclass
class Op:
    """One call into a layer, named by its entry in the workload's mix."""

    entry: str
    call: str
    fn: Callable
    args: tuple
    check: Callable[[object], Verdict]
    tasks: int = 1
    tags: dict = field(default_factory=dict)


def pool_workers(tasks: int) -> int:
    """Workers the package default gives a call that fans out to ``tasks``."""
    workers = min(os.cpu_count() or 1, tasks)
    cap = os.environ.get("VENDINGRD_THREADS")
    if cap:
        workers = min(workers, int(cap))
    return max(1, workers)


@contextlib.contextmanager
def threads(count: int):
    """Run the block with VENDINGRD_THREADS set to ``count``."""
    old = os.environ.get("VENDINGRD_THREADS")
    os.environ["VENDINGRD_THREADS"] = str(count)
    try:
        yield
    finally:
        if old is None:
            del os.environ["VENDINGRD_THREADS"]
        else:
            os.environ["VENDINGRD_THREADS"] = old


# --- optimize ----------------------------------------------------------------

def search_config(seed: int) -> vr.OptimizerConfig:
    """Criterion 5's random-restart config at 8 restarts instead of 64."""
    return vr.OptimizerConfig(
        restarts=8, max_iters=12, hops=4, cardinality_override=(3, 3), rng_seed=seed
    )


def criterion5_targets(tag: str, gamma: float) -> vr.Targets:
    if tag == "case1":
        return vr.Targets(d1=0.5, d2=0.0, gamma=gamma)
    if tag == "case2":
        return vr.Targets(d1=0.0, d2=0.6, gamma=gamma)
    return vr.Targets(d1=0.0, d2=0.0, gamma=gamma)


def check_search(spec, reference: float, result) -> Verdict:
    verdict = Verdict(gap=abs(result.point.r1 - reference))
    again = vr.evaluate_point(spec, result.policy)
    if abs(again.r1 - result.point.r1) > 1e-9:
        verdict.wrong(f"reported r1 {result.point.r1} but the policy evaluates to {again.r1}")
    if result.feasible and result.point.r1 < reference - BEAT_TOL:
        verdict.wrong(f"feasible r1 {result.point.r1} beats the optimum {reference}")
    if not result.feasible:
        verdict.miss("no feasible policy found")
    elif verdict.gap > SEARCH_TOL:
        verdict.miss(f"r1 {result.point.r1:.6f} is {verdict.gap:.3f} above {reference:.6f}")
    return verdict


def search_op(entry, spec, targets, config, reference) -> Op:
    return Op(
        entry, "region.minimize_r1", vr.minimize_r1, (spec, targets, config),
        lambda result: check_search(spec, reference, result), tasks=config.restarts,
    )


def optimize_ops(seed: int, inputs: Path) -> list[Op]:
    spec = vr.binary_erasure_spec(EPS)
    config = search_config(seed)
    ops = []
    for tag in POINT_CASES:
        for g in POINT_GAMMAS:
            reference = vr.example_rate(vr.ExampleCase(tag, EPS, g))
            ops.append(search_op(f"{tag}_g{g}", spec, criterion5_targets(tag, g), config, reference))
    hb = vr.with_node3_erasure_metric(spec)
    targets = vr.Targets(d1=0.0, d2=1.0, d3=0.6, gamma=0.6)
    ops.append(search_op("hb_g0.6_d0.6", hb, targets, config, vr.hb_case2_r1(EPS, 0.6, 0.6)))
    return ops


# --- tables --------------------------------------------------------------------

def hb_abstention_policy(spec, gamma, p1, p2, p3) -> vr.Policy:
    """Third-node policy abstaining w.p. p1, p2, p3 on (A=1, Z=e), (A=0, Z
    binary) and (A=1, Z binary); the backward index relays Y."""
    z, a, y, w = spec.z_alpha, spec.a_alpha, spec.y_alpha, spec.xhat3_alpha
    u = vr.Alphabet("u", ("u0",))
    q = (gamma - EPS) / (1.0 - EPS)
    f = np.zeros((3, 2, 1, 3))
    for zi in (0, 1):
        f[zi, 0, 0, 2] = (1.0 - q) * p2
        f[zi, 0, 0, 0] = (1.0 - q) * (1.0 - p2)
        f[zi, 1, 0, 2] = q * p3
        f[zi, 1, 0, 0] = q * (1.0 - p3)
    f[2, 1, 0, 2] = p1
    f[2, 1, 0, 1] = 1.0 - p1
    v = vr.Alphabet("v", y.symbols)
    b = np.zeros((2, 1, 3, 3, 3))
    for yi in range(3):
        b[:, :, yi, :, yi] = 1.0
    return vr.Policy(vr.Kernel((z,), (a, u, w), f), vr.Kernel((a, u, y, w), (v,), b))


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _blocks(text: str) -> dict[str, list[list[str]]]:
    """CSV rows of a closed-form table, grouped under their '# ...' labels."""
    blocks: dict[str, list[list[str]]] = {}
    rows = None
    for line in text.splitlines()[1:]:
        if line.startswith("#"):
            rows = blocks.setdefault(line[2:], [])
        elif rows is not None:
            rows.append(line.split(","))
    return blocks


def _close(cell: str, want: float, tol: float) -> bool:
    return cell != "" and abs(float(cell) - want) <= tol


def fig4_reference() -> dict[str, list]:
    """Closed-form (gamma, r1, r2) of every fig4 row; r1 is None where infeasible."""
    grid = [round(i * 0.01, 10) for i in range(101)]
    table = {}
    for tag in ("case1", "case2", "case2_ts", "case3"):
        r2 = 0.0 if tag == "case1" else EPS
        rows = []
        for g in grid:
            try:
                rows.append((g, vr.example_rate(vr.ExampleCase(tag, EPS, g)), r2))
            except vr.InfeasibleError:
                rows.append((g, None, r2))
        table[tag] = rows
    return table


def check_fig4(output, reference) -> Verdict:
    code, text = output
    verdict = Verdict()
    if code != 0:
        verdict.wrong(f"exit code {code}")
        return verdict
    blocks = _blocks(text)
    for tag, want_rows in reference.items():
        rows = blocks.get(f"{tag} epsilon=0.2", [])
        if len(rows) != len(want_rows):
            verdict.wrong(f"{tag}: {len(rows)} rows, expected {len(want_rows)}")
            continue
        for (g, r1, r2), row in zip(want_rows, rows):
            if r1 is None:
                ok = row[1:] == ["", "", "0"]
            else:
                ok = row[3] == "1" and _close(row[1], r1, 1e-9) and _close(row[2], r2, 1e-12)
            if not ok or abs(float(row[0]) - g) > 1e-12:
                verdict.wrong(f"{tag} row {','.join(row)} != rate {r1} at gamma {g}")
                break
    case2 = {row[0]: row for row in blocks.get("case2 epsilon=0.2", [])}
    if case2.get("0.6", ["", ""])[1] != "0.170950594455":
        verdict.wrong(f"case2 row at gamma 0.6 reads {case2.get('0.6')}")
    return verdict


def _fig6_block_problem(d3: float, rows: list[list[str]]) -> str | None:
    """The first row of one d3 curve that breaks criterion 3, if any."""
    if len(rows) != len(FIG6_GAMMAS):
        return f"{len(rows)} rows, expected {len(FIG6_GAMMAS)}"
    plateau = None
    for row in rows:
        g = float(row[0])
        if g < EPS:
            if row[1:] != ["", "", "0"]:
                return f"infeasible row {','.join(row)}"
            continue
        if row[3] != "1" or not _close(row[2], EPS, 1e-12):
            return f"row {','.join(row)}"
        r1 = float(row[1])
        if g <= d3 + 1e-12 and abs(r1 - vr.case2_r1(EPS, g)) > 1e-6:
            return f"r1 {r1} at gamma {g} != case2 {vr.case2_r1(EPS, g)}"
        if g >= d3 - 1e-12:
            plateau = r1 if plateau is None else plateau
            if abs(r1 - plateau) > 1e-6:
                return f"r1 {r1} at gamma {g} leaves the plateau {plateau}"
    return None


def check_fig6(output) -> Verdict:
    code, text = output
    verdict = Verdict()
    if code != 0:
        verdict.wrong(f"exit code {code}")
        return verdict
    blocks = _blocks(text)
    for d3 in (0.4, 0.6, 0.8, 1.0):
        problem = _fig6_block_problem(d3, blocks.get(f"hb_case2 epsilon=0.2 d3={d3:g}", []))
        if problem:
            verdict.wrong(f"d3={d3}: {problem}")
    return verdict


def _report_values(text: str) -> tuple[dict[str, float], list[str]]:
    values, markov = {}, []
    for line in text.splitlines():
        if line.startswith("markov "):
            markov.append(line)
        else:
            key, _, value = line.partition(" = ")
            values[key] = float(value)
    return values, markov


def check_evaluate(output, want: dict) -> Verdict:
    code, text = output
    verdict = Verdict()
    if code != 0:
        verdict.wrong(f"exit code {code}")
        return verdict
    values, markov = _report_values(text)
    for key, expected in want.items():
        got = values.get(key)
        if got is None or abs(got - expected) > 1e-9:
            verdict.wrong(f"{key} = {got}, expected {expected}")
    if len(markov) != 2 or not all(line.endswith("(ok)") for line in markov):
        verdict.wrong(f"markov lines {markov}")
    return verdict


def sim_problems(result, verdict: Verdict) -> Verdict:
    """The invariants of the block-coding tests on one result's trials."""
    c = result.config
    if c.scheme == "case1":
        if any(result.backward_bits) or any(result.d2_errors):
            verdict.wrong("case1 sent backward bits or made node-2 errors")
    elif c.scheme == "case3":
        if any(result.d1_errors) or any(result.d2_errors):
            verdict.wrong("case3 made reconstruction errors")
        if result.backward_bits != result.erasure_counts:
            verdict.wrong("case3 backward bits differ from its erasure counts")
    elif any(result.d1_errors):
        verdict.wrong("case2_ts made node-1 errors")
    rate = {"case1": vr.case1_r1, "case3": vr.case3_r1}.get(c.scheme)
    if rate is not None:
        for fw, k, acts in zip(result.forward_bits, result.erasure_counts, result.action_counts):
            bound = c.n * rate(k / c.n, acts / c.n)
            if fw < bound - 1e-9:
                verdict.wrong(f"{c.scheme} trial sent {fw} bits, below its converse {bound:.3f}")
                break
    return verdict


SIM_COLUMNS = ("r1_hat", "r2_hat", "d1_hat", "d2_hat", "cost_hat")


def check_cli_simulate(output, reference) -> Verdict:
    code, text = output
    verdict = sim_problems(reference, Verdict())
    if code != 0:
        verdict.wrong(f"exit code {code}")
        return verdict
    header, values = (line.split(",") for line in text.splitlines())
    row = dict(zip(header, values))
    want = reference.csv_row()
    for key in SIM_COLUMNS:
        if abs(float(row[key]) - want[key]) > 1e-11 * max(1.0, abs(want[key])):
            verdict.wrong(f"{key} = {row[key]}, library run gives {want[key]!r}")
    return verdict


def tables_ops(seed: int, inputs: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    spec = vr.binary_erasure_spec(EPS)
    hb = vr.with_node3_erasure_metric(spec)
    spec_path, hb_path = inputs / "spec.json", inputs / "spec_hb.json"
    vr.save_spec(spec, spec_path)
    vr.save_spec(hb, hb_path)

    fig6_argv = ["closed-form", "--preset", "fig6", "--gamma", *FIG6_GAMMAS]
    ops = [
        Op("fig4", "cli.main", run_cli, (["closed-form", "--preset", "fig4"],),
           lambda out, ref=fig4_reference(): check_fig4(out, ref)),
        Op("fig6", "cli.main", run_cli, (fig6_argv,), check_fig6),
    ]
    g = EVAL_GAMMA
    rates = {"case1": vr.case1_r1, "case2": vr.case2_r1, "case3": vr.case3_r1}
    exact = {"case1": ("d2",), "case2": ("d1",), "case3": ("d1", "d2")}
    for tag, rate in rates.items():
        path = inputs / f"policy_{tag}.json"
        vr.save_policy(vr.appendixB_policy(vr.ExampleCase(tag, EPS, g)), path)
        want = {"r1": rate(EPS, g), "r2": 0.0 if tag == "case1" else EPS, "gamma": g}
        want.update({d: 0.0 for d in exact[tag]})
        argv = ["evaluate", "--spec", str(spec_path), "--policy", str(path)]
        ops.append(Op(f"evaluate_{tag}", "cli.main", run_cli, (argv,),
                      lambda out, want=want: check_evaluate(out, want)))
    p1, p2, p3 = (float(p) for p in rng.uniform(0.05, 0.95, size=3))
    path = inputs / "policy_hb.json"
    vr.save_policy(hb_abstention_policy(hb, g, p1, p2, p3), path)
    want = {
        "r1": float(vr.hb_rate_formula(EPS, g, p1, p2, p3)),
        "d3": float(vr.hb_abstention_cost(EPS, g, p1, p2, p3)),
        "gamma": g,
    }
    argv = ["evaluate", "--spec", str(hb_path), "--policy", str(path)]
    ops.append(Op("evaluate_hb", "cli.main", run_cli, (argv,),
                  lambda out, want=want: check_evaluate(out, want)))

    sim_seed = int(rng.integers(2**31))
    for scheme in vr.SCHEMES:
        config = vr.SimConfig(scheme, 1000, EPS, SIM_GAMMA, rng_seed=sim_seed, trials=20)
        reference = vr.run_scheme(config)
        argv = ["simulate", "--scheme", scheme, "--n", "1000", "--epsilon", str(EPS),
                "--gamma", str(SIM_GAMMA), "--seed", str(sim_seed), "--trials", "20"]
        ops.append(Op(f"simulate_{scheme}", "cli.main", run_cli, (argv,),
                      lambda out, ref=reference: check_cli_simulate(out, ref), tasks=20))
    # Every evaluate call runs twice per pass, so the median op of the mix is
    # a short evaluate call.  Otherwise it is the fig4 table, whose time host
    # contention stretched by up to half between runs, against about a tenth
    # for evaluate.
    return ops + [op for op in ops if op.entry.startswith("evaluate_")]


# --- simulate ------------------------------------------------------------------

def check_long_run(result) -> Verdict:
    verdict = sim_problems(result, Verdict())
    target = result.config.target_rate
    if abs(result.r1_hat - target) > 0.01:
        verdict.wrong(f"r1_hat {result.r1_hat} is {abs(result.r1_hat - target):.4f} off {target}")
    return verdict


def long_run_op(scheme: str, seed: int) -> Op:
    config = vr.SimConfig(scheme, 10**6, EPS, SIM_GAMMA, rng_seed=seed, trials=8)
    return Op(scheme, "sim.run_scheme", vr.run_scheme, (config,), check_long_run,
              tasks=config.trials, tags={"size": "long", "symbols": config.n * config.trials})


def simulate_ops(seed: int, inputs: Path) -> list[Op]:
    return [long_run_op(scheme, seed) for scheme in vr.SCHEMES]


BUILDERS = {"optimize": optimize_ops, "tables": tables_ops, "simulate": simulate_ops}


def build(workload: str, seed: int, inputs: Path) -> list[Op]:
    """The workload's mix of ops, made from the seed; files go to ``inputs``."""
    return BUILDERS[workload](seed, inputs)


def run_op(op: Op, tracer, **tags) -> tuple[float, Verdict]:
    """Time one op's call, then check its output; returns (seconds, verdict)."""
    with tracer.op("bench.op", entry=op.entry, **tags):
        started = time.perf_counter()
        try:
            out = tracer.call(op.call, op.fn, *op.args, entry=op.entry,
                              workers=pool_workers(op.tasks), **op.tags)
        except Exception as exc:  # a raising op is a failed, wrong op
            verdict = Verdict()
            verdict.wrong(f"raised {exc!r}")
            return time.perf_counter() - started, verdict
        elapsed = time.perf_counter() - started
        try:
            verdict = op.check(out)
        except Exception as exc:
            verdict = Verdict()
            verdict.wrong(f"check raised {exc!r}")
    return elapsed, verdict
