"""End-to-end and per-layer benchmark of vendingrd.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {optimize,tables,simulate} \\
        --seed N --seconds S --trace {0,1}

The workload's inputs are made from the seed.  Load comes from this one
process as a closed loop: one caller, and the next op starts only after the
previous one returns and has been checked.  Pool workers stay at the package
default.  The loop runs whole passes over the workload's mix, as many as
come nearest to ``--seconds`` (at least one), so every run weighs the mix
the same.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
loop with a span around every call into vendingrd, repeats the workload's
pooled calls at VENDINGRD_THREADS=1, makes the layer probes of
``probes.py``, and reports the per-layer metrics read off the spans.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit and sample count, the workload-specific ones too, and
the environment.  Full results and the spans are written to
``perfbench/out/``.
"""
import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

WORKLOADS = ("optimize", "tables", "simulate")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds as JSON and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def git_commit():
    """The checked-out commit, or None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": args.seed,
        "VENDINGRD_THREADS": os.environ.get("VENDINGRD_THREADS"),
    }


def setup(args, inputs):
    """Import, make the inputs, run one warm-up op; returns (ops, warm-up verdict)."""
    import workloads
    from spans import NullTracer

    ops = workloads.build(args.workload, args.seed, inputs)
    _, verdict = workloads.run_op(ops[0], NullTracer(), phase="warmup")
    return ops, verdict


def setup_in_child(args) -> tuple[float, bool]:
    """Set-up seconds of a fresh interpreter doing this run's set-up, and
    whether its warm-up op was correct."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["setup_s"], report["correct"]


def timed_loop(ops, seconds, tracer, **tags):
    """Whole passes over ``ops``, as many as come nearest to ``seconds``."""
    import workloads

    durations, verdicts = [], []
    started = time.perf_counter()
    passes = 0
    while True:
        for op in ops:
            elapsed, verdict = workloads.run_op(op, tracer, **tags)
            durations.append(elapsed)
            verdicts.append((op.entry, verdict))
        passes += 1
        wall = time.perf_counter() - started
        if wall + 0.5 * wall / passes >= seconds:
            return {"durations": durations, "verdicts": verdicts, "wall_s": wall, "passes": passes}


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def failures(verdicts):
    """The (entry, verdict) pairs of failed ops, and whether any was wrong."""
    failed = [(entry, v) for entry, v in verdicts if v.problems]
    return failed, any(v.is_wrong for _, v in failed)


def print_metric(name, value, unit, note=""):
    print(f"metric {name} = {value:.6g} {unit}{note}")


def print_problems(failed):
    for entry, verdict in failed:
        for kind, message in verdict.problems:
            print(f"problem [{kind}] {entry}: {message}")


def untraced_result(args):
    from spans import NullTracer

    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        ops, warm = setup(args, Path(tmp))
        setups = [time.perf_counter() - _STARTED]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0], "correct": not warm.is_wrong}))
            return None
        children = [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        setups += [seconds for seconds, _ in children]
        warm_correct = not warm.is_wrong and all(ok for _, ok in children)
        loop = timed_loop(ops, args.seconds, NullTracer())
    failed, wrong = failures(loop["verdicts"])
    durations = loop["durations"]
    n = len(durations)
    own_mb, child_mb = peak_rss_mb()
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / loop["wall_s"],
        "op_ms_p50": statistics.median(durations) * 1e3,
        "peak_rss_mb": own_mb + child_mb,
    }
    notes = {"setup_s": f" (n={len(setups)})", "ops_per_s": f" (n={n})", "op_ms_p50": f" (n={n})",
             "peak_rss_mb": f" (this process {own_mb:.1f} + largest child {child_mb:.1f})"}
    for name, unit in END_TO_END.items():
        print_metric(name, metrics[name], unit, notes[name])
    print_metric("fail_frac", len(failed) / n, "share", f" ({len(failed)} of {n} ops)")
    extra = {"fail_frac": len(failed) / n, "passes": loop["passes"], "wall_s": loop["wall_s"],
             "setup_samples_s": setups, "rss_self_mb": own_mb, "rss_children_mb": child_mb}
    if n >= 100:
        extra["op_ms_p90"] = statistics.quantiles(durations, n=10)[8] * 1e3
        print_metric("op_ms_p90", extra["op_ms_p90"], "ms", f" (n={n})")
    if args.workload == "optimize":
        extra["r1_gap_mean"] = statistics.fmean(v.gap for _, v in loop["verdicts"])
        print_metric("r1_gap_mean", extra["r1_gap_mean"], "bit", f" (n={n} points)")
    print_problems(failed)
    ops_log = [{"entry": e, "ms": d * 1e3, "problems": v.problems}
               for (e, v), d in zip(loop["verdicts"], durations)]
    return {"correct": not wrong and warm_correct, "attempted": n, "failed": len(failed),
            "metrics": metrics, "units": END_TO_END, "extra": extra, "ops": ops_log}


def traced_result(args):
    import probes
    import workloads
    from spans import Tracer, span_cost_s

    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        ops, warm = setup(args, Path(tmp))
        loop = timed_loop(ops, args.seconds, tracer, phase="timed")
        serial = None
        if args.workload == "optimize":
            # the single-threaded baseline of the same points
            with workloads.threads(1):
                serial = timed_loop(ops, 0.0, tracer, phase="serial")
        probe_values, probe_verdict = probes.run_probes(
            tracer, args.seed, Path(tmp), point_done=serial is not None)
    verdicts = loop["verdicts"] + (serial["verdicts"] if serial else [])
    failed, wrong = failures(verdicts)
    metrics = probes.layer_metrics(tracer.spans, probe_values, args.seed)
    units = probes.per_layer_units()
    for name, unit in units.items():
        print_metric(name, metrics[name], unit)

    n = len(loop["durations"])
    extra = {"ops_per_s_traced": n / loop["wall_s"], "passes": loop["passes"]}
    if serial is not None:
        pooled_s, serial_s = sum(loop["durations"]) / loop["passes"], sum(serial["durations"])
        extra.update({"optimize.pass_s.pooled": pooled_s, "optimize.pass_s.serial": serial_s,
                      "optimize.parallel_eff": serial_s / (
                          workloads.pool_workers(ops[0].tasks) * pooled_s)})
        for key in ("optimize.pass_s.pooled", "optimize.pass_s.serial", "optimize.parallel_eff"):
            print_metric(key, extra[key], "ratio" if key.endswith("eff") else "s",
                         f" (n={len(serial['durations'])} points)")
    print_metric("ops_per_s.traced", extra["ops_per_s_traced"], "1/s", f" (n={n})")
    # each op of the loop records two spans: its root and its call into vendingrd
    extra["trace_overhead.span_cost"] = 2 * n * span_cost_s() / loop["wall_s"]
    print_metric("trace_overhead.span_cost", extra["trace_overhead.span_cost"] * 100, "%",
                 " (cost of the loop's spans, timed on empty calls, over the loop's wall time)")
    baseline = OUT / f"{args.workload}-seed{args.seed}-trace0.json"
    if baseline.is_file():
        untraced = json.loads(baseline.read_text())["metrics"]["ops_per_s"]
        extra["trace_overhead.between_runs"] = untraced / extra["ops_per_s_traced"] - 1.0
        print_metric("trace_overhead.between_runs", extra["trace_overhead.between_runs"] * 100,
                     "%", " (untraced run's ops/s of this workload and seed over the traced"
                     " run's, minus 1; includes the host's drift between the runs)")
    else:
        print("metric trace_overhead.between_runs = n/a (no untraced run of this workload and "
              f"seed in {OUT.relative_to(ROOT)})")
    span_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    span_path.write_text(json.dumps({"environment": environment(args), "spans": tracer.spans}))
    print(f"spans {len(tracer.spans)} written to {span_path.relative_to(ROOT)}")
    print_problems(failed + [("probes", probe_verdict)])
    correct = not (wrong or warm.is_wrong or probe_verdict.is_wrong)
    return {"correct": correct, "attempted": len(verdicts), "failed": len(failed),
            "metrics": {k: metrics[k] for k in units}, "extra": extra, "units": units}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vendingrd" / "__init__.py").is_file():
        print(f"perfbench: no vendingrd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if not args.setup_only:
        print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
              f"seconds={args.seconds:g}")
    result = traced_result(args) if args.trace else untraced_result(args)
    if result is None:
        return 0
    env = environment(args)
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    result["environment"] = env
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=repr) + "\n")
    line = {key: result[key] for key in ("correct", "attempted", "failed")}
    units = result["units"]
    line["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
