"""Summarise the run results in perfbench/out/ into perfbench/BENCH_<tag>.json.

    python3 perfbench/collect.py --tag baseline

For each workload it records, over the untraced runs found, the median and
quartiles of every end-to-end metric and each seed's fail_frac, r1_gap_mean
and op_ms_p90; and the per-layer metrics of each traced run found.  Every
run keeps its environment record.
"""
import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values), "n": len(values)}


def summarise(workload):
    untraced = [json.loads(p.read_text()) for p in sorted(OUT.glob(f"{workload}-seed*-trace0.json"))]
    traced = [json.loads(p.read_text()) for p in sorted(OUT.glob(f"{workload}-seed*-trace1.json"))]
    summary = {"runs": [], "traced_runs": []}
    if len(untraced) >= 2:
        names = untraced[0]["metrics"]
        summary["end_to_end"] = {
            name: spread([run["metrics"][name] for run in untraced]) for name in names
        }
    for run in untraced:
        keep = ("fail_frac", "r1_gap_mean", "op_ms_p90", "passes")
        summary["runs"].append({
            "environment": run["environment"], "correct": run["correct"],
            "attempted": run["attempted"], "failed": run["failed"], "metrics": run["metrics"],
            **{key: run["extra"][key] for key in keep if key in run["extra"]},
        })
    for run in traced:
        summary["traced_runs"].append({
            "environment": run["environment"], "correct": run["correct"],
            "metrics": run["metrics"], "units": run["units"], "extra": run["extra"],
        })
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    args = parser.parse_args()
    workloads = sorted({p.name.split("-seed")[0] for p in OUT.glob("*-seed*-trace*.json")})
    doc = {workload: summarise(workload) for workload in workloads}
    path = HERE / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.name} for {', '.join(workloads)}")


if __name__ == "__main__":
    main()
