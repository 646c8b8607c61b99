"""Print a digest of the benchmark's optimize searches, one line per seed.

Usage: python3 tools/search_digest.py SEED [SEED ...]

Each seed runs the searches of ``perfbench/workloads.optimize_ops`` and
prints the seed, the number of ops whose check reports a problem, the
third-node probe gap, and a SHA-256 over every search's r1, r2 and policy
tables.  The probe gap is how far ``minimize_r1`` at
``workloads.search_config(seed)`` ends above ``hb_case2_r1`` at γ 0.9 and
d3 0.4, the point of the benchmark's ``region.hb_gap.g0.9_d0.4``, printed
to three significant figures, since it sits near 1e-4.  Two trees
whose searches return the same bits print the same lines.
"""
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import vendingrd as vr  # noqa: E402
import workloads  # noqa: E402

PROBE_GAMMA, PROBE_D3 = 0.9, 0.4


def probe_gap(seed: int) -> float:
    spec = vr.with_node3_erasure_metric(vr.binary_erasure_spec(workloads.EPS))
    targets = vr.Targets(d1=0.0, d2=1.0, d3=PROBE_D3, gamma=PROBE_GAMMA)
    result = vr.minimize_r1(spec, targets, workloads.search_config(seed))
    return result.point.r1 - vr.hb_case2_r1(workloads.EPS, PROBE_GAMMA, PROBE_D3)


def main(argv: list[str]) -> None:
    if not argv:
        sys.exit(__doc__.split("\n\n")[1])
    with tempfile.TemporaryDirectory() as inputs:
        for seed in map(int, argv):
            digest, misses = hashlib.sha256(), 0
            for op in workloads.optimize_ops(seed, Path(inputs)):
                result = op.fn(*op.args)
                misses += bool(op.check(result).problems)
                digest.update(f"{op.entry} {result.point.r1!r} {result.point.r2!r}".encode())
                digest.update(result.policy.forward.table.tobytes())
                digest.update(result.policy.backward.table.tobytes())
            print(
                f"seed {seed} misses {misses} hb_gap {probe_gap(seed):.2e} digest {digest.hexdigest()[:16]}",
                flush=True,
            )


if __name__ == "__main__":
    main(sys.argv[1:])
