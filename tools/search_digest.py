"""Print a digest of the benchmark's optimize searches, one line per seed.

Usage: python3 tools/search_digest.py SEED [SEED ...]

Each seed runs the searches of ``perfbench/workloads.optimize_ops`` and
prints the seed, the number of ops whose check reports a problem, and a
SHA-256 over every search's r1, r2 and policy tables.  Two trees whose
searches return the same bits print the same lines, at any worker count
(``VENDINGRD_THREADS``).
"""
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


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
            print(f"seed {seed} misses {misses} digest {digest.hexdigest()[:16]}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
