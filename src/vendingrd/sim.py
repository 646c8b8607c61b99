"""Block-coding simulations of the deterministic erasure-example schemes.

Each trial samples an iid equiprobable source block, erases it, and runs one
of the hand-built strategies with honest bit accounting: index sets are sent
enumeratively (a count field plus an index into the subsets of that size) and
every directly transmitted value costs one raw bit.  The empirical rates,
distortions, and action cost then approach the closed-form curves as the
block grows, while staying on the achievable side at every finite length.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .closed_form import ExampleCase, example_rate
from .region import worker_count

SCHEMES = ("case1", "case2_ts", "case3")

# Block work (n * trials symbols) from which the trials run on threads; the
# raw Philox draws that dominate a trial release the GIL.  Below this the
# GIL hand-offs cost more than the second core gives back, so the trials run
# in-process.  Medians of 9 runs at epsilon 0.2, gamma 0.6 on 2 vCPUs
# (Python 3.11.7, numpy 2.4.6), in-process against 2 threads:
#
#   symbols (trials x n)   case1         case2_ts      case3
#   2e4 (20 x 1000)        1.8 / 5.5     1.4 / 5.7     1.5 / 6.0 ms
#   1e5 (8 x 12500)        2.4 / 3.6     1.6 / 3.6     2.4 / 3.9 ms
#   4e5 (8 x 50000)        6.3 / 6.3     5.3 / 7.0     6.8 / 6.9 ms
#   1e6 (8 x 125000)      16.2 / 10.3   16.5 / 11.4   15.2 / 11.3 ms
#   2e6 (8 x 250000)      30.9 / 20.5   31.1 / 18.7   24.0 / 16.3 ms
#   8e6 (8 x 1e6)          101 / 65      119 / 81      105 / 71 ms
#
# Threads break even between 4e5 and 1e6 symbols; another set of 9 runs
# read a tie at 1e6 (10.0-11.7 / 9.5-10.6 ms).
POOL_MIN_SYMBOLS = 1_000_000

# Symbols per streamed block of a trial; even, so every block but the last
# starts on a whole source word.  A block's words and flags (about 370 KB)
# stay in a core's cache: 2^14 ran 8e6 symbols on 2 threads in 77-83 ms
# against 90-106 ms at 2^16, and 2^13 took 82-105 ms.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class SimConfig:
    """Settings for one batch of trials of a block-coding scheme."""

    scheme: str
    n: int
    epsilon: float
    gamma: float
    rng_seed: int = 0
    trials: int = 1

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.n < 1:
            raise ValueError(f"block length must be at least 1, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be nonnegative, got {self.rng_seed}")
        self.target_rate

    @property
    def target_rate(self) -> float:
        """The forward rate this scheme approaches as the block grows."""
        return example_rate(ExampleCase(self.scheme, self.epsilon, self.gamma))


@dataclass(frozen=True)
class SimResult:
    """Trial-averaged rates, distortions, and cost, plus per-trial counts.

    The averages divide summed integer counts by trials * n, so they do not
    depend on trial order.  ``semi_analytic`` flags that part of the backward
    traffic was priced at its coding rate instead of being run operationally.
    """

    config: SimConfig
    r1_hat: float
    r2_hat: float
    d1_hat: float
    d2_hat: float
    cost_hat: float
    semi_analytic: bool
    forward_bits: tuple[int, ...]
    backward_bits: tuple[int, ...]
    action_counts: tuple[int, ...]
    erasure_counts: tuple[int, ...]
    d1_errors: tuple[int, ...]
    d2_errors: tuple[int, ...]

    def csv_row(self) -> dict:
        c = self.config
        return {
            "scheme": c.scheme,
            "n": c.n,
            "epsilon": c.epsilon,
            "gamma": c.gamma,
            "trials": c.trials,
            "r1_hat": self.r1_hat,
            "r2_hat": self.r2_hat,
            "d1_hat": self.d1_hat,
            "d2_hat": self.d2_hat,
            "cost_hat": self.cost_hat,
            "semi_analytic": int(self.semi_analytic),
        }


def enumerative_bits(n: int, k: int) -> int:
    """Bits to describe a k-subset of n positions: a count field plus an index.

    The count field always spends ceil(log2(n+1)) bits and the index
    ceil(log2 C(n, k)) more, which is zero when the subset is forced.  The
    count field is what keeps a lucky block from beating the converse: it
    covers the (n+1) gap between C(n, k) and the entropy bound.
    """
    if not 0 <= k <= n:
        raise ValueError(f"subset size {k} outside [0, {n}]")
    count_bits = math.ceil(math.log2(n + 1))
    if k in (0, n):
        return count_bits
    log2c = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2.0)
    # the small guard keeps binomials that are exact powers of two from
    # rounding up a bit
    return count_bits + math.ceil(log2c - 1e-9)


def _budget(n: int, fraction: float) -> int:
    return int(math.floor(n * fraction + 1e-9))


def _trial_case1(n, gamma, blocks):
    # describe the erasure pattern, then the first non-erased values that the
    # action budget cannot cover; node 2 measures the rest
    k = d1_err = 0
    for _, x, erased in blocks:
        k += np.count_nonzero(erased)
        d1_err += np.count_nonzero(x & erased)
    m = n - k
    described = max(m - _budget(n, gamma), 0)
    forward = enumerative_bits(n, k) + described
    actions = m - described
    return forward, 0, actions, k, d1_err, 0


def _trial_case3(n, gamma, blocks):
    # the budget goes to erased positions first (node 2 must measure those to
    # send them back), and whatever is left spares forward description bits;
    # node 1 misses the values of the erasures past the budget
    budget = _budget(n, gamma)
    k = d1_err = 0
    for _, x, erased in blocks:
        seen = k
        k += np.count_nonzero(erased)
        if k > budget:
            skip = max(budget - seen, 0)
            first = np.flatnonzero(erased)[skip] if skip else 0
            d1_err += np.count_nonzero(x[first:] & erased[first:])
    m = n - k
    measured = min(k, budget)
    described = max(m - (budget - measured), 0)
    forward = enumerative_bits(n, k) + described
    actions = measured + (m - described)
    return forward, measured, actions, k, d1_err, 0


def _trial_case2_ts(n, epsilon, gamma, blocks):
    # segment 1: describe the pattern, act only on erasures, send them back
    # raw; segment 2: act everywhere and price the backward link at its
    # conditional-entropy rate, ceil((n - n1) * empirical erasure share) = k2
    eta = 0.0 if epsilon == 1.0 else (1.0 - gamma) / (1.0 - epsilon)
    n1 = _budget(n, eta)
    k1 = k2 = d2_err = 0
    for start, x, erased in blocks:
        cut = min(max(n1 - start, 0), erased.size)
        head = erased[:cut]
        k1 += np.count_nonzero(head)
        k2 += np.count_nonzero(erased[cut:])
        d2_err += np.count_nonzero(x[:cut] & ~head)
    forward = enumerative_bits(n1, k1) if n1 else 0
    backward = k1 + k2
    actions = k1 + (n - n1)
    return forward, backward, actions, k1 + k2, 0, d2_err + k2


def _blocks(config: SimConfig, t: int):
    """Trial t's source bits and erasure flags, ``_CHUNK`` symbols at a time.

    Yields (start, x, erased) bool blocks equal to the slices of
    ``rng.integers(0, 2, n)`` and ``rng.random(n) < epsilon`` for
    ``rng = Generator(Philox(SeedSequence((rng_seed, t))))``, read off the
    raw 64-bit words.  ``integers`` takes bit 31 and then bit 63 of each of
    the first ceil(n / 2) words; ``random`` compares the top 53 bits of each
    of the next n words, which a second Philox reaches by advancing its
    counter (four words per step).
    """
    seed = np.random.SeedSequence((config.rng_seed, t))
    bits = np.random.Philox(seed)
    flags = np.random.Philox(seed)
    skip = (config.n + 1) // 2
    flags.advance(skip // 4)
    flags.random_raw(skip % 4)
    # random() < epsilon  <=>  (word >> 11) < ceil(epsilon * 2**53)
    limit = math.ceil(config.epsilon * 2.0**53)
    for start in range(0, config.n, _CHUNK):
        size = min(_CHUNK, config.n - start)
        # a source bit is the top bit of a 32-bit half, low half first,
        # which is the order of the int32 view on a little-endian host
        x = bits.random_raw((size + 1) // 2).view(np.int32)[:size] < 0
        erased = (flags.random_raw(size) >> 11) < limit
        yield start, x, erased


def _run_trial(config: SimConfig, t: int) -> tuple[int, ...]:
    blocks = _blocks(config, t)
    if config.scheme == "case1":
        counts = _trial_case1(config.n, config.gamma, blocks)
    elif config.scheme == "case3":
        counts = _trial_case3(config.n, config.gamma, blocks)
    else:
        counts = _trial_case2_ts(config.n, config.epsilon, config.gamma, blocks)
    return tuple(int(c) for c in counts)


def trial_workers(config: SimConfig) -> int:
    """Threads ``run_scheme`` uses for ``config``: one below
    ``POOL_MIN_SYMBOLS`` of block work, else one per trial up to
    ``worker_count``."""
    if config.n * config.trials < POOL_MIN_SYMBOLS:
        return 1
    return min(worker_count(), config.trials)


def run_scheme(config: SimConfig) -> SimResult:
    """Run the configured trials and average their bit and error counts.

    Trial t draws from a counter-based stream keyed by (rng_seed, t), so the
    result is reproducible and independent of how trials are scheduled:
    in-process or on threads, as ``trial_workers`` decides.
    """
    workers = trial_workers(config)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_trial, [config] * config.trials, range(config.trials)))
    else:
        records = [_run_trial(config, t) for t in range(config.trials)]
    fw, bw, act, era, d1e, d2e = (tuple(r[i] for r in records) for i in range(6))
    denom = float(config.trials * config.n)
    return SimResult(
        config=config,
        r1_hat=sum(fw) / denom,
        r2_hat=sum(bw) / denom,
        d1_hat=sum(d1e) / denom,
        d2_hat=sum(d2e) / denom,
        cost_hat=sum(act) / denom,
        semi_analytic=config.scheme == "case2_ts",
        forward_bits=fw,
        backward_bits=bw,
        action_counts=act,
        erasure_counts=era,
        d1_errors=d1e,
        d2_errors=d2e,
    )


def convergence_table(config: SimConfig, n_grid: Sequence[int]) -> list[tuple[int, float]]:
    """Mean |r1_hat - target rate| at each block length of an ascending grid."""
    grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"n_grid must be strictly ascending, got {grid}")
    target = config.target_rate
    table = []
    for n in grid:
        result = run_scheme(replace(config, n=n))
        table.append((n, abs(result.r1_hat - target)))
    return table
