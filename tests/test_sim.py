import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from vendingrd import sim
from vendingrd.closed_form import case1_r1, case3_r1
from vendingrd.model import InfeasibleError
from vendingrd.probability import binary_entropy
from vendingrd.region import worker_count
from vendingrd.sim import (
    POOL_MIN_SYMBOLS,
    SimConfig,
    SimResult,
    convergence_table,
    enumerative_bits,
    run_scheme,
    trial_workers,
)


def test_enumerative_bits_small_values():
    assert enumerative_bits(10, 0) == 4
    assert enumerative_bits(10, 10) == 4
    assert enumerative_bits(10, 5) == 12
    assert enumerative_bits(0, 0) == 0
    # C(4, 1) = 4 and C(2, 1) = 2 are exact powers of two
    assert enumerative_bits(4, 1) == 3 + 2
    assert enumerative_bits(2, 1) == 2 + 1


def test_enumerative_bits_approaches_entropy():
    n = 100000
    rate = enumerative_bits(n, 20000) / n
    assert abs(rate - binary_entropy(0.2)) < 0.001


def test_enumerative_bits_rejects_bad_subsets():
    with pytest.raises(ValueError):
        enumerative_bits(10, 11)
    with pytest.raises(ValueError):
        enumerative_bits(10, -1)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig("case4", 100, 0.2, 0.4)
    with pytest.raises(ValueError):
        SimConfig("case1", 0, 0.2, 0.4)
    with pytest.raises(ValueError):
        SimConfig("case1", 100, 0.2, 0.4, trials=0)
    with pytest.raises(ValueError):
        SimConfig("case1", 100, 1.5, 0.4)
    with pytest.raises(InfeasibleError):
        SimConfig("case3", 100, 0.2, 0.1)
    with pytest.raises(InfeasibleError):
        SimConfig("case2_ts", 100, 0.2, 0.1)


def test_case1_run_matches_curve_and_is_lossless_at_node2():
    config = SimConfig("case1", 20000, 0.2, 0.4, rng_seed=3, trials=5)
    result = run_scheme(config)
    assert abs(result.r1_hat - config.target_rate) < 0.01
    assert result.r2_hat == 0.0
    assert result.backward_bits == (0,) * 5
    assert result.d2_errors == (0,) * 5
    assert all(a <= 20000 * 0.4 + 1e-6 for a in result.action_counts)
    assert abs(result.d1_hat - 0.1) < 0.01


def test_case3_run_is_lossless_both_ways():
    config = SimConfig("case3", 20000, 0.2, 0.6, rng_seed=3, trials=5)
    result = run_scheme(config)
    assert abs(result.r1_hat - config.target_rate) < 0.01
    assert result.d1_errors == (0,) * 5
    assert result.d2_errors == (0,) * 5
    # the backward link carries exactly the erased values
    assert result.backward_bits == result.erasure_counts
    assert abs(result.r2_hat - 0.2) < 0.01
    assert all(a <= 20000 * 0.6 + 1e-6 for a in result.action_counts)


def test_time_sharing_run_is_lossless_at_node1():
    config = SimConfig("case2_ts", 20000, 0.2, 0.6, rng_seed=3, trials=5)
    result = run_scheme(config)
    assert result.semi_analytic
    assert abs(result.r1_hat - config.target_rate) < 0.01
    assert result.d1_errors == (0,) * 5
    assert abs(result.r2_hat - 0.2) < 0.01
    # the budget holds in expectation only: segment 1 action use fluctuates
    assert abs(result.cost_hat - 0.6) < 0.01


def test_trials_never_beat_the_curve_at_their_empirical_point():
    for scheme, fn, gamma in (("case1", case1_r1, 0.3), ("case3", case3_r1, 0.6)):
        config = SimConfig(scheme, 500, 0.2, gamma, rng_seed=11, trials=50)
        result = run_scheme(config)
        for fw, k, acts in zip(result.forward_bits, result.erasure_counts, result.action_counts):
            bound = 500.0 * fn(k / 500.0, acts / 500.0)
            assert fw >= bound - 1e-9


def test_negative_rng_seed_is_rejected():
    with pytest.raises(ValueError, match="rng_seed"):
        SimConfig("case1", 100, 0.2, 0.4, rng_seed=-1)


def test_runs_are_reproducible_and_seed_sensitive():
    config = SimConfig("case1", 2000, 0.2, 0.4, rng_seed=9, trials=4)
    first = run_scheme(config)
    second = run_scheme(config)
    assert first == second
    shifted = run_scheme(SimConfig("case1", 2000, 0.2, 0.4, rng_seed=10, trials=4))
    assert shifted.forward_bits != first.forward_bits


def test_trial_streams_do_not_depend_on_trial_count():
    few = run_scheme(SimConfig("case3", 2000, 0.2, 0.6, rng_seed=2, trials=1))
    many = run_scheme(SimConfig("case3", 2000, 0.2, 0.6, rng_seed=2, trials=3))
    assert many.forward_bits[0] == few.forward_bits[0]
    assert many.erasure_counts[0] == few.erasure_counts[0]


def test_trial_workers_split_at_the_crossover(monkeypatch):
    monkeypatch.setenv("VENDINGRD_THREADS", "2")
    pooled = worker_count()
    assert trial_workers(SimConfig("case3", 1000, 0.2, 0.6, trials=20)) == 1
    assert trial_workers(SimConfig("case3", 10**6, 0.2, 0.6, trials=8)) == pooled
    edge = SimConfig("case3", POOL_MIN_SYMBOLS // 4, 0.2, 0.6, trials=4)
    assert trial_workers(edge) == pooled
    assert trial_workers(replace(edge, n=edge.n - 1)) == 1


def test_short_runs_start_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a short simulation started a thread pool")

    monkeypatch.setattr(sim, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv("VENDINGRD_THREADS", "2")
    result = run_scheme(SimConfig("case3", 1000, 0.2, 0.6, rng_seed=1, trials=20))
    assert len(result.forward_bits) == 20


def test_long_runs_fork_no_process(monkeypatch):
    def no_fork(*args, **kwargs):
        raise AssertionError("a simulation forked a process")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setenv("VENDINGRD_THREADS", "2")
    config = SimConfig("case3", POOL_MIN_SYMBOLS // 4, 0.2, 0.6, rng_seed=1, trials=4)
    assert trial_workers(config) == worker_count()
    assert len(run_scheme(config).forward_bits) == 4


def test_pooled_runs_equal_in_process_runs(monkeypatch):
    config = SimConfig("case3", POOL_MIN_SYMBOLS // 4, 0.2, 0.6, rng_seed=5, trials=4)
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("VENDINGRD_THREADS", threads)
        results.append(run_scheme(config))
    in_process, pooled = results
    for field in fields(SimResult):
        assert getattr(in_process, field.name) == getattr(pooled, field.name), field.name


def _reference_counts(config, t):
    """Trial t's six counts from one whole-array draw of its Philox words: a
    symbol's source bit is its word's top bit, and its erasure a uniform on
    the word's low 53 bits falling below epsilon."""
    words = np.random.Philox(np.random.SeedSequence((config.rng_seed, t))).random_raw(config.n)
    x = (words >> 63).astype(np.int64)
    erased = (words % 2**53) * 2.0**-53 < config.epsilon
    n, k = config.n, int(erased.sum())
    m = n - k
    budget = math.floor(n * config.gamma + 1e-9)
    if config.scheme == "case1":
        described = max(m - budget, 0)
        return enumerative_bits(n, k) + described, 0, m - described, k, int(x[erased].sum()), 0
    if config.scheme == "case3":
        measured = min(k, budget)
        described = max(m - (budget - measured), 0)
        d1_err = int(x[np.flatnonzero(erased)[measured:]].sum())
        return enumerative_bits(n, k) + described, measured, measured + m - described, k, d1_err, 0
    eta = 0.0 if config.epsilon == 1.0 else (1.0 - config.gamma) / (1.0 - config.epsilon)
    n1 = math.floor(n * eta + 1e-9)
    k1 = int(erased[:n1].sum())
    forward = enumerative_bits(n1, k1) if n1 else 0
    d2_err = int(x[:n1][~erased[:n1]].sum()) + k - k1
    return forward, k, k1 + n - n1, k, 0, d2_err


@pytest.mark.parametrize("scheme", ["case1", "case2_ts", "case3"])
def test_streamed_trials_equal_whole_array_draws(scheme, monkeypatch):
    # pins the streamed blocks to one whole-array draw of each trial's words;
    # gamma = epsilon puts case 3's budget at the erasure count, and case 2's
    # split at the middle of the block
    chunk = sim._CHUNK
    monkeypatch.setenv("VENDINGRD_THREADS", "2")
    for crossover in (POOL_MIN_SYMBOLS, 1):
        monkeypatch.setattr(sim, "POOL_MIN_SYMBOLS", crossover)
        for n in (1, 2, 3, 7, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            for epsilon in (0.0, 1.0, 0.2, 0.1234567):
                gamma = (1.0 + epsilon) / 2 if scheme == "case2_ts" else epsilon
                config = SimConfig(scheme, n, epsilon, gamma, rng_seed=n % 5, trials=2)
                assert trial_workers(config) == (1 if crossover > 1 else worker_count())
                result = run_scheme(config)
                records = [_reference_counts(config, t) for t in range(2)]
                expected = tuple(tuple(r[i] for r in records) for i in range(6))
                assert (
                    result.forward_bits, result.backward_bits, result.action_counts,
                    result.erasure_counts, result.d1_errors, result.d2_errors,
                ) == expected, (n, epsilon)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stream_fields_follow_their_laws(seed):
    # overlapping or biased bit fields would skew one of these shares
    n, epsilon = 2**20, 0.2
    blocks = list(sim._blocks(SimConfig("case1", n, epsilon, 0.4, rng_seed=seed), 0))
    x = np.concatenate([b[1] for b in blocks])
    erased = np.concatenate([b[2] for b in blocks])
    k = np.count_nonzero(erased)
    shares = (
        (np.count_nonzero(x), n, 0.5),
        (k, n, epsilon),
        (np.count_nonzero(x & erased), k, 0.5),
    )
    for hits, size, p in shares:
        z = (hits - size * p) / math.sqrt(size * p * (1.0 - p))
        assert abs(z) < 5.0, (hits, size, p)


def test_no_erasures_gives_exact_bit_counts():
    n, gamma = 1000, 0.3
    result = run_scheme(SimConfig("case1", n, 0.0, gamma, rng_seed=0, trials=3))
    expected = math.ceil(math.log2(n + 1)) + (n - math.floor(n * gamma))
    assert result.forward_bits == (expected,) * 3
    assert result.erasure_counts == (0,) * 3


def test_convergence_gaps_shrink():
    config = SimConfig("case1", 1, 0.2, 0.4, rng_seed=0, trials=20)
    table = convergence_table(config, [1000, 10000, 100000])
    assert [n for n, _ in table] == [1000, 10000, 100000]
    gaps = [gap for _, gap in table]
    assert gaps[0] > gaps[1] > gaps[2]


def test_convergence_table_rejects_unsorted_grids():
    config = SimConfig("case1", 1, 0.2, 0.4)
    with pytest.raises(ValueError):
        convergence_table(config, [100, 100])
    with pytest.raises(ValueError):
        convergence_table(config, [1000, 100])


def test_csv_row_layout():
    result = run_scheme(SimConfig("case2_ts", 100, 0.2, 0.6, rng_seed=1, trials=2))
    row = result.csv_row()
    assert list(row) == [
        "scheme", "n", "epsilon", "gamma", "trials",
        "r1_hat", "r2_hat", "d1_hat", "d2_hat", "cost_hat", "semi_analytic",
    ]
    assert row["scheme"] == "case2_ts"
    assert row["semi_analytic"] == 1
    assert isinstance(row["r1_hat"], float)
