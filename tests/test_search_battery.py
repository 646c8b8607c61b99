"""Search quality away from the erasure family.

Each battery entry is a random spec (``test_region._random_spec``) with
targets that a random |U| = 3 policy relaying Y meets, raised by 1e-9, so
every target is attainable at the search sizes (3, |Y|).  The recorded r1
and feasibility per entry (``data/battery_parent.json``) come from the
penalty-descent search that the alternating-minimization solver replaced,
at the config below.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from test_region import _random_spec, _sparsified
from vendingrd.model import MODES
from vendingrd.probability import Kernel
from vendingrd.region import (
    OptimizerConfig,
    Policy,
    Targets,
    _identity_backward,
    evaluate_point,
    minimize_r1,
    random_policy,
)

PER_MODE = 8
SLACK = 1e-9
# the benchmark's optimize config at sizes (3, |Y|)
CONFIG = dict(restarts=8, max_iters=12, hops=4, rng_seed=0)


def battery():
    """(name, spec, targets) of every entry, ``PER_MODE`` per mode; a draw
    whose relay policy touches a forbidden cell is skipped."""
    entries = []
    for m, mode in enumerate(MODES):
        rng = np.random.default_rng([2026, m])
        kept = 0
        while kept < PER_MODE:
            spec = _random_spec(mode, rng)
            drawn = _sparsified(random_policy(spec, 3, len(spec.y_alpha), rng), rng)
            relay = _identity_backward(spec, 3, len(spec.y_alpha))
            policy = Policy(drawn.forward, Kernel(drawn.backward.inputs, drawn.backward.outputs, relay))
            point = evaluate_point(spec, policy)
            if not point.feasible:
                continue
            d3 = None if point.d3 is None else point.d3 + SLACK
            targets = Targets(d1=point.d1 + SLACK, d2=point.d2 + SLACK, d3=d3, gamma=point.gamma + SLACK)
            entries.append((f"{mode}_{kept}", spec, targets))
            kept += 1
    return entries


def search(spec, targets):
    sizes = (3, len(spec.y_alpha))
    return minimize_r1(spec, targets, OptimizerConfig(cardinality_override=sizes, **CONFIG))


def test_search_meets_the_recorded_battery():
    """Per entry: feasible wherever the recorded search was, r1 at most
    0.01 above its recorded r1, and the returned policy evaluates to the
    reported r1."""
    recorded = json.loads((Path(__file__).parent / "data" / "battery_parent.json").read_text())
    entries = battery()
    assert sorted(name for name, _, _ in entries) == sorted(k for k in recorded if k != "_about")
    for name, spec, targets in entries:
        want = recorded[name]
        assert want["targets"] == [targets.gamma, targets.d1, targets.d2, targets.d3], name
        got = search(spec, targets)
        assert got.feasible or not want["feasible"], name
        if want["feasible"]:
            assert got.point.r1 <= want["r1"] + 0.01, (name, got.point.r1, want["r1"])
        assert evaluate_point(spec, got.policy).r1 == pytest.approx(got.point.r1, abs=1e-12), name
