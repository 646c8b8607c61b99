"""Layer probes of the traced run: direct calls into each module's public API.

Every traced run makes the same probes, whatever its workload, so each
per-layer metric means the same thing on every workload.  Each probe call
(or tight loop of cheap calls) runs inside one span; the per-layer metrics
are then read off the spans.  Inputs come from the workload seed.
"""
from __future__ import annotations

import statistics

import numpy as np

import vendingrd as vr
from spans import LAYERS, duration, layer_summary, per_call, select
from workloads import (
    EPS,
    SIM_GAMMA,
    Verdict,
    criterion5_targets,
    pool_workers,
    search_config,
    sim_problems,
    tables_ops,
    threads,
)

REPEATS = 5
POINT = ("case2", 0.6)
POINT_ENTRY = f"{POINT[0]}_g{POINT[1]}"
SIM_SIZES = {"short": (1000, 20), "long": (10**6, 8)}
HB_GAP_POINT = (0.9, 0.4)
TABLES_ENTRIES = (
    "fig4", "fig6", "evaluate_case1", "evaluate_case2", "evaluate_case3", "evaluate_hb",
    "simulate_case1", "simulate_case2_ts", "simulate_case3",
)


def per_layer_units() -> dict:
    """Every per-layer metric of a traced run, with its unit."""
    units = {
        "region.evaluate_point_us.ind3x3": "us",
        "region.evaluate_point_us.ind9x16": "us",
        "region.evaluate_point_us.hb3x3": "us",
        "region.restart_s": "s",
        "region.point_s.serial": "s",
        "region.point_s.pooled": "s",
        "region.parallel_eff": "ratio",
        "region.parallel_eff.workers_serial": "count",
        "region.parallel_eff.workers_pooled": "count",
        "region.hb_gap.g0.9_d0.4": "bit",
        "closed_form.hb_case2_r1_ms.vary_gamma": "ms",
        "closed_form.hb_case2_r1_ms.vary_d3": "ms",
        "closed_form.case2_r1_us": "us",
        "probability.reference_eval_us": "us",
        "probability.check_markov_us": "us",
        "model.load_spec_ms": "ms",
        "region.load_policy_ms": "ms",
    }
    units.update({f"cli.main_ms.{entry}": "ms" for entry in TABLES_ENTRIES})
    for size in ("short", "long"):
        units[f"sim.ns_per_symbol.{size}.serial"] = "ns"
        units[f"sim.ns_per_symbol.{size}.pooled"] = "ns"
        units[f"sim.parallel_eff.{size}"] = "ratio"
        units[f"sim.parallel_eff.{size}.workers_serial"] = "count"
        units[f"sim.parallel_eff.{size}.workers_pooled"] = "count"
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.failed"] = "count"
        units[f"{layer}.self_s"] = "s"
    return units


def _loop(fn, args, count):
    def run():
        for _ in range(count):
            fn(*args)
    return run


def reference_eval(spec, policy) -> tuple[float, float]:
    """Rates of a policy through the generic joint-table path, with both
    Bayes decoders run; returns (r1, r2)."""
    joint = vr.assemble_joint(spec, policy)
    r1 = vr.conditional_mutual_information(joint, ["z"], ["a"]) + (
        vr.conditional_mutual_information(joint, ["z"], ["u"], ["a", "y"])
    )
    r2 = vr.conditional_mutual_information(joint, ["y"], ["v"], ["z", "a", "u"])
    vr.bayes_decoder(joint, ["z", "v"], spec.d1, spec.xhat1_alpha)
    vr.bayes_decoder(joint, ["u", "y"], spec.d2, spec.xhat2_alpha)
    return r1, r2


def run_probes(tracer, seed: int, inputs, point_done: bool) -> tuple[dict, Verdict]:
    """Make every probe once; returns values that are not timings, and any
    problems the probes' own checks found.  ``point_done`` skips the search
    point of ``POINT`` when the run already timed it serial and pooled."""
    verdict = Verdict()
    rng = np.random.default_rng([seed, 1])
    spec = vr.binary_erasure_spec(EPS)
    hb = vr.with_node3_erasure_metric(spec)
    small = vr.random_policy(spec, 3, 3, rng)
    policies = {
        "ind3x3": (spec, small),
        "ind9x16": (spec, vr.random_policy(spec, 9, 16, rng)),
        "hb3x3": (hb, vr.random_policy(hb, 3, 3, rng)),
    }
    for label, (s, policy) in policies.items():
        for _ in range(REPEATS):
            tracer.call("region.evaluate_point", _loop(vr.evaluate_point, (s, policy), 200),
                        calls=200, probe=label)

    config = search_config(seed)
    tag, g = POINT
    targets = criterion5_targets(tag, g)
    one_restart = vr.OptimizerConfig(
        restarts=1, max_iters=12, hops=0, cardinality_override=(3, 3), rng_seed=seed
    )
    with threads(1):
        for _ in range(3):
            tracer.call("region.minimize_r1", vr.minimize_r1, spec, targets, one_restart,
                        entry="restart", workers=1)
    if not point_done:
        for workers in (1, pool_workers(config.restarts)):
            with threads(workers):
                tracer.call("region.minimize_r1", vr.minimize_r1, spec, targets, config,
                            entry=POINT_ENTRY, workers=workers)

    g3, d3 = HB_GAP_POINT
    result = tracer.call("region.minimize_r1", vr.minimize_r1, hb,
                         vr.Targets(d1=0.0, d2=1.0, d3=d3, gamma=g3), config,
                         entry=f"hb_g{g3}_d{d3}", workers=pool_workers(config.restarts))
    hb_gap = result.point.r1 - vr.hb_case2_r1(EPS, g3, d3)

    for g in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        tracer.call("closed_form.hb_case2_r1", vr.hb_case2_r1, EPS, g, 0.6, order="vary_gamma")
    for d in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        tracer.call("closed_form.hb_case2_r1", vr.hb_case2_r1, EPS, 0.6, d, order="vary_d3")
    for _ in range(REPEATS):
        tracer.call("closed_form.case2_r1", _loop(vr.case2_r1, (EPS, 0.6), 2000), calls=2000)

    for _ in range(REPEATS):
        tracer.call("probability.reference_eval", _loop(reference_eval, (spec, small), 20),
                    calls=20)
    r1, r2 = reference_eval(spec, small)
    point = vr.evaluate_point(spec, small)
    if abs(r1 - point.r1) > 1e-9 or abs(r2 - point.r2) > 1e-9:
        verdict.wrong(f"evaluate_point rates {point.r1}, {point.r2} != generic {r1}, {r2}")
    joint = vr.assemble_joint(spec, small)
    chains = vr.markov_chains(spec)

    def markov_loop():
        for _ in range(100):
            for left, mid, right in chains:
                vr.check_markov(joint, left, mid, right)
    for _ in range(REPEATS):
        tracer.call("probability.check_markov", markov_loop, calls=100 * len(chains))

    spec_path, policy_path = inputs / "probe_spec.json", inputs / "probe_policy.json"
    vr.save_spec(spec, spec_path)
    vr.save_policy(small, policy_path)
    for _ in range(REPEATS):
        tracer.call("model.load_spec", _loop(vr.load_spec, (spec_path,), 20), calls=20)
        tracer.call("region.load_policy", _loop(vr.load_policy, (policy_path,), 20), calls=20)

    for op in tables_ops(seed, inputs):
        out = tracer.call("cli.main", op.fn, *op.args, entry=op.entry, **op.tags)
        verdict.problems += op.check(out).problems

    for size, (n, trials) in SIM_SIZES.items():
        for _ in range(3):
            for scheme in vr.SCHEMES:
                config = vr.SimConfig(scheme, n, EPS, SIM_GAMMA, rng_seed=seed, trials=trials)
                for workers in (1, pool_workers(trials)):
                    with threads(workers):
                        result = tracer.call("sim.run_scheme", vr.run_scheme, config,
                                             size=size, symbols=n * trials, workers=workers)
                    sim_problems(result, verdict)
    return {"hb_gap": hb_gap}, verdict


def layer_metrics(spans, probe_values, seed: int) -> dict:
    """Per-layer metrics read off the spans of a traced run."""
    def med(values, scale):
        return statistics.median(values) * scale

    m = {}
    for label in ("ind3x3", "ind9x16", "hb3x3"):
        m[f"region.evaluate_point_us.{label}"] = med(
            per_call(select(spans, "region.evaluate_point", probe=label)), 1e6)
    m["region.restart_s"] = med(
        [duration(s) for s in select(spans, "region.minimize_r1", entry="restart")], 1.0)
    pooled_workers = pool_workers(search_config(seed).restarts)
    for side, workers in (("serial", 1), ("pooled", pooled_workers)):
        m[f"region.point_s.{side}"] = med([duration(s) for s in select(
            spans, "region.minimize_r1", entry=POINT_ENTRY, workers=workers)], 1.0)
    m["region.parallel_eff"] = m["region.point_s.serial"] / (
        pooled_workers * m["region.point_s.pooled"])
    m["region.parallel_eff.workers_serial"] = 1
    m["region.parallel_eff.workers_pooled"] = pooled_workers
    m["region.hb_gap.g0.9_d0.4"] = probe_values["hb_gap"]
    for order in ("vary_gamma", "vary_d3"):
        m[f"closed_form.hb_case2_r1_ms.{order}"] = med(
            per_call(select(spans, "closed_form.hb_case2_r1", order=order)), 1e3)
    m["closed_form.case2_r1_us"] = med(per_call(select(spans, "closed_form.case2_r1")), 1e6)
    m["probability.reference_eval_us"] = med(
        per_call(select(spans, "probability.reference_eval")), 1e6)
    m["probability.check_markov_us"] = med(
        per_call(select(spans, "probability.check_markov")), 1e6)
    m["model.load_spec_ms"] = med(per_call(select(spans, "model.load_spec")), 1e3)
    m["region.load_policy_ms"] = med(per_call(select(spans, "region.load_policy")), 1e3)
    for entry in TABLES_ENTRIES:
        m[f"cli.main_ms.{entry}"] = med(
            [duration(s) for s in select(spans, "cli.main", entry=entry)], 1e3)
    for size, (_, n_trials) in SIM_SIZES.items():
        workers = pool_workers(n_trials)
        for side, w in (("serial", 1), ("pooled", workers)):
            m[f"sim.ns_per_symbol.{size}.{side}"] = med(
                [duration(s) / s["tags"]["symbols"]
                 for s in select(spans, "sim.run_scheme", size=size, workers=w)], 1e9)
        m[f"sim.parallel_eff.{size}"] = m[f"sim.ns_per_symbol.{size}.serial"] / (
            workers * m[f"sim.ns_per_symbol.{size}.pooled"])
        m[f"sim.parallel_eff.{size}.workers_serial"] = 1
        m[f"sim.parallel_eff.{size}.workers_pooled"] = workers
    for layer, row in layer_summary(spans).items():
        for key, value in row.items():
            m[f"{layer}.{key}"] = value
    return m
