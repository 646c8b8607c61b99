import json
import os
import platform
import threading
from pathlib import Path

import numpy as np
import pytest

from vendingrd.cli import _build_parser, main
from vendingrd.closed_form import ExampleCase, appendixB_policy, case1_r1, hb_abstention_cost, hb_case2_r1
from vendingrd.model import binary_erasure_spec, save_spec, with_node3_erasure_metric
from vendingrd.probability import Alphabet, Kernel
from vendingrd.region import OptimizerConfig, Policy, load_policy, save_policy

EPS = 0.2


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    save_spec(binary_erasure_spec(EPS), path)
    return path


def _policy_path(tmp_path, tag, gamma, name="policy.json"):
    path = tmp_path / name
    save_policy(appendixB_policy(ExampleCase(tag, EPS, gamma)), path)
    return path


def _rows(text):
    """Data rows of a block CSV, skipping the header and curve comments."""
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def test_closed_form_single_point(capsys):
    assert main(["closed-form", "--case", "case1", "--epsilon", "0", "--gamma", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "gamma,r1,r2,feasible"
    assert _rows(out) == [["0.5", "0.5", "0", "1"]]


def test_closed_form_fig4_preset(capsys):
    assert main(["closed-form", "--preset", "fig4", "--epsilon", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "inf" not in out and "nan" not in out
    blocks = {}
    current = None
    for line in out.strip().splitlines()[1:]:
        if line.startswith("#"):
            current = line.split()[1]
            blocks[current] = []
        else:
            blocks[current].append(line.split(","))
    assert set(blocks) == {"case1", "case2", "case2_ts", "case3"}
    assert all(len(rows) == 101 for rows in blocks.values())
    case2 = blocks["case2"]
    below = [r for r in case2 if float(r[0]) < EPS - 1e-12]
    assert all(r[1] == "" and r[2] == "" and r[3] == "0" for r in below)
    at_eps = next(r for r in case2 if r[0] == "0.2")
    assert float(at_eps[1]) == pytest.approx(0.721928094887, abs=1e-9)
    last = case2[-1]
    assert last[0] == "1" and float(last[1]) == 0.0 and last[3] == "1"


def test_closed_form_fig6_curves_flatten(capsys):
    grid = ["0.4", "0.6", "0.8", "1.0"]
    assert main(["closed-form", "--preset", "fig6", "--epsilon", "0.2", "--gamma", *grid]) == 0
    out = capsys.readouterr().out
    assert "# hb_case2 epsilon=0.2 d3=0.4" in out
    rows = _rows(out)[:4]
    rates = [float(r[1]) for r in rows]
    flat = hb_case2_r1(EPS, 0.4, 0.4)
    assert all(r == pytest.approx(flat, abs=1e-6) for r in rates)


def test_closed_form_flag_validation(capsys):
    assert main(["closed-form", "--case", "case1", "--epsilon", "1.5"]) == 2
    assert main(["closed-form", "--case", "hb_case2", "--epsilon", "0.2"]) == 2
    assert main(["closed-form", "--case", "case2", "--epsilon", "0.2", "--d3", "0.4"]) == 2
    assert main(["closed-form", "--case", "case1", "--d3", "0.4"]) == 2
    assert main(["closed-form", "--case", "case1", "--gamma", "1.5"]) == 2
    for bad in ("nan", "inf"):
        argv = ["closed-form", "--case", "hb_case2", "--epsilon", "0.2", "--gamma", "0.3", "0.6"]
        assert main(argv + ["--d3", bad]) == 2
        assert main(["closed-form", "--preset", "fig6", "--gamma", "0.6", "--d3", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 9 and all(line.startswith("error: ") for line in errors)


def test_fig4_preset_refuses_d3(capsys):
    assert main(["closed-form", "--preset", "fig4", "--d3", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --d3 only applies to the hb_case2 curve\n"


def test_sweep_rejects_non_finite_targets(spec_path, capsys):
    for flag in ("--d1", "--d2", "--d3"):
        argv = ["sweep", "--spec", str(spec_path), "--d1", "0", "--d2", "1", "--gammas", "0.6"]
        assert main(argv + [flag, "nan"]) == 2
        assert capsys.readouterr().out == ""


def test_sweep_rejects_d3_target_without_third_node(spec_path, capsys):
    argv = [
        "sweep", "--spec", str(spec_path), "--d1", "0", "--d2", "1", "--d3", "0.3",
        "--gammas", "0.6", "--restarts", "1", "--max-iters", "1", "--hops", "0",
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "third node" in captured.err


def test_evaluate_reports_reference_point(spec_path, tmp_path, capsys):
    policy = _policy_path(tmp_path, "case1", 0.4)
    assert main(["evaluate", "--spec", str(spec_path), "--policy", str(policy)]) == 0
    out = capsys.readouterr().out
    assert "r1 = 1.12192809489" in out
    assert "gamma = 0.4" in out
    assert "feasible = 1" in out
    assert out.count("(ok)") == 2


def test_evaluate_rejects_mismatched_policy(spec_path, tmp_path, capsys):
    hb = with_node3_erasure_metric(binary_erasure_spec(EPS))
    z, a, y, w = hb.z_alpha, hb.a_alpha, hb.y_alpha, hb.xhat3_alpha
    u = Alphabet("u", ("u0",))
    v = Alphabet("v", ("v0",))
    f = np.zeros((3, 2, 1, 3))
    f[:, 1, 0, 2] = 1.0
    policy = Policy(
        Kernel((z,), (a, u, w), f), Kernel((a, u, y, w), (v,), np.ones((2, 1, 3, 3, 1)))
    )
    path = tmp_path / "hb_policy.json"
    save_policy(policy, path)
    assert main(["evaluate", "--spec", str(spec_path), "--policy", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    # the right shape, but z has a symbol the spec does not know
    ref = appendixB_policy(ExampleCase("case1", EPS, 0.4))
    z = Alphabet("z", ("0", "1", "x"))
    save_policy(Policy(Kernel((z,), ref.forward.outputs, ref.forward.table), ref.backward), path)
    assert main(["evaluate", "--spec", str(spec_path), "--policy", str(path)]) == 2
    assert "z alphabet" in capsys.readouterr().err


def test_evaluate_reports_third_node_distortion(capsys):
    data = Path(__file__).parent / "data"
    argv = ["evaluate", "--spec", str(data / "spec_erasure_node3.json")]
    argv += ["--policy", str(data / "policy_node3.json")]
    assert main(argv) == 0
    (d3,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("d3 = ")]
    # the policy abstains w.p. 0.3, 0.2, 0.9 on (A=1, Z=e), (A=0, Z binary), (A=1, Z binary)
    assert float(d3[5:]) == pytest.approx(hb_abstention_cost(EPS, 0.6, 0.3, 0.2, 0.9), abs=1e-12)


def test_evaluate_missing_file(spec_path, tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["evaluate", "--spec", str(spec_path), "--policy", str(missing)]) == 2


# Each case edits one field of a valid spec or policy document into a shape
# the reader must reject: (which document, path to the field, new value).
MALFORMED = {
    "policy_forward_list": ("policy", ("forward",), ["0", "1"]),
    "policy_forward_row_list": ("policy", ("forward", "0"), ["0,0", "0.5"]),
    "policy_backward_row_string": ("policy", ("backward", "0,0,0"), "v0"),
    "policy_document_list": ("policy", (), ["kind", "policy"]),
    "spec_source_table_list": ("spec", ("source", "table"), [["0,0", "0.4"], ["1,1", "0.4"]]),
    "spec_cost_list": ("spec", ("cost",), ["0", "1"]),
    "spec_vending_list": ("spec", ("vending",), ["0,0,0", {"phi": "1"}]),
    "metric_key_number": ("spec", ("metrics", "d1"), [[0, "1"]]),
    "spec_alphabets_string": ("spec", ("alphabets",), "x z y a xhat1 xhat2"),
    "policy_bool_number": ("policy", ("forward", "e", "0,e"), True),
    "spec_int_overflow": ("spec", ("cost", "1"), 10**400),
    "policy_bogus_mode": ("policy", ("mode",), "bogus"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_evaluate_rejects_malformed_documents(case, spec_path, tmp_path, capsys):
    kind, path, value = MALFORMED[case]
    policy_path = _policy_path(tmp_path, "case1", 0.4)
    target = spec_path if kind == "spec" else policy_path
    doc = json.loads(target.read_text())
    if path:
        field = doc
        for key in path[:-1]:
            field = field[key]
        field[path[-1]] = value
    else:
        doc = value
    target.write_text(json.dumps(doc))
    assert main(["evaluate", "--spec", str(spec_path), "--policy", str(policy_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing_dir" / "x.csv"
    argv = ["closed-form", "--case", "case1", "--gamma", "0.5", "--output", str(missing)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not missing.parent.exists()


def test_sweep_seeded_single_point(spec_path, tmp_path, capsys):
    seed = _policy_path(tmp_path, "case1", 0.4)
    code = main(
        [
            "sweep", "--spec", str(spec_path), "--d1", "0.5", "--d2", "0.0",
            "--gammas", "0.4", "--restarts", "1", "--max-iters", "4", "--hops", "0",
            "--cardinality", "3", "3", "--seed-policy", str(seed),
        ]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 1
    gamma, r1, r2, d1, d2, d3, residual, feasible = rows[0]
    assert feasible == "1"
    assert float(r1) == pytest.approx(case1_r1(EPS, 0.4), abs=1e-4)
    assert abs(float(residual)) < 1e-9
    assert d3 == ""


def test_sweep_all_infeasible_exits_3(spec_path, capsys):
    code = main(
        [
            "sweep", "--spec", str(spec_path), "--d1", "0.0", "--d2", "1.0",
            "--gammas", "0.05", "0.1", "--restarts", "1", "--max-iters", "2",
            "--hops", "0", "--cardinality", "2", "3",
        ]
    )
    assert code == 3
    rows = _rows(capsys.readouterr().out)
    assert all(r[-1] == "0" and r[1] == "" and r[2] == "" for r in rows)


def test_sweep_rejects_v_smaller_than_y(spec_path, capsys):
    code = main(
        [
            "sweep", "--spec", str(spec_path), "--d1", "0.5", "--d2", "1.0",
            "--gammas", "0.5", "--restarts", "1", "--cardinality", "2", "2",
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "|Y| = 3" in captured.err


def test_sweep_dumps_policies_and_manifest(spec_path, tmp_path):
    seed = _policy_path(tmp_path, "case2", 0.6)
    out_csv = tmp_path / "sweep.csv"
    dump_dir = tmp_path / "policies"
    code = main(
        [
            "sweep", "--spec", str(spec_path), "--d1", "0.0", "--d2", "1.0",
            "--gammas", "0.6", "--restarts", "1", "--max-iters", "4", "--hops", "0",
            "--cardinality", "3", "3", "--seed-policy", str(seed),
            "--dump-policies", str(dump_dir), "--output", str(out_csv),
        ]
    )
    assert code == 0
    dumped = dump_dir / "policy_gamma_0.6.json"
    assert dumped.exists()
    load_policy(dumped)
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["rng_seeds"] == [0]
    assert str(out_csv) in manifest["outputs"]
    assert str(dumped) in manifest["outputs"]
    assert manifest["parameters"]["gammas"] == [0.6]
    assert manifest["cpu_count"] == os.cpu_count()
    assert manifest["numpy_version"] == np.__version__
    assert manifest["python_version"] == platform.python_version()


def test_sweep_dumps_one_policy_per_close_gamma(spec_path, tmp_path):
    """Budgets that agree to 6 significant digits still get their own files."""
    out_csv = tmp_path / "sweep.csv"
    dump_dir = tmp_path / "policies"
    code = main(
        [
            "sweep", "--spec", str(spec_path), "--d1", "0.5", "--d2", "1.0",
            "--gammas", "0.6000001", "0.6000002", "--restarts", "1", "--max-iters", "1",
            "--hops", "0", "--cardinality", "3", "3",
            "--dump-policies", str(dump_dir), "--output", str(out_csv),
        ]
    )
    assert code == 0
    dumped = [dump_dir / "policy_gamma_0.6000001.json", dump_dir / "policy_gamma_0.6000002.json"]
    assert sorted(dump_dir.iterdir()) == dumped
    for path in dumped:
        load_policy(path)
    outputs = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["outputs"]
    assert sorted(outputs) == sorted([str(out_csv)] + [str(p) for p in dumped])


def test_simulate_is_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    flags = [
        "simulate", "--scheme", "case1", "--n", "20000", "--epsilon", "0.2",
        "--gamma", "0.4", "--seed", "7", "--trials", "3",
    ]
    assert main(flags + ["--output", str(first)]) == 0
    assert main(flags + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    header, row = first.read_text().strip().splitlines()
    assert header.startswith("scheme,n,epsilon,gamma,trials,r1_hat")
    cells = row.split(",")
    assert cells[0] == "case1"
    assert float(cells[5]) == pytest.approx(case1_r1(EPS, 0.4), abs=0.01)


def test_simulate_prints_readme_row(capsys):
    # freezes the simulation streams: README prints this row
    row = "case1,100000,0.2,0.4,10,1.121593,0,0.099663,0,0.4,0"
    assert row in (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert main([
        "simulate", "--scheme", "case1", "--n", "100000", "--epsilon", "0.2",
        "--gamma", "0.4", "--seed", "7", "--trials", "10",
    ]) == 0
    header, printed = capsys.readouterr().out.strip().splitlines()
    assert header == "scheme,n,epsilon,gamma,trials,r1_hat,r2_hat,d1_hat,d2_hat,cost_hat,semi_analytic"
    assert printed == row
    assert printed.split(",")[5] == "1.121593"


def test_short_simulate_manifest_records_one_worker(tmp_path):
    """Every command runs on the calling thread, so the manifest carries no
    worker count."""
    out_csv = tmp_path / "short.csv"
    flags = [
        "simulate", "--scheme", "case3", "--n", "1000", "--epsilon", "0.2",
        "--gamma", "0.6", "--trials", "20", "--output", str(out_csv),
    ]
    assert main(flags) == 0
    manifest = json.loads((tmp_path / "short.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert "workers" not in manifest


def test_sweep_manifest_records_one_worker(spec_path, tmp_path):
    """A sweep solves its starts on the calling thread, so the manifest
    carries no worker count."""
    out_csv = tmp_path / "sweep.csv"
    flags = [
        "sweep", "--spec", str(spec_path), "--d1", "0.5", "--d2", "1.0", "--gammas", "0.5",
        "--restarts", "2", "--max-iters", "1", "--hops", "0", "--cardinality", "3", "3",
        "--output", str(out_csv),
    ]
    assert main(flags) == 0
    assert "workers" not in json.loads((tmp_path / "sweep.csv.manifest.json").read_text())


def test_no_command_starts_a_thread(spec_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a command started a thread or forked a process")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    assert main([
        "simulate", "--scheme", "case3", "--n", "125000", "--epsilon", "0.2",
        "--gamma", "0.6", "--trials", "8",
    ]) == 0
    assert main([
        "sweep", "--spec", str(spec_path), "--d1", "0.0", "--d2", "1.0", "--gammas", "0.4", "0.6",
        "--restarts", "4", "--max-iters", "2", "--hops", "1", "--cardinality", "3", "3",
    ]) == 0


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_negative_seed_exits_2(command, spec_path, capsys):
    flags = {
        "simulate": ["simulate", "--scheme", "case1", "--n", "100", "--epsilon", "0.2", "--gamma", "0.4"],
        "sweep": ["sweep", "--spec", str(spec_path), "--d1", "0.5", "--d2", "1.0", "--gammas", "0.5"],
    }[command]
    assert main(flags + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rng_seed must be nonnegative, got -1\n"


def test_parser_reuse_carries_nothing_between_commands(spec_path, tmp_path):
    parser = _build_parser()
    assert _build_parser() is parser
    seed = tmp_path / "seed.json"
    sweep = ["sweep", "--spec", str(spec_path), "--d1", "0.1", "--d2", "0", "--gammas", "0.6"]
    first = parser.parse_args(sweep + ["--seed-policy", str(seed), "--restarts", "2"])
    again = parser.parse_args(sweep)
    assert first.seed_policy == [seed] and first.restarts == 2
    assert again.seed_policy == [] and again.restarts == OptimizerConfig().restarts
    simulate = ["simulate", "--scheme", "case1", "--n", "100", "--epsilon", "0.2", "--gamma", "0.4"]
    assert parser.parse_args(simulate + ["--seed", "5", "--trials", "3"]).seed == 5
    fresh = parser.parse_args(simulate)
    assert (fresh.seed, fresh.trials, fresh.output) == (0, 1, None)


def test_simulate_exit_codes(capsys):
    assert main(["simulate", "--scheme", "case3", "--n", "100", "--epsilon", "0.2", "--gamma", "0.1"]) == 3
    assert main(["simulate", "--scheme", "case1", "--n", "0", "--epsilon", "0.2", "--gamma", "0.4"]) == 2
