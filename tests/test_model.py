import json
from dataclasses import replace

import numpy as np
import pytest

from vendingrd.closed_form import ExampleCase, appendixB_policy
from vendingrd.model import (
    ProblemSpec,
    SpecFormatError,
    binary_erasure_spec,
    load_spec,
    save_spec,
    spec_from_document,
    spec_to_document,
    with_node3_erasure_metric,
)
from vendingrd.probability import Alphabet, JointPmf, Kernel, TableError, entropy
from vendingrd.region import load_policy, save_policy


def test_erasure_source_marginals():
    spec = binary_erasure_spec(0.2)
    pz = spec.source.table.sum(axis=0)
    assert pz == pytest.approx([0.4, 0.4, 0.2], abs=1e-15)
    px = spec.source.table.sum(axis=1)
    assert px == pytest.approx([0.5, 0.5], abs=1e-15)
    assert entropy(spec.source, ["z"]) == pytest.approx(1.5219280948873623, abs=1e-12)


def test_erasure_params_domain():
    with pytest.raises(ValueError):
        binary_erasure_spec(-0.01)
    with pytest.raises(ValueError):
        binary_erasure_spec(1.2)


def test_vending_machine_reveals_x_only_under_action_one():
    spec = binary_erasure_spec(0.3)
    a = spec.a_alpha.index("1")
    for xi, xsym in enumerate(spec.x_alpha.symbols):
        for zi in range(3):
            assert spec.vending.table[a, xi, zi, spec.y_alpha.index(xsym)] == 1.0
    off = spec.a_alpha.index("0")
    assert np.all(spec.vending.table[off, :, :, spec.y_alpha.index("phi")] == 1.0)


def test_metrics_are_hamming_on_the_right_arguments():
    spec = binary_erasure_spec(0.2)
    assert spec.d1[0, 1, 2, 0] == 0.0 and spec.d1[0, 1, 2, 1] == 1.0
    ze = spec.z_alpha.index("e")
    assert spec.d2[0, 0, ze, spec.xhat2_alpha.index("e")] == 0.0
    assert spec.d2[0, 0, ze, spec.xhat2_alpha.index("0")] == 1.0


def test_node3_metric_encodes_erasure_indicator():
    spec = with_node3_erasure_metric(binary_erasure_spec(0.2))
    assert spec.mode == "heegard-berger"
    d3 = spec.d3
    ze = spec.z_alpha.index("e")
    z0 = spec.z_alpha.index("0")
    k0, k1, kstar = (spec.xhat3_alpha.index(s) for s in ("0", "1", "*"))
    assert d3[0, 0, ze, k1] == 0.0
    assert d3[0, 0, ze, k0] == np.inf
    assert d3[0, 0, z0, k0] == 0.0
    assert d3[0, 0, z0, k1] == np.inf
    assert np.all(d3[:, :, :, kstar] == 1.0)


def test_node3_rejects_non_erasure_base():
    spec = with_node3_erasure_metric(binary_erasure_spec(0.2))
    with pytest.raises(SpecFormatError):
        with_node3_erasure_metric(spec)


def test_round_trip_is_bit_exact(tmp_path):
    for eps in (0.2, 1 / 3, 0.05):
        spec = binary_erasure_spec(eps)
        path = tmp_path / f"spec_{eps:.2f}.json"
        save_spec(spec, path)
        loaded = load_spec(path)
        assert loaded.mode == spec.mode
        assert np.array_equal(loaded.source.table, spec.source.table)
        assert np.array_equal(loaded.vending.table, spec.vending.table)
        assert np.array_equal(loaded.cost, spec.cost)
        assert np.array_equal(loaded.d1, spec.d1)
        assert np.array_equal(loaded.d2, spec.d2)
        # saving the loaded spec reproduces the document exactly
        assert spec_to_document(loaded) == spec_to_document(spec)


def test_round_trip_heegard_berger(tmp_path):
    spec = with_node3_erasure_metric(binary_erasure_spec(0.2))
    path = tmp_path / "hb.json"
    save_spec(spec, path)
    loaded = load_spec(path)
    assert loaded.mode == "heegard-berger"
    assert np.array_equal(loaded.d3, spec.d3)
    assert loaded.xhat3_alpha.symbols == ("0", "1", "*")


def test_loader_rejects_unnormalized_rows():
    doc = spec_to_document(binary_erasure_spec(0.2))
    doc["vending"]["0,0,0"] = {"phi": "0.5"}
    with pytest.raises(SpecFormatError) as err:
        spec_from_document(doc)
    assert "row" in str(err.value)


def test_loader_rejects_bad_source_mass():
    doc = spec_to_document(binary_erasure_spec(0.2))
    doc["source"]["table"]["0,0"] = "0.9"
    with pytest.raises(SpecFormatError):
        spec_from_document(doc)


def test_loader_names_missing_fields():
    doc = spec_to_document(binary_erasure_spec(0.2))
    del doc["cost"]
    with pytest.raises(SpecFormatError) as err:
        spec_from_document(doc)
    assert "cost" in str(err.value)


def test_loader_rejects_inf_probability():
    doc = spec_to_document(binary_erasure_spec(0.2))
    doc["source"]["table"]["0,0"] = "inf"
    with pytest.raises(SpecFormatError):
        spec_from_document(doc)


def test_loader_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"mode": "indirect",\n  "alphabets": }')
    with pytest.raises(SpecFormatError) as err:
        load_spec(path)
    assert "line 2" in str(err.value)


def test_loader_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(SpecFormatError) as err:
        load_spec(path)
    assert "nested" in str(err.value)


def test_metric_needs_finite_column():
    spec = binary_erasure_spec(0.2)
    d1 = spec.d1.copy()
    d1[0, 0, 0, :] = np.inf
    with pytest.raises(SpecFormatError):
        ProblemSpec(
            mode=spec.mode,
            x_alpha=spec.x_alpha,
            z_alpha=spec.z_alpha,
            y_alpha=spec.y_alpha,
            a_alpha=spec.a_alpha,
            xhat1_alpha=spec.xhat1_alpha,
            xhat2_alpha=spec.xhat2_alpha,
            source=spec.source,
            vending=spec.vending,
            cost=spec.cost,
            d1=d1,
            d2=spec.d2,
        )


def test_direct_mode_requires_copy_source():
    spec = binary_erasure_spec(0.2)
    doc = spec_to_document(spec)
    doc["mode"] = "direct"
    with pytest.raises(SpecFormatError):
        spec_from_document(doc)


def test_seventeen_digit_strings(tmp_path):
    spec = binary_erasure_spec(1 / 3)
    doc = spec_to_document(spec)
    raw = doc["source"]["table"]["0,e"]
    assert isinstance(raw, str)
    assert float(raw) == (1 / 3) / 2
    text = json.dumps(doc)
    assert "inf" not in text.replace('"inf"', "")


def _direct_document():
    """A direct-mode spec document: Z copies a uniform bit X and Y is blank."""
    return {
        "mode": "direct",
        "alphabets": {
            "x": ["0", "1"], "z": ["0", "1"], "y": ["-"], "a": ["0"], "xhat1": ["0", "1"], "xhat2": ["0", "1"],
        },
        "source": {"vars": ["x", "z"], "table": {"0,0": "0.5", "1,1": "0.5"}},
        "vending": {f"0,{x},{z}": {"-": "1"} for x in "01" for z in "01"},
        "cost": {"0": "0"},
        "metrics": {"d1": [], "d2": []},
    }


# Each case edits one field of a valid spec document into one the reader must
# reject: (base document, path to the field, new value, text the error names).
SPEC_REJECTS = {
    "unknown_mode": ("erasure", ("mode",), "bogus", "unknown mode"),
    "negative_cost": ("erasure", ("cost", "1"), "-1", "cost"),
    "direct_mass_off_diagonal": ("direct", ("source", "table"), {"0,0": "0.5", "0,1": "0.5"}, "z = x"),
    "negative_metric_cell": ("erasure", ("metrics", "d1"), [["0,0,0,1", "-1"]], "d1"),
    "unknown_symbol_key": ("erasure", ("source", "table", "2,0"), "0.1", "source.table"),
    "metrics_as_object": ("erasure", ("metrics", "d2"), {"0,0,0,1": "1"}, "metrics.d2"),
    "alphabet_not_strings": ("erasure", ("alphabets", "x"), [0, 1], "alphabets.x"),
    "duplicate_symbols": ("erasure", ("alphabets", "y"), ["0", "0", "phi"], "repeated"),
    "wrong_source_vars": ("erasure", ("source", "vars"), ["z", "x"], "source.vars"),
    # +inf is a metric cell's value only: the cell parser refuses it elsewhere
    "inf_cost": ("erasure", ("cost", "1"), "inf", "cost['1']: bad number"),
    "inf_vending_cell": ("erasure", ("vending", "0,0,0", "phi"), "inf", "vending['0,0,0']['phi']: bad number"),
}


@pytest.mark.parametrize("case", sorted(SPEC_REJECTS))
def test_loader_rejects_invalid_spec_documents(case):
    base, path, value, named = SPEC_REJECTS[case]
    doc = _direct_document() if base == "direct" else spec_to_document(binary_erasure_spec(0.2))
    spec_from_document(doc)
    field = doc
    for key in path[:-1]:
        field = field[key]
    field[path[-1]] = value
    with pytest.raises(SpecFormatError) as err:
        spec_from_document(doc)
    assert named in str(err.value)


# Each case writes a document in which one field repeats a key or a metric
# cell, the last copy being a valid value: (which document, path to the
# field, JSON text put there, text the error names).
REPEATS = {
    "cost_key": ("spec", ("cost",), '{"0": "0", "1": "5", "1": "1"}', "'1'"),
    "document_key": ("spec", ("mode",), '"indirect", "mode": "indirect"', "'mode'"),
    "metric_cell": ("spec", ("metrics", "d1"), '[["0,0,0,1", "5"], ["0,0,0,1", "1"]]', "metrics.d1"),
    "policy_row_cell": ("policy", ("forward", "e"), '{"0,e": "0.5", "0,e": "1"}', "'0,e'"),
}


@pytest.mark.parametrize("case", sorted(REPEATS))
def test_loaders_reject_repeated_keys(case, tmp_path):
    kind, path, text, named = REPEATS[case]
    target = tmp_path / f"{kind}.json"
    if kind == "spec":
        save_spec(binary_erasure_spec(0.2), target)
    else:
        save_policy(appendixB_policy(ExampleCase("case1", 0.2, 0.4)), target)
    doc = json.loads(target.read_text())
    field = doc
    for key in path[:-1]:
        field = field[key]
    field[path[-1]] = "@"
    target.write_text(json.dumps(doc).replace('"@"', text))
    with pytest.raises(SpecFormatError, match="repeated") as err:
        (load_spec if kind == "spec" else load_policy)(target)
    assert named in str(err.value)


def _negative_row(kernel):
    table = kernel.table.copy()
    table[0, 0, 0] = (1.5, -0.5, 0.0)
    return Kernel(kernel.inputs, kernel.outputs, table)


# Each case builds, from the erasure spec, a spec or a table of one of its
# fields that the constructor must reject: (build, error, text the message
# starts with, which names the field).
CONSTRUCTOR_REJECTS = {
    "source_variables": (
        lambda s: replace(s, source=JointPmf((("z", s.z_alpha), ("x", s.x_alpha)), s.source.table.T)),
        SpecFormatError, "source: variables",
    ),
    "source_alphabets": (
        lambda s: replace(s, x_alpha=Alphabet("x", ("a", "b"))), SpecFormatError, "source: alphabets",
    ),
    "vending_alphabets": (lambda s: replace(s, y_alpha=Alphabet("y", ("p", "q", "r"))), SpecFormatError, "vending: "),
    "cost_shape": (lambda s: replace(s, cost=np.zeros(3)), SpecFormatError, "cost: expected 2 action costs"),
    "third_node_absent": (lambda s: replace(s, mode="heegard-berger"), SpecFormatError, "d3: heegard-berger"),
    "third_node_present": (
        lambda s: replace(with_node3_erasure_metric(s), mode="indirect"), SpecFormatError, "d3: mode 'indirect'",
    ),
    "metric_shape": (lambda s: replace(s, d1=np.zeros((2, 3, 3, 5))), SpecFormatError, "d1: expected shape"),
    "table_shape": (
        lambda s: JointPmf(s.source.variables, s.source.table[:, :2]),
        TableError, "joint over ('x', 'z'): expected shape",
    ),
    "table_non_finite": (
        lambda s: JointPmf(s.source.variables, np.where(s.source.table > 0.3, np.nan, s.source.table)),
        TableError, "joint over ('x', 'z'): non-finite",
    ),
    "table_negative": (lambda s: _negative_row(s.vending), TableError, "kernel p(y|a,x,z): negative"),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTOR_REJECTS))
def test_constructors_reject_invalid_fields(case):
    build, error, named = CONSTRUCTOR_REJECTS[case]
    with pytest.raises(error) as err:
        build(binary_erasure_spec(0.2))
    assert str(err.value).startswith(named), str(err.value)
