"""Tests for the on-disk code definition format."""

import json

import pytest

from storagecodes import codefile, constructions
from storagecodes.constructions import example1, example3, rbt_mbr


def test_dumps_is_byte_stable():
    cf = codefile.from_named_code(example1())
    assert codefile.dumps(cf) == codefile.dumps(cf)
    assert codefile.dumps(cf).endswith("\n")


def test_exact_round_trip(tmp_path):
    named = example1()
    path = tmp_path / "example1.json"
    path.write_text(codefile.dumps(codefile.from_named_code(named)))
    loaded = codefile.load(str(path))
    assert loaded.spec is None
    assert loaded.code.basis_strings() == named.code.basis_strings()
    assert loaded.declared == named.declared
    assert loaded.plans.keys() == named.repair_plans.keys()
    for failed, plan in loaded.plans.items():
        original = named.repair_plans[failed]
        assert plan.helpers == original.helpers
        assert plan.beta == original.beta
        assert plan.repair_spaces == original.repair_spaces


def test_functional_round_trip(tmp_path):
    cf = codefile.from_named_code(example3())
    path = tmp_path / "fn.json"
    path.write_text(codefile.dumps(cf))
    loaded = codefile.load(str(path))
    assert loaded.spec is not None
    assert loaded.spec.name == "example3"
    assert loaded.code.basis_strings() == cf.code.basis_strings()


def test_functional_name_and_spec_are_kept_apart():
    doc = json.loads(codefile.dumps(codefile.from_named_code(example3())))
    doc["name"] = "my-example3"
    text = codefile.dumps(codefile.loads(json.dumps(doc)))
    loaded = codefile.loads(text)
    assert (loaded.name, loaded.spec.name) == ("my-example3", "example3")
    assert json.loads(text) == doc


def test_unknown_functional_spec():
    doc = json.loads(codefile.dumps(codefile.from_named_code(example3())))
    doc["spec"] = "bogus"
    with pytest.raises(codefile.CodeFileError) as err:
        codefile.loads(json.dumps(doc))
    assert "unknown functional specification" in str(err.value)


# the registry's exact families, each named as a functional spec
EXACT_FAMILIES = ["example1", "rbt-mbr", "repetition", "parity"]


def test_exact_families_are_the_rest_of_the_registry():
    registry = constructions.named_codes()
    assert EXACT_FAMILIES == [n for n in registry if n not in constructions.functional_specs()]


@pytest.mark.parametrize("spec", [*EXACT_FAMILIES, "example3"])
def test_loads_builds_no_registry_code(monkeypatch, spec):
    # the kind is read from the registry, not probed by building a code
    doc = json.loads(codefile.dumps(codefile.from_named_code(example3())))
    doc["spec"] = spec
    built = []
    monkeypatch.setattr(constructions, "_verify", lambda named: built.append(named.name) or named)
    if spec == "example3":
        assert codefile.loads(json.dumps(doc)).spec.name == "example3"
    else:
        with pytest.raises(codefile.CodeFileError) as err:
            codefile.loads(json.dumps(doc))
        assert str(err.value) == f"unknown functional specification {spec!r}"
    assert built == []


def test_loads_reports_json_error_line():
    with pytest.raises(codefile.CodeFileError) as err:
        codefile.loads('{\n  "format_version": 1,\n}')
    assert "line" in str(err.value)


def test_loads_rejects_wrong_version():
    with pytest.raises(codefile.CodeFileError) as err:
        codefile.loads(json.dumps({"format_version": 99, "mode": "exact", "nodes": [["1"]]}))
    assert "format_version" in str(err.value)


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_loads_rejects_a_version_that_is_not_an_integer(version):
    with pytest.raises(codefile.CodeFileError, match="unsupported format_version"):
        codefile.loads(json.dumps({"format_version": version, "mode": "exact", "nodes": [["1"]]}))


def test_loads_rejects_mismatched_header():
    named = example1()
    doc = json.loads(codefile.dumps(codefile.from_named_code(named)))
    doc["alpha"] = 7
    with pytest.raises(codefile.CodeFileError) as err:
        codefile.loads(json.dumps(doc))
    assert "alpha" in str(err.value)


def test_loads_rejects_invalid_code():
    doc = {
        "format_version": 1,
        "mode": "exact",
        # dependent rows: the code does not validate
        "nodes": [["100", "100"], ["010", "001"]],
    }
    with pytest.raises(codefile.CodeFileError) as err:
        codefile.loads(json.dumps(doc))
    assert "validate" in str(err.value)


def test_loads_rejects_bad_functional_initial_state():
    doc = json.loads(codefile.dumps(codefile.from_named_code(example3())))
    doc["nodes"][1] = doc["nodes"][0]  # duplicate space: pairwise rule broken
    with pytest.raises(codefile.CodeFileError) as err:
        codefile.loads(json.dumps(doc))
    assert "spec" in str(err.value)


# example3 stores 2 independent rows per node; each edit breaks node 0
FUNCTIONAL_ROW_DEFECTS = [
    (lambda rows: rows + ["10100"], "node 0: 3 basis rows, expected 2"),  # redundant
    (lambda rows: rows + ["00001"], "node 0: 3 basis rows, expected 2"),  # independent
    (lambda rows: rows[:1], "node 0: 1 basis rows, expected 2"),
    (lambda rows: rows[:1] * 2, "node 0: basis rows are dependent"),
]


@pytest.mark.parametrize("edit, message", FUNCTIONAL_ROW_DEFECTS)
def test_loads_rejects_functional_node_with_wrong_rows(edit, message):
    doc = json.loads(codefile.dumps(codefile.from_named_code(example3())))
    doc["nodes"][0] = edit(doc["nodes"][0])
    with pytest.raises(codefile.CodeFileError) as err:
        codefile.loads(json.dumps(doc))
    assert str(err.value) == message


def test_load_missing_file():
    with pytest.raises(codefile.CodeFileError):
        codefile.load("/nonexistent/path.json")


def test_larger_construction_round_trips(tmp_path):
    named = rbt_mbr(5)
    path = tmp_path / "mbr5.json"
    path.write_text(codefile.dumps(codefile.from_named_code(named)))
    loaded = codefile.load(str(path))
    assert loaded.code.basis_strings() == named.code.basis_strings()
