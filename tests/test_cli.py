"""End-to-end tests for the command-line frontend and its exit codes."""

import argparse
import errno
import hashlib
import inspect
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from storagecodes import cli, codefile
from storagecodes.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SIMULATION,
    EXIT_VALIDATION,
    FAILURES,
    build_parser,
    main,
)
from storagecodes.constructions import named_codes, single_parity


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# construct


def test_construct_writes_code_file(tmp_path, capsys):
    path = tmp_path / "code.json"
    code, out, err = run(capsys, "--output", str(path), "construct", "example1")
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    assert doc["mode"] == "exact" and doc["n"] == 4


def test_common_options_after_subcommand(tmp_path, capsys):
    path = tmp_path / "code.json"
    code, out, err = run(capsys, "construct", "example1", "--output", str(path))
    assert code == EXIT_OK
    assert json.loads(path.read_text())["n"] == 4
    flags = ("--seed", "5", "--rounds", "10", "--format", "record-stream")
    before = run(capsys, *flags, "simulate", str(path))
    after = run(capsys, "simulate", str(path), *flags)
    assert before[0] == EXIT_OK and before == after
    # repeated after the subcommand, an option overrides its value before it
    rest = flags[2:]
    assert run(capsys, "--seed", "1", *rest, "simulate", str(path), "--seed", "5") == before
    assert run(capsys, "--seed", "1", *rest, "simulate", str(path)) != before


def test_construct_to_stdout(capsys):
    code, out, err = run(capsys, "construct", "parity", "--r", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["alpha"] == 1


def test_construct_functional(capsys):
    code, out, err = run(capsys, "construct", "example3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["mode"] == "functional" and doc["spec"] == "example3"


def _construct_parser():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["construct"]


def test_construct_choices_follow_the_registry():
    name = next(a for a in _construct_parser()._actions if a.dest == "name")
    assert list(name.choices) == list(named_codes())


def test_construct_bad_parameters(capsys):
    code, out, err = run(capsys, "construct", "repetition", "--n", "5", "--r", "2")
    assert code == EXIT_PARSE
    assert "bad parameters" in err


# construct arguments -> the one-line message each is rejected with
OUT_OF_RANGE = {
    "repetition --n 6 --r 0": "repetition_code needs r >= 1",
    "repetition --n 6 --r 2 --alpha 0": "repetition_code needs alpha >= 1, got alpha=0",
    "repetition --n 6 --r 2 --alpha -2": "repetition_code needs alpha >= 1, got alpha=-2",
    "repetition --n 6 --r 2 --alpha 0 --variant copy": (
        "repetition_code needs alpha >= 1, got alpha=0"
    ),
    "repetition --n 6 --r 2 --alpha -2 --variant copy": (
        "repetition_code needs alpha >= 1, got alpha=-2"
    ),
    "repetition --n 0 --r 2": "repetition_code needs n >= r+1 = 3, got n=0",
    "repetition --n -3 --r 2": "repetition_code needs n >= r+1 = 3, got n=-3",
    "repetition --n 7 --r 2": "r+1 = 3 must divide n = 7",
    "repetition --n 7 --r 2 --variant copy": "r+1 = 3 must divide n = 7",
}


@pytest.mark.parametrize("argv", [args.split() for args in OUT_OF_RANGE])
def test_construct_out_of_range_parameters_are_one_line(capsys, argv):
    code, out, err = run(capsys, "construct", *argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"bad parameters: {OUT_OF_RANGE[' '.join(argv)]}\n"


# construct arguments -> sha256 of the code file written, one or more
# cases for every registry family
CONSTRUCT_PINS = {
    "example1": "be80db3faac33ef0d6860b595a5071083a6d13e2de790e898361f8151e2bcef7",
    "example3": "ecfff7c0f679c2d07d2c7afafb6d364e5459278787295ec88398c2821bf6f410",
    "rbt-mbr --n 3": "cb81a3d8cace5d39a9b0425bb5200a4a737f621c8629d26afe397a3a56a3d820",
    "rbt-mbr --n 4": "b0290b7c22bab6aa9bf74650fe6fef2527f42e6f181d7ca03ff231e93d4e26d4",
    "rbt-mbr --n 5": "4e15ed826ea341fe3216136ab526ed03123641f1c967aa50cc196ea08cc2dbad",
    "rbt-mbr --n 6": "b0a2ce0160b6b0141ab514df68710ee545f5c7f4a1da8005f4f52a42df98a467",
    "rbt-mbr --n 7": "f7549b7331d6b36f94da6290dcd0fd1c6850486542ce53d8f085ccb351132ac6",
    "rbt-mbr --n 8": "89983c3e4a6abbe32485bebe941e567e7be6ac3b35700a266b0ca786a9f5d15a",
    "rbt-mbr --n 9": "1417d9b96c2884c3291447ac4af0262cacbeb83a164069ae164f24763a9e8997",
    "rbt-mbr --n 10": "d6c315d8b779b9206ed6bf46aa51ed4f03ce7b1d3ea3e2b6944df7163bbcbf9f",
    "rbt-mbr --n 11": "3f45a1ae47e0613e7fab768a0b610af89efb17ea1c61afceaa58c26d2b9da3ed",
    "rbt-mbr --n 12": "7ed729bcc8063dd1193a7546584a6dbb338e2fe4c622cc6c278b74e933f2d16f",  # m = 66
    "parity --r 1": "ef92f66d9e617144f37f003922b0f8aa2d832beecb6d78957c8ac28845c291e9",
    "parity --r 4": "b857a8d45e40ff6b5d45337dc8c6ea47e3ed8a41fad4055d0dff4668600837cc",
    "parity --r 64": "16d83213d24a9c67a490d289cd6858eff411945200f6c1f5e882bf92e3a75d1a",
    "parity --r 70": "53fa76b07be628badfc9891f8353b7a43d7a786f6d4cdb8a09ab44de38cc593a",
    "repetition --n 6 --r 2 --alpha 2": "0d3ee45170461fde8bb29114cbdfc9c339b3f07f2016db6b8f58e117e9d245bc",
    "repetition --n 6 --r 2 --alpha 4": "d74a66a9e2902f3166ec179cfb40f4c13365471434ee3b2eb74ef474b860cdc6",
    "repetition --n 6 --r 2 --alpha 2 --variant copy": (
        "e3ca751fa7aa7b6af403177f0698c4ac77bd11b9a7f37775b083434bf265d3f0"
    ),
    "repetition --n 6 --r 2 --alpha 4 --variant copy": (
        "c81021d50e4959d1cbce019e318cc73c54d5936ab12d42927bea1ff9277e9909"
    ),
    "repetition --n 8 --r 3 --alpha 3": "183317c28a4e80d32f2ae04e907133afe6dd191c1fe357044d326048dcecaed0",
    "repetition --n 8 --r 3 --alpha 6": "8fcb9ac0dc7ec02186a2db59f2adcde79d84ca533d4ad4ec68c71aa684d55f62",
    "repetition --n 8 --r 3 --alpha 3 --variant copy": (
        "ddba6bde0220f76ec58a252eefbd4b7c1b6ce04bc222da5c5e4d7d4123d01d56"
    ),
    "repetition --n 8 --r 3 --alpha 6 --variant copy": (
        "8aec77d5a1e53985c6b12c3381a672995e3f009c057c7e76d96615886b05f12c"
    ),
    "repetition --n 12 --r 2": "388041f0125363e45b68e40540679ed1fb4a17f5751293df047c74aadbaf815d",
    "repetition --n 12 --r 2 --variant copy": (
        "58ec6ebc839dc69e12d2005ddbb6306892e4fefc06486aa3e288a6f7f2d493c7"
    ),
    "repetition --n 56 --r 7 --alpha 7 --variant copy": (
        "646a8deddab63e54ad2fa666ce8ca3d18acfa3bda5daa98ca501b2284dca0480"
    ),
    "repetition --n 130 --r 1 --alpha 1": (  # m = 65
        "4e95f67ef4b65789dabd2b0d6288afd568fc3bb2ebc8937d009f29097068885e"
    ),
}


def test_construct_pins_cover_the_registry():
    assert {args.split()[0] for args in CONSTRUCT_PINS} == set(named_codes())


@pytest.mark.parametrize("args", list(CONSTRUCT_PINS))
def test_construct_output_is_pinned(capsys, args):
    code, out, err = run(capsys, "construct", *args.split())
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_PINS[args]


# The options each construction takes; every other construct option is rejected.
CONSTRUCT_OPTIONS = {
    "example1": set(),
    "rbt-mbr": {"n"},
    "repetition": {"n", "r", "alpha", "variant"},
    "parity": {"r"},
    "example3": set(),
}
CONSTRUCT_VALUES = {"n": "4", "r": "3", "alpha": "2", "variant": "split"}


def test_construct_options_cover_the_registry():
    assert set(CONSTRUCT_OPTIONS) == set(named_codes())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["example1", "--n", "7"], "example1 does not take --n"),
        (["parity", "--r", "3", "--alpha", "2"], "parity does not take --alpha"),
        # several at once are named together, in option order
        (["rbt-mbr", "--variant", "copy", "--r", "2"], "rbt-mbr does not take --r, --variant"),
    ],
)
def test_construct_rejects_options_its_family_does_not_take(capsys, argv, message):
    code, out, err = run(capsys, "construct", *argv)
    assert (code, out, err) == (EXIT_PARSE, "", f"bad parameters: {message}\n")


@pytest.mark.parametrize("name", sorted(CONSTRUCT_OPTIONS))
def test_construct_rejects_every_option_it_does_not_take(capsys, name):
    for option in CONSTRUCT_VALUES:
        if option not in CONSTRUCT_OPTIONS[name]:
            argv = ["construct", name, f"--{option}", CONSTRUCT_VALUES[option]]
            assert run(capsys, *argv) == (
                EXIT_PARSE, "", f"bad parameters: {name} does not take --{option}\n"
            )


@pytest.mark.parametrize("name", sorted(CONSTRUCT_OPTIONS))
def test_construct_given_defaults_match_left_out_ones(capsys, name):
    defaults = {"n": "4", "r": "3", "variant": "split"}  # alpha is unset by default
    bare = run(capsys, "construct", name)
    taken = sorted(CONSTRUCT_OPTIONS[name] & set(defaults))
    given = [arg for o in taken for arg in (f"--{o}", defaults[o])]
    assert bare[0] == EXIT_OK
    assert run(capsys, "construct", name, *given) == bare


def test_construct_options_are_the_registrys_parameters():
    parsed = {a.dest for a in _construct_parser()._actions if a.option_strings}
    params = {p for build in named_codes().values() for p in inspect.signature(build).parameters}
    assert parsed - {"help", "output"} == params


@pytest.fixture
def wide_registry(monkeypatch):
    """The registry plus a last family whose n defaults to 5, where
    rbt-mbr's defaults to 4; the parser is rebuilt around it."""

    def wide_parity(n: int = 5):
        return single_parity(n - 1)

    monkeypatch.setattr(cli, "named_codes", lambda: {**named_codes(), "wide-parity": wide_parity})
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


@pytest.mark.parametrize(
    "name, pin", [("rbt-mbr", "rbt-mbr --n 4"), ("wide-parity", "parity --r 4")]
)
def test_bare_construct_takes_its_own_familys_default(capsys, wide_registry, name, pin):
    code, out, err = run(capsys, "construct", name)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_PINS[pin]


def test_construct_unknown_variant_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "repetition", "--variant", "bogus"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (EXIT_PARSE, "")
    assert err.startswith("usage: storagecode construct ") and "[--variant {split,copy}]" in err
    assert err.endswith(
        "error: argument --variant: invalid choice: 'bogus' (choose from 'split', 'copy')\n"
    )


# ---------------------------------------------------------------------------
# validate


def write_code(tmp_path, capsys, *construct_args):
    path = tmp_path / "code.json"
    code, _, _ = run(capsys, "--output", str(path), "construct", *construct_args)
    assert code == EXIT_OK
    return path


def test_validate_good_file(tmp_path, capsys):
    path = write_code(tmp_path, capsys, "example1")
    code, out, err = run(capsys, "validate", str(path))
    assert code == EXIT_OK
    assert "(4; 4,2,3,2,1)" in out
    assert "rate: 1/2" in out


def test_validate_rbt_mbr_n8(tmp_path, capsys):
    # each stored plan has n - 1 helpers, which ceil(alpha/beta) = n - 1
    # already meets, so repair_locality searches no helper set
    path = write_code(tmp_path, capsys, "rbt-mbr", "--n", "8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == EXIT_OK
    assert "profile: (28; 8,7,7,7,1)" in out


@pytest.mark.parametrize(
    "variant, profile", [("split", "(8; 12,4,2,2,1)"), ("copy", "(8; 12,4,1,2,2)")]
)
def test_validate_repetition_with_more_groups_than_r(tmp_path, capsys, variant, profile):
    # four groups against r = 2: k = 4 > r, which a profile may state
    path = write_code(tmp_path, capsys, "repetition", "--n", "12", "--r", "2", "--variant", variant)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[0] == f"profile: {profile}"


def test_validate_record_stream(tmp_path, capsys):
    path = write_code(tmp_path, capsys, "example1")
    code, out, err = run(capsys, "--format", "record-stream", "validate", str(path))
    assert code == EXIT_OK
    assert out.startswith("profile=")


def test_validate_functional_file(tmp_path, capsys):
    path = write_code(tmp_path, capsys, "example3")
    code, out, err = run(capsys, "validate", str(path))
    assert code == EXIT_OK
    assert "functional" in out


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize(
    "data",
    [
        b"{ not json",
        b'\xff\xfe{"format_version": 1}',  # not UTF-8
        b"[" * 100000 + b"]" * 100000,  # deeper than the JSON decoder recurses
    ],
    ids=["not-json", "not-utf8", "nested-too-deeply"],
)
def test_validate_parse_error(tmp_path, capsys, command, data):
    path = tmp_path / "broken.json"
    path.write_bytes(data)
    code, out, err = run(capsys, command, str(path))
    assert code == EXIT_PARSE
    assert "parse error" in err
    assert out == "" and err.startswith("parse error: ") and err.count("\n") == 1


def test_validate_declared_mismatch(tmp_path, capsys):
    path = write_code(tmp_path, capsys, "example1")
    doc = json.loads(path.read_text())
    doc["declared"]["k"] = 3  # the real recovery dimension is 2
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == EXIT_VALIDATION
    assert "violation" in err


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("breakage", ["plans", "spaces"])
def test_non_object_repair_plans_is_parse_error(tmp_path, capsys, command, breakage):
    path = write_code(tmp_path, capsys, "example1")
    doc = json.loads(path.read_text())
    if breakage == "plans":
        doc["repair_plans"] = list(doc["repair_plans"].values())
    else:
        doc["repair_plans"]["0"]["spaces"] = [["1001"]]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == EXIT_PARSE
    assert err.startswith("parse error") and err.count("\n") == 1


def _break_stored_plan(doc):
    doc["repair_plans"]["0"]["spaces"]["3"] = ["0010"]  # not inside node 3
    return "plan for node 0: repair space of helper 3 is not inside its storage space"


def _too_many_helpers(doc):
    # a valid plan for node 0 of the copy-variant repetition code, but with
    # three helpers against the declared r = 2
    plan = doc["repair_plans"]["0"]
    plan["helpers"] = [1, 2, 3]
    plan["spaces"] = {str(h): doc["nodes"][h] for h in (1, 2, 3)}
    return "plan for node 0 uses more than r=2 helpers"


def _beta_not_declared(doc):
    # two full helper spaces cover node 0 of example1, but at beta = 2
    # against the declared beta = 1
    plan = doc["repair_plans"]["0"]
    plan["helpers"] = [1, 2]
    plan["beta"] = 2
    plan["spaces"] = {str(h): doc["nodes"][h] for h in (1, 2)}
    return "plan for node 0: beta 2 != declared beta 1"


def _beta_not_default(doc):
    # the same plan in a file without a declared block, where validate
    # checks locality at the default beta = 1
    del doc["declared"]
    _beta_not_declared(doc)
    return "plan for node 0: beta 2 != default beta 1"


@pytest.mark.parametrize(
    "construct_args, breakage",
    [
        (("example1",), _break_stored_plan),
        (("repetition", "--n", "6", "--r", "2", "--alpha", "2", "--variant", "copy"), _too_many_helpers),
        (("example1",), _beta_not_declared),
        (("example1",), _beta_not_default),
    ],
)
def test_validate_checks_stored_plans(tmp_path, capsys, construct_args, breakage):
    path = write_code(tmp_path, capsys, *construct_args)
    doc = json.loads(path.read_text())
    problem = breakage(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == EXIT_VALIDATION and out == ""
    assert err == f"violation: {problem}\n"


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("spec", [["example3"], {"name": "example3"}])
def test_non_string_functional_spec_is_parse_error(tmp_path, capsys, command, spec):
    path = write_code(tmp_path, capsys, "example3")
    doc = json.loads(path.read_text())
    doc["spec"] = spec
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == EXIT_PARSE
    assert err.startswith("parse error") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("spec", ["example1", "rbt-mbr", "repetition", "parity"])
def test_exact_registry_entry_as_functional_spec_is_parse_error(tmp_path, capsys, command, spec):
    path = write_code(tmp_path, capsys, "example3")
    doc = json.loads(path.read_text())
    doc["spec"] = spec
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"parse error: unknown functional specification {spec!r}\n"


def _list_node_row(doc):
    doc["nodes"][0] = [list(row) for row in doc["nodes"][0]]


def _list_plan_row(doc):
    spaces = doc["repair_plans"]["0"]["spaces"]
    spaces["1"] = [list(row) for row in spaces["1"]]


def _object_node(doc):
    doc["nodes"][0] = {row: i for i, row in enumerate(doc["nodes"][0], 1)}


def _object_plan_space(doc):
    doc["repair_plans"]["0"]["spaces"]["1"] = {"1001": 0}


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize(
    "name, breakage",
    [
        ("example1", _list_node_row),
        ("example1", _list_plan_row),
        ("example3", _list_node_row),
        ("example1", _object_node),
        ("example1", _object_plan_space),
        ("example3", _object_node),
    ],
)
def test_basis_row_written_as_list_is_parse_error(tmp_path, capsys, command, name, breakage):
    # a row ["1","0","0","1"] must not be read as "1001", nor an object's
    # keys as the rows of a basis
    path = write_code(tmp_path, capsys, name)
    doc = json.loads(path.read_text())
    breakage(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == EXIT_PARSE
    assert err.startswith("parse error") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_node_written_as_one_string_is_parse_error(tmp_path, capsys, command):
    # "1" must not be read as a node with the single row "1"
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"format_version": 1, "nodes": ["1", "1"]}))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == (
        "parse error: bad node basis: a matrix must be a list of 0/1 strings, not the string '1'\n"
    )


def _set(*path_and_value):
    *path, key, value = path_and_value

    def breakage(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return breakage


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize(
    "breakage, message",
    [
        (_set("format_version", True), "unsupported format_version True"),
        (_set("format_version", 1.0), "unsupported format_version 1.0"),
        (_set("m", 4.0), "m must be an integer, got 4.0"),
        (_set("n", "4"), "n must be an integer, got '4'"),
        (_set("alpha", True), "alpha must be an integer, got True"),
        (_set("declared", {"k": 2.9, "r": 3.2, "beta": 1.5}),
         "bad declared parameters: k must be an integer, got 2.9"),
        (_set("declared", "r", "3"), "bad declared parameters: r must be an integer, got '3'"),
        (_set("declared", "beta", True),
         "bad declared parameters: beta must be an integer, got True"),
        (_set("repair_plans", "0", "beta", 1.7),
         "bad repair plan for node 0: beta must be an integer, got 1.7"),
        (_set("repair_plans", "0", "helpers", [True, 2, 3]),
         "bad repair plan for node 0: a helper must be an integer, got True"),
        (_set("repair_plans", "0", "helpers", [1, 1, 2, 3]),
         "bad repair plan for node 0: a helper is listed more than once"),
        (_set("repair_plans", "0", {"helpers": [], "beta": 1, "spaces": {}}),
         "bad repair plan for node 0: a repair plan needs at least one helper"),
        (_set("name", ["x"]), "name must be a string, got ['x']"),
        (_set("name", None), "name must be a string, got None"),
        # k > r is a valid profile; k > n, r > n-1 and a non-positive field are not
        (_set("declared", "k", 5),
         "bad declared parameters: need k <= n and r <= n-1, got k=5, r=3, n=4"),
        (_set("declared", "r", 4),
         "bad declared parameters: need k <= n and r <= n-1, got k=2, r=4, n=4"),
        (_set("declared", "beta", 0), "bad declared parameters: beta must be positive"),
    ],
)
def test_non_integer_fields_and_repeated_helpers_are_parse_errors(
    tmp_path, capsys, command, breakage, message
):
    path = write_code(tmp_path, capsys, "example1")
    doc = json.loads(path.read_text())
    breakage(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (EXIT_PARSE, "", f"parse error: {message}\n")


def _rename(*path_and_keys):
    *path, old, new = path_and_keys

    def breakage(doc):
        for step in path:
            doc = doc[step]
        doc[new] = doc.pop(old)

    return breakage


def _add_alias(doc):
    # "00" beside "0" must not collapse into one plan for node 0
    doc["repair_plans"]["00"] = doc["repair_plans"]["0"]


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize(
    "breakage, message",
    [
        (_rename("repair_plans", "0", " 00"), "node key ' 00' is not a canonical decimal integer"),
        (_rename("repair_plans", "1", "01"), "node key '01' is not a canonical decimal integer"),
        (_rename("repair_plans", "2", "+2"), "node key '+2' is not a canonical decimal integer"),
        (_rename("repair_plans", "3", "\uff13"),
         "node key '\uff13' is not a canonical decimal integer"),
        (_rename("repair_plans", "0", "spaces", "1", "01"),
         "bad repair plan for node 0: node key '01' is not a canonical decimal integer"),
        (_rename("repair_plans", "0", "spaces", "2", "2 "),
         "bad repair plan for node 0: node key '2 ' is not a canonical decimal integer"),
        (_add_alias, "node key '00' is not a canonical decimal integer"),
    ],
)
def test_non_canonical_node_keys_are_parse_errors(tmp_path, capsys, command, breakage, message):
    path = write_code(tmp_path, capsys, "example1")
    doc = json.loads(path.read_text())
    breakage(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (EXIT_PARSE, "", f"parse error: {message}\n")


def _plan_0_twice(broken_first):
    """example1's file text with a second plan 0 that cannot repair node 0."""

    def breakage(text):
        doc = json.loads(text)
        plans = doc["repair_plans"]
        broken = json.loads(json.dumps(plans["0"]))
        broken["spaces"]["3"] = ["0010"]  # not inside node 3
        first, second = (broken, plans.pop("0")) if broken_first else (plans.pop("0"), broken)
        doc["repair_plans"] = {"0": first, "second": second, **plans}
        return json.dumps(doc).replace('"second":', '"0":')

    return breakage


def _top_level_twice(text):
    return text.replace('"format_version": 1,', '"format_version": 1, "format_version": 1,', 1)


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize(
    "breakage, key",
    [(_plan_0_twice(True), "0"), (_plan_0_twice(False), "0"), (_top_level_twice, "format_version")],
    ids=["broken-plan-first", "broken-plan-last", "top-level"],
)
def test_repeated_keys_are_parse_errors(tmp_path, capsys, command, breakage, key):
    # json.loads alone keeps the last of two equal keys, so the verdict
    # would depend on which copy of plan 0 comes last
    path = write_code(tmp_path, capsys, "example1")
    path.write_text(breakage(path.read_text()))
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (EXIT_PARSE, "", f"parse error: duplicate key {key!r}\n")


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("m", 9, "declared m = 9 does not match the node bases"),
        ("n", 3, "declared n = 3 does not match the node bases"),
        ("alpha", 1, "declared alpha = 1 does not match the node bases"),
        ("m", 5.0, "m must be an integer, got 5.0"),
        ("name", 3, "name must be a string, got 3"),
        ("repair_plans", {}, "a functional code file takes no 'repair_plans'"),
        ("declared", {"k": 3, "r": 3, "beta": 1}, "a functional code file takes no 'declared'"),
    ],
)
def test_functional_file_fields_are_checked(tmp_path, capsys, command, field, value, message):
    path = write_code(tmp_path, capsys, "example3")
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (EXIT_PARSE, "", f"parse error: {message}\n")


def test_functional_file_may_state_matching_dimensions(tmp_path, capsys):
    path = write_code(tmp_path, capsys, "example3")
    doc = json.loads(path.read_text())
    doc.update(m=5, n=4, alpha=2)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert "m: 5" in out


def _misspell_plans(doc):
    # a broken plan under the misspelled key must not pass unread
    _break_stored_plan(doc)
    doc["repair_plan"] = doc.pop("repair_plans")


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize(
    "name, breakage, message",
    [
        ("example1", _set("comment", "x"), "an exact code file takes no 'comment'"),
        ("example1", _misspell_plans, "an exact code file takes no 'repair_plan'"),
        ("example1", _set("spec", "example3"), "an exact code file takes no 'spec'"),
        ("example3", _set("comment", "x"), "a functional code file takes no 'comment'"),
        ("example1", _set("declared", "d", 1), "bad declared parameters: 'declared' takes no 'd'"),
        ("example1", _set("declared", [2, 3, 1]),
         "bad declared parameters: 'declared' must be an object"),
        ("example1", _set("repair_plans", "0", "note", "x"),
         "bad repair plan for node 0: a repair plan takes no 'note'"),
        ("example1", _set("repair_plans", "0", [[1, 2, 3], 1]),
         "bad repair plan for node 0: a repair plan must be an object"),
    ],
    ids=["top-level", "misspelled-plans", "spec-in-exact", "top-level-functional",
         "declared", "declared-not-object", "plan", "plan-not-object"],
)
def test_unknown_keys_are_parse_errors(tmp_path, capsys, command, name, breakage, message):
    path = write_code(tmp_path, capsys, name)
    doc = json.loads(path.read_text())
    breakage(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (EXIT_PARSE, "", f"parse error: {message}\n")


@pytest.mark.parametrize("name", sorted(CONSTRUCT_OPTIONS))
def test_constructed_files_load_byte_identically(tmp_path, capsys, name):
    path = write_code(tmp_path, capsys, name)
    text = path.read_text()
    assert codefile.dumps(codefile.loads(text)) == text


FUZZ_VALUES = [None, 0, 1, 7, -1, 2**70, "", "1", "0110", "x", [], ["1"], [0], {}, {"1": "0"}]


def _paths(node, path=()):
    """Every (container path, key) under a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _mutate(doc, rng):
    path, key = rng.choice(list(_paths(doc)))
    parent = doc
    for step in path:
        parent = parent[step]
    if isinstance(parent, dict) and rng.random() < 0.2:
        del parent[key]
    else:
        parent[key] = rng.choice(FUZZ_VALUES)


@pytest.mark.parametrize("name", ["example1", "parity", "repetition", "example3"])
def test_mutated_code_files_end_with_a_documented_exit(tmp_path, capsys, name):
    path = write_code(tmp_path, capsys, name)
    original = path.read_text()
    rng = random.Random(name)
    for trial in range(150):
        doc = json.loads(original)
        _mutate(doc, rng)
        path.write_text(json.dumps(doc))
        for argv in (["validate"], ["--rounds", "5", "simulate"]):
            code, out, err = run(capsys, *argv, str(path))
            lines = err.splitlines()
            context = (trial, argv[-1], json.dumps(doc), err)
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_SIMULATION, EXIT_CAP), context
            if code == EXIT_VALIDATION:
                # validate reports one violation per line
                assert lines and all(line.startswith("violation: ") for line in lines), context
            else:
                assert len(lines) <= 1, context


def _drop_plans(doc):
    del doc["repair_plans"]


def test_validate_cap_exceeded(tmp_path, capsys, monkeypatch):
    # without stored plans, repair_locality searches each node's helpers
    path = write_code(tmp_path, capsys, "rbt-mbr", "--n", "6")
    doc = json.loads(path.read_text())
    _drop_plans(doc)
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("STORAGECODE_CAP", "2")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (EXIT_CAP, "")
    assert err == "cap exceeded: 31 subspaces of dimension 1 in GF(2)^5 exceeds cap 2\n"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_exact(tmp_path, capsys):
    path = write_code(tmp_path, capsys, "example1")
    code, out, err = run(capsys, "--seed", "7", "--rounds", "20", "simulate", str(path))
    assert code == EXIT_OK
    assert "repairs: 20" in out
    # 3 helpers x beta=1 per repair round
    assert "symbols_transferred: 60" in out


def test_simulate_functional(tmp_path, capsys):
    path = write_code(tmp_path, capsys, "example3")
    code, out, err = run(capsys, "--seed", "3", "--rounds", "10", "simulate", str(path))
    assert code == EXIT_OK
    assert "repairs: 10" in out


SIMULATE = "--seed 0 --format record-stream --rounds"
# Every digest the CI console step checks on the installed entry point,
# by name: (construct arguments, or None for a command that reads no code
# file; whether the file's repair plans are deleted; the command's
# arguments, followed by the code file's path; sha256 of stdout).
CONSOLE_PINS = {
    "simulate-example3": (
        "example3", False, f"{SIMULATE} 200 simulate",
        "2458d42b5ffa011c5ab69c4bcc290c40a21f463645ad32992c884809ec3dc0bc",
    ),
    # The benchmark marathon's length, at which 273 of the 1000 repairs
    # meet a survivor configuration already searched.
    "simulate-example3-1000": (
        "example3", False, f"{SIMULATE} 1000 simulate",
        "a85c53fa422912d9ba20250298e60dd97f4215f1aa19a4cf40ce2d96e16c67e2",
    ),
    "simulate-example1": (
        "example1", False, f"{SIMULATE} 200 simulate",
        "8cfa214d5bc272b9491403f1dea2acdaa06523bc148b506ce67c06dfe07868ca",
    ),
    # Without stored plans every repair searches all live helpers.
    "simulate-rbt-mbr-8-searched": (
        "rbt-mbr --n 8", True, f"{SIMULATE} 200 simulate",
        "f84e022bd5616f714496dab6c321215794d70d8a3765afb2eae0219ad7af5cbf",
    ),
    # Each helper sends two vectors of its space.
    "simulate-repetition-copy-searched": (
        "repetition --n 6 --r 2 --alpha 2 --variant copy", True, f"{SIMULATE} 200 simulate",
        "8e313ac6008f092c2951d341c651c39ede644bfb40b4c25b0ba966bdcdb1f37f",
    ),
    # Each helper of the split repetition code holds a 4-dimensional space
    # and sends 2 of it, so the plan found is the first admitted subspace
    # in _subspace_words order.
    "simulate-repetition-split-searched": (
        "repetition --n 6 --r 2 --alpha 4 --variant split", True, f"{SIMULATE} 200 simulate",
        "a1f148b117c44ca1664dbcca89d35de4143793bc6ef210566e3fdab945741464",
    ),
    "game-r2": (
        None, False, "game --case r2 --n 7 --r 2 --alpha 2 --beta 1",
        "e3ae85d6a04ea794911d85d8ed36d6e9a025ed684df74b9cb028d7a530e31c60",
    ),
    # Below the horizon that certifies the bound: holds=0, exit 0.
    "game-r2-horizon-3": (
        None, False, "game --case r2 --n 7 --r 2 --alpha 2 --beta 1 --horizon 3",
        "a2e8c883130dd2c1a2e4d4bfbbe0323a0b1942e1c20c650f9abea0c18fbc87e0",
    ),
    # A principal line through dead initial ancestors, which the
    # collector's flow network contracts into the source.
    "game-r3": (
        None, False, "game --case alpha_eq_r_beta --n 4 --r 3 --alpha 3 --beta 1",
        "cb3d3bfc2314e3c3fac419e11beb3705d9d805d18914b33d57e38467db5913aa",
    ),
}


@pytest.mark.parametrize("name", list(CONSOLE_PINS))
def test_console_output_is_pinned(tmp_path, capsys, name):
    construct, drop_plans, argv, digest = CONSOLE_PINS[name]
    argv = argv.split()
    if construct is not None:
        path = write_code(tmp_path, capsys, *construct.split())
        if drop_plans:
            doc = json.loads(path.read_text())
            _drop_plans(doc)
            path.write_text(json.dumps(doc))
        argv.append(str(path))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_rejects_negative_rounds(tmp_path, capsys):
    path = write_code(tmp_path, capsys, "example1")
    code, out, err = run(capsys, "--rounds", "-3", "simulate", str(path))
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("bad parameters: ") and err.count("\n") == 1
    code, out, err = run(capsys, "--rounds", "0", "simulate", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert "repairs: 0" in out


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize(
    "rows, message",
    [
        # node 0 of example3 plus the sum of its rows
        (["10000", "00100", "10100"], "node 0: 3 basis rows, expected 2"),
        (["10000", "10000"], "node 0: basis rows are dependent"),
    ],
)
def test_functional_node_with_wrong_rows_is_parse_error(tmp_path, capsys, command, rows, message):
    path = write_code(tmp_path, capsys, "example3")
    doc = json.loads(path.read_text())
    doc["nodes"][0] = rows
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"parse error: {message}\n"


def test_simulate_decodes_from_more_than_64_stored_symbols(tmp_path, capsys):
    # rbt-mbr n=11 decodes from k = 10 nodes of 10 symbols each
    path = write_code(tmp_path, capsys, "rbt-mbr", "--n", "11")
    code, out, err = run(capsys, "--rounds", "1", "simulate", str(path))
    assert code == EXIT_OK and err == ""
    assert "decode_checks_passed: 1" in out


def test_simulate_past_64_coordinates(tmp_path, capsys):
    # rbt-mbr n=12 has m = 66: every repair restores its node's block
    # exactly (an exact repair that does not exits 4) and every decode
    # recovers the message
    path = write_code(tmp_path, capsys, "rbt-mbr", "--n", "12")
    code, out, err = run(capsys, "simulate", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines() == [
        "repairs: 100", "symbols_transferred: 1100", "decode_checks_passed: 100"
    ]


def test_simulate_decode_sets_are_completed_until_they_decode(tmp_path, capsys):
    # k = 7 among 56 nodes: a random 7-set almost never holds one node of
    # every group, so each set is completed in index order until it does.
    path = write_code(
        tmp_path, capsys, "repetition", "--n", "56", "--r", "7", "--alpha", "7", "--variant", "copy"
    )
    code, out, err = run(capsys, "simulate", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert "decode_checks_passed: 100" in out.splitlines()


def test_simulate_is_reproducible(tmp_path, capsys):
    path = write_code(tmp_path, capsys, "example1")
    _, out1, _ = run(capsys, "--seed", "5", "--rounds", "10", "--format", "record-stream", "simulate", str(path))
    _, out2, _ = run(capsys, "--seed", "5", "--rounds", "10", "--format", "record-stream", "simulate", str(path))
    assert out1 == out2


def test_simulate_trace_to_file(tmp_path, capsys):
    path = write_code(tmp_path, capsys, "example1")
    trace = tmp_path / "trace.txt"
    code, out, err = run(
        capsys, "--seed", "1", "--rounds", "5", "--output", str(trace), "simulate", str(path)
    )
    assert code == EXIT_OK
    lines = trace.read_text().strip().split("\n")
    assert lines[0].startswith("epoch=0 kind=encode")


@pytest.mark.parametrize("command", ["construct", "simulate"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_is_bad_parameters(tmp_path, capsys, command, target):
    code_path = write_code(tmp_path, capsys, "example1")
    if target == "directory":
        output, error = tmp_path, IsADirectoryError
    else:
        output, error = tmp_path / "no" / "such" / "x.json", FileNotFoundError
    argv = ["construct", "example1"] if command == "construct" else ["simulate", str(code_path)]
    code, out, err = run(capsys, "--output", str(output), *argv)
    number = errno.EISDIR if error is IsADirectoryError else errno.ENOENT
    message = error(number, os.strerror(number), str(output))
    assert (code, out, err) == (EXIT_PARSE, "", f"bad parameters: {message}\n")


# ---------------------------------------------------------------------------
# bound


def test_bound_cutset(capsys):
    code, out, err = run(
        capsys, "bound", "cutset", "--k", "3", "--r", "3", "--alpha", "2", "--beta", "1"
    )
    assert code == EXIT_OK
    assert "value=5" in out


def test_bound_msr_mbr(capsys):
    code, out, err = run(capsys, "bound", "msr", "--k", "2", "--r", "3", "--beta", "1")
    assert code == EXIT_OK and "alpha=2" in out and "value=4" in out
    code, out, err = run(capsys, "bound", "mbr", "--k", "3", "--r", "3", "--beta", "1")
    assert code == EXIT_OK and "alpha=3" in out and "value=6" in out


def test_bound_theorems(capsys):
    code, out, err = run(
        capsys, "bound", "theorem1", "--case", "alpha-eq-beta", "--n", "4", "--r", "3", "--alpha", "1"
    )
    assert code == EXIT_OK and "value=3" in out
    code, out, err = run(capsys, "bound", "theorem2", "--n", "4", "--alpha", "2", "--beta", "1")
    assert code == EXIT_OK and "value=4" in out and "rate_bound=1/2" in out


def test_bound_bad_parameters(capsys):
    code, out, err = run(capsys, "bound", "cutset", "--k", "3", "--r", "2")
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "argv",
    [
        ("mbr", "--k", "-2", "--r", "1", "--beta", "-1"),
        ("msr", "--k", "0"),
        ("msr", "--k", "1", "--r", "2", "--beta", "0"),
    ],
)
def test_bound_points_reject_bad_parameters(capsys, argv):
    code, out, err = run(capsys, "bound", *argv)
    assert code == EXIT_PARSE
    assert out == "" and err.startswith("bad parameters:")


@pytest.mark.parametrize(
    "spellings, record",
    [
        (("alpha-eq-beta", "alpha_eq_beta"), "bound=theorem1 n=5 r=2 alpha=2 value=6 case=alpha_eq_beta\n"),
        (("alpha-eq-r-beta", "alpha_eq_r_beta"), "bound=theorem1 n=5 r=2 alpha=2 value=5 case=alpha_eq_r_beta\n"),
    ],
)
def test_bound_theorem1_case_spellings(capsys, spellings, record):
    for case in spellings:
        code, out, err = run(
            capsys, "bound", "theorem1", "--case", case, "--n", "5", "--r", "2", "--alpha", "2"
        )
        assert (code, out) == (EXIT_OK, record)


# The options each bound takes; every other bound option is rejected.
BOUND_OPTIONS = {
    "cutset": {"k", "r", "alpha", "beta"},
    "msr": {"k", "r", "beta"},
    "mbr": {"k", "r", "beta"},
    "locality-distance": {"k", "r", "d"},
    "info-distance": {"n", "m", "r", "alpha"},
    "theorem1": {"n", "r", "alpha", "case"},
    "theorem2": {"n", "alpha", "beta"},
}
ALL_BOUND_OPTIONS = ["k", "r", "n", "m", "d", "alpha", "beta", "case"]


def _option(name):
    return [f"--{name}", "alpha-eq-beta" if name == "case" else "2"]


@pytest.mark.parametrize("bound", sorted(BOUND_OPTIONS))
def test_bound_rejects_options_it_does_not_take(capsys, bound):
    unused = [o for o in ALL_BOUND_OPTIONS if o not in BOUND_OPTIONS[bound]]
    for option in unused:
        code, out, err = run(capsys, "bound", bound, *_option(option))
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"bad parameters: {bound} does not take --{option}\n"
    # several at once are named together, in option order
    argv = [arg for option in unused for arg in _option(option)]
    code, out, err = run(capsys, "bound", bound, *argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"bad parameters: {bound} does not take {', '.join('--' + o for o in unused)}\n"


# Each bound's whole record, with every option left out and with options
# given: the inputs in parameter order, the value, then the extras.
BOUND_RECORDS = [
    (("cutset",), "bound=cutset k=1 r=1 alpha=1 beta=1 value=1"),
    (("msr",), "bound=msr k=1 r=1 beta=1 value=1 alpha=1"),
    (("mbr",), "bound=mbr k=1 r=1 beta=1 value=1 alpha=1"),
    (("locality-distance",), "bound=locality-distance k=1 r=1 d=2 value=2"),
    (("info-distance",), "bound=info-distance n=3 m=1 r=1 alpha=1 value=3"),
    (("theorem1",), "bound=theorem1 n=3 r=1 alpha=1 value=1 case=alpha_eq_beta"),
    (("theorem2",), "bound=theorem2 n=3 alpha=1 beta=1 value=2 rate_bound=2/3"),
    (
        ("cutset", "--beta", "2", "--alpha", "3", "--k", "3", "--r", "4"),
        "bound=cutset k=3 r=4 alpha=3 beta=2 value=9",
    ),
    (("msr", "--k", "2", "--r", "5", "--beta", "3"), "bound=msr k=2 r=5 beta=3 value=24 alpha=12"),
    (("mbr", "--k", "3", "--r", "4", "--beta", "2"), "bound=mbr k=3 r=4 beta=2 value=18 alpha=8"),
    (
        ("locality-distance", "--k", "7", "--r", "3", "--d", "4"),
        "bound=locality-distance k=7 r=3 d=4 value=12",
    ),
    (
        ("info-distance", "--n", "9", "--m", "10", "--r", "2", "--alpha", "3"),
        "bound=info-distance n=9 m=10 r=2 alpha=3 value=5",
    ),
    (
        ("info-distance", "--n", "2", "--m", "10", "--r", "1", "--alpha", "1"),
        "bound=info-distance n=2 m=10 r=1 alpha=1 value=-16",
    ),
    (
        ("theorem1", "--case", "alpha-eq-r-beta", "--n", "7", "--r", "3", "--alpha", "2"),
        "bound=theorem1 n=7 r=3 alpha=2 value=7 case=alpha_eq_r_beta",
    ),
    (
        ("theorem2", "--n", "7", "--alpha", "3", "--beta", "2"),
        "bound=theorem2 n=7 alpha=3 beta=2 value=11 rate_bound=5/9",
    ),
]


def test_bound_records_cover_every_bound():
    assert {argv[0] for argv, _ in BOUND_RECORDS} == set(BOUND_OPTIONS)
    assert {argv[0] for argv, _ in BOUND_RECORDS if len(argv) > 1} == set(BOUND_OPTIONS)


@pytest.mark.parametrize("argv, record", BOUND_RECORDS)
def test_bound_record_is_pinned(capsys, argv, record):
    assert run(capsys, "bound", *argv) == (EXIT_OK, record + "\n", "")


@pytest.mark.parametrize("bound", sorted(BOUND_OPTIONS))
def test_bound_given_defaults_match_left_out_ones(capsys, bound):
    defaults = {"k": "1", "r": "1", "n": "3", "m": "1", "d": "2", "alpha": "1", "beta": "1",
                "case": "alpha-eq-beta"}
    bare = run(capsys, "bound", bound)
    given = [arg for o in sorted(BOUND_OPTIONS[bound]) for arg in (f"--{o}", defaults[o])]
    assert run(capsys, "bound", bound, *given) == bare


def test_bound_theorem1_unknown_case(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "theorem1", "--case", "bogus"])
    assert exc.value.code == EXIT_PARSE
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# game


def test_game_theorem2_small(capsys):
    code, out, err = run(
        capsys, "game", "--case", "r2", "--n", "3", "--r", "2", "--alpha", "1", "--beta", "1"
    )
    assert code == EXIT_OK
    assert "value=2" in out and "formula=2" in out and "holds=1" in out


@pytest.mark.parametrize(
    "spellings, params",
    [
        (("alpha-eq-beta", "alpha_eq_beta"), ("3", "2", "1", "1")),
        (("alpha-eq-r-beta", "alpha_eq_r_beta"), ("3", "2", "2", "1")),
        (("r2",), ("3", "2", "1", "1")),
    ],
)
def test_game_case_spellings(capsys, spellings, params):
    n, r, alpha, beta = params
    outputs = set()
    for case in spellings:
        code, out, err = run(
            capsys, "game", "--case", case, "--n", n, "--r", r, "--alpha", alpha, "--beta", beta
        )
        assert code == EXIT_OK and "holds=1" in out
        outputs.add(out)
    assert len(outputs) == 1


def test_game_unknown_case(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["game", "--case", "bogus", "--n", "3", "--r", "2", "--alpha", "1", "--beta", "1"])
    assert exc.value.code == EXIT_PARSE
    assert capsys.readouterr().out == ""


def test_game_horizon_override(capsys):
    code, out, err = run(
        capsys,
        "--horizon", "2",
        "game", "--case", "alpha-eq-beta", "--n", "3", "--r", "2", "--alpha", "1", "--beta", "1",
    )
    assert code == EXIT_OK
    assert "holds=1" in out


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_game_horizon_below_one_is_rejected(capsys, horizon):
    # 0 is a horizon like any other, not a stand-in for the default
    code, out, err = run(
        capsys,
        "game", "--case", "alpha_eq_beta", "--n", "4", "--r", "3", "--alpha", "1", "--beta", "1",
        "--horizon", horizon,
    )
    assert (code, out, err) == (EXIT_PARSE, "", "bad parameters: need horizon >= 1\n")


def test_game_regime_mismatch(capsys):
    code, out, err = run(
        capsys, "game", "--case", "r2", "--n", "4", "--r", "3", "--alpha", "1", "--beta", "1"
    )
    assert code == EXIT_PARSE
    assert "bad parameters" in err


def test_game_cap_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("STORAGECODE_CAP", "1")
    code, out, err = run(
        capsys, "game", "--case", "r2", "--n", "5", "--r", "2", "--alpha", "1", "--beta", "1"
    )
    assert code == EXIT_CAP
    assert "cap exceeded" in err


def test_game_cap_exceeded_after_probes_names_them(capsys, monkeypatch):
    monkeypatch.setenv("STORAGECODE_CAP", "100")
    code, out, err = run(
        capsys, "game", "--case", "r2", "--n", "7", "--r", "2", "--alpha", "2", "--beta", "1"
    )
    assert code == EXIT_CAP
    assert out == ""
    assert err == (
        "cap exceeded before the bound was certified: memo cap 100 hit at depth 4 before any "
        "horizon completed; the probes at depths 1-3 stayed above the target 7\n"
    )


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
@pytest.mark.parametrize("command", ["validate", "game"])
def test_cap_must_be_a_positive_integer(tmp_path, capsys, monkeypatch, command, raw):
    if command == "validate":
        argv = ["validate", str(write_code(tmp_path, capsys, "rbt-mbr", "--n", "6"))]
    else:
        argv = ["game", "--case", "r2", "--n", "5", "--r", "2", "--alpha", "1", "--beta", "1"]
    monkeypatch.setenv("STORAGECODE_CAP", raw)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.count("\n") == 1 and "STORAGECODE_CAP must be a positive integer" in err


def test_simulate_does_not_read_the_cap(tmp_path, capsys, monkeypatch):
    # only validate and game read STORAGECODE_CAP; simulate's searched
    # repairs keep the library's default enumeration cap
    argv = ["--rounds", "2", "simulate", str(write_code(tmp_path, capsys, "example1"))]
    plain = run(capsys, *argv)
    monkeypatch.setenv("STORAGECODE_CAP", "abc")
    assert run(capsys, *argv) == plain
    assert plain[0] == EXIT_OK


# ---------------------------------------------------------------------------
# the common options: each command takes only those it uses

COMMON_ARGV = {
    "validate": ["validate", "e1.json"],
    "construct": ["construct", "example1"],
    "simulate": ["simulate", "e1.json"],
    "game": ["game", "--case", "r2", "--n", "3", "--r", "2", "--alpha", "1", "--beta", "1"],
    "bound": ["bound", "cutset", "--k", "2", "--r", "2"],
}
COMMON_VALUES = {
    "seed": "3", "output": "out.txt", "horizon": "2", "rounds": "5", "format": "record-stream"
}
# (command, option) -> sha256 of stdout and of the --output file (None
# when none is written), the same before and after the subcommand
COMMON_TAKEN = {
    ("validate", "format"): (
        "f3867967c47b816df5cfd0498ac7b55b10110a0d23f0ad1074fea3e79c7421f3", None
    ),
    ("construct", "output"): (
        "08fab3a1b87e2f78432e9cb7d129360e8664f9e668ee4681fdd24341005380aa",
        CONSTRUCT_PINS["example1"],
    ),
    ("simulate", "seed"): (
        "0ac7fd73804955d2a423ab5ecaa9c7118d501cb48b9f270cb2b79da60b4555de", None
    ),
    ("simulate", "output"): (
        "0ac7fd73804955d2a423ab5ecaa9c7118d501cb48b9f270cb2b79da60b4555de",
        "55041b1b7cf3bc58661b3cf04df2b598580605d963b1b93baebc6efa10bab412",
    ),
    ("simulate", "rounds"): (
        "264ce41eb05923aecbae1f0ec4a6fd50ed6ffcca1903728c70a5a9e52f2984ef", None
    ),
    ("simulate", "format"): (
        "dea087bb7a75bd03b57b9a80464220fb0797af6800263b3f4401cb2f5fa96c54", None
    ),
    ("game", "horizon"): (
        "73b4de45be7b8b822a54c7f7c938a843e1e8a44a3b0d2bb42825ef1b13d3601e", None
    ),
}


@pytest.mark.parametrize("position", ["before", "after"])
@pytest.mark.parametrize("option", list(COMMON_VALUES))
@pytest.mark.parametrize("command", list(COMMON_ARGV))
def test_common_option_matrix(tmp_path, capsys, monkeypatch, command, option, position):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "construct", "example1", "--output", "e1.json")[0] == EXIT_OK
    given = [f"--{option}", COMMON_VALUES[option]]
    argv = given + COMMON_ARGV[command] if position == "before" else COMMON_ARGV[command] + given
    output = tmp_path / "out.txt"
    if (command, option) in COMMON_TAKEN:
        code, out, err = run(capsys, *argv)
        digests = [hashlib.sha256(out.encode()).hexdigest(), None]
        if output.exists():
            digests[1] = hashlib.sha256(output.read_bytes()).hexdigest()
        assert (code, err) == (EXIT_OK, "")
        assert tuple(digests) == COMMON_TAKEN[command, option]
    elif position == "before":
        assert run(capsys, *argv) == (
            EXIT_PARSE, "", f"bad parameters: {command} does not take --{option}\n"
        )
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (EXIT_PARSE, "")
        assert err.startswith(f"usage: storagecode {command} ")
        assert f"storagecode {command}: error: unrecognized arguments: {' '.join(given)}" in err
    assert output.exists() == (option == "output" and (command, option) in COMMON_TAKEN)


def test_untaken_common_options_are_named_together_in_option_order(tmp_path, capsys):
    path = write_code(tmp_path, capsys, "example1")
    argv = ["--format", "text", "--seed", "1", "--horizon", "2", "validate", str(path)]
    assert run(capsys, *argv) == (
        EXIT_PARSE, "", "bad parameters: validate does not take --seed, --horizon\n"
    )


def test_untaken_common_option_is_named_before_the_bound_options(capsys):
    assert run(capsys, "--seed", "1", "bound", "msr", "--alpha", "3") == (
        EXIT_PARSE, "", "bad parameters: bound does not take --seed\n"
    )


@pytest.mark.parametrize("command", list(COMMON_ARGV))
def test_subcommand_help_lists_exactly_its_options(capsys, command):
    own = {
        "validate": set(),
        "construct": {"n", "r", "alpha", "variant"},
        "simulate": set(),
        "game": {"case", "n", "r", "alpha", "beta"},
        "bound": {"k", "r", "n", "m", "d", "alpha", "beta", "case"},
    }[command]
    taken = {o for c, o in COMMON_TAKEN if c == command}
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--([a-z]+)", capsys.readouterr().out))
    assert listed == {"help"} | own | taken


# ---------------------------------------------------------------------------
# one parser per process


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_main_runs_the_command_function_bound_at_the_call(capsys, monkeypatch):
    # as a tracer's wrapper, installed after the shared parser was built
    build_parser()
    monkeypatch.setattr(cli, "cmd_bound", lambda args: print("wrapped") or EXIT_OK)
    assert run(capsys, "bound", "cutset") == (EXIT_OK, "wrapped\n", "")


def _fresh_process(argv, cwd):
    """main in a new interpreter, whose parser no earlier call has used."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "storagecodes.cli", *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120,
    )
    return done.returncode, done.stdout


@pytest.mark.parametrize("rejected", [
    ["simulate", "CODE", "--horizon", "2"],  # the command's usage error
    ["--seed", "x", "simulate", "CODE"],  # the root's usage error
    ["simulate", "--help"],  # exit 0, still through SystemExit
])
def test_a_call_after_a_usage_exit_matches_a_fresh_process(tmp_path, capsys, rejected):
    path = str(write_code(tmp_path, capsys, "example1"))
    with pytest.raises(SystemExit):
        main([path if a == "CODE" else a for a in rejected])
    capsys.readouterr()
    argv = ["--seed", "3", "--rounds", "5", "--format", "record-stream", "simulate", path]
    code, out, err = run(capsys, *argv)
    assert (code, out) == _fresh_process(argv, tmp_path)
    assert code == EXIT_OK and "kind=repair-exact" in out


# ---------------------------------------------------------------------------
# the failure table in main


def test_failure_rows_are_all_reachable():
    # a row whose class derives from an earlier row's would never match
    for i, (cls, _, _) in enumerate(FAILURES):
        for earlier, _, _ in FAILURES[:i]:
            assert not issubclass(cls, earlier), (cls, earlier)


def test_failure_exits_are_documented():
    assert {status for _, status, _ in FAILURES} <= {EXIT_PARSE, EXIT_SIMULATION, EXIT_CAP}


def _raise_type_error(k, r, alpha, beta):
    raise TypeError("unsupported operand")


# row class -> (construct arguments for a code file or None, environment cap,
# arguments that end in that class, with CODE standing for the file's path)
FAILURE_INPUTS = {
    codefile.CodeFileError: (None, None, ["validate", "MISSING"]),
    cli.EnumerationCapError: (("rbt-mbr", "--n", "6"), "2", ["validate", "CODE"]),
    cli.flowgame.CapExceededError: (
        None, "1", ["game", "--case", "r2", "--n", "5", "--r", "2", "--alpha", "1", "--beta", "1"]
    ),
    cli.SimulationError: (("example1",), None, ["--rounds", "20", "simulate", "CODE"]),
    ValueError: (None, None, ["construct", "repetition", "--n", "7", "--r", "2"]),
    TypeError: (None, None, ["bound", "cutset"]),
    OSError: (None, None, ["--output", "MISSING", "construct", "example1"]),
}
# row class -> the edit its code file gets before the run
FAILURE_EDITS = {
    cli.SimulationError: _break_stored_plan,  # a stored plan that does not restore node 0
    cli.EnumerationCapError: _drop_plans,  # so that validate searches helper sets
}


@pytest.mark.parametrize(
    "row", range(len(FAILURES)), ids=[cls.__name__ for cls, _, _ in FAILURES]
)
def test_each_failure_row_ends_in_its_exit_and_one_line(tmp_path, capsys, monkeypatch, row):
    cls, status, prefix = FAILURES[row]
    construct_args, cap, argv = FAILURE_INPUTS[cls]
    paths = {"MISSING": str(tmp_path / "missing" / "x.json")}
    if construct_args is not None:
        path = write_code(tmp_path, capsys, *construct_args)
        if cls in FAILURE_EDITS:
            doc = json.loads(path.read_text())
            FAILURE_EDITS[cls](doc)
            path.write_text(json.dumps(doc))
        paths["CODE"] = str(path)
    if cap is not None:
        monkeypatch.setenv("STORAGECODE_CAP", cap)
    if cls is TypeError:  # no command line input raises one; a bound that does
        monkeypatch.setitem(cli.BOUNDS, "cutset", _raise_type_error)
    # number each row's message, so that the line names the row that matched
    numbered = tuple((c, s, f"{i}:{p}") for i, (c, s, p) in enumerate(FAILURES))
    monkeypatch.setattr(cli, "FAILURES", numbered)
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert (code, out) == (status, "")
    assert err.startswith(f"{row}:{prefix}") and err.count("\n") == 1, err
