"""Versioned on-disk code definition format (JSON, byte-stable output).

Every file carries per-node basis rows as '0'/'1' strings (coordinate 0
first).  An exact code adds optional canonical repair plans and
optional declared parameters; a functional code names its registry
entry under "spec", and its nodes are the initial bases.  A key that
the file's mode does not take is an error, at every level.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .codes import CodeError, CodeParams, RepairPlan, StorageCode, validate
from .constructions import FunctionalSpec, NamedCode, functional_specs
from .gf2 import BitMatrix, Subspace

FORMAT_VERSION = 1

_COMMON_FIELDS = ("format_version", "mode", "name", "nodes", "m", "n", "alpha")
# mode -> (the top-level keys a file in that mode takes, what it is called)
_FIELDS = {
    "exact": (_COMMON_FIELDS + ("declared", "repair_plans"), "an exact code file"),
    "functional": (_COMMON_FIELDS + ("spec",), "a functional code file"),
}


class CodeFileError(ValueError):
    """A code file failed to parse or to satisfy its invariants."""


@dataclass
class CodeFile:
    """Parsed contents of a code definition file.

    spec is set for a functional code; plans and declared are written
    for exact codes only.
    """

    name: Optional[str]
    code: StorageCode
    plans: Optional[Dict[int, RepairPlan]] = None
    declared: Optional[CodeParams] = None
    spec: Optional[FunctionalSpec] = None


def dumps(cf: CodeFile) -> str:
    mode = "exact" if cf.spec is None else "functional"
    doc: Dict[str, object] = {"format_version": FORMAT_VERSION, "mode": mode}
    if cf.name:
        doc["name"] = cf.name
    doc["nodes"] = cf.code.basis_strings()
    if cf.spec is not None:
        doc["spec"] = cf.spec.name
    else:
        doc["m"] = cf.code.message_dim
        doc["n"] = cf.code.n
        doc["alpha"] = cf.code.alpha
        if cf.declared is not None:
            doc["declared"] = {
                "k": cf.declared.k,
                "r": cf.declared.r,
                "beta": cf.declared.beta,
            }
        if cf.plans:
            doc["repair_plans"] = {
                str(failed): {
                    "helpers": list(plan.helpers),
                    "beta": plan.beta,
                    "spaces": {
                        str(h): plan.repair_spaces[h].basis.to_strings()
                        for h in plan.helpers
                    },
                }
                for failed, plan in sorted(cf.plans.items())
            }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def from_named_code(named: NamedCode) -> CodeFile:
    return CodeFile(named.name, named.code, named.repair_plans, named.declared, named.spec)


def _functional_spec(name: object) -> FunctionalSpec:
    """The spec of the registry's functional code called name."""
    build = functional_specs().get(name) if isinstance(name, str) else None
    if build is None:
        raise CodeFileError(f"unknown functional specification {name!r}")
    return build()


def _int(value: object, field: str) -> int:
    """value if it is a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise CodeFileError(f"{field} must be an integer, got {value!r}")
    return value


def _unique_keys(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
    """A JSON object's members, refusing a key given twice."""
    doc: Dict[str, object] = {}
    for key, value in pairs:
        if key in doc:
            raise CodeFileError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _fields(obj: object, keys: Tuple[str, ...], what: str) -> Dict[str, object]:
    """obj if it is a JSON object with no key outside keys."""
    if not isinstance(obj, dict):
        raise TypeError(f"{what} must be an object")
    for key in obj:
        if key not in keys:
            raise CodeFileError(f"{what} takes no {key!r}")
    return obj


def _node(key: str) -> int:
    """A node number written as a JSON key: canonical decimal only."""
    if not re.fullmatch(r"0|[1-9][0-9]*", key):
        raise CodeFileError(f"node key {key!r} is not a canonical decimal integer")
    return int(key)


def loads(text: str) -> CodeFile:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise CodeFileError(f"line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise CodeFileError("JSON is nested too deeply") from exc
    if not isinstance(doc, dict):
        raise CodeFileError("top level must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CodeFileError(f"unsupported format_version {version!r}")
    mode = doc.get("mode", "exact")
    name = doc.get("name")
    if "name" in doc and not isinstance(name, str):
        raise CodeFileError(f"name must be a string, got {name!r}")
    spec = _functional_spec(doc.get("spec")) if mode == "functional" else None
    if spec is None and mode != "exact":
        raise CodeFileError(f"unknown mode {mode!r}")
    _fields(doc, *_FIELDS[mode])
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise CodeFileError("missing or empty 'nodes'")
    try:
        code = StorageCode.from_basis_strings(nodes)
    except (ValueError, TypeError) as exc:
        raise CodeFileError(f"bad node basis: {exc}") from exc

    for key, value in (("m", code.message_dim), ("n", code.n), ("alpha", code.alpha)):
        if key in doc and _int(doc[key], key) != value:
            raise CodeFileError(f"declared {key} = {doc[key]} does not match the node bases")

    if spec is not None:
        try:
            spec.check_bases(code.node_bases)
        except CodeError as exc:
            raise CodeFileError(str(exc)) from exc
        return CodeFile(name, code, spec=spec)

    problems = validate(code)
    if problems:
        raise CodeFileError("code does not validate: " + "; ".join(problems))

    plans: Optional[Dict[int, RepairPlan]] = None
    if "repair_plans" in doc:
        if not isinstance(doc["repair_plans"], dict):
            raise CodeFileError("'repair_plans' must be an object")
        plans = {}
        for key, entry in doc["repair_plans"].items():
            failed = _node(key)
            try:
                entry = _fields(entry, ("helpers", "beta", "spaces"), "a repair plan")
                helpers = tuple(_int(h, "a helper") for h in entry["helpers"])
                beta = _int(entry["beta"], "beta")
                if not isinstance(entry["spaces"], dict):
                    raise TypeError("'spaces' must be an object")
                spaces = {
                    _node(h): Subspace.spanned_by(
                        code.message_dim,
                        BitMatrix.from_strings(rows).rows,
                    )
                    for h, rows in entry["spaces"].items()
                }
                plans[failed] = RepairPlan(failed, helpers, spaces, beta)
            except (KeyError, ValueError, TypeError) as exc:
                raise CodeFileError(f"bad repair plan for node {key}: {exc}") from exc

    declared: Optional[CodeParams] = None
    if "declared" in doc:
        try:
            d = _fields(doc["declared"], ("k", "r", "beta"), "'declared'")
            declared = CodeParams(
                code.message_dim,
                code.n,
                _int(d["k"], "k"),
                _int(d["r"], "r"),
                code.alpha,
                _int(d["beta"], "beta"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise CodeFileError(f"bad declared parameters: {exc}") from exc

    return CodeFile(name, code, plans, declared)


def load(path: str) -> CodeFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CodeFileError(str(exc)) from exc
    return loads(text)
