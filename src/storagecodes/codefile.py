"""Versioned on-disk code definition format (JSON, byte-stable output).

Exact codes carry per-node basis rows as '0'/'1' strings (coordinate 0
first), optional canonical repair plans, and optional declared
parameters.  Functional codes name their specification and carry the
initial node bases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .codes import CodeParams, RepairPlan, StorageCode, validate
from .constructions import (
    FunctionalSpec,
    NamedCode,
    example3_initial_bases,
    example3_spec,
)
from .gf2 import BitMatrix, Subspace

FORMAT_VERSION = 1


class CodeFileError(ValueError):
    """A code file failed to parse or to satisfy its invariants."""


@dataclass
class CodeFile:
    """Parsed contents of a code definition file."""

    mode: str  # "exact" or "functional"
    name: Optional[str]
    code: Optional[StorageCode] = None
    plans: Optional[Dict[int, RepairPlan]] = None
    declared: Optional[CodeParams] = None
    spec: Optional[FunctionalSpec] = None
    spec_name: Optional[str] = None
    functional_bases: Optional[Tuple[BitMatrix, ...]] = None


_FUNCTIONAL_SPECS = {
    "example3": (example3_spec, example3_initial_bases),
}


def dumps(cf: CodeFile) -> str:
    doc: Dict[str, object] = {"format_version": FORMAT_VERSION, "mode": cf.mode}
    if cf.name:
        doc["name"] = cf.name
    if cf.mode == "functional":
        assert cf.spec_name and cf.functional_bases is not None
        doc["spec"] = cf.spec_name
        doc["nodes"] = [mat.to_strings() for mat in cf.functional_bases]
    else:
        assert cf.code is not None
        doc["m"] = cf.code.message_dim
        doc["n"] = cf.code.n
        doc["alpha"] = cf.code.alpha
        doc["nodes"] = cf.code.basis_strings()
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
    return CodeFile(
        mode="exact",
        name=named.name,
        code=named.code,
        plans=named.repair_plans,
        declared=named.declared,
    )


def functional_file(spec_name: str) -> CodeFile:
    if spec_name not in _FUNCTIONAL_SPECS:
        raise CodeFileError(f"unknown functional specification {spec_name!r}")
    spec_fn, bases_fn = _FUNCTIONAL_SPECS[spec_name]
    return CodeFile(
        mode="functional",
        name=spec_name,
        spec=spec_fn(),
        spec_name=spec_name,
        functional_bases=bases_fn(),
    )


def loads(text: str) -> CodeFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodeFileError(f"line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise CodeFileError("top level must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise CodeFileError(f"unsupported format_version {version!r}")
    mode = doc.get("mode", "exact")
    name = doc.get("name")

    if mode == "functional":
        spec_name = doc.get("spec")
        if not isinstance(spec_name, str) or spec_name not in _FUNCTIONAL_SPECS:
            raise CodeFileError(f"unknown functional specification {spec_name!r}")
        spec_fn, _ = _FUNCTIONAL_SPECS[spec_name]
        spec = spec_fn()
        nodes = doc.get("nodes")
        if not isinstance(nodes, list) or len(nodes) != spec.node_count:
            raise CodeFileError(f"functional file needs {spec.node_count} node bases")
        try:
            bases = tuple(BitMatrix.from_strings(rows) for rows in nodes)
            spaces = [Subspace.spanned_by(spec.ambient_dim, b.rows) for b in bases]
        except (ValueError, TypeError) as exc:
            raise CodeFileError(f"bad node basis: {exc}") from exc
        problems = spec.violations(spaces)
        if problems:
            raise CodeFileError("initial state violates the spec: " + "; ".join(problems))
        return CodeFile(
            mode="functional",
            name=name,
            spec=spec,
            spec_name=spec_name,
            functional_bases=bases,
        )

    if mode != "exact":
        raise CodeFileError(f"unknown mode {mode!r}")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise CodeFileError("missing or empty 'nodes'")
    try:
        code = StorageCode.from_basis_strings(nodes)
    except (ValueError, TypeError) as exc:
        raise CodeFileError(f"bad node basis: {exc}") from exc
    for key in ("m", "n", "alpha"):
        if key in doc and doc[key] != getattr(
            code, {"m": "message_dim", "n": "n", "alpha": "alpha"}[key]
        ):
            raise CodeFileError(f"declared {key} = {doc[key]} does not match the node bases")
    problems = validate(code)
    if problems:
        raise CodeFileError("code does not validate: " + "; ".join(problems))

    plans: Optional[Dict[int, RepairPlan]] = None
    if "repair_plans" in doc:
        if not isinstance(doc["repair_plans"], dict):
            raise CodeFileError("'repair_plans' must be an object")
        plans = {}
        for key, entry in doc["repair_plans"].items():
            try:
                failed = int(key)
                helpers = tuple(int(h) for h in entry["helpers"])
                beta = int(entry["beta"])
                if not isinstance(entry["spaces"], dict):
                    raise TypeError("'spaces' must be an object")
                spaces = {
                    int(h): Subspace.spanned_by(
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
        d = doc["declared"]
        try:
            declared = CodeParams(
                code.message_dim, code.n, int(d["k"]), int(d["r"]), code.alpha, int(d["beta"])
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise CodeFileError(f"bad declared parameters: {exc}") from exc

    return CodeFile(mode="exact", name=name, code=code, plans=plans, declared=declared)


def load(path: str) -> CodeFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CodeFileError(str(exc)) from exc
    return loads(text)


def save(cf: CodeFile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(cf))
