"""Built-in model systems with hand-derived oracle values.

The packaged JSON files under ``data/scenarios`` are the catalog: each file
is one builtin, named by its stem, and is loaded through the same schema
validation and construction path as any external scenario file.  Oracle
entries carry a derivation note so each expected number is traceable.

The schema, ``data/schema/scenario.json``, is the single source of the file
format.  It is read by a check of exactly the draft-07 keywords it uses
(``_schema_errors``), which refuses a schema with any other keyword when it
is first loaded and words a rejection as jsonschema's ``best_match`` does.
jsonschema is the reference the tests compare this check with; numpy is the
only runtime dependency.
"""

from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass
from functools import cache
from importlib.resources import files as _pkg_files

import numpy as np

from .actionangle import AngleMap
from .cosym import CosymplecticStructure, ToleranceConfig
from .fields import ChartSpec, OneFormField, ScalarField, TwoFormField
from .integrability import IntegralSystem

__all__ = [
    "Scenario",
    "UnknownScenarioError",
    "ScenarioFormatError",
    "builtin",
    "builtin_names",
    "builtin_dict",
    "builtin_file_path",
    "scenario_json_text",
    "load_scenario_dict",
    "load_scenario_file",
    "schema_dict",
    "schema_file_path",
]

_SCENARIO_DIR = _pkg_files("cosymkit").joinpath("data/scenarios")


class UnknownScenarioError(Exception):
    def __init__(self, name):
        super().__init__(
            f"unknown scenario '{name}'; available: {', '.join(builtin_names())}"
        )


class ScenarioFormatError(Exception):
    """Scenario JSON failed schema validation or construction."""


@dataclass(frozen=True)
class Scenario:
    """A loaded model: structure, integral system and optional torus data."""

    name: str
    structure: CosymplecticStructure
    system: IntegralSystem
    angle_maps: tuple[AngleMap, ...]
    casimirs: tuple[ScalarField, ...]
    declared_lattice: np.ndarray | None
    fiber_compact: bool
    oracles: dict

    @property
    def chart(self) -> ChartSpec:
        return self.structure.chart

    def base_point(self) -> np.ndarray:
        """Preferred sample point: declared oracle base point, else an
        off-center point of the domain box (avoids symmetric singular sets)."""
        entry = self.oracles.get("base_point")
        if entry:
            return np.asarray(entry["value"], dtype=float)
        box = np.asarray(self.structure.domain_box, dtype=float)
        return box[:, 0] + 0.61803398875 * (box[:, 1] - box[:, 0])


# --- catalog ------------------------------------------------------------------

def builtin_names() -> tuple[str, ...]:
    """Stems of the packaged scenario files, sorted."""
    return tuple(sorted(
        entry.name[: -len(".json")]
        for entry in _SCENARIO_DIR.iterdir()
        if entry.name.endswith(".json")
    ))


def builtin_dict(name: str) -> dict:
    """A fresh parse of the packaged file of builtin ``name``."""
    with builtin_file_path(name).open("r", encoding="utf-8") as handle:
        return json.load(handle)


def scenario_json_text(data: dict) -> str:
    """Canonical serialization used for the packaged scenario files."""
    return json.dumps(data, indent=2) + "\n"


def schema_file_path():
    return _pkg_files("cosymkit").joinpath("data/schema/scenario.json")


def builtin_file_path(name: str):
    if name not in builtin_names():
        raise UnknownScenarioError(name)
    return _SCENARIO_DIR.joinpath(f"{name}.json")


def schema_dict() -> dict:
    with schema_file_path().open("r", encoding="utf-8") as handle:
        return json.load(handle)


# --- schema check -------------------------------------------------------------

_TYPES = {  # draft-07: a bool is neither a number nor an integer, 1.0 is an integer
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, float) and v.is_integer()
    or isinstance(v, int) and not isinstance(v, bool),
}
_KEYWORDS = {"type", "properties", "required", "additionalProperties", "items", "minItems",
             "maxItems", "minLength", "pattern", "minimum", "$schema", "title", "description"}


@cache
def _checked_schema() -> dict:
    """The scenario schema, read once per process.  It may use only the
    keywords :func:`_schema_errors` interprets, and annotations."""
    schema = schema_dict()
    pending = [schema]
    while pending:
        node = pending.pop()
        for key, arg in node.items():
            if key not in _KEYWORDS or (key == "type" and arg not in list(_TYPES)):
                raise ValueError(f"scenario schema: unsupported keyword {key!r} (value {arg!r})")
        pending += node.get("properties", {}).values()
        nested = node.get("items"), node.get("additionalProperties")
        pending += [sub for sub in nested if isinstance(sub, dict)]
    return schema


def _schema_errors(schema: dict, value, path: tuple = ()):
    """Yield ``(path, message)`` for each error of ``value`` against ``schema``
    that jsonschema (draft-07) reports, in its order and its words."""
    for key, arg in schema.items():
        if key == "type" and not _TYPES[arg](value):
            yield path, f"{value!r} is not of type {arg!r}"
        elif key == "properties" and isinstance(value, dict):
            for name, sub in arg.items():
                if name in value:
                    yield from _schema_errors(sub, value[name], (*path, name))
        elif key == "additionalProperties" and isinstance(value, dict):
            extras = [name for name in value if name not in schema.get("properties", {})]
            if isinstance(arg, dict):
                for name in extras:
                    yield from _schema_errors(arg, value[name], (*path, name))
            elif not arg and extras:
                names = ", ".join(repr(name) for name in sorted(extras, key=str))
                verb = "was" if len(extras) == 1 else "were"
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "required" and isinstance(value, dict):
            missing = [name for name in arg if name not in value]
            yield from ((path, f"{name!r} is a required property") for name in missing)
        elif key == "items" and isinstance(value, list):
            for index, item in enumerate(value):
                yield from _schema_errors(arg, item, (*path, index))
        elif key == "minItems" and isinstance(value, list) and len(value) < arg:
            yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "maxItems" and isinstance(value, list) and len(value) > arg:
            yield path, f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        elif key == "minLength" and isinstance(value, str) and len(value) < arg:
            yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "pattern" and isinstance(value, str) and not re.search(arg, value):
            yield path, f"{value!r} does not match {arg!r}"
        elif key == "minimum" and _TYPES["number"](value) and value < arg:
            yield path, f"{value!r} is less than the minimum of {arg!r}"


def load_scenario_dict(data: dict) -> Scenario:
    """Validate a scenario dictionary against the schema and construct it.  A
    compact fiber declares r+1 angle maps, or a period_lattice and none."""
    errors = list(_schema_errors(_checked_schema(), data))
    if errors:
        # as jsonschema's best_match: the shallowest, then the last path, then the first
        _, message = max(errors, key=lambda error: (-len(error[0]), error[0]))
        raise ScenarioFormatError(f"scenario failed schema validation: {message}")
    try:
        chart = ChartSpec(tuple(data["chart"]["names"]), tuple(data["chart"]["periodic"]))
        box = tuple((lo, hi) for lo, hi in data["chart"]["box"])
        tol = ToleranceConfig.from_dict(data.get("tolerances"))
        omega = TwoFormField.from_upper_sources(data["omega"], chart)
        eta = OneFormField.from_sources(data["eta"], chart)
        primitive = (
            OneFormField.from_sources(data["lambda"], chart)
            if "lambda" in data
            else None
        )
        structure = CosymplecticStructure(chart, omega, eta, box, primitive, tol)
        H = ScalarField.from_source(data["hamiltonian"], chart, "H")
        integrals = tuple(
            ScalarField.from_source(item["expr"], chart, item["name"])
            for item in data["integrals"]["fields"]
        )
        system = IntegralSystem(structure, H, integrals, int(data["integrals"]["r"]))
        angle_maps = tuple(
            AngleMap.from_spec(spec, chart) for spec in data.get("angle_maps", [])
        )
        casimirs = tuple(
            ScalarField.from_source(src, chart, f"G{k + 1}")
            for k, src in enumerate(data.get("casimirs", []))
        )
        lattice = (
            np.asarray(data["period_lattice"], dtype=float)
            if "period_lattice" in data
            else None
        )
        rank = system.r + 1
        if lattice is not None and lattice.shape != (rank, rank):
            raise ScenarioFormatError(
                f"period_lattice must be {(rank, rank)}, got {lattice.shape}"
            )
        fiber_compact = bool(data.get("fiber_compact", True))
        if fiber_compact and len(angle_maps) != rank and (lattice is None or angle_maps):
            raise ScenarioFormatError(
                f"a compact fiber needs r+1 = {rank} angle maps, or a period_lattice"
                f" and no angle maps; found {len(angle_maps)}"
            )
    except ScenarioFormatError:
        raise
    except Exception as err:
        raise ScenarioFormatError(f"scenario construction failed: {err}") from err
    return Scenario(
        name=data["name"],
        structure=structure,
        system=system,
        angle_maps=angle_maps,
        casimirs=casimirs,
        declared_lattice=lattice,
        fiber_compact=fiber_compact,
        oracles=data.get("oracles", {}),
    )


def load_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as err:
            raise ScenarioFormatError(f"malformed JSON in {path}: {err}") from err
    return load_scenario_dict(data)


def builtin(name: str) -> Scenario:
    """Load a catalog scenario; every builtin passes structure validation."""
    scenario = load_scenario_dict(builtin_dict(name))
    report = scenario.structure.validate(samples=25, seed=0)
    if not report.passed:
        raise ScenarioFormatError(
            f"builtin '{name}' failed structure validation: {report.to_dict()}"
        )
    return scenario
