"""Built-in model systems with hand-derived oracle values.

The packaged JSON files under ``data/scenarios`` are the catalog: each file
is one builtin, named by its stem, and is loaded through the same schema
validation and construction path as any external scenario file.  Oracle
entries carry a derivation note so each expected number is traceable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib.resources import files as _pkg_files

import jsonschema
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


@cache
def _schema_validator():
    """The scenario schema's validator, built and checked on first use."""
    schema = schema_dict()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def load_scenario_dict(data: dict) -> Scenario:
    """Validate a scenario dictionary against the schema and construct it.  A
    compact fiber declares r+1 angle maps, or a period_lattice and none."""
    err = jsonschema.exceptions.best_match(_schema_validator().iter_errors(data))
    if err is not None:
        raise ScenarioFormatError(f"scenario failed schema validation: {err.message}") from err
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
