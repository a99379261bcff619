import dataclasses
import json
import math

import jsonschema
import numpy as np
import pytest

from cosymkit import scenarios
from cosymkit.cosym import ToleranceConfig
from cosymkit.integrability import (
    check_commuting_prefix,
    check_first_integrals,
    check_independence,
    check_symmetry_algebra,
)
from cosymkit.fields import sample_box
from cosymkit.scenarios import (
    ScenarioFormatError,
    UnknownScenarioError,
    builtin,
    builtin_names,
)

ALL = builtin_names()


def test_catalog_contents():
    assert set(ALL) == {
        "ext-oscillator-1d",
        "pc-oscillator-1d",
        "ext-oscillator-2d-super",
        "pc-oscillator-2d-super",
        "ext-oscillator-anisotropic",
        "flat-torus-reeb",
        "ext-oscillator-1d-line",
    }


def test_unknown_name_rejected():
    with pytest.raises(UnknownScenarioError):
        builtin("nope")
    with pytest.raises(UnknownScenarioError):
        scenarios.builtin_file_path("../schema/scenario")


@pytest.mark.parametrize("name", ALL)
def test_builtin_validates_on_load(name):
    sc = builtin(name)
    report = sc.structure.validate(samples=40, seed=1)
    assert report.passed


@pytest.mark.parametrize("name", ALL)
def test_packaged_file_byte_equivalent(name):
    """Each packaged file is the canonical serialization of its own contents."""
    packaged = scenarios.builtin_file_path(name).read_bytes()
    text = scenarios.scenario_json_text(json.loads(packaged))
    assert packaged == text.encode("utf-8")


@pytest.mark.parametrize("name", ALL)
def test_catalog_survives_mutated_dicts(name):
    packaged = json.loads(scenarios.builtin_file_path(name).read_bytes())
    scenarios.builtin_dict(name)["chart"]["box"][1][0] = 99.0
    assert scenarios.builtin_dict(name) == packaged


@pytest.mark.parametrize("name", ALL)
def test_file_roundtrip_loads_same(name):
    from_file = scenarios.load_scenario_file(str(scenarios.builtin_file_path(name)))
    packaged = builtin(name)
    x = packaged.base_point()
    assert (from_file.name, from_file.chart, from_file.oracles, from_file.fiber_compact) == (
        packaged.name, packaged.chart, packaged.oracles, packaged.fiber_compact
    )
    assert np.array_equal(from_file.base_point(), x)
    assert np.array_equal(from_file.system.integral_values(x), packaged.system.integral_values(x))


def test_schema_rejects_unknown_keys(tmp_path):
    data = dict(scenarios.builtin_dict("ext-oscillator-1d"))
    data["surprise"] = 1
    with pytest.raises(ScenarioFormatError):
        scenarios.load_scenario_dict(data)


def test_schema_rejects_bad_expression():
    data = dict(scenarios.builtin_dict("ext-oscillator-1d"))
    data = {**data, "hamiltonian": "(q^2 +"}
    with pytest.raises(ScenarioFormatError):
        scenarios.load_scenario_dict(data)


@pytest.mark.parametrize("floor", [0.0, -1e-10, float("nan")])
def test_volume_floor_must_be_positive(floor):
    # one-point frames solve with no singular-matrix guard of their own: a
    # point with det A = 0 must meet the floor first
    data = scenarios.builtin_dict("pc-oscillator-1d")
    data = {**data, "tolerances": {**data.get("tolerances", {}), "volume_min_det": floor}}
    with pytest.raises(ScenarioFormatError, match="volume_min_det must be positive"):
        scenarios.load_scenario_dict(data)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ToleranceConfig)])
def test_tolerances_must_be_finite(name, value):
    # the volume floor reports a NaN or -inf as not positive
    data = scenarios.builtin_dict("ext-oscillator-1d")
    data = {**data, "tolerances": {name: value}}
    with pytest.raises(ScenarioFormatError, match=f"{name} must be (finite|positive), got"):
        scenarios.load_scenario_dict(data)


def test_schema_is_checked_once_per_process(monkeypatch):
    schema = scenarios.schema_dict()
    cls = jsonschema.validators.validator_for(schema)
    calls = []
    check = cls.check_schema

    def counting(schema, *args, **kwargs):
        calls.append(1)
        return check(schema, *args, **kwargs)

    monkeypatch.setattr(cls, "check_schema", staticmethod(counting))
    scenarios._schema_validator.cache_clear()
    data = scenarios.builtin_dict("ext-oscillator-1d")
    scenarios.load_scenario_dict(data)
    scenarios.load_scenario_dict(data)
    assert len(calls) == 1
    # a rejection reads as jsonschema.validate words it
    bad = {**data, "surprise": 1}
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(bad, schema)
    with pytest.raises(ScenarioFormatError) as got:
        scenarios.load_scenario_dict(bad)
    assert str(got.value) == f"scenario failed schema validation: {want.value.message}"
    scenarios._schema_validator.cache_clear()


def test_flat_torus_reeb_vector():
    sc = builtin("flat-torus-reeb")
    rng = np.random.default_rng(0)
    for x in sample_box(sc.structure.domain_box, 15, rng):
        assert sc.structure.reeb(x) == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)


@pytest.mark.parametrize("name", ALL)
def test_verifier_chain_on_builtins(name):
    sc = builtin(name)
    rng = np.random.default_rng(7)
    pts = sample_box(sc.structure.domain_box, 25, rng)
    assert check_first_integrals(sc.system, pts).passed
    assert check_commuting_prefix(sc.system, pts).passed
    assert check_independence(sc.system, pts).passed
    assert check_symmetry_algebra(sc.system, pts[:8]).passed


def test_anisotropic_declared_lattice_shape():
    sc = builtin("ext-oscillator-anisotropic")
    assert sc.declared_lattice.shape == (3, 3)
    assert sc.declared_lattice[1, 1] == pytest.approx(2 * math.pi / math.sqrt(2))


def test_line_scenario_marked_noncompact():
    sc = builtin("ext-oscillator-1d-line")
    assert not sc.fiber_compact
    assert builtin("ext-oscillator-1d").fiber_compact


@pytest.mark.parametrize("name", ALL)
def test_oracle_values_reproduced(name):
    """Every oracle value in the catalog comes back out of the toolkit."""
    from cosymkit.actionangle import (
        action_integrals,
        b_matrix,
        empirical_frequencies,
        evaluation_frequencies,
        find_fiber_point,
        solve_frequencies,
        torus_lattice,
    )
    from cosymkit.integrability import bracket_closure_and_corank, sample_fiber

    sc = builtin(name)
    sys_ = sc.system
    oracles = sc.oracles
    table = None

    def freq_table():
        nonlocal table
        if table is None:
            fiber = sys_.integral_values(sc.base_point())
            x0 = find_fiber_point(sys_, fiber, sc.base_point())
            lattice = torus_lattice(
                sys_, x0,
                angle_maps=sc.angle_maps if len(sc.angle_maps) == sys_.r + 1 else (),
                declared_vectors=sc.declared_lattice,
            )
            profile = action_integrals(sys_, lattice)
            table = b_matrix(sys_, profile)
        return table

    for key, entry in oracles.items():
        if not isinstance(entry, dict) or entry.get("value") is None:
            continue
        value = entry["value"]
        if key == "base_point":
            x = np.asarray(value, dtype=float)
            assert sc.structure.validate(samples=1, seed=0)  # structure loads
            sc.structure.reeb(x)  # structure regular at the anchor
        elif key == "reeb_vector":
            rng = np.random.default_rng(3)
            for x in sample_box(sc.structure.domain_box, 10, rng):
                assert sc.structure.reeb(x) == pytest.approx(value, abs=1e-10)
        elif key == "reeb_frequencies":
            solved = solve_frequencies(freq_table(), "reeb")
            assert solved == pytest.approx(value, abs=1e-9)
        elif key == "evaluation_frequencies":
            solved = evaluation_frequencies(freq_table(), sys_)
            assert solved == pytest.approx(value, abs=1e-9)
            slopes, _ = empirical_frequencies(
                sc.structure.evaluation_vf(sys_.hamiltonian),
                freq_table().lattice.base_point,
                sc.angle_maps,
                60.0,
            )
            assert slopes == pytest.approx(value, abs=1e-3)
        elif key == "hamiltonian_frequencies":
            solved = solve_frequencies(freq_table(), "hamiltonian", entry["k"])
            assert solved == pytest.approx(value, abs=1e-9)
        elif key == "action_slope":
            lo = find_fiber_point(sys_, [0.4], sc.base_point())
            hi = find_fiber_point(sys_, [0.6], sc.base_point())
            lat_lo = torus_lattice(sys_, lo, angle_maps=sc.angle_maps)
            lat_hi = torus_lattice(sys_, hi, angle_maps=sc.angle_maps)
            I_lo = action_integrals(sys_, lat_lo).actions[0]
            I_hi = action_integrals(sys_, lat_hi).actions[0]
            assert (I_hi - I_lo) / 0.2 == pytest.approx(value, abs=1e-4)
        elif key == "b_diagonal":
            assert np.diag(freq_table().b) == pytest.approx(value, abs=1e-9)
        elif key == "ddim_dind":
            rng = np.random.default_rng(5)
            groups = [sample_fiber(sys_, sc.base_point(), 3, rng)]
            res = bracket_closure_and_corank(sys_, groups, casimirs=sc.casimirs)
            assert [res.ddim, res.dind] == list(value)
        elif key == "induced_corank":
            rng = np.random.default_rng(7)
            groups = [sample_fiber(sys_, sc.base_point(), 3, rng)]
            res = bracket_closure_and_corank(sys_, groups)
            regs = [c for c, reg in zip(res.coranks, res.regular_flags) if reg]
            assert regs and all(c == value for c in regs)
        else:
            raise AssertionError(f"unrecognized oracle key '{key}' in {name}")
