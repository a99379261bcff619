import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cosymkit.actionangle import SingularRatesError, torus_lattice
from cosymkit import exprlang, flow
from cosymkit.cli import main
from cosymkit.exprlang import parse, to_source
from cosymkit.scenarios import (
    builtin_dict,
    builtin_file_path,
    builtin_names,
    load_scenario_dict,
    scenario_json_text,
)

OSC = str(builtin_file_path("ext-oscillator-1d"))
PC = str(builtin_file_path("pc-oscillator-1d"))
SUPER = str(builtin_file_path("ext-oscillator-2d-super"))
LINE = str(builtin_file_path("ext-oscillator-1d-line"))
FLAT = str(builtin_file_path("flat-torus-reeb"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        payload = None
    return code, payload, out


def test_validate_pass(capsys):
    code, payload, _ = run(capsys, "validate", OSC)
    assert code == 0
    assert payload["report"]["pass"]
    assert payload["report"]["max_d_omega"] == 0.0


def test_validate_nonclosed_eta_fails(tmp_path, capsys):
    data = dict(builtin_dict("ext-oscillator-1d"))
    data = {**data, "eta": ["q", "0", "0"]}  # d(q dt) = dq ^ dt != 0
    bad = tmp_path / "bad.json"
    bad.write_text(scenario_json_text(data))
    code, payload, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert payload["report"]["max_d_eta"] == pytest.approx(1.0)


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": "x", ')
    code, payload, _ = run(capsys, "validate", str(bad))
    assert code == 64
    assert "error" in payload


def test_unknown_key_is_usage_error(tmp_path, capsys):
    data = dict(builtin_dict("ext-oscillator-1d"))
    data["mystery"] = True
    bad = tmp_path / "extra.json"
    bad.write_text(scenario_json_text(data))
    code, payload, _ = run(capsys, "validate", str(bad))
    assert code == 64


def test_verify_super_scenario(capsys):
    code, payload, _ = run(capsys, "verify", SUPER, "--points", "40")
    assert code == 0
    checks = payload["report"]["checks"]
    assert checks["induced_bracket"]["ddim"] == 3
    assert checks["induced_bracket"]["dind"] == 1
    assert checks["first_integrals"]["pass"]


def test_verify_bad_integral_fails_with_witness(tmp_path, capsys):
    data = dict(builtin_dict("ext-oscillator-1d"))
    integrals = {"r": 1, "fields": [{"name": "q", "expr": "q"}]}
    data = {**data, "integrals": integrals}
    bad = tmp_path / "badint.json"
    bad.write_text(scenario_json_text(data))
    code, payload, _ = run(capsys, "verify", str(bad), "--points", "20")
    assert code == 2
    assert not payload["report"]["checks"]["first_integrals"]["pass"]
    assert "witness" in payload["report"]["checks"]["first_integrals"]


def test_verify_fails_a_declared_casimir_that_does_not_commute(tmp_path, capsys):
    # q1 declared a casimir of ext-oscillator-2d-super: {q1, H} = p1
    data = {**builtin_dict("ext-oscillator-2d-super"), "casimirs": ["q1"]}
    bad = tmp_path / "bad-casimir.json"
    bad.write_text(scenario_json_text(data))
    code, payload, _ = run(capsys, "verify", str(bad), "--points", "60")
    checks = payload["report"]["checks"]
    induced = checks.pop("induced_bracket")
    assert code == 2 and payload["report"]["pass"] is False
    assert induced["pass"] is False and induced["casimir_ok"] is False
    assert induced["casimir_residual"] > 1.0
    assert all(check["pass"] for check in checks.values())


@pytest.mark.parametrize("name", builtin_names())
def test_every_verify_section_carries_a_verdict(name, capsys):
    code, payload, _ = run(capsys, "verify", str(builtin_file_path(name)), "--points", "60")
    checks = payload["report"]["checks"]
    assert all(type(check["pass"]) is bool for check in checks.values())
    assert payload["report"]["pass"] is all(check["pass"] for check in checks.values())
    assert code == (0 if payload["report"]["pass"] else 2)


def test_verify_overflow_is_check_failure(tmp_path, capsys):
    # math.exp overflows at every sample with q > 0.71: a typed EvalDomainError
    # naming the subexpression, exit code 2, not a bare OverflowError
    data = dict(builtin_dict("ext-oscillator-1d"))
    data["hamiltonian"] = "exp(1000*q)"
    data["integrals"] = {"r": 1, "fields": [{"name": "H", "expr": "exp(1000*q)"}]}
    path = tmp_path / "overflow.json"
    path.write_text(scenario_json_text(data))
    code, payload, _ = run(capsys, "verify", str(path), "--points", "20")
    assert code == 2
    sub = to_source(parse("exp(1000*q)", ("t", "q", "p")))
    assert payload["error"] == f"overflow in '{sub}'"


def test_verify_division_by_a_zero_number_is_check_failure(tmp_path, capsys):
    # the stacked omega of a varying structure divides 1 by 0: the typed
    # EvalDomainError of the point code, exit code 2, not a ZeroDivisionError
    data = builtin_dict("pc-oscillator-1d")
    data["omega"]["t,q"] = "-q + q*(1/0)"
    path = tmp_path / "divzero.json"
    path.write_text(scenario_json_text(data))
    code, payload, _ = run(capsys, "verify", str(path), "--points", "10")
    assert code == 2
    assert payload["error"].endswith("division by zero in '1.0/0.0'")


def test_non_finite_exponent_is_usage_error(tmp_path, capsys):
    data = dict(builtin_dict("ext-oscillator-1d"))
    data["hamiltonian"] = "q^1e999"
    path = tmp_path / "inf_exponent.json"
    path.write_text(scenario_json_text(data))
    code, payload, _ = run(capsys, "verify", str(path), "--points", "5")
    assert code == 64
    assert "exponent must be finite" in payload["error"]


def test_verify_rejects_zero_points(capsys):
    code = main(["verify", OSC, "--points", "0"])
    assert code == 64


def test_integrate_round_trip(tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    code, payload, _ = run(
        capsys,
        "integrate",
        OSC,
        "--field",
        "eval",
        "--x0",
        "0,1,0",
        "--tau",
        str(2 * math.pi),
        "--tol",
        "1e-10",
        "--out",
        str(csv_path),
    )
    assert code == 0
    final = payload["final_state"]
    assert final[1] == pytest.approx(1.0, abs=1e-8)
    assert final[2] == pytest.approx(0.0, abs=1e-8)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "tau,t,q,p,H"
    # drift column in the CSV reproduces the drift report
    h_col = [float(line.split(",")[4]) for line in lines[1:]]
    drift = max(abs(v - h_col[0]) for v in h_col)
    assert drift == pytest.approx(payload["integral_drift"]["H"], rel=1e-12, abs=1e-15)


def test_integrate_out_is_the_csv_and_no_json_copy(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    argv = ["integrate", OSC, "--field", "eval", "--x0", "0,1,0", "--tau", "1.0"]
    code, payload, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0 and payload["csv"] == str(out)
    assert out.read_text().startswith("tau,t,q,p,H\n")
    assert list(tmp_path.iterdir()) == [out]
    assert main(["integrate", "--help"]) == 0
    help_words = " ".join(capsys.readouterr().out.split())
    assert "--out CSV write the trajectory CSV here" in help_words


def test_integrate_rejects_degenerate_scenario_point(tmp_path, capsys):
    # a structure that degenerates on the q = 0 plane
    data = dict(builtin_dict("ext-oscillator-1d"))
    data = {**data, "omega": {"q,p": "q"}, "name": "degenerate"}
    bad = tmp_path / "degenerate.json"
    bad.write_text(scenario_json_text(data))
    code, payload, _ = run(
        capsys, "integrate", str(bad), "--field", "reeb",
        "--x0", "0,0,1", "--tau", "1.0",
    )
    assert code == 2
    assert "degenerate" in payload["error"]


def test_integrate_bad_field_spec(capsys):
    code, payload, _ = run(
        capsys, "integrate", OSC, "--field", "nope", "--x0", "0,1,0", "--tau", "1"
    )
    assert code == 64


@pytest.mark.parametrize("option, value", [
    ("--tau", "nan"), ("--tau", "inf"), ("--tol", "nan"), ("--tol", "inf"),
])
def test_integrate_refuses_non_finite_tau_and_tol(capsys, option, value):
    args = {"--tau": "1.0", "--tol": "1e-10", option: value}
    argv = ["integrate", OSC, "--field", "eval", "--x0", "0,1,0"]
    code = main(argv + [part for pair in args.items() for part in pair])
    assert code == 64
    assert f"argument {option}: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["integrate", OSC, "--field", "reeb", "--x0", "0,nan,0", "--tau", "1"],
    ["integrate", OSC, "--field", "eval", "--x0", "0,1,inf", "--tau", "1"],
    ["actions", OSC, "--fiber", "nan"],
    ["frequencies", OSC, "--fiber", "1,inf"],
])
def test_non_finite_points_and_fibers_are_refused(capsys, monkeypatch, argv):
    # a NaN start made every flow step a rejected attempt until the step
    # budget ran out; the budget is lowered so that no run spins
    monkeypatch.setattr(flow, "_MAX_STEPS", 1000)
    assert main(argv) == 64
    option = argv[argv.index("--fiber") if "--fiber" in argv else argv.index("--x0")]
    assert f"argument {option}: entries must be finite" in capsys.readouterr().err


def test_actions_fiber_value(capsys):
    code, payload, _ = run(capsys, "actions", OSC, "--fiber", "0.5")
    assert code == 0
    actions = payload["report"]["actions"]
    assert actions[0] == pytest.approx(0.5, abs=1e-5)
    assert actions[1] == pytest.approx(0.0, abs=1e-6)


def test_actions_missing_lambda_hint(capsys):
    code, payload, _ = run(capsys, "actions", FLAT)
    assert code == 2
    assert "lambda" in payload["error"]


def test_actions_unreachable_fiber_is_check_failure(capsys):
    # H = (q^2 + p^2)/2 takes no negative value: Newton cannot reach it
    code, payload, _ = run(capsys, "actions", OSC, "--fiber", "-1")
    assert code == 2
    assert payload["error"].startswith("could not reach fiber [-1.0] from ")


def test_actions_angles_that_do_not_separate_the_flows(tmp_path, capsys):
    data = dict(builtin_dict("ext-oscillator-1d"))
    data = {**data, "angle_maps": [{"coordinate": "t"}, {"coordinate": "t"}]}
    f = tmp_path / "tt.json"
    f.write_text(scenario_json_text(data))
    code, payload, _ = run(capsys, "actions", str(f), "--fiber", "0.5")
    assert code == 2
    assert payload["error"].startswith("winding rates ")
    assert payload["error"].endswith(
        " of the angle maps along the commuting fields are singular;"
        " the angles do not separate the flows"
    )
    sc = load_scenario_dict(data)
    with pytest.raises(SingularRatesError) as info:
        torus_lattice(sc.system, sc.base_point(), sc.angle_maps)
    # t advances along Z and not along X_H, whichever map reads it
    assert info.value.rates == pytest.approx(np.array([[0.0, 1.0], [0.0, 1.0]]), abs=1e-9)


def test_angle_map_naming_coordinate_and_plane_is_usage_error(tmp_path, capsys):
    data = dict(builtin_dict("ext-oscillator-1d"))
    phase, t = data["angle_maps"]
    data = {**data, "angle_maps": [{**phase, "coordinate": "t"}, t]}
    f = tmp_path / "both.json"
    f.write_text(scenario_json_text(data))
    code, payload, _ = run(capsys, "actions", str(f), "--fiber", "0.5")
    assert code == 64
    assert "exactly one of 'coordinate' and 'plane'" in payload["error"]


@pytest.mark.parametrize(
    "name, value", [("reeb_check", math.nan), ("first_integral", math.inf)]
)
def test_non_finite_tolerance_is_usage_error(name, value, tmp_path, capsys):
    # a NaN threshold fails every check and an inf one passes every check
    data = dict(builtin_dict("ext-oscillator-1d"))
    data = {**data, "tolerances": {name: value}}
    f = tmp_path / "tol.json"
    f.write_text(json.dumps(data))  # writes NaN / Infinity, which json reads back
    code, payload, _ = run(capsys, "report", "--all", str(f))
    assert code == 64
    assert payload["error"].endswith(f"{name} must be finite, got {value}")


def _forbid_torus(monkeypatch):
    import cosymkit.cli as cli

    def torus_lattice(*args, **kwargs):
        raise AssertionError("a noncompact fiber was flowed")

    monkeypatch.setattr(cli, "torus_lattice", torus_lattice)


def test_actions_noncompact_surfaces_no_return(monkeypatch, capsys):
    # refused before any flow, by the check that makes report --all skip it
    _forbid_torus(monkeypatch)
    code, payload, _ = run(capsys, "actions", LINE, "--fiber", "0.5")
    assert code == 2
    assert payload["error"] == "no torus to compute (noncompact)"


def test_frequencies_noncompact_refused_before_flowing(monkeypatch, capsys):
    _forbid_torus(monkeypatch)
    code, payload, _ = run(capsys, "frequencies", LINE, "--fiber", "0.5")
    assert code == 2
    assert payload["error"] == "no torus to compute (noncompact)"


@pytest.mark.parametrize("mode", ["ham:0", "ham:2", "ham:-1"])
def test_frequencies_hamiltonian_index_out_of_range_is_usage_error(
    mode, monkeypatch, capsys
):
    # ext-oscillator-1d has r = 1 commuting integral, so K must be 1
    _forbid_torus(monkeypatch)
    code, payload, _ = run(capsys, "frequencies", OSC, "--fiber", "0.5", "--mode", mode)
    assert code == 64
    assert payload["error"] == f"bad mode '{mode}' (K in 1..1)"


@pytest.mark.parametrize(
    "mode, label, code, error",
    [
        ("reeb", "reeb", 0, None),
        ("eval", "eval", 0, None),
        ("ham:1", "ham:1", 0, None),
        ("ham:01", "ham:1", 0, None),
        ("ham:x", None, 64, "bad mode 'ham:x'"),
        ("ham: 1", None, 64, "bad mode 'ham: 1'"),
        ("ham:+1", None, 64, "bad mode 'ham:+1'"),
        ("ham:1_0", None, 64, "bad mode 'ham:1_0'"),
        ("ham:\u0661", None, 64, "bad mode 'ham:\u0661'"),
        ("ham:-1", None, 64, "bad mode 'ham:-1' (K in 1..1)"),
        ("ham:9", None, 64, "bad mode 'ham:9' (K in 1..1)"),
        ("bogus", None, 64, "bad mode 'bogus' (reeb|eval|ham:K)"),
    ],
)
def test_frequencies_mode_forms(mode, label, code, error, monkeypatch, capsys):
    # a bad mode is refused before the torus is flowed; a good one reports
    # under its canonical label and echoes the mode as given
    if error is not None:
        _forbid_torus(monkeypatch)
    got, payload, _ = run(capsys, "frequencies", OSC, "--fiber", "0.5", "--mode", mode)
    assert got == code
    if error is not None:
        assert payload == {"error": error}
    else:
        assert payload["mode"] == mode
        assert list(payload["report"]["modes"]) == [label]


def test_frequencies_reeb_mode(capsys):
    code, payload, _ = run(capsys, "frequencies", OSC, "--fiber", "0.5")
    assert code == 0
    assert payload["report"]["modes"]["reeb"] == pytest.approx([0.0, 1.0], abs=1e-9)


def test_frequencies_eval_mode_pc(capsys):
    code, payload, _ = run(
        capsys, "frequencies", PC, "--fiber", "0.5", "--mode", "eval"
    )
    assert code == 0
    assert payload["report"]["modes"]["eval"] == pytest.approx([1.0, 1.0], abs=1e-9)


def test_frequencies_empirical_verification(capsys):
    code, payload, _ = run(
        capsys,
        "frequencies",
        OSC,
        "--fiber",
        "0.5",
        "--mode",
        "reeb",
        "--verify-empirical",
    )
    assert code == 0
    mode = payload["report"]["modes"]["reeb"]
    assert mode["mismatch"] < 1e-3


def test_frequencies_mismatch_exit_code(tmp_path, capsys):
    # check the exit-code path by tightening the tolerance below the slope
    # fit's error.  The evaluation flow's solved and empirical rates differ
    # by about 1e-12; the Reeb flow is an exact t translation, where both
    # can round to the same float and the mismatch be 0.
    data = dict(builtin_dict("ext-oscillator-1d"))
    data = {**data, "tolerances": {"frequency_match": 1e-18}}
    f = tmp_path / "tight.json"
    f.write_text(scenario_json_text(data))
    code, payload, _ = run(
        capsys, "frequencies", str(f), "--fiber", "0.5", "--mode", "eval",
        "--verify-empirical",
    )
    assert code == 3


def test_report_all_deterministic(capsys):
    code1, payload1, text1 = run(capsys, "report", OSC, "--all", "--seed", "0")
    code2, payload2, text2 = run(capsys, "report", OSC, "--all", "--seed", "0")
    assert code1 == code2 == 0
    assert text1 == text2
    assert payload1["pass"]


@pytest.mark.parametrize("path", [SUPER, PC])
def test_report_again_compiles_nothing(path, monkeypatch, capsys):
    # every generated source is compiled once per process: a report run
    # again, its scenario loaded again, reuses the code objects and prints
    # the bytes that freshly compiled code prints
    argv = ("report", path, "--all", "--seed", "5")
    first = run(capsys, *argv)
    compiled = []

    def counting(*args):
        compiled.append(args[1])
        return compile(*args)

    monkeypatch.setattr(exprlang, "compile", counting, raising=False)
    again = run(capsys, *argv)
    assert compiled == []
    exprlang.compiled.cache_clear()
    fresh = run(capsys, *argv)
    assert compiled
    assert first[0] == again[0] == fresh[0] == 0
    assert first[2] == again[2] == fresh[2]


def test_report_all_builds_one_torus(monkeypatch, capsys):
    # actions and frequencies share one fiber point, lattice, action pass and
    # b; b_matrix is bound only in actionangle, where action_integrals calls it
    import cosymkit.actionangle as actionangle
    import cosymkit.cli as cli

    assert not hasattr(cli, "b_matrix")
    calls = {"find_fiber_point": 0, "torus_lattice": 0, "action_integrals": 0, "b_matrix": 0}
    for name in calls:
        original = getattr(actionangle, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        if hasattr(cli, name):
            monkeypatch.setattr(cli, name, counting)
        monkeypatch.setattr(actionangle, name, counting)
    code, payload, _ = run(capsys, "report", OSC, "--all")
    assert code == 0
    assert payload["sections"]["frequencies"]["modes"]["reeb"] == pytest.approx(
        [0.0, 1.0], abs=1e-9
    )
    assert calls == {
        "find_fiber_point": 1, "torus_lattice": 1, "action_integrals": 1, "b_matrix": 1
    }


@pytest.mark.parametrize("path", [OSC, PC])
def test_report_torus_sections_equal_the_standalone_commands(path, capsys):
    # one Torus feeds both sections: report --all prints what actions and
    # frequencies --mode reeb print on the default fiber, in the same key order
    _, report, _ = run(capsys, "report", path, "--all")
    _, actions, _ = run(capsys, "actions", path)
    _, frequencies, _ = run(capsys, "frequencies", path, "--mode", "reeb")
    section = report["sections"]["actions"]
    assert section == actions["report"]
    assert list(section) == [
        "pass", "fiber", "actions", "eta_pairings", "primitive_residual", "lattice"
    ]
    table = report["sections"]["frequencies"]["table"]
    assert table == frequencies["report"]["table"]
    assert list(table) == ["b", "fiber", "actions", "eta_residual", "cond", "derivative_rank"]
    assert report["sections"]["frequencies"]["modes"]["reeb"] == (
        frequencies["report"]["modes"]["reeb"]
    )


@pytest.mark.parametrize("command", ["actions", "frequencies"])
def test_eta_mismatch_refused_by_both_torus_commands(command, monkeypatch, capsys):
    # a line integral off by 1e-3 moves the eta pairings off b's Reeb-time
    # column by more than the lattice return tolerance
    import cosymkit.actionangle as actionangle

    original = actionangle.line_integral
    monkeypatch.setattr(
        actionangle, "line_integral", lambda segments, form: original(segments, form) + 1e-3
    )
    code, payload, _ = run(capsys, command, OSC)
    assert code == 2
    assert "do not match the Reeb-time column" in payload["error"]


def test_delta_option_removed(capsys):
    for command in ("actions", "frequencies", "report"):
        assert main([command, OSC, "--delta", "1e-4"]) == 64


@pytest.mark.parametrize("command", ["actions", "frequencies", "integrate"])
def test_seed_refused_where_nothing_is_sampled(command, capsys):
    flow = ["--field", "eval", "--x0", "0,1,0", "--tau", "1.0"] if command == "integrate" else []
    assert main([command, OSC, *flow, "--seed", "1"]) == 64
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_incomplete_integral_set_is_usage_error(tmp_path, capsys):
    # two integrals with r = 1 on the five-dimensional chart: m + r = 3
    data = builtin_dict("ext-oscillator-2d-super")
    data["integrals"]["fields"] = data["integrals"]["fields"][:2]
    f = tmp_path / "incomplete.json"
    f.write_text(scenario_json_text(data))
    code, payload, _ = run(capsys, "verify", str(f))
    assert code == 64
    assert payload == {
        "error": "scenario construction failed: incomplete integral set:"
        " m + r = 3 but dim - 1 = 4"
    }


def test_report_skips_torus_sections_when_noncompact(capsys):
    code, payload, _ = run(capsys, "report", LINE, "--all")
    assert code == 0
    assert payload["sections"]["actions"]["status"] == "skipped: noncompact"
    assert payload["sections"]["frequencies"]["status"] == "skipped: noncompact"


def test_report_skips_actions_without_primitive(capsys):
    code, payload, _ = run(capsys, "report", FLAT, "--all")
    assert code == 0
    assert "no primitive" in payload["sections"]["actions"]["status"]


def test_report_all_seeds_rank_three_torus_from_angles(tmp_path, capsys):
    # without its declared lattice, ext-oscillator-anisotropic's rank-3
    # torus is seeded from its three angle maps
    declared = builtin_dict("ext-oscillator-anisotropic")
    data = {key: value for key, value in declared.items() if key != "period_lattice"}
    f = tmp_path / "anisotropic.json"
    f.write_text(scenario_json_text(data))
    code, payload, _ = run(capsys, "report", str(f), "--all")
    assert code == 0
    assert payload["pass"]
    actions = payload["sections"]["actions"]
    frequencies = payload["sections"]["frequencies"]
    basis = np.array(actions["lattice"]["basis"])
    assert np.max(np.abs(basis - np.array(declared["period_lattice"]))) <= 1e-9
    # fiber H1 = 1/2, H2 = 9: actions H1 and H2/sqrt(2), none on the t-circle
    assert actions["actions"] == pytest.approx([0.5, 9 / math.sqrt(2), 0.0], abs=1e-9)
    oracles = declared["oracles"]
    assert np.diag(frequencies["table"]["b"]) == pytest.approx(
        oracles["b_diagonal"]["value"], abs=1e-9
    )
    assert frequencies["modes"]["eval"] == pytest.approx(
        oracles["evaluation_frequencies"]["value"], abs=1e-9
    )


def _without_lattice_directions(variant):
    data = dict(builtin_dict("ext-oscillator-1d"))
    phase, t = data["angle_maps"]
    if variant == "one map":
        data["angle_maps"] = [phase]
    elif variant == "three maps":
        data["angle_maps"] = [phase, t, {"plane": ["p", "q"], "label": "extra"}]
    else:
        del data["angle_maps"]
    return data


@pytest.mark.parametrize("variant", ["one map", "three maps", "neither"])
@pytest.mark.parametrize("command", ["validate", "report"])
def test_compact_scenario_must_declare_its_lattice_directions(
    variant, command, tmp_path, capsys
):
    # a compact fiber of rank r+1 = 2 declares two angle maps, or a lattice
    # and no angle maps; the loader refuses anything else
    f = tmp_path / "compact.json"
    f.write_text(scenario_json_text(_without_lattice_directions(variant)))
    code, payload, _ = run(capsys, command, str(f))
    found = {"one map": 1, "three maps": 3, "neither": 0}[variant]
    assert code == 64
    assert payload["error"] == (
        "a compact fiber needs r+1 = 2 angle maps, or a period_lattice and no"
        f" angle maps; found {found}"
    )


def test_empirical_verification_without_angles_refused_before_flowing(
    monkeypatch, tmp_path, capsys
):
    # a compact fiber may declare only its lattice; the slope fits need the
    # angles, so frequencies --verify-empirical refuses before any flow
    import cosymkit.actionangle as actionangle
    import cosymkit.cli as cli

    def integrate(*args, **kwargs):
        raise AssertionError("a torus was flowed")

    monkeypatch.setattr(actionangle, "integrate", integrate)
    monkeypatch.setattr(cli, "integrate", integrate)
    data = dict(builtin_dict("ext-oscillator-anisotropic"))
    del data["angle_maps"]
    f = tmp_path / "lattice-only.json"
    f.write_text(scenario_json_text(data))
    code, payload, _ = run(capsys, "frequencies", str(f), "--verify-empirical")
    assert code == 2
    assert payload == {"error": "empirical verification needs declared angle maps"}


def test_integrate_hamiltonian_field_keeps_time(capsys):
    code, payload, _ = run(
        capsys, "integrate", OSC, "--field", "ham:H", "--x0", "0.3,1,0",
        "--tau", "5.0",
    )
    assert code == 0
    assert payload["final_state"][0] == pytest.approx(0.3, abs=1e-10)


def test_frequencies_hamiltonian_mode(capsys):
    code, payload, _ = run(
        capsys, "frequencies", OSC, "--fiber", "0.5", "--mode", "ham:1"
    )
    assert code == 0
    assert payload["report"]["modes"]["ham:1"] == pytest.approx([1.0, 0.0], abs=1e-9)


@pytest.mark.parametrize(
    "name",
    [
        "ext-oscillator-1d",
        "pc-oscillator-1d",
        "ext-oscillator-2d-super",
        "ext-oscillator-anisotropic",
        "flat-torus-reeb",
        "ext-oscillator-1d-line",
    ],
)
def test_report_passes_on_every_builtin(name, capsys):
    from cosymkit.scenarios import builtin_file_path

    code, payload, _ = run(
        capsys, "report", str(builtin_file_path(name)), "--points", "30"
    )
    assert code == 0
    assert payload["pass"]


def test_missing_subcommand_usage(capsys):
    assert main([]) == 64


def test_out_file_written(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, payload, _ = run(capsys, "validate", OSC, "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["report"]["pass"]


def test_unwritable_out_prints_one_error_document(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["validate", OSC, "--out", str(out)]) == 64
    payload = json.loads(capsys.readouterr().out)  # one document, or it raises
    assert list(payload) == ["error"]
    assert "No such file or directory" in payload["error"]
    assert not out.parent.exists()


def test_cli_import_does_not_load_scipy():
    # a fresh interpreter in which importing scipy or jsonschema raises:
    # scipy.linalg alone would add a few tenths of a second to every start-up
    # of the command line, and numpy is the only runtime dependency
    import cosymkit

    src = str(Path(cosymkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['jsonschema'] = sys.modules['scipy'] = None\n"
        "from cosymkit import cli, scenarios\n"
        "for name in scenarios.builtin_names():\n"
        "    path = str(scenarios.builtin_file_path(name))\n"
        "    scenarios.load_scenario_file(path)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['validate', path]) == 0, name\n"
        "print(sorted(m for m, module in sys.modules.items()\n"
        "             if module is not None and (m == 'scipy' or m.startswith('scipy.'))))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert child.stdout.strip() == "[]"


def test_verify_tries_its_fiber_seed_candidates_as_one_stack(capsys, monkeypatch):
    # the four candidates of the induced-bracket fibers go through one
    # independence check; only where that call raises are they tried one at
    # a time, and a candidate that raises then is skipped
    from cosymkit import cli
    from cosymkit.cosym import StructureEvalError

    check, calls, raising = cli.check_independence, [], []

    def counting(sys_, points):
        X = np.asarray(getattr(points, "x", points))
        calls.append(len(X))
        if any(np.array_equal(X, bad) for bad in raising):
            raise StructureEvalError(X[0], ValueError("raised on purpose"))
        return check(sys_, points)

    monkeypatch.setattr(cli, "check_independence", counting)
    code, payload, want = run(capsys, "verify", SUPER, "--seed", "4")
    assert code == 0 and payload["report"]["checks"]["induced_bracket"]["pass"]
    assert calls == [120, 4]
    candidates = cli.sample_box(
        load_scenario_dict(builtin_dict("ext-oscillator-2d-super")).structure.domain_box,
        124,
        np.random.default_rng(4),
    )[120:]
    raising.append(candidates)
    calls.clear()
    assert run(capsys, "verify", SUPER, "--seed", "4")[2] == want
    assert calls == [120, 4, 1, 1]
    raising.append(candidates[:1])
    calls.clear()
    code, payload, _ = run(capsys, "verify", SUPER, "--seed", "4")
    assert code == 0 and payload["report"]["checks"]["induced_bracket"]["fibers"] == 3
    assert calls == [120, 4, 1, 1, 1]
