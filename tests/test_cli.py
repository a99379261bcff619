import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cosymkit.cli import main
from cosymkit.exprlang import parse, to_source
from cosymkit.scenarios import builtin_dict, builtin_file_path, scenario_json_text

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


def test_actions_noncompact_surfaces_no_return(capsys):
    code, payload, _ = run(capsys, "actions", LINE, "--fiber", "0.5")
    assert code == 2
    assert "horizon" in payload["error"]


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


def test_report_all_builds_one_torus(monkeypatch, capsys):
    # actions and frequencies share one fiber point, lattice and action pass
    import cosymkit.actionangle as actionangle
    import cosymkit.cli as cli

    calls = {"find_fiber_point": 0, "torus_lattice": 0, "action_integrals": 0}
    for name in calls:
        original = getattr(cli, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
        monkeypatch.setattr(actionangle, name, counting)
    code, payload, _ = run(capsys, "report", OSC, "--all")
    assert code == 0
    assert payload["sections"]["frequencies"]["modes"]["reeb"] == pytest.approx(
        [0.0, 1.0], abs=1e-9
    )
    assert calls == {"find_fiber_point": 1, "torus_lattice": 1, "action_integrals": 1}


def test_delta_option_removed(capsys):
    for command in ("actions", "frequencies", "report"):
        assert main([command, OSC, "--delta", "1e-4"]) == 64


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


def test_cli_import_does_not_load_scipy():
    # a fresh interpreter: scipy.linalg alone would add a few tenths of a
    # second to every start-up of the command line
    import cosymkit

    src = str(Path(cosymkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, cosymkit.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert child.stdout.strip() == "[]"
