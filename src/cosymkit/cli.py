"""Command-line front end: validate, verify, integrate, actions, frequencies.

``main`` loads the scenario JSON file, runs the command on it and emits the
command's JSON report on stdout (and a copy to ``--out``), with
``"scenario"`` and ``"command"`` first.  ``integrate`` takes no copy: its
``--out`` writes the trajectory CSV.  The exit code is stable:

    0   all requested checks passed
    2   a verification or computation failed
    3   a solved-vs-empirical cross-check mismatched
    64  usage error, malformed JSON or schema violation

A command that fails, or whose ``--out`` cannot be written, prints
``{"error": ...}`` alone and writes no copy.  The commands that sample points
(validate, verify, report) are seeded (``--seed``, default 0), so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .actionangle import (
    ActionAngleError,
    Torus,
    action_integrals,
    empirical_frequencies,
    evaluation_frequencies,
    find_fiber_point,
    solve_frequencies,
    torus_lattice,
)
from .cosym import (
    DegenerateStructureError,
    FieldConditionError,
    StructureEvalError,
)
from .exprlang import ExprError
from .fields import sample_box
from .flow import FlowError, drift_report, integrate
from .integrability import (
    bracket_closure_and_corank,
    check_bracket_of_integrals,
    check_commuting_prefix,
    check_first_integrals,
    check_fiber_tangency,
    check_independence,
    check_symmetry_algebra,
    sample_fiber,
)
from .scenarios import Scenario, ScenarioFormatError, load_scenario_file

USAGE_ERROR = 64
CHECK_FAILED = 2
MISMATCH = 3
#: Span and tolerance of the report's evaluation flow from the base point.
_FLOW_TAU, _FLOW_TOL = 20.0, 1e-10

_RUNTIME_ERRORS = (
    FlowError,
    ActionAngleError,
    DegenerateStructureError,
    FieldConditionError,
    StructureEvalError,
    ExprError,
    ValueError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"entries must be finite: {text!r}")
    return values


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2)
    # the copy first: an unwritable path raises before anything is printed
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)


def _field_from_spec(scenario: Scenario, spec: str):
    S = scenario.structure
    if spec == "reeb":
        return S.reeb_vf()
    if spec == "eval":
        return S.evaluation_vf(scenario.system.hamiltonian)
    if spec.startswith("ham:"):
        name = spec[4:]
        if name == "H":
            return S.hamiltonian_vf(scenario.system.hamiltonian)
        for f in scenario.system.integrals:
            if f.name == name:
                return S.hamiltonian_vf(f)
        raise argparse.ArgumentTypeError(f"no integral named '{name}'")
    raise argparse.ArgumentTypeError(f"bad field spec '{spec}' (reeb|ham:NAME|eval)")


# --- sections -----------------------------------------------------------------

def _validate_section(scenario: Scenario, samples: int, seed: int) -> dict:
    report = scenario.structure.validate(samples=samples, seed=seed)
    return report.to_dict()


def _verify_section(scenario: Scenario, points_n: int, seed: int) -> dict:
    sys_ = scenario.system
    rng = np.random.default_rng(seed)
    points = sample_box(scenario.structure.domain_box, points_n, rng)
    bracket_points = points[: max(4, points_n // 8)]
    sections = {
        "first_integrals": check_first_integrals(sys_, points).to_dict(),
        "commuting_prefix": check_commuting_prefix(sys_, points).to_dict(),
        "independence": check_independence(sys_, points).to_dict(),
        "symmetry_algebra": check_symmetry_algebra(sys_, bracket_points).to_dict(),
        "fiber_tangency": check_fiber_tangency(sys_, points).to_dict(),
    }
    # closure and corank on flow-generated fiber groups
    base = scenario.base_point()
    seeds = [base]
    extra = sample_box(scenario.structure.domain_box, 4, rng)
    for cand in extra:
        if len(seeds) >= 3:
            break
        try:
            if check_independence(sys_, [cand]).extra["regular_points"] == 1:
                seeds.append(cand)
        except _RUNTIME_ERRORS:
            continue
    try:
        groups = [sample_fiber(sys_, s, 3, rng) for s in seeds]
        induced = bracket_closure_and_corank(sys_, groups, casimirs=scenario.casimirs)
        sections["induced_bracket"] = induced.to_dict()
    except _RUNTIME_ERRORS as err:
        sections["induced_bracket"] = {"pass": False, "error": str(err)}
    noncommuting = [
        (i, j)
        for i in range(sys_.m)
        for j in range(i + 1, sys_.m)
        if i >= sys_.r or j >= sys_.r
    ]
    if noncommuting:
        try:
            sections["bracket_of_integrals"] = check_bracket_of_integrals(
                sys_, noncommuting, bracket_points
            ).to_dict()
        except _RUNTIME_ERRORS as err:
            sections["bracket_of_integrals"] = {"pass": False, "error": str(err)}
    ok = all(section["pass"] for section in sections.values())
    return {"pass": ok, "checks": sections}


def _flow_section(scenario: Scenario) -> dict:
    sys_ = scenario.system
    S = scenario.structure
    x0 = scenario.base_point()
    field = S.evaluation_vf(sys_.hamiltonian)
    traj = integrate(field, x0, _FLOW_TAU, _FLOW_TOL)
    drifts = drift_report(traj, sys_.integrals)
    worst = max(drifts.values())
    fwd = integrate(field, x0, 0.25, _FLOW_TOL)
    back = integrate(field, fwd.final_state, -0.25, _FLOW_TOL)
    reversal = float(np.max(np.abs(back.final_state - x0)))
    ok = worst < 1e-7 and reversal < 10 * _FLOW_TOL
    return {
        "pass": ok,
        "tau": _FLOW_TAU,
        "tol": _FLOW_TOL,
        "integral_drift": drifts,
        "drift_threshold": 1e-7,
        "time_reversal_residual": reversal,
        "reversal_threshold": 10 * _FLOW_TOL,
        "steps": len(traj.times) - 1,
    }


def _torus_skip_reason(scenario: Scenario) -> str | None:
    if not scenario.fiber_compact:
        return "noncompact"
    if scenario.structure.primitive is None:
        return "no primitive declared"
    return None


def _refuse_torus(scenario: Scenario) -> dict | None:
    """The error body of a command with no torus to compute, decided before
    anything is flowed; None when there is a torus."""
    reason = _torus_skip_reason(scenario)
    if reason is None:
        return None
    error = f"no torus to compute ({reason})"
    if scenario.fiber_compact:  # the reason is the missing primitive
        error += "; add a 'lambda' entry with -d(lambda) = omega"
    return {"error": error}


def _torus(scenario: Scenario, fiber) -> Torus:
    """The one torus computation per fiber: point, lattice, loop actions, b.

    Both the actions and the frequencies sections read from it; callers have
    checked ``_torus_skip_reason``.
    """
    sys_ = scenario.system
    x0 = find_fiber_point(sys_, fiber, scenario.base_point())
    lattice = torus_lattice(sys_, x0, scenario.angle_maps, scenario.declared_lattice)
    return action_integrals(sys_, lattice)


def _actions_section(torus: Torus) -> dict:
    return {"pass": True, **torus.actions_dict()}


def _frequency_mode(scenario: Scenario, mode: str):
    """``(label, flow field, solve)`` of a ``reeb | eval | ham:K`` mode;
    ``solve`` maps a torus to the mode's frequencies.  A bad mode
    raises ArgumentTypeError, and nothing is flowed."""
    S, sys_ = scenario.structure, scenario.system
    if mode == "reeb":
        return "reeb", S.reeb_vf(), lambda torus: solve_frequencies(torus, "reeb")
    if mode == "eval":
        return (
            "eval",
            S.evaluation_vf(sys_.hamiltonian),
            lambda torus: evaluation_frequencies(torus, sys_),
        )
    if not mode.startswith("ham:"):
        raise argparse.ArgumentTypeError(f"bad mode '{mode}' (reeb|eval|ham:K)")
    # K is a decimal integer; int() alone would also take spaces, a plus
    # sign, underscores and non-ASCII digits
    digits = mode[4:].removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"bad mode '{mode}'")
    k = int(mode[4:])
    if not 1 <= k <= sys_.r:
        raise argparse.ArgumentTypeError(f"bad mode '{mode}' (K in 1..{sys_.r})")
    return (
        f"ham:{k}",
        S.hamiltonian_vf(sys_.integrals[k - 1]),
        lambda torus: solve_frequencies(torus, "hamiltonian", k),
    )


def _frequency_section(
    scenario: Scenario, torus: Torus, modes, verify_empirical: bool = False
) -> dict:
    """Frequencies of each ``_frequency_mode`` in ``modes``, optionally
    checked against the angles' slopes along the mode's flow."""
    out = {"pass": True, "table": torus.table_dict(), "modes": {}}
    solved = [(label, field, solve(torus)) for label, field, solve in modes]
    for label, _, value in solved:
        out["modes"][label] = [float(v) for v in value]
    if verify_empirical:
        tol_match = scenario.structure.tol.frequency_match
        x0 = torus.lattice.base_point
        mismatch = 0.0
        for label, field, value in solved:
            slopes, resid = empirical_frequencies(field, x0, scenario.angle_maps, tau_end=40.0)
            gap = float(np.max(np.abs(slopes - np.asarray(value))))
            mismatch = max(mismatch, gap)
            out["modes"][label] = {
                "solved": [float(v) for v in value],
                "empirical": [float(v) for v in slopes],
                "fit_residual": float(np.max(resid)),
                "mismatch": gap,
            }
        out["empirical_tolerance"] = tol_match
        out["max_mismatch"] = mismatch
        if mismatch > tol_match:
            out["pass"] = False
    return out


def _default_fiber(scenario: Scenario) -> np.ndarray:
    return scenario.system.integral_values(scenario.base_point())


# --- commands -------------------------------------------------------------------
# Each takes the loaded scenario and the parsed arguments and returns the
# report's body, the keys after "scenario" and "command", and the exit code.

def _cmd_validate(scenario: Scenario, args):
    section = _validate_section(scenario, args.samples, args.seed)
    return {"seed": args.seed, "report": section}, 0 if section["pass"] else CHECK_FAILED


def _cmd_verify(scenario: Scenario, args):
    section = _verify_section(scenario, args.points, args.seed)
    body = {"seed": args.seed, "points": args.points, "report": section}
    return body, 0 if section["pass"] else CHECK_FAILED


def _cmd_integrate(scenario: Scenario, args):
    field = _field_from_spec(scenario, args.field)
    x0 = np.asarray(args.x0, dtype=float)
    if len(x0) != scenario.chart.dim:
        raise argparse.ArgumentTypeError(
            f"--x0 needs {scenario.chart.dim} coordinates, got {len(x0)}"
        )
    traj = integrate(field, x0, args.tau, args.tol)
    integrals = scenario.system.integrals
    if args.csv:
        traj.to_csv(args.csv, scenario.chart, integrals)
    return {
        "field": args.field,
        "tau": args.tau,
        "tol": args.tol,
        "steps": len(traj.times) - 1,
        "final_state": [float(v) for v in scenario.chart.normalize(traj.final_state)],
        "integral_drift": drift_report(traj, integrals),
        "csv": args.csv,
    }, 0


def _fiber_arg(scenario: Scenario, args) -> np.ndarray:
    """The ``--fiber`` values, or the integral values at the base point."""
    fiber = np.asarray(
        args.fiber if args.fiber is not None else _default_fiber(scenario), dtype=float
    )
    if len(fiber) != scenario.system.m:
        raise argparse.ArgumentTypeError(
            f"--fiber needs {scenario.system.m} values, got {len(fiber)}"
        )
    return fiber


def _cmd_actions(scenario: Scenario, args):
    fiber = _fiber_arg(scenario, args)
    if refusal := _refuse_torus(scenario):
        return refusal, CHECK_FAILED
    return {"report": _actions_section(_torus(scenario, fiber))}, 0


def _cmd_frequencies(scenario: Scenario, args):
    fiber = _fiber_arg(scenario, args)
    mode = _frequency_mode(scenario, args.mode)
    if refusal := _refuse_torus(scenario):
        return refusal, CHECK_FAILED
    if args.verify_empirical and not scenario.angle_maps:
        raise ActionAngleError("empirical verification needs declared angle maps")
    section = _frequency_section(
        scenario, _torus(scenario, fiber), [mode], args.verify_empirical
    )
    return {"mode": args.mode, "report": section}, 0 if section["pass"] else MISMATCH


def _cmd_report(scenario: Scenario, args):
    sections = {"validate": _validate_section(scenario, args.samples, args.seed)}
    sections["verify"] = _verify_section(scenario, args.points, args.seed)
    if args.all:
        sections["flow"] = _flow_section(scenario)
        reason = _torus_skip_reason(scenario)
        if reason:
            sections["actions"] = {"status": f"skipped: {reason}"}
            sections["frequencies"] = {"status": f"skipped: {reason}"}
        else:
            torus = _torus(scenario, _default_fiber(scenario))
            sections["actions"] = _actions_section(torus)
            sections["frequencies"] = _frequency_section(
                scenario, torus, [_frequency_mode(scenario, m) for m in ("reeb", "eval")]
            )
    failed = [
        name
        for name, section in sections.items()
        if not section.get("pass", True)
    ]
    return {
        "seed": args.seed,
        "pass": not failed,
        "failed_sections": failed,
        "sections": sections,
    }, CHECK_FAILED if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cosym",
        description="verify and explore models with a closed two-form/one-form"
        " pair: structure validation, integral checks, flows, loop"
        " actions and frequencies",
    )
    parser.add_argument("--version", action="version", version=f"cosym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="scenario JSON file")
        p.add_argument("--out", default=None, help="also write the JSON report here")

    def seeded(p):
        p.add_argument("--seed", type=int, default=0, help="sampling seed")

    p = sub.add_parser("validate", help="closedness and volume condition")
    common(p)
    seeded(p)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("verify", help="full integral-set verification chain")
    common(p)
    seeded(p)
    p.add_argument("--points", type=_positive_int, default=120)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("integrate", help="flow a field and record drift")
    p.add_argument("file", help="scenario JSON file")
    p.add_argument("--out", dest="csv", default=None, help="write the trajectory CSV here")
    p.add_argument("--field", required=True, help="reeb | ham:NAME | eval")
    p.add_argument("--x0", type=_float_list, required=True, help="initial point")
    p.add_argument("--tau", type=_finite_float, required=True, help="flow time")
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("actions", help="period lattice and loop actions")
    common(p)
    p.add_argument("--fiber", type=_float_list, default=None, help="integral values")
    p.set_defaults(func=_cmd_actions)

    p = sub.add_parser("frequencies", help="frequency matrix and linear solves")
    common(p)
    p.add_argument("--fiber", type=_float_list, default=None)
    p.add_argument("--mode", default="reeb", help="reeb | eval | ham:K")
    p.add_argument("--verify-empirical", action="store_true")
    p.set_defaults(func=_cmd_frequencies)

    p = sub.add_parser("report", help="aggregate report over all sections")
    common(p)
    seeded(p)
    p.add_argument("--all", action="store_true", help="include flow/actions/frequencies")
    p.add_argument("--samples", type=_positive_int, default=60)
    p.add_argument("--points", type=_positive_int, default=60)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else USAGE_ERROR
    try:
        scenario = load_scenario_file(args.file)
        body, code = args.func(scenario, args)
        report = {"scenario": scenario.name, "command": args.command, **body}
        _emit(report, getattr(args, "out", None))  # integrate's --out is its CSV
        return code
    except (ScenarioFormatError, argparse.ArgumentTypeError, OSError) as err:
        print(json.dumps({"error": str(err)}, indent=2))
        return USAGE_ERROR
    except _RUNTIME_ERRORS as err:
        print(json.dumps({"error": str(err)}, indent=2))
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
