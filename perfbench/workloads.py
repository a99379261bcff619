"""Workload generation and closed-form checks for the cosymkit benchmark.

Each workload turns a seed into a list of ``cosym`` operations (argv lists)
over scenario files written into a work directory.  The program sees only
those files and the argv; the closed forms stay here and are applied to the
JSON each operation prints.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi

#: An action, eta pairing or solved frequency may miss its closed form by at
#: most this much before the operation counts as failed (6 digits).
ORACLE_TOL = 1e-6
#: Floor for residual digits: a residual of exactly 0 reads as 16 digits.
DIGITS_CAP = 16.0

#: Points per ``cosym verify`` in the verify-catalog workload.  Large enough
#: that the pointwise integrability checks, not ``sample_fiber``, dominate.
VERIFY_POINTS = 1500

#: Fibers of the oscillator modes are drawn with H in this range.
H_RANGE = (0.2, 1.8)

#: (m, r) of every builtin: the induced bracket must report ddim = m, dind = r.
INTEGRAL_COUNTS = {
    "ext-oscillator-1d": (1, 1),
    "pc-oscillator-1d": (1, 1),
    "ext-oscillator-2d-super": (3, 1),
    "ext-oscillator-anisotropic": (2, 2),
    "flat-torus-reeb": (1, 1),
    "ext-oscillator-1d-line": (1, 1),
}

BUILTINS = tuple(INTEGRAL_COUNTS)


@dataclass
class Op:
    """One ``cosym`` command and the closed forms its output must meet."""

    scenario: str
    argv: list
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    why: str
    ops: list
    files: list
    #: layers the traced run must find uncalled; every other layer must fire
    silent_layers: tuple = ()


# --- base points on closed-form fibers ----------------------------------------

def _plane(amplitude: float, angle: float, scale: float = 1.0):
    """(q, p) on the circle q = a cos(th), p = -scale * a sin(th)."""
    return amplitude * math.cos(angle), -scale * amplitude * math.sin(angle)


def _oscillator_point(rng: random.Random, H: float):
    """A point (t, q, p) on the fiber H = (q^2 + p^2)/2."""
    q, p = _plane(math.sqrt(2 * H), rng.uniform(0, TWO_PI))
    return [rng.uniform(0, TWO_PI), q, p]


def _oscillator_expect(H: float, twisted: bool) -> dict:
    if twisted:
        return {
            "actions": [H, -H],
            "eta_pairings": [0.0, 1.0],
            "reeb": [1.0, 1.0],
            "eval": [1.0, 1.0],
        }
    return {
        "actions": [H, 0.0],
        "eta_pairings": [0.0, 1.0],
        "reeb": [0.0, 1.0],
        "eval": [1.0, 1.0],
    }


def _super_point(rng: random.Random):
    """A regular point of ext-oscillator-2d-super with H in ``H_RANGE``.

    Regularity from the closed forms: {L, F} = 2 (p1 p2 + q1 q2) must stay
    well away from 0 (rank of the induced bracket) and the first mode must
    carry amplitude (its plane angle labels the phase cycle).
    """
    while True:
        H = rng.uniform(*H_RANGE)
        share = rng.uniform(0.25, 0.75)
        q1, p1 = _plane(math.sqrt(2 * H * share), rng.uniform(0, TWO_PI))
        q2, p2 = _plane(math.sqrt(2 * H * (1 - share)), rng.uniform(0, TWO_PI))
        if abs(p1 * p2 + q1 * q2) < 0.1 * H:
            continue
        if max(abs(q1), abs(q2), abs(p1), abs(p2)) > 1.45:
            continue
        point = [rng.uniform(0, TWO_PI), q1, q2, p1, p2]
        return point, {
            "actions": [H, 0.0],
            "eta_pairings": [0.0, 1.0],
            "reeb": [0.0, 1.0],
            "eval": [1.0, 1.0],
        }


def _anisotropic_point(rng: random.Random):
    """A point with H1 in ``H_RANGE`` and H2 in [6, 12) (inside the box)."""
    H1 = rng.uniform(*H_RANGE)
    H2 = rng.uniform(6.0, 12.0)
    q1, p1 = _plane(math.sqrt(2 * H1), rng.uniform(0, TWO_PI))
    q2, p2 = _plane(math.sqrt(H2), rng.uniform(0, TWO_PI), scale=SQRT2)
    point = [rng.uniform(0, TWO_PI), q1, q2, p1, p2]
    return point, {
        "actions": [H1, H2 / SQRT2, 0.0],
        "eta_pairings": [0.0, 0.0, 1.0],
        "reeb": [0.0, 0.0, 1.0],
        "eval": [1.0, SQRT2, 1.0],
    }


# --- workloads -------------------------------------------------------------------

def _write_scenario(work: Path, builtin_dict, name: str, tag: str, point=None) -> str:
    data = copy.deepcopy(builtin_dict(name))
    if point is not None:
        data["oracles"]["base_point"] = {
            "value": [float(v) for v in point],
            "note": "benchmark point on a closed-form fiber",
        }
    path = work / f"{tag}-{name}.json"
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _report_op(path: str, name: str, rng: random.Random, expect: dict) -> Op:
    seed = str(rng.randrange(1 << 31))
    return Op(name, ["report", path, "--all", "--seed", seed], expect)


def report_varying(seed: int, work: Path, builtin_dict) -> Workload:
    rng = random.Random(f"report-varying:{seed}")
    ops, files = [], []
    # antithetic fibers H and 2 - H: the work of a report grows about
    # linearly with H, so the pass costs nearly the same for every seed
    u = rng.uniform(H_RANGE[0], sum(H_RANGE) / 2)
    for k, H in enumerate((u, sum(H_RANGE) - u)):
        point = _oscillator_point(rng, H)
        path = _write_scenario(work, builtin_dict, "pc-oscillator-1d", f"rv{k}", point)
        files.append(path)
        ops.append(_report_op(path, "pc-oscillator-1d", rng, _oscillator_expect(H, True)))
    return Workload(
        "report-varying",
        "point-dependent omega: every field evaluation factors A (LU path)",
        ops,
        files,
    )


def report_constant(seed: int, work: Path, builtin_dict) -> Workload:
    rng = random.Random(f"report-constant:{seed}")
    ops, files = [], []
    H = rng.uniform(*H_RANGE)
    gens = (
        ("ext-oscillator-1d", (_oscillator_point(rng, H), _oscillator_expect(H, False))),
        ("ext-oscillator-2d-super", _super_point(rng)),
        ("ext-oscillator-anisotropic", _anisotropic_point(rng)),
    )
    for name, (point, expect) in gens:
        path = _write_scenario(work, builtin_dict, name, "rc", point)
        files.append(path)
        ops.append(_report_op(path, name, rng, expect))
    return Workload(
        "report-constant",
        "constant coefficients: Frame solves by cached inverse, no LU",
        ops,
        files,
    )


def verify_catalog(seed: int, work: Path, builtin_dict) -> Workload:
    rng = random.Random(f"verify-catalog:{seed}")
    ops, files = [], []
    for name in BUILTINS:
        path = _write_scenario(work, builtin_dict, name, "vc")
        files.append(path)
        s = str(rng.randrange(1 << 31))
        ops.append(Op(name, ["validate", path, "--seed", s]))
        m, r = INTEGRAL_COUNTS[name]
        ops.append(
            Op(
                name,
                ["verify", path, "--points", str(VERIFY_POINTS), "--seed", s],
                {"ddim": m, "dind": r},
            )
        )
    return Workload(
        "verify-catalog",
        "pointwise integrability checks and sample_fiber flows; no torus code",
        ops,
        files,
        silent_layers=("actionangle",),
    )


WORKLOADS = {
    "report-varying": report_varying,
    "report-constant": report_constant,
    "verify-catalog": verify_catalog,
}


# --- checks -----------------------------------------------------------------------

def _digits(err: float) -> float:
    return min(DIGITS_CAP, -math.log10(err)) if err > 0 else DIGITS_CAP


def check_output(op: Op, rc: int, text: str) -> tuple[list, float]:
    """Problems found in one operation's output, and its oracle digits.

    Report operations compare every action, eta pairing and solved frequency
    with its closed form.  Verify operations compare the induced-bracket
    counts with (m, r) and read digits off the residuals whose closed form
    is zero.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as err:
        return problems + [f"output is not JSON: {err}"], 0.0
    digits = DIGITS_CAP
    if op.command == "report":
        if report.get("pass") is not True:
            problems.append(f"report failed sections {report.get('failed_sections')}")
        sections = report.get("sections", {})
        got = {
            "actions": sections.get("actions", {}).get("actions"),
            "eta_pairings": sections.get("actions", {}).get("eta_pairings"),
            "reeb": sections.get("frequencies", {}).get("modes", {}).get("reeb"),
            "eval": sections.get("frequencies", {}).get("modes", {}).get("eval"),
        }
        for key, want in op.expect.items():
            have = got[key]
            if have is None or len(have) != len(want):
                problems.append(f"{key}: missing or wrong length: {have}")
                digits = 0.0
                continue
            err = max(abs(a - b) for a, b in zip(have, want))
            digits = min(digits, _digits(err))
            if err > ORACLE_TOL:
                problems.append(f"{key}: {have} misses closed form {want} by {err:.3e}")
    elif op.command == "validate":
        if report.get("report", {}).get("pass") is not True:
            problems.append("validate did not pass")
    elif op.command == "verify":
        body = report.get("report", {})
        if body.get("pass") is not True:
            problems.append("verify did not pass")
        checks = body.get("checks", {})
        induced = checks.get("induced_bracket", {})
        for key in ("ddim", "dind"):
            if induced.get(key) != op.expect[key]:
                problems.append(f"induced bracket {key} = {induced.get(key)}, want {op.expect[key]}")
        residuals = [c.get("max_residual") for c in checks.values()]
        residuals.append(induced.get("closure_spread"))
        residuals.append(induced.get("casimir_residual"))
        for value in residuals:
            if isinstance(value, float):
                digits = min(digits, _digits(value))
    return problems, digits
