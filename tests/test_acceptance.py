"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines in the summary.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from cosymkit.actionangle import (
    action_integrals,
    empirical_frequencies,
    evaluation_frequencies,
    find_fiber_point,
    solve_frequencies,
    torus_lattice,
    trace_cycle,
)
from cosymkit.cli import main as cli_main
from cosymkit.cosym import twist
from cosymkit.exprlang import Mul
from cosymkit.fields import ScalarField, lie_bracket, sample_box
from cosymkit.flow import drift_report, integrate
from cosymkit.integrability import (
    bracket_closure_and_corank,
    check_bracket_of_integrals,
    check_commuting_prefix,
    check_first_integrals,
    check_independence,
    check_symmetry_algebra,
    sample_fiber,
)
from cosymkit.scenarios import builtin, builtin_file_path, builtin_names

TWO_PI = 2 * math.pi
ALGEBRAIC_TOL = 1e-8


def _report(num, desc, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_polynomial(rng, chart, name):
    names = chart.names
    terms = [f"{rng.uniform(-1, 1):.6f}"]
    for v in names:
        terms.append(f"{rng.uniform(-1, 1):.6f}*{v}")
    for _ in range(3):
        a, b = rng.choice(len(names), size=2)
        terms.append(f"{rng.uniform(-1, 1):.6f}*{names[a]}*{names[b]}")
    return ScalarField.from_source(" + ".join(terms), chart, name)


def test_criterion_1_identity_suite():
    worst_algebraic = 0.0
    worst_commutator = 0.0
    for name in builtin_names():
        sc = builtin(name)
        S = sc.structure
        chart = sc.chart
        rng = np.random.default_rng(1)
        points = sample_box(S.domain_box, 200, np.random.default_rng(0))
        f = _random_polynomial(rng, chart, "f")
        g = _random_polynomial(rng, chart, "g")
        h = _random_polynomial(rng, chart, "h")

        # the brackets' gradients are exact on every structure, evaluated on
        # the whole stack
        d_fg, d_gh, d_hf = (
            S.bracket_scalar(a, b).gradient_stack(points) for a, b in ((f, g), (g, h), (h, f))
        )
        gh_prod = ScalarField(chart, Mul(g.expr, h.expr), "gh")
        Xf, Xg = S.hamiltonian_vf(f), S.hamiltonian_vf(g)
        Z = S.reeb_vf()
        # d(Z(f)) = Hess f Z + J(Z)^T df
        hess_z = (Z(points)[:, None, :] @ f.hessian_stack(points))[:, 0]
        d_zf = hess_z + (f.gradient_stack(points)[:, None, :] @ Z.jacobian(points))[:, 0]

        # every identity from one frame over the stack, asserted point by point
        frame = S.frame(points)
        df, dg, dh = (u.gradient_stack(points) for u in (f, g, h))
        contraction = np.abs(
            np.vecmat(frame.hamiltonian(df), frame.Omega) - np.vecmat(frame.gradient(df), frame.Omega)
        ).max(axis=-1)
        g_vals, h_vals = (np.array([u.value(x) for x in points]) for u in (g, h))
        leibniz = frame.bracket(df, gh_prod.gradient_stack(points)) - (
            g_vals * frame.bracket(df, dh) + h_vals * frame.bracket(df, dg)
        )
        jacobi = frame.bracket(d_fg, dh) + frame.bracket(d_gh, df) + frame.bracket(d_hf, dg)
        X_fg, X_zf = frame.hamiltonian(d_fg), frame.hamiltonian(d_zf)

        for k, x in enumerate(points):
            # contraction of X_f and of grad f against omega agree
            r1 = float(contraction[k])
            worst_algebraic = max(worst_algebraic, r1)
            assert r1 < ALGEBRAIC_TOL, f"{name}: contraction identity residual {r1:.2e}"
            # Leibniz
            worst_algebraic = max(worst_algebraic, abs(leibniz[k]))
            assert abs(leibniz[k]) < ALGEBRAIC_TOL
            # Jacobi
            total = jacobi[k]
            worst_algebraic = max(worst_algebraic, abs(total))
            assert abs(total) < ALGEBRAIC_TOL, f"{name}: Jacobi residual {abs(total):.2e}"
            # commutator identities on a subsample
            if k % 25 == 0:
                rhs_v = -lie_bracket(Xf, Xg, x)
                r3 = float(np.max(np.abs(X_fg[k] - rhs_v)))
                worst_commutator = max(worst_commutator, r3)
                assert r3 < ALGEBRAIC_TOL, f"{name}: bracket-commutator residual {r3:.2e}"
                lhs_v = lie_bracket(Z, Xf, x)
                r4 = float(np.max(np.abs(lhs_v - X_zf[k])))
                worst_commutator = max(worst_commutator, r4)
                assert r4 < ALGEBRAIC_TOL, f"{name}: Reeb-commutator residual {r4:.2e}"
    _report(
        1,
        "bracket identities at 200 seeded points on every builtin",
        True,
        f"max algebraic {worst_algebraic:.2e}, max commutator {worst_commutator:.2e}",
    )


def test_criterion_2_twisted_structure_reproduction():
    sc = builtin("ext-oscillator-1d")
    S = sc.structure
    H = sc.system.hamiltonian
    St = twist(S, H)
    rng = np.random.default_rng(2)
    worst_reeb = 0.0
    for x in sample_box(S.domain_box, 50, rng):
        diff = St.reeb(x) - S.evaluation_vf(H)(x)
        worst_reeb = max(worst_reeb, float(np.max(np.abs(diff))))
    ok = worst_reeb < 1e-9

    worst_bracket = 0.0
    for k in range(10):
        f = _random_polynomial(rng, sc.chart, f"f{k}")
        g = _random_polynomial(rng, sc.chart, f"g{k}")
        for x in sample_box(S.domain_box, 20, rng):
            gap = abs(S.poisson_bracket(f, g, x) - St.poisson_bracket(f, g, x))
            worst_bracket = max(worst_bracket, gap)
    ok = ok and worst_bracket < 1e-8
    _report(
        2,
        "twisted Reeb field equals evaluation field; brackets coincide",
        ok,
        f"max Reeb gap {worst_reeb:.2e}, max bracket gap {worst_bracket:.2e}",
    )


@pytest.mark.parametrize("name", ["ext-oscillator-1d", "ext-oscillator-2d-super"])
def test_criterion_3_verifier_chain(name):
    sc = builtin(name)
    sys_ = sc.system
    rng = np.random.default_rng(3)
    points = sample_box(sc.structure.domain_box, 60, rng)
    r_fi = check_first_integrals(sys_, points)
    r_cp = check_commuting_prefix(sys_, points)
    r_in = check_independence(sys_, points)
    r_sa = check_symmetry_algebra(sys_, points[:12])
    ok = all(r.passed for r in (r_fi, r_cp, r_in, r_sa))
    _report(
        3,
        f"verifier chain on {name} (m={sys_.m}, r={sys_.r})",
        ok,
        f"regular points {r_in.extra['regular_points']}, "
        f"ranks expected {r_in.extra['expected_ranks']}",
    )


def test_criterion_4_induced_bracket_corank():
    sc = builtin("ext-oscillator-2d-super")
    sys_ = sc.system
    rng = np.random.default_rng(4)
    groups = []
    regular_total = 0
    attempts = 0
    while regular_total < 100 and attempts < 60:
        attempts += 1
        seed = sample_box(sc.structure.domain_box, 1, rng)[0]
        if check_independence(sys_, [seed]).extra["regular_points"] != 1:
            continue
        groups.append(sample_fiber(sys_, seed, 5, rng))
        regular_total += 5
    result = bracket_closure_and_corank(sys_, groups, casimirs=sc.casimirs)
    regular = int(sum(result.regular_flags))
    ok = (
        result.closure_ok
        and result.corank_ok
        and result.parity_ok
        and regular >= 100
        and result.dind == 1
    )
    _report(
        4,
        "induced bracket constant on fibers with corank 1 at 100 regular points",
        ok,
        f"closure spread {result.closure_spread:.2e}, regular points {regular}",
    )


def test_criterion_5_bracket_of_integrals():
    sc = builtin("ext-oscillator-2d-super")
    rng = np.random.default_rng(5)
    points = sample_box(sc.structure.domain_box, 100, rng)
    report = check_bracket_of_integrals(sc.system, [(1, 2)], points)
    _report(
        5,
        "bracket of the non-commuting pair is itself a first integral",
        report.passed and report.max_residual < 1e-5,
        f"max residual {report.max_residual:.2e} at 100 points",
    )


def test_criterion_6_action_oracle():
    sc = builtin("ext-oscillator-1d")
    sys_ = sc.system
    worst_value = 0.0
    worst_move = 0.0
    for c in (0.25, 0.5, 1.0):
        x0 = np.array([0.0, math.sqrt(2 * c), 0.0])
        lattice = torus_lattice(sys_, x0, angle_maps=sc.angle_maps)
        torus = action_integrals(sys_, lattice)
        worst_value = max(worst_value, abs(torus.actions[0] - c))
        # base-point independence: restart from another point of the torus
        x1 = trace_cycle(sys_.commuting_fields(), (0.41, 2.03), x0, 1e-12)[-1][1].final_state
        lattice1 = torus_lattice(sys_, x1, angle_maps=sc.angle_maps)
        torus1 = action_integrals(sys_, lattice1)
        worst_move = max(
            worst_move, float(np.max(np.abs(torus1.actions - torus.actions)))
        )
    ok = worst_value < 1e-10 and worst_move < 1e-10
    _report(
        6,
        "loop action reproduces the fiber value for c in {0.25, 0.5, 1.0}",
        ok,
        f"max |I - c| {worst_value:.2e}, base-point spread {worst_move:.2e}",
    )


def _torus(sc, fiber):
    """The torus through ``fiber``, with b read off its lattice."""
    x0 = find_fiber_point(sc.system, fiber, sc.base_point())
    lattice = torus_lattice(sc.system, x0, angle_maps=sc.angle_maps)
    return action_integrals(sc.system, lattice)


def test_criterion_7_frequency_systems():
    tol = 1e-3
    # b comes straight off the period lattice, so the closed forms hold to
    # lattice accuracy; the empirical slope fits stay at ``tol``
    exact_tol = 1e-9
    results = []

    sc = builtin("ext-oscillator-1d")
    sys_ = sc.system
    torus = _torus(sc, [0.5])
    x0 = torus.lattice.base_point
    reeb = solve_frequencies(torus, "reeb")
    emp, _ = empirical_frequencies(sc.structure.reeb_vf(), x0, sc.angle_maps, 40.0)
    results.append(("canonical reeb", reeb, [0.0, 1.0], emp))

    ham = solve_frequencies(torus, "hamiltonian", 1)
    emp_h, _ = empirical_frequencies(
        sc.structure.hamiltonian_vf(sys_.integrals[0]), x0, sc.angle_maps, 40.0
    )
    results.append(("hamiltonian-flow", ham, [1.0, 0.0], emp_h))

    pc = builtin("pc-oscillator-1d")
    torus_pc = _torus(pc, [0.5])
    reeb_pc = solve_frequencies(torus_pc, "reeb")
    emp_pc, _ = empirical_frequencies(
        pc.structure.reeb_vf(), torus_pc.lattice.base_point, pc.angle_maps, 40.0
    )
    results.append(("twisted reeb", reeb_pc, [1.0, 1.0], emp_pc))

    ok = True
    details = []
    for label, solved, expected, emp in results:
        gap_exp = float(np.max(np.abs(np.asarray(solved) - np.asarray(expected))))
        gap_emp = float(np.max(np.abs(np.asarray(solved) - np.asarray(emp))))
        ok = ok and gap_exp < exact_tol and gap_emp < tol
        details.append(f"{label} {np.round(solved, 6).tolist()}")
    _report(
        7,
        "frequency solves (0,1), (1,1) and (1,0) match empirical slopes",
        ok,
        "; ".join(details),
    )


def winding_ratio_test(freqs) -> dict:
    """Classify pairwise frequency ratios as commensurate or not.

    A ratio counts as rational when some fraction with denominator up to 32
    approximates it within 1e-4 (well above the measurement error of the
    slope fits).
    """
    freqs = np.asarray(freqs, dtype=float)
    pairs = []
    any_irrational = False
    for i in range(len(freqs)):
        for j in range(i + 1, len(freqs)):
            lo, hi = sorted([abs(freqs[i]), abs(freqs[j])])
            if hi == 0.0:
                continue
            ratio = lo / hi
            frac = Fraction(ratio).limit_denominator(32)
            err = abs(ratio - float(frac))
            rational = err <= 1e-4
            any_irrational = any_irrational or not rational
            pairs.append(
                {
                    "pair": [i, j],
                    "ratio": ratio,
                    "closest_fraction": f"{frac.numerator}/{frac.denominator}",
                    "error": err,
                    "rational": rational,
                }
            )
    return {"pairs": pairs, "irrational_winding": any_irrational}


def test_winding_ratio_test():
    rep = winding_ratio_test([1.0, math.sqrt(2.0), 1.0])
    assert rep["irrational_winding"]
    by_pair = {tuple(p["pair"]): p for p in rep["pairs"]}
    assert not by_pair[(0, 2)]["rational"] is True or by_pair[(0, 2)]["rational"]
    assert by_pair[(0, 2)]["rational"]  # 1:1 is commensurate
    assert not by_pair[(0, 1)]["rational"]

    rep = winding_ratio_test([1.0, 2.0])
    assert not rep["irrational_winding"]


def test_criterion_8_dense_winding():
    sc = builtin("ext-oscillator-anisotropic")
    sys_ = sc.system
    x0 = sc.base_point()
    expected = np.array([1.0, math.sqrt(2.0), 1.0])
    slopes, resid = empirical_frequencies(
        sc.structure.evaluation_vf(sys_.hamiltonian),
        x0,
        sc.angle_maps,
        200.0,
    )
    gap = float(np.max(np.abs(slopes - expected)))
    ratios = winding_ratio_test(slopes)
    # t advances at unit rate: the orbit crosses the section t = t(0) at 2*pi*k
    chart = sc.structure.chart
    traj = integrate(sc.structure.evaluation_vf(sys_.hamiltonian), x0, 500.0, 1e-9)
    returns = TWO_PI * np.arange(1, int(500.0 // TWO_PI) + 1)
    dists = [chart.distance(traj.state_at(tau), x0) for tau in returns]
    dist, when = min(dists), returns[np.argmin(dists)]
    ok = gap < 1e-3 and ratios["irrational_winding"] and dist > 0.1
    _report(
        8,
        "dense winding at frequencies (1, sqrt(2), 1): orbit never closes",
        ok,
        f"slope gap {gap:.2e}, min return distance {dist:.3f} at tau {when:.1f}",
    )


def test_criterion_9_flow_quality():
    tol = 1e-10
    worst_drift = 0.0
    worst_reversal = 0.0
    for name in builtin_names():
        sc = builtin(name)
        sys_ = sc.system
        field = sc.structure.evaluation_vf(sys_.hamiltonian)
        x0 = sc.base_point()
        traj = integrate(field, x0, 100.0, tol)
        drifts = drift_report(traj, sys_.integrals)
        worst_drift = max(worst_drift, max(drifts.values()))
        fwd = integrate(field, x0, 0.25, tol)
        back = integrate(field, fwd.final_state, -0.25, tol)
        worst_reversal = max(
            worst_reversal, float(np.max(np.abs(back.final_state - x0)))
        )
    ok = worst_drift < 1e-7 and worst_reversal < 10 * tol
    _report(
        9,
        "integral drift below 1e-7 over tau=100 at tol 1e-10; reversal below 10*tol",
        ok,
        f"max drift {worst_drift:.2e}, max reversal {worst_reversal:.2e}",
    )


def test_criterion_10_deterministic_reports(capsys):
    ok = True
    for name in ("ext-oscillator-1d", "ext-oscillator-1d-line"):
        path = str(builtin_file_path(name))
        code1 = cli_main(["report", path, "--all", "--seed", "0"])
        text1 = capsys.readouterr().out
        code2 = cli_main(["report", path, "--all", "--seed", "0"])
        text2 = capsys.readouterr().out
        ok = ok and code1 == code2 == 0 and text1 == text2
        json.loads(text1)  # both runs emit valid JSON
    _report(10, "aggregated report is byte-identical across reruns", ok)
