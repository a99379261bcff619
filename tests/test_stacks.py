"""Stacked evaluation against one-point evaluation.

The integrability checks, ``validate`` and ``check_primitive`` evaluate their
points as stacks.  The references here are loops over the points that build
one ``Frame`` per point and call the one-point field and stencil code.
"""

import math

import numpy as np
import pytest

from cosymkit import cosym
from cosymkit.cosym import (
    CosymplecticStructure,
    DegenerateStructureError,
    StructureEvalError,
)
from cosymkit.exprlang import EvalDomainError
from cosymkit.fields import OneFormField, ScalarField, TwoFormField, lie_bracket, sample_box
from cosymkit.integrability import (
    IntegralSystem,
    check_bracket_of_integrals,
    check_commuting_prefix,
    check_fiber_tangency,
    check_first_integrals,
    check_independence,
    check_symmetry_algebra,
    svd_rank,
)
from cosymkit.scenarios import builtin, builtin_names

# --- per-point references -----------------------------------------------------


def _ref_first_integrals(sys, points):
    worst, witness = 0.0, None
    for k, x in enumerate(points):
        frame = sys.structure.frame(x)
        dH = sys.hamiltonian.gradient(x)
        Z = frame.reeb
        for f in sys.integrals:
            df = f.gradient(x)
            resid = abs(float(df @ Z) + frame.bracket(df, dH))
            if resid > worst:
                worst = resid
                witness = {"integral": f.name, "point_index": k, "point": list(map(float, x)), "residual": resid}
    return worst, witness, {}


def _ref_commuting_prefix(sys, points):
    worst, witness = 0.0, None
    for k, x in enumerate(points):
        frame = sys.structure.frame(x)
        grads = [f.gradient(x) for f in sys.integrals]
        for i in range(sys.r):
            for j in range(sys.m):
                if j == i:
                    continue
                val = abs(frame.bracket(grads[i], grads[j]))
                if val > worst:
                    worst = val
                    witness = {
                        "pair": [sys.integrals[i].name, sys.integrals[j].name],
                        "point_index": k,
                        "point": list(map(float, x)),
                        "residual": val,
                    }
    return worst, witness, {}


def _ref_independence(sys, points):
    tol = sys.structure.tol.rank_rel
    excluded, defects, regular = [], [], 0
    for k, x in enumerate(points):
        if sys.m:
            G = np.array([f.gradient(x) for f in sys.integrals])
            if svd_rank(G, tol) != sys.m:
                excluded.append({"point_index": k, "point": list(map(float, x))})
                continue
        regular += 1
        rank = svd_rank(np.array([vf(x) for vf in sys.symmetry_fields()]), tol)
        if rank != sys.r + 1:
            defects.append({"point_index": k, "point": list(map(float, x)), "rank": rank})
    extra = {"regular_points": regular, "excluded_points": excluded, "defects": defects}
    return float(len(defects)), defects[0] if defects else None, extra


def _ref_symmetry_algebra(sys, points):
    fields_ = sys.symmetry_fields()
    worst, witness = 0.0, None
    for k, x in enumerate(points):
        for i in range(len(fields_)):
            for j in range(i + 1, len(fields_)):
                resid = float(np.max(np.abs(lie_bracket(fields_[i], fields_[j], x))))
                if resid > worst:
                    worst = resid
                    witness = {
                        "pair": [fields_[i].label, fields_[j].label],
                        "point_index": k,
                        "point": list(map(float, x)),
                        "residual": resid,
                    }
    return worst, witness, {}


def _ref_fiber_tangency(sys, points):
    fields_ = sys.symmetry_fields()
    worst, witness = 0.0, None
    for k, x in enumerate(points):
        vals = [vf(x) for vf in fields_]
        for f in sys.integrals:
            df = f.gradient(x)
            for vf, v in zip(fields_, vals):
                resid = abs(float(df @ v))
                if resid > worst:
                    worst = resid
                    witness = {"integral": f.name, "field": vf.label, "point_index": k, "residual": resid}
    return worst, witness, {}


def _ref_bracket_of_integrals(sys, pairs, points):
    S = sys.structure
    members = tuple(sys.integrals[i] for i in sorted({i for pair in pairs for i in pair}))
    probe = IntegralSystem(S, sys.hamiltonian, members, r=0, enforce_completeness=False)
    if _ref_first_integrals(probe, points)[0] >= S.tol.first_integral:
        raise ValueError("precondition unmet")
    worst, witness = 0.0, None
    for i, j in pairs:
        g = S.bracket_scalar(sys.integrals[i], sys.integrals[j])
        for k, x in enumerate(points):
            frame = S.frame(x)
            dg = g.gradient(x)
            dH = sys.hamiltonian.gradient(x)
            resid = abs(float(dg @ frame.reeb) + frame.bracket(dg, dH))
            if resid > worst:
                worst = resid
                witness = {
                    "pair": [sys.integrals[i].name, sys.integrals[j].name],
                    "point_index": k,
                    "residual": resid,
                }
    return worst, witness, {}


def _ref_validate(S, samples, seed):
    pts = sample_box(S.domain_box, samples, np.random.default_rng(seed))
    max_dw = max_de = 0.0
    min_det, worst = math.inf, pts[0]
    for x in pts:
        max_dw = max(max_dw, float(np.abs(S.omega.exterior_derivative(x)).max()))
        max_de = max(max_de, float(np.abs(S.eta.exterior_derivative(x)).max()))
        W, ev = S.omega.at(x), S.eta.at(x)
        det = abs(float(np.linalg.det(W + ev[:, None] * ev)))
        if det < min_det:
            min_det, worst = det, x
    return max_dw, max_de, min_det, worst


def _ref_primitive(S, points):
    worst = 0.0
    for x in points:
        resid = np.max(np.abs(-S.primitive.exterior_derivative(x) - S.omega.at(x)))
        worst = max(worst, float(resid))
    return worst


def _all_pairs(sys):
    return [(i, j) for i in range(sys.m) for j in range(i + 1, sys.m)]


CHECKS = {
    "first_integrals": (check_first_integrals, _ref_first_integrals),
    "commuting_prefix": (check_commuting_prefix, _ref_commuting_prefix),
    "independence": (check_independence, _ref_independence),
    "symmetry_algebra": (check_symmetry_algebra, _ref_symmetry_algebra),
    "fiber_tangency": (check_fiber_tangency, _ref_fiber_tangency),
    "bracket_of_integrals": (
        lambda sys, pts: check_bracket_of_integrals(sys, _all_pairs(sys), pts),
        lambda sys, pts: _ref_bracket_of_integrals(sys, _all_pairs(sys), pts),
    ),
}


def _assert_same_witness(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None and set(got) == set(want)
    for key in want:
        if key == "residual":
            assert abs(got[key] - want[key]) <= 1e-12 * max(1.0, abs(want[key])) + 1e-15
        else:
            assert got[key] == want[key], key


@pytest.mark.parametrize("name", builtin_names())
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_stacked_check_equals_per_point(name, check):
    sys = builtin(name).system
    pts = sample_box(sys.structure.domain_box, 300, np.random.default_rng(41))
    stacked, reference = CHECKS[check]
    report = stacked(sys, pts)
    worst, witness, extra = reference(sys, pts)
    passed = not extra["defects"] if check == "independence" else worst < report.tolerance
    assert report.passed and passed
    assert abs(report.max_residual - worst) <= 1e-12 * max(1.0, abs(worst)) + 1e-15
    _assert_same_witness(report.witness, witness)
    if check == "independence":
        assert report.extra["regular_points"] == extra["regular_points"]
        assert report.extra["excluded_points"] == extra["excluded_points"]
        assert report.max_residual == len(extra["defects"])


def test_stacked_checks_witness_failures_like_per_point():
    # q is no first integral and breaks the commuting prefix and the algebra;
    # the witnesses must sit at the same point and pair as the loops' ones
    S = builtin("ext-oscillator-2d-super").structure
    sc = builtin("ext-oscillator-2d-super").system
    q1 = ScalarField.from_source("q1", S.chart, "q1")
    sys = IntegralSystem(S, sc.hamiltonian, (sc.integrals[1], q1, sc.integrals[0]), r=2,
                         enforce_completeness=False)
    pts = sample_box(S.domain_box, 200, np.random.default_rng(43))
    for check in ("first_integrals", "commuting_prefix", "symmetry_algebra", "fiber_tangency"):
        stacked, reference = CHECKS[check]
        report = stacked(sys, pts)
        worst, witness, _ = reference(sys, pts)
        assert not report.passed
        assert abs(report.max_residual - worst) <= 1e-12 * max(1.0, abs(worst)) + 1e-15
        _assert_same_witness(report.witness, witness)


def test_stacked_independence_reports_singular_points_in_order():
    sys = builtin("ext-oscillator-2d-super").system
    rng = np.random.default_rng(47)
    pts = sample_box(sys.structure.domain_box, 40, rng)
    pts[[5, 17, 30]] = 0.0  # dH = 0 there
    pts[11] = [0.0, 1.0, 0.0, 0.0, 1.0]  # dL proportional to dH
    report = check_independence(sys, pts)
    _, _, extra = _ref_independence(sys, pts)
    assert [e["point_index"] for e in report.extra["excluded_points"]] == [5, 11, 17, 30]
    assert report.extra["excluded_points"] == extra["excluded_points"]
    assert report.extra["regular_points"] == extra["regular_points"] == 36


@pytest.mark.parametrize("name", builtin_names())
def test_stacked_validate_and_primitive_equal_per_point(name):
    S = builtin(name).structure
    report = S.validate(samples=300, seed=5)
    max_dw, max_de, min_det, worst = _ref_validate(S, 300, 5)
    assert (report.max_d_omega, report.max_d_eta, report.min_abs_det) == (max_dw, max_de, min_det)
    assert np.array_equal(report.worst_point, worst)
    if S.primitive is not None:
        pts = sample_box(S.domain_box, 300, np.random.default_rng(6))
        assert S.check_primitive(pts) == _ref_primitive(S, pts)


@pytest.mark.parametrize("name", builtin_names())
def test_structure_fields_on_a_stack_equal_per_point(name):
    sc = builtin(name)
    S, f = sc.structure, sc.system.integrals[0]
    pts = sample_box(S.domain_box, 50, np.random.default_rng(7))
    for call in (
        S.reeb,
        lambda x: S.hamiltonian_field(f, x),
        lambda x: S.evaluation_field(f, x),
        lambda x: S.gradient_field(f, x),
        lambda x: S.poisson_bracket(f, sc.system.hamiltonian, x),
    ):
        assert np.array_equal(call(pts), np.array([call(x) for x in pts]))


# --- typed errors from a stack ------------------------------------------------


def _error_of(call):
    with pytest.raises(Exception) as info:
        call()
    return info.value


def _stack_with(row, n=9, at=4, seed=53):
    """Points of the pc-oscillator-1d chart with |q|, |p| < 1 and ``row`` in
    the middle."""
    box = ((0.0, 2 * math.pi), (-0.9, 0.9), (-0.9, 0.9))
    pts = sample_box(box, n, np.random.default_rng(seed))
    pts[at] = row
    return pts


def _assert_raises_like_loops(sys, pts):
    """Every check raises the type and message its per-point loop raises."""
    for check in CHECKS:
        stacked, reference = CHECKS[check]
        want = _error_of(lambda: reference(sys, pts))
        err = _error_of(lambda: stacked(sys, pts))
        assert (type(err), str(err)) == (type(want), str(want)), check


def test_degenerate_row_raises_frame_error():
    # omega = q dq^dp on the chart of pc-oscillator-1d degenerates at q = 0
    sc = builtin("pc-oscillator-1d")
    chart = sc.structure.chart
    S = CosymplecticStructure(
        chart,
        TwoFormField.from_upper_sources({"q,p": "q"}, chart),
        OneFormField.from_sources(["1", "0", "0"], chart),
        sc.structure.domain_box,
    )
    H = ScalarField.from_source("(q^2 + p^2)/2", chart, "H")
    sys = IntegralSystem(S, H, (H,), r=1)
    x = np.array([1.0, 0.0, 0.7])
    pts = _stack_with(x)
    want = _error_of(lambda: S.frame(x))
    assert isinstance(want, DegenerateStructureError)
    err = _error_of(lambda: check_first_integrals(sys, pts))
    assert type(err) is DegenerateStructureError and str(err) == str(want)
    assert np.array_equal(err.point, x)
    # the stencils of the Lie check meet a shifted point first, as the loop does
    _assert_raises_like_loops(sys, pts)


def test_non_finite_structure_row_raises_frame_error():
    sc = builtin("pc-oscillator-1d")
    chart = sc.structure.chart
    S = CosymplecticStructure(
        chart,
        TwoFormField.from_upper_sources({"q,p": "1 + 1e308*q*q - 1e308*p*p"}, chart),
        OneFormField.from_sources(["1", "0", "0"], chart),
        sc.structure.domain_box,
    )
    H = ScalarField.from_source("(q^2 + p^2)/2", chart, "H")
    sys = IntegralSystem(S, H, (H,), r=1)
    for x in (np.array([0.0, 2.0, 0.0]), np.array([0.0, 2.0, 2.0])):
        want = _error_of(lambda: S.frame(x))
        assert isinstance(want, StructureEvalError)
        err = _error_of(lambda: check_first_integrals(sys, _stack_with(x)))
        assert type(err) is StructureEvalError and str(err) == str(want)
        assert np.array_equal(err.point, x)
        _assert_raises_like_loops(sys, _stack_with(x))


def test_overflowing_integral_row_raises_domain_error():
    sc = builtin("ext-oscillator-1d")
    H = ScalarField.from_source("exp(1000*q)", sc.structure.chart, "H")
    sys = IntegralSystem(sc.structure, H, (H,), r=1)
    pts = sample_box(sc.structure.domain_box, 20, np.random.default_rng(59))
    pts[:, 1] = -1.0
    pts[[6, 13], 1] = 0.9
    want = _error_of(lambda: H.expr.value(pts[6]))
    assert isinstance(want, EvalDomainError) and str(want) == "overflow in 'exp(1000.0*q)'"
    for check in CHECKS:
        err = _error_of(lambda: CHECKS[check][0](sys, pts))
        assert type(err) is EvalDomainError and str(err) == str(want)
    _assert_raises_like_loops(sys, pts)


def test_first_failing_point_raises_across_stages():
    # point 3 fails in the gradient of an integral, a stage that comes after
    # the frame; point 7 fails in the frame.  A loop over the points meets
    # point 3 first.
    sc = builtin("pc-oscillator-1d")
    chart = sc.structure.chart
    S = CosymplecticStructure(
        chart,
        TwoFormField.from_upper_sources({"q,p": "q"}, chart),
        OneFormField.from_sources(["1", "0", "0"], chart),
        sc.structure.domain_box,
    )
    H = ScalarField.from_source("(q^2 + p^2)/2", chart, "H")
    f = ScalarField.from_source("log(p)", chart, "f")
    sys = IntegralSystem(S, H, (f,), r=1)
    pts = sample_box(((0.0, 6.0), (0.5, 1.0), (0.5, 1.0)), 12, np.random.default_rng(61))
    pts[3, 2] = -1.0
    pts[7, 1] = 0.0
    err = _error_of(lambda: check_first_integrals(sys, pts))
    assert type(err) is EvalDomainError
    assert str(err) == str(_error_of(lambda: f.gradient(pts[3])))
    assert type(_error_of(lambda: check_first_integrals(sys, pts[4:]))) is DegenerateStructureError
    _assert_raises_like_loops(sys, pts)


# --- no per-point frames ------------------------------------------------------


@pytest.mark.parametrize("name", ["ext-oscillator-2d-super", "pc-oscillator-1d"])
def test_pointwise_checks_build_no_frames(monkeypatch, name):
    calls = []
    original = cosym.Frame.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cosym.Frame, "__init__", counting)
    sys = builtin(name).system
    pts = sample_box(sys.structure.domain_box, 500, np.random.default_rng(67))
    for check, _ in CHECKS.values():
        assert check(sys, pts).passed
    assert len(calls) == 0
