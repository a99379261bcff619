"""Stacked evaluation against one-point evaluation.

The integrability checks, ``validate`` and ``check_primitive`` evaluate their
points as stacks, one ``Frame`` per block.  The references here are loops
over the points that build one one-row ``Frame`` per point and call the
one-point field and Jacobian code; only the bracket functions' gradients are
taken once per stack.  A one-point call of a Reeb, Hamiltonian or evaluation
field runs the function built for its structure, which tests/test_cosym.py
holds to a ``Frame``'s rows.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cosymkit import cosym
from cosymkit.cosym import (
    CosymplecticStructure,
    DegenerateStructureError,
    StructureEvalError,
    StructureVectorField,
)
from cosymkit.cli import _verify_section, main as cli_main
from cosymkit.exprlang import EvalDomainError
from cosymkit.fields import OneFormField, ScalarField, TwoFormField, lie_bracket, sample_box
from cosymkit.flow import drift_report, integrate
from cosymkit.integrability import (
    IntegralSystem,
    bracket_closure_and_corank,
    check_bracket_of_integrals,
    check_commuting_prefix,
    check_fiber_tangency,
    check_first_integrals,
    check_independence,
    check_symmetry_algebra,
    sample_fiber,
    svd_rank,
    _ranks,
)
from cosymkit.scenarios import builtin, builtin_file_path, builtin_names
from linear_charts import canonical_in_linear_chart, chart_change

# --- per-point references -----------------------------------------------------


def _bracket(frame, df, dg):
    """The bracket at a one-row frame's point from covectors (d,)."""
    return frame.bracket(df[None], dg[None])[0]


def _ref_first_integrals(sys, points, integrals=None):
    """The check's loop, over ``integrals`` (the system's by default)."""
    worst, witness = 0.0, None
    for k, x in enumerate(points):
        frame = sys.structure.frame([x])
        dH = sys.hamiltonian.gradient(x)
        Z = frame.reeb[0]
        for f in sys.integrals if integrals is None else integrals:
            df = f.gradient(x)
            resid = abs(float(df @ Z) + _bracket(frame, df, dH))
            if resid > worst:
                worst = resid
                witness = {"integral": f.name, "point_index": k, "point": list(map(float, x)), "residual": resid}
    return worst, witness, {}


def _ref_commuting_prefix(sys, points):
    worst, witness = 0.0, None
    for k, x in enumerate(points):
        frame = sys.structure.frame([x])
        grads = [f.gradient(x) for f in sys.integrals]
        for i in range(sys.r):
            for j in range(sys.m):
                if j == i:
                    continue
                val = abs(_bracket(frame, grads[i], grads[j]))
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
        sys.structure.frame([x])  # the differentials are the frame's
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
    if _ref_first_integrals(sys, points, members)[0] >= S.tol.first_integral:
        raise ValueError("precondition unmet")
    worst, witness = 0.0, None
    for i, j in pairs:
        grads = S.bracket_scalar(sys.integrals[i], sys.integrals[j]).gradient_stack(points)
        for k, x in enumerate(points):
            frame = S.frame([x])
            dg = grads[k]
            dH = sys.hamiltonian.gradient(x)
            resid = abs(float(dg @ frame.reeb[0]) + _bracket(frame, dg, dH))
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


def _ref_closure_and_corank(sys, groups, casimirs=()):
    tol = sys.structure.tol
    coranks, regular, spread, casimir = [], [], 0.0, 0.0
    for group in groups:
        mats = []
        for x in group:
            frame = sys.structure.frame([x])
            grads = [f.gradient(x) for f in sys.integrals]
            a = np.zeros((sys.m, sys.m))
            for i in range(sys.m):
                for j in range(i + 1, sys.m):
                    a[i, j] = _bracket(frame, grads[i], grads[j])
                    a[j, i] = -a[i, j]
            mats.append(a)
            regular.append(svd_rank(np.array(grads), tol.rank_rel) == sys.m)
            s = np.linalg.svd(a, compute_uv=False)
            coranks.append(int(np.sum(s <= max(1e-10, float(s[0]) * 1e-8))))
            for g in casimirs:
                dg = g.gradient(x)
                for df in grads:
                    casimir = max(casimir, abs(_bracket(frame, dg, df)))
        for a in mats[1:]:
            spread = max(spread, float(np.max(np.abs(a - mats[0]))))
    return coranks, regular, spread, casimir if casimirs else None


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
    sys = IntegralSystem(S, sc.hamiltonian, (sc.integrals[1], q1), r=2)
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
def test_stacked_closure_and_corank_equals_per_point(name):
    sc = builtin(name)
    sys = sc.system
    rng = np.random.default_rng(71)
    seeds = [sc.base_point(), sc.base_point() * 0.9]
    groups = [sample_fiber(sys, x0, 3, rng) for x0 in seeds]
    got = bracket_closure_and_corank(sys, groups, casimirs=sc.casimirs)
    coranks, regular, spread, casimir = _ref_closure_and_corank(sys, groups, sc.casimirs)
    assert got.fibers == 2 and len(got.coranks) == 6
    assert (got.coranks, got.regular_flags) == (coranks, regular)
    assert (got.closure_spread, got.casimir_residual) == (spread, casimir)
    assert got.closure_ok and got.corank_ok


@pytest.mark.parametrize("name", [*builtin_names(), "canonical-in-linear-chart"])
def test_structure_fields_on_a_stack_equal_per_point(name):
    if name in builtin_names():
        sc = builtin(name)
        S, f, g = sc.structure, sc.system.integrals[0], sc.system.hamiltonian
    else:
        # C has inexact entries and eta != dt, so the stacked and one-point
        # products of C with df could differ in their bits
        S = canonical_in_linear_chart(chart_change(11))
        f = ScalarField.from_source("0.3*q^2 + 0.7*p*q - 1.1*t*p", S.chart, "f")
        g = ScalarField.from_source("(q^2 + p^2)/2 + 0.2*t", S.chart, "g")
    pts = sample_box(S.domain_box, 50, np.random.default_rng(7))
    for call in (
        S.reeb,
        lambda x: S.hamiltonian_field(f, x),
        lambda x: S.evaluation_vf(f)(x),
        lambda x: StructureVectorField(S, "gradient", f)(x),
        lambda x: S.poisson_bracket(f, g, x),
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
    # at the second point dH = 0 too: the independence check takes the
    # differentials from the frame, so the point raises instead of being
    # excluded as singular
    for x in (np.array([1.0, 0.0, 0.7]), np.array([1.0, 0.0, 0.0])):
        pts = _stack_with(x)
        want = _error_of(lambda: S.frame([x]))
        assert isinstance(want, DegenerateStructureError)
        for check in (check_first_integrals, check_independence):
            err = _error_of(lambda: check(sys, pts))
            assert type(err) is DegenerateStructureError and str(err) == str(want)
            assert np.array_equal(err.point, x)
        # the Jacobians of the Lie check fail at the point, as the loop's do
        _assert_raises_like_loops(sys, pts)


def test_closure_and_corank_degenerate_point_raises_frame_error():
    # omega = q dq^dp degenerates at q = 0; the third point of the second
    # group lies on the fiber H = 1/2 there
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
    c, s = math.cos(0.4), math.sin(0.4)
    groups = [
        [[0.1, c, s], [0.2, s, c]],
        [[0.3, c, -s], [0.4, -s, c], [1.0, 0.0, 1.0], [1.2, 0.0, -1.0]],
    ]
    want = _error_of(lambda: _ref_closure_and_corank(sys, groups, (H,)))
    assert isinstance(want, DegenerateStructureError)
    err = _error_of(lambda: bracket_closure_and_corank(sys, groups, casimirs=(H,)))
    assert (type(err), str(err)) == (type(want), str(want))
    assert np.array_equal(err.point, [1.0, 0.0, 1.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_validate_raises_at_first_non_finite_sample():
    sc = builtin("pc-oscillator-1d")
    chart = sc.structure.chart
    eta = OneFormField.from_sources(["1", "0", "0"], chart)
    # the first omega is infinite wherever q != 0; the second and third
    # overflow (a typed error) wherever q != 0 and where |q| > 1.34
    for source in ("1e400*q", "1e300*q*q*q*1e300", "1 + 1e308*q*q"):
        S = CosymplecticStructure(
            chart, TwoFormField.from_upper_sources({"q,p": source}, chart), eta,
            sc.structure.domain_box,
        )
        pts = sample_box(S.domain_box, 50, np.random.default_rng(2))

        def fails(x):
            try:
                return not np.isfinite(S.omega.at(x)).all()
            except EvalDomainError:
                return True

        k = next(k for k, x in enumerate(pts) if fails(x))
        want = _error_of(lambda: S.reeb(pts[k]))
        err = _error_of(lambda: S.validate(50, seed=2))
        assert type(err) is StructureEvalError and str(err) == str(want), source
        assert np.array_equal(err.point, pts[k])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_check_primitive_raises_at_first_non_finite_point():
    sc = builtin("ext-oscillator-1d")
    S, chart = sc.structure, sc.structure.chart
    pts = sample_box(S.domain_box, 9, np.random.default_rng(73))
    pts[:, 1] = 0.1
    pts[[3, 6], 1] = 1.0
    # d/dq of 1e308 q^3 overflows at q = 1, where its value is finite, and
    # the diagonal of d lambda is then inf - inf
    for source, at in (("1e600*q^3", 0), ("1e308*q*q*q", 3)):
        lam = OneFormField.from_sources(["0", source, "0"], chart)
        err = _error_of(lambda: replace(S, primitive=lam).check_primitive(pts))
        assert type(err) is StructureEvalError
        assert str(err) == (
            f"evaluation failed at {pts[at].tolist()}: -d lambda - omega is not finite"
        )
        assert np.array_equal(err.point, pts[at])
    zero = OneFormField.from_sources(["0", "0", "0"], chart)
    assert replace(S, primitive=zero).check_primitive(pts) == 1.0


def test_check_primitive_wraps_domain_error_at_first_failing_row():
    sc = builtin("ext-oscillator-1d")
    S, chart = sc.structure, sc.structure.chart
    lam = OneFormField.from_sources(["0", "log(q)", "0"], chart)
    pts = np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.5], [0.0, -1.0, 0.5], [0.0, -2.0, 0.5]])
    err = _error_of(lambda: replace(S, primitive=lam).check_primitive(pts))
    assert type(err) is StructureEvalError
    assert isinstance(err.cause, EvalDomainError)
    assert err.row == 2
    assert np.array_equal(err.point, pts[2])
    assert str(err) == (
        f"evaluation failed at {pts[2].tolist()}: log of non-positive value in 'log(q)'"
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        want = _error_of(lambda: S.frame([x]))
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


def _counting_frames(monkeypatch) -> list:
    """The row counts of the frames built from now on."""
    rows = []
    init = cosym.Frame.__init__

    def counting(self, structure, x):
        init(self, structure, x)
        rows.append(len(self.x))

    monkeypatch.setattr(cosym.Frame, "__init__", counting)
    return rows


@pytest.mark.parametrize("name", ["ext-oscillator-2d-super", "pc-oscillator-1d"])
def test_pointwise_checks_build_no_frames(monkeypatch, name):
    rows = _counting_frames(monkeypatch)
    monkeypatch.setattr(cosym, "BLOCK_ROWS", 200)
    sys = builtin(name).system
    pts = sample_box(sys.structure.domain_box, 500, np.random.default_rng(67))
    # one Frame per block serves every field a check reads, the members of
    # check_bracket_of_integrals' pairs included, and no check builds a
    # frame per point; a Lie check with no pairs builds none
    want = {check: [200, 200, 100] for check in CHECKS}
    if len(sys.symmetry_fields()) < 2:
        want["symmetry_algebra"] = []
    for check, (run, _) in CHECKS.items():
        rows.clear()
        assert run(sys, pts).passed
        assert rows == want[check], check


@pytest.mark.parametrize("name", builtin_names())
def test_verify_builds_each_block_frame_once(monkeypatch, capsys, name):
    rows = _counting_frames(monkeypatch)
    monkeypatch.setattr(cosym, "BLOCK_ROWS", 200)
    assert cli_main(["verify", str(builtin_file_path(name)), "--points", "500"]) == 0
    capsys.readouterr()
    # the blocks of the points, once for all five point checks; the 62
    # bracket points, for the Lie check and the brackets of integrals; one
    # frame for the four fiber seed candidates; a frame per fiber group of 3
    assert rows == [200, 200, 100, 62, 4, 3, 3, 3]


@pytest.mark.parametrize("name", builtin_names())
def test_verify_sharing_changes_no_number(monkeypatch, name):
    monkeypatch.setattr(cosym, "BLOCK_ROWS", 200)
    sc = builtin(name)
    sys = sc.system
    points = sample_box(sc.structure.domain_box, 500, np.random.default_rng(5))
    bracket_points = points[:62]
    alone = {
        "first_integrals": check_first_integrals(sys, points),
        "commuting_prefix": check_commuting_prefix(sys, points),
        "independence": check_independence(sys, points),
        "symmetry_algebra": check_symmetry_algebra(sys, bracket_points),
        "fiber_tangency": check_fiber_tangency(sys, points),
    }
    pairs = [(i, j) for i, j in _all_pairs(sys) if i >= sys.r or j >= sys.r]
    if pairs:
        alone["bracket_of_integrals"] = check_bracket_of_integrals(sys, pairs, bracket_points)
    checks = _verify_section(sc, 500, 5)["checks"]
    assert set(checks) == {*alone, "induced_bracket"}
    for check, report in alone.items():
        assert checks[check] == report.to_dict(), check
    with pytest.raises(ValueError, match="another structure"):
        check_first_integrals(sys, cosym.FrameBlocks(replace(sc.structure), points))


@pytest.mark.parametrize("name", ["pc-oscillator-2d-super", "ext-oscillator-anisotropic"])
def test_symmetry_algebra_derives_each_field_once_per_block(monkeypatch, name):
    # J_i, J_j, V_i, V_j read one differential and one X_f per scalar and
    # block: the values come from what the Jacobians derived
    monkeypatch.setattr(cosym, "BLOCK_ROWS", 200)
    sys = builtin(name).system
    pts = sample_box(sys.structure.domain_box, 500, np.random.default_rng(67))
    grads, solves = [], []
    gradient_stack, solve = ScalarField.gradient_stack, cosym.Frame._solve_hamiltonian

    def counting_gradient(self, X):
        grads.append(self)
        return gradient_stack(self, X)

    def counting_solve(self, df):
        solves.append(df)
        return solve(self, df)

    monkeypatch.setattr(ScalarField, "gradient_stack", counting_gradient)
    monkeypatch.setattr(cosym.Frame, "_solve_hamiltonian", counting_solve)
    assert check_symmetry_algebra(sys, pts).passed
    scalars = [sys.hamiltonian, *sys.integrals[: sys.r]]
    assert len(set(map(id, scalars))) == len(scalars) == len(sys.symmetry_fields())
    assert sorted(map(id, grads)) == sorted(3 * list(map(id, scalars)))
    assert len(solves) == 3 * len(scalars)


def _singular_values(rng, n, k, d, ratios):
    """``n`` matrices (k, d) with singular values ``1 > .. > ratio``, random
    singular vectors and a random scale between 1e-100 and 1e100."""
    s = np.sort(rng.uniform(ratios[:, None], 1.0, (n, k)), axis=1)[:, ::-1]
    s[:, 0], s[:, -1] = 1.0, ratios
    U = np.linalg.qr(rng.standard_normal((n, k, k)))[0]
    V = np.linalg.qr(rng.standard_normal((n, d, k)))[0]
    scale = 10.0 ** rng.uniform(-100, 100, n)
    return (U * s[:, None, :]) @ np.swapaxes(V, 1, 2) * scale[:, None, None]


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-6, 1e-3])
@pytest.mark.parametrize("k, d", [(1, 3), (2, 3), (2, 5), (3, 3), (3, 5)])
def test_gram_ranks_equal_svd_ranks(monkeypatch, k, d, rel_tol):
    rng = np.random.default_rng(1000 * k + d)
    ratios = np.concatenate([
        10.0 ** rng.uniform(-16, 0, 1500),  # log-uniform over [1e-16, 1]
        rel_tol * 10.0 ** rng.uniform(-0.01, 0.01, 500),  # straddling rel_tol
    ])
    M = _singular_values(rng, len(ratios), k, d, ratios)
    # exactly rank-deficient integer matrices, a zero row, zero matrices
    deficient = rng.integers(-3, 4, (200, k, d)).astype(float)
    deficient[:100, -1] = 2.0 * deficient[:100, 0]
    deficient[100:, k // 2] = 0.0
    M = np.concatenate([M, deficient, np.zeros((20, k, d))])
    M = M[rng.permutation(len(M))]
    want = [svd_rank(m, rel_tol) for m in M]
    svd_rows = []
    svd = np.linalg.svd

    def counting(a, **kwargs):
        svd_rows.append(len(a))
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert _ranks(M, rel_tol).tolist() == want
    # a matrix whose singular values are within a factor 5 skips it
    assert sum(svd_rows) <= len(M) - np.sum(ratios > 0.2)
    monkeypatch.setattr(np.linalg, "svd", svd)
    for bad in (math.nan, math.inf):
        M[3, 0, -1] = bad
        try:
            want = svd_rank(M[3], rel_tol)
        except np.linalg.LinAlgError as err:
            got = _error_of(lambda: _ranks(M, rel_tol))
            assert (type(got), str(got), got.row) == (type(err), str(err), 3)
        else:
            assert _ranks(M, rel_tol)[3] == want


@pytest.mark.parametrize("name", ["ext-oscillator-1d", "pc-oscillator-1d"])
def test_flows_and_torus_commands_build_no_frames(monkeypatch, capsys, name):
    # every flow stage runs the one-point function of its field; a frame per
    # stage would cost about ten times as much
    rows = _counting_frames(monkeypatch)
    sc = builtin(name)
    S, H, x0 = sc.structure, sc.system.hamiltonian, sc.base_point()
    for field in (S.reeb_vf(), S.evaluation_vf(H), S.hamiltonian_vf(H)):
        drift_report(integrate(field, x0, 2.0, 1e-10), sc.system.integrals)
    path = str(builtin_file_path(name))
    assert cli_main(["actions", path]) == 0
    assert cli_main(["frequencies", path, "--mode", "eval", "--verify-empirical"]) == 0
    capsys.readouterr()
    assert rows == []
