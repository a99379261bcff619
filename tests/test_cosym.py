import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st, target

from cosymkit import cosym, exprlang
from cosymkit.cosym import (
    CosymplecticStructure,
    DegenerateStructureError,
    FieldConditionError,
    Frame,
    StructureEvalError,
    StructureVectorField,
    ToleranceConfig,
    make_canonical,
    make_poincare_cartan,
    twist,
    _factor,
    _reeb_rows_ok,
)
from cosymkit.exprlang import Const, EvalDomainError
from cosymkit.fields import (
    ChartSpec,
    OneFormField,
    ScalarField,
    TwoFormField,
    fd_jacobian,
    lie_bracket,
    sample_box,
    scalar_fd_gradient,
)
from cosymkit.scenarios import builtin, builtin_names
from linear_charts import canonical_in_linear_chart, chart_change

CHART = ChartSpec(("t", "q", "p"), (True, False, False))
BOX = [[0.0, 2 * math.pi], [-2.0, 2.0], [-2.0, 2.0]]


def oscillator_h(chart=CHART):
    return ScalarField.from_source("(q^2 + p^2)/2", chart, name="H")


def canonical():
    return make_canonical(1, box=BOX)


def test_validate_canonical():
    report = canonical().validate(samples=50)
    assert report.passed
    assert report.max_d_omega == 0.0
    assert report.max_d_eta == 0.0
    assert report.min_abs_det > 0.5


def test_validate_poincare_cartan():
    S = make_poincare_cartan(oscillator_h(), box=BOX)
    report = S.validate(samples=50)
    assert report.passed


def test_validate_rejects_non_closed_eta():
    omega = TwoFormField.from_upper_sources({"q,p": "1"}, CHART)
    eta = OneFormField.from_sources(["q", "0", "0"], CHART)  # q dt, d(eta) != 0
    S = CosymplecticStructure(CHART, omega, eta, BOX)
    report = S.validate(samples=50)
    assert not report.passed
    assert report.max_d_eta == pytest.approx(1.0)


def _floor_verdicts(S, floor, x):
    """(validate passed, a frame at ``x`` built) with ``volume_min_det``
    set to ``floor``."""
    S = replace(S, tol=replace(S.tol, volume_min_det=floor))
    try:
        S.frame(x[None])
    except DegenerateStructureError:
        built = False
    else:
        built = True
    return S.validate(seed=3).passed, built


def test_validate_and_frames_refuse_the_same_points_at_the_floor():
    # |det A| >= volume_min_det passes in validate as in every solve, on the
    # determinant of the one factorization of A^T a frame solves with
    x = np.array([0.3, 0.5, -1.0])
    for k in (1, 7, 16):
        s = 2.0**-k  # omega = s dq^dp, eta = dt: det A = s^2 exactly
        omega = TwoFormField.from_upper_sources({"q,p": repr(s)}, CHART)
        eta = OneFormField.from_sources(["1", "0", "0"], CHART)
        S = CosymplecticStructure(CHART, omega, eta, BOX)
        assert S.validate(seed=3).min_abs_det == s * s == np.ravel(S.frame(x[None]).det)[0]
        assert _floor_verdicts(S, s * s, x) == (True, True)
        assert _floor_verdicts(S, np.nextafter(s * s, math.inf), x) == (False, False)
    S = builtin("pc-oscillator-1d").structure
    report = S.validate(seed=3)
    worst = report.worst_point
    assert abs(S.frame(worst[None]).det[0]) == report.min_abs_det
    assert _floor_verdicts(S, report.min_abs_det, worst) == (True, True)
    assert _floor_verdicts(S, np.nextafter(report.min_abs_det, math.inf), worst) == (False, False)


def test_reeb_canonical():
    S = canonical()
    Z = S.reeb(np.array([0.3, 1.0, -0.5]))
    assert Z == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)


def test_reeb_twisted_equals_evaluation():
    S = canonical()
    H = oscillator_h()
    St = twist(S, H)
    Z = St.reeb(np.array([0.0, 1.0, 0.0]))
    assert Z == pytest.approx([1.0, 0.0, -1.0], abs=1e-12)
    rng = np.random.default_rng(2)
    for x in sample_box(BOX, 20, rng):
        diff = St.reeb(x) - S.evaluation_vf(H)(x)
        assert np.max(np.abs(diff)) < 1e-9


def test_reeb_pairing_is_one():
    S = make_poincare_cartan(oscillator_h(), box=BOX)
    rng = np.random.default_rng(3)
    frame = S.frame(sample_box(BOX, 10, rng))
    assert np.vecdot(frame.eta, frame.reeb) == pytest.approx(np.ones(10), abs=1e-12)


def test_hamiltonian_field_examples():
    S = canonical()
    q = ScalarField.from_source("q", CHART, "q")
    t = ScalarField.from_source("t", CHART, "t")
    H = oscillator_h()
    x = np.array([0.0, 1.0, 0.0])
    assert S.hamiltonian_field(q, x) == pytest.approx([0.0, 0.0, -1.0], abs=1e-14)
    # df = eta for f = t, so X_t vanishes
    assert S.hamiltonian_field(t, x) == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)
    assert S.hamiltonian_field(H, x) == pytest.approx([0.0, 0.0, -1.0], abs=1e-14)


def test_evaluation_field_examples():
    S = canonical()
    H = oscillator_h()
    x = np.array([0.0, 1.0, 0.0])
    assert S.evaluation_vf(H)(x) == pytest.approx([1.0, 0.0, -1.0], abs=1e-14)
    const = ScalarField(CHART, Const(3.0), "c")
    assert S.evaluation_vf(const)(x) == pytest.approx(S.reeb(x), abs=1e-14)


def test_gradient_field_examples():
    S = canonical()
    x = np.array([0.4, 0.7, -0.2])
    t = ScalarField.from_source("t", CHART, "t")
    q = ScalarField.from_source("q", CHART, "q")
    const = ScalarField(CHART, Const(5.0), "c")
    def grad(f):
        return StructureVectorField(S, "gradient", f)(x)

    assert grad(t) == pytest.approx(S.reeb(x), abs=1e-14)
    assert grad(const) == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)
    assert grad(q) == pytest.approx([0.0, 0.0, -1.0], abs=1e-14)


def test_poisson_bracket_examples():
    S = canonical()
    q = ScalarField.from_source("q", CHART, "q")
    p = ScalarField.from_source("p", CHART, "p")
    t = ScalarField.from_source("t", CHART, "t")
    f = ScalarField.from_source("q^2*p + cos(t)", CHART, "f")
    x = np.array([0.9, 0.4, 1.3])
    assert S.poisson_bracket(q, p, x) == pytest.approx(1.0, abs=1e-12)
    assert S.poisson_bracket(f, f, x) == pytest.approx(0.0, abs=1e-14)
    assert S.poisson_bracket(t, f, x) == pytest.approx(0.0, abs=1e-12)
    # one point is row 0 of a one-row frame's brackets, still a float
    assert isinstance(S.poisson_bracket(q, p, x), float)


def test_degenerate_structure_is_hard_error():
    # omega = q dq^dp degenerates on the plane q = 0
    omega = TwoFormField.from_upper_sources({"q,p": "q"}, CHART)
    eta = OneFormField.from_sources(["1", "0", "0"], CHART)
    S = CosymplecticStructure(CHART, omega, eta, BOX)
    H = oscillator_h()
    x = np.array([0.0, 0.0, 1.0])
    # the exact singularity is caught by the determinant floor before any
    # solve, so it never surfaces as numpy.linalg.LinAlgError
    for call in (
        lambda: S.reeb(x),
        lambda: S.hamiltonian_field(H, x),
        lambda: S.evaluation_vf(H)(x),
    ):
        with pytest.raises(DegenerateStructureError) as info:
            call()
        assert np.array_equal(info.value.point, x)


def test_non_finite_structure_is_eval_error():
    # 1e308*q*q overflows: inf at (0, 2, 0), inf - inf = nan at (0, 2, 2)
    omega = TwoFormField.from_upper_sources(
        {"q,p": "1 + 1e308*q*q - 1e308*p*p"}, CHART
    )
    eta = OneFormField.from_sources(["1", "0", "0"], CHART)
    S = CosymplecticStructure(CHART, omega, eta, BOX)
    H = oscillator_h()
    for x in (np.array([0.0, 2.0, 0.0]), np.array([0.0, 2.0, 2.0])):
        for call in (
            lambda: S.reeb(x),
            lambda: S.hamiltonian_field(H, x),
            lambda: S.evaluation_vf(H)(x),
        ):
            with pytest.raises(StructureEvalError) as info:
                call()
            assert np.array_equal(info.value.point, x)


def test_non_finite_gradient_is_eval_error():
    # d/dq of 1e308*q*q is 1e308*q + 1e308*q = inf at q = 1.2, where the
    # value is finite, so df(Z) is NaN; every "resid > tol" check would let
    # the NaN field through
    S = builtin("ext-oscillator-1d").structure
    H = ScalarField.from_source("1e308*q*q + p*p", S.chart, "H")
    x = np.array([0.0, 1.2, 0.3])
    assert not np.isfinite(H.gradient(x)).all()
    for call in (S.hamiltonian_field, lambda f, x: S.evaluation_vf(f)(x)):
        with pytest.raises(StructureEvalError) as info:
            call(H, x)
        assert np.array_equal(info.value.point, x)
        assert "is not finite" in str(info.value)


def test_varying_solve_path_matches_constant_path():
    # the canonical omega written so that it is not is_constant(): every
    # frame then solves A^T u = rhs instead of using the cached inverse
    omega = TwoFormField.from_upper_sources({"q,p": "1 + 0*q"}, CHART)
    eta = OneFormField.from_sources(["1", "0", "0"], CHART)
    S_var = CosymplecticStructure(CHART, omega, eta, BOX)
    S_const = make_canonical(1, box=BOX)
    assert S_var._constant_data is None
    assert S_const._constant_data is not None
    rng = np.random.default_rng(16)
    f = _random_polynomial_field(rng, CHART, "f")
    g = _random_polynomial_field(rng, CHART, "g")
    for x in sample_box(BOX, 30, rng):
        for derived in (
            lambda S: S.reeb(x),
            lambda S: S.hamiltonian_field(f, x),
            lambda S: S.evaluation_vf(f)(x),
            lambda S: StructureVectorField(S, "gradient", f)(x),
        ):
            assert np.max(np.abs(derived(S_var) - derived(S_const))) <= 1e-15
        bracket = [S.poisson_bracket(f, g, x) for S in (S_var, S_const)]
        assert abs(bracket[0] - bracket[1]) <= 1e-15
    # in a linear chart C has inexact entries and eta != dt, so C df and the
    # solve round differently: they agree to 1e-14 relative
    P = chart_change(5)
    S_var, S_const = (canonical_in_linear_chart(P, varying) for varying in (True, False))
    assert S_var._constant_data is None
    assert S_const._constant_data is not None
    f = _random_polynomial_field(rng, S_const.chart, "f")
    g = _random_polynomial_field(rng, S_const.chart, "g")
    for x in sample_box(S_const.domain_box, 30, rng):
        for derived in (
            lambda S: S.reeb(x),
            lambda S: S.hamiltonian_field(f, x),
            lambda S: S.evaluation_vf(f)(x),
            lambda S: StructureVectorField(S, "gradient", f)(x),
            lambda S: np.array([S.poisson_bracket(f, g, x)]),
        ):
            want = derived(S_var)
            assert np.max(np.abs(derived(S_const) - want)) <= 1e-14 * np.max(np.abs(want))


def test_frame_solve_backward_error_on_varying_structure():
    from cosymkit.scenarios import builtin

    S = builtin("pc-oscillator-1d").structure
    assert S._constant_data is None
    rng = np.random.default_rng(17)
    frame = S.frame(sample_box(S.domain_box, 30, rng))
    A_T = np.swapaxes(frame.Omega + frame.eta[:, :, None] * frame.eta[:, None, :], 1, 2)
    for rhs in (frame.eta, rng.normal(size=(30, 3))):
        for A_k, u, r in zip(A_T, frame.solve(rhs), rhs):
            bound = 1e-14 * np.linalg.norm(A_k, 2) * np.linalg.norm(u)
            assert np.linalg.norm(A_k @ u - r) <= bound


def _one_point_lu(d):
    """``lu(A, b) -> (det, u, pivots)``: the one-point factorization of
    ``A^T`` from its d*d entries (row-major) and, unless ``b`` is None, the
    solution of ``A^T u = b``, compiled from the lines the one-point fields
    embed."""
    factor, solve = cosym._lu_code(d)
    entries = ", ".join(f"a{i}_{j}" for i in range(d) for j in range(d))
    b, u = ([f"{c}{i}" for i in range(d)] for c in "bu")
    pivots = f"[{''.join(f'p{k}, ' for k in range(d - 1))}]"
    body = [f"({entries},) = A", *factor, "if b is None:", f"    return det, None, {pivots}"]
    body += [f"({', '.join(b)},) = b", *solve(b, u), f"return det, [{', '.join(u)}], {pivots}"]
    env = {}
    exec("def lu(A, b):\n" + "".join(f"    {line}\n" for line in body), env)
    return env["lu"]


def test_lu_one_point_and_stacked_forms_agree():
    # the one-point fields and Frame factor A^T with code from one generator:
    # both forms give the same bits, and the solutions are backward stable.
    # With Omega = -A and eta = 0, _factor forms A^T = 0 - (-A) = A.
    rng = np.random.default_rng(20)
    for d in (2, 3, 5, 7):
        lu = _one_point_lu(d)
        factor, solve = cosym._lu(d)
        A = rng.normal(size=(2000, d, d))
        A = A[np.linalg.cond(A) <= 1e4][:800]
        assert len(A) == 800
        B = rng.normal(size=(800, d))
        det, F = factor(A)
        U = solve(F, B[:, :, None])[:, :, 0]
        assert np.array_equal(U, solve(F, np.stack([B, -B], axis=2))[:, :, 0])
        for A_k, b, det_k, u in zip(A, B, det, U):
            one = lu(A_k.ravel().tolist(), b.tolist())
            assert one[0] == det_k and one[1] == u.tolist()
            bound = 1e-14 * np.linalg.norm(A_k, 2) * np.linalg.norm(u)
            assert np.linalg.norm(A_k @ u - b) <= bound
        assert _factor(np.zeros((1, d)), -A[:1], np.zeros((1, d)))[0][0] == det[0]
        assert set(np.sign(det).tolist()) == {-1.0, 1.0}, d
        # ties go to the first candidate row, as LAPACK's idamax picks it
        T = rng.normal(size=(2, d, d))
        T[0, :, 0] = [(-1.0) ** i for i in range(d)]
        T[1, :, 0] = [0.5] + [2.0 * (-1.0) ** i for i in range(1, d)]
        assert factor(T)[1][d * d][:, 0].tolist() == [0, 1]
        assert [lu(A_k.ravel().tolist(), None)[2][0] for A_k in T] == [0, 1]


def test_lu_zero_pivot_gives_a_zero_determinant_without_warnings():
    # a zero column leaves its pivot zero: getrf skips the scaling, det is 0,
    # and the volume floor refuses the point before any substitution divides
    rng = np.random.default_rng(21)
    for d in (2, 3, 5, 7):
        A = rng.normal(size=(3, d, d))
        for k, A_k in enumerate(A):
            A_k[:, k % d] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cosym._lu(d)[0](A)[0].tolist() == [0.0] * 3
        lu = _one_point_lu(d)
        assert [lu(A_k.ravel().tolist(), None)[0] for A_k in A] == [0.0] * 3
    # omega = q dq^dp with eta = dt: A^T has zero columns on the plane q = 0
    omega = TwoFormField.from_upper_sources({"q,p": "q"}, CHART)
    S = CosymplecticStructure(CHART, omega, OneFormField.from_sources(["1", "0", "0"], CHART), BOX)
    f = oscillator_h()
    x = np.array([0.3, 0.0, 1.0])
    assert Frame(S, np.array([[0.3, 0.5, 1.0]])).det[0] != 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for vf in _fields(S, [f]):
            got, want = _generated_and_frame(vf, x)
            _assert_same(got, want)
            assert want == (
                DegenerateStructureError,
                f"structure degenerate at {x.tolist()}: |det A| = 0.000e+00",
            )


@pytest.mark.parametrize("name", ["pc-oscillator-1d", "pc-oscillator-2d-super"])
def test_one_point_frames_skip_the_numpy_linalg_wrappers(name, monkeypatch):
    scenario = builtin(name)
    S, x = scenario.structure, scenario.base_point()
    assert S._constant_data is None
    Y = S.evaluation_vf(scenario.system.hamiltonian)
    want = Y(x), S.reeb(x)

    def refuse(*args, **kwargs):
        raise AssertionError("a one-point frame called a numpy.linalg wrapper")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    assert np.array_equal(Y(x), want[0])
    assert np.array_equal(S.reeb(x), want[1])


@pytest.mark.parametrize("name", ["pc-oscillator-1d", "pc-oscillator-2d-super"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_one_point_residual_checks_reject_non_finite_entries(name, bad):
    # one non-finite entry of Omega at (i, j) makes entry j of i_V omega
    # non-finite when V_i != 0, and only that entry; the check must fail
    # whichever entry it is (a plain max() over a list skips a NaN that
    # follows the first entry), in _reeb_rows_ok and in a one-row frame
    scenario = builtin(name)
    S, x = scenario.structure, scenario.base_point()
    names = S.chart.names
    f = ScalarField.from_source(f"{names[1]} + 2*{names[-1]}", S.chart, "f")
    tol = S.tol.reeb_check
    frame = S.frame(x[None])
    Z, Omega, eta = frame.reeb[0], frame.Omega[0], frame.eta[0]
    df = frame.differential(f)
    X = frame.hamiltonian(df)[0]
    i_Z, i_X = int(np.argmax(np.abs(Z))), int(np.argmax(np.abs(X)))
    assert _reeb_rows_ok(Z[None], Omega, eta[None], tol)[0]
    for j in range(len(x)):
        W = Omega.copy()
        W[i_Z, j] = bad
        assert _only_entry_not_finite(Z @ W, j)
        assert not _reeb_rows_ok(Z[None], W, eta[None], tol)[0], j
        fresh = S.frame(x[None])
        fresh.Omega = W[None]
        with pytest.raises(FieldConditionError, match="Reeb conditions violated"):
            fresh.reeb
        W = Omega.copy()
        W[i_X, j] = bad
        assert _only_entry_not_finite(X @ W, j)
        frame.Omega = W[None]
        # a copy: the frame keeps the X_f it solved from its own differential
        with pytest.raises(FieldConditionError, match=re.escape("i_X omega != df - Z(f) eta")):
            frame.hamiltonian(df.copy())


def _only_entry_not_finite(v, j) -> bool:
    return [k for k, c in enumerate(v.tolist()) if not math.isfinite(c)] == [j]


# --- generated one-point fields against Frame ----------------------------------
#
# A one-point call of a reeb, hamiltonian or evaluation field runs a function
# built for its structure; a Frame's row is the reference.  Both must return
# the same bits, or raise the same error at a one-row frame.


def _outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as err:  # every error is compared, whatever its type
        return type(err), str(err)


def _generated_and_frame(vf, x):
    """The outcomes of ``vf`` at ``x`` through its generated function and
    through a one-row Frame."""
    assert vf._at_point is not None
    return _outcome(lambda: vf(x)), _outcome(lambda: vf.on(vf.structure.frame([x]))[0])


def _generated_and_frame_rows(vf, points):
    """``vf`` at each of ``points`` through its generated function, with the
    row of one Frame over ``points``."""
    assert vf._at_point is not None
    return zip((vf(x) for x in points), vf.on(vf.structure.frame(points)))


def _assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and np.array_equal(got, want), (got, want)
    else:
        assert got == want


def _fields(S, scalars, kinds=("reeb", "hamiltonian", "evaluation")):
    return [
        StructureVectorField(S, kind, f)
        for kind in kinds
        for f in ([None] if kind == "reeb" else scalars)
    ]


@pytest.mark.parametrize("name", ["pc-oscillator-1d", "pc-oscillator-2d-super"])
def test_generated_one_point_fields_match_frame(name):
    scenario = builtin(name)
    S, system = scenario.structure, scenario.system
    rng = np.random.default_rng(23)
    points = sample_box(S.domain_box, 2000, rng)
    for vf in _fields(S, [system.hamiltonian, *system.integrals]):
        for got, want in _generated_and_frame_rows(vf, points):
            _assert_same(got, want)


@pytest.mark.parametrize("name", builtin_names())
def test_one_point_functions_on_floats_equal_frame_rows(name):
    # the function a flow stage calls maps d floats to d floats with a frame
    # row's bits, for a bracket scalar (whose gradient it asks for) too
    scenario = builtin(name)
    S, names = scenario.structure, scenario.chart.names
    f, H = scenario.system.integrals[0], scenario.system.hamiltonian
    g = ScalarField.from_source(
        " + ".join(f"0.3*{a}*{b}" for a, b in zip(names, names[1:])), S.chart, "g"
    )
    points = sample_box(S.domain_box, 20, np.random.default_rng(29))
    for vf in _fields(S, [H, S.bracket_scalar(f, g)]):
        for x, want in zip(points, vf.on(S.frame(points))):
            got = vf._at_point(tuple(x.tolist()))
            assert type(got) is tuple and {type(v) for v in got} == {float}, vf.label
            assert np.array_equal(np.array(got), want), (vf.label, x)


@pytest.mark.parametrize("name", ["pc-oscillator-1d", "ext-oscillator-1d"])
def test_one_point_fields_near_frame_rows_where_exp_log_or_power_run(name):
    # the one-point code calls math.exp and math.pow where a Frame's array
    # code calls np.exp and np.power, which can differ in the last place, so
    # these scalars get a frame row's values only to rounding: the rows
    # differ at about 1 in 25 points for exp(q/3), and the largest
    # max|delta| / max|X| measured over four seeds of 4,000 points was 6.9e-16
    S = builtin(name).structure
    points = sample_box(S.domain_box, 4000, np.random.default_rng(23))
    frame = S.frame(points)
    for source in ("exp(q/3)*(q*q+p*p)/2", "(q*q+p*p+1)^1.5"):
        f = ScalarField.from_source(source, S.chart, "f")
        for vf in _fields(S, [f], kinds=("hamiltonian", "evaluation")):
            want = vf.on(frame)
            got = np.array([vf(x) for x in points])
            assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want)), vf.label


_CONSTANT = [
    "ext-oscillator-1d", "ext-oscillator-2d-super", "ext-oscillator-anisotropic", "flat-torus-reeb",
]


@pytest.mark.parametrize("name", _CONSTANT)
def test_constant_one_point_fields_match_frame(name):
    # on a constant structure the one-point functions run _Constant.field;
    # the values are also the products numpy's @ forms
    scenario = builtin(name)
    S, system = scenario.structure, scenario.system
    const = S._constant_data
    points = sample_box(S.domain_box, 2000, np.random.default_rng(23))
    for vf in _fields(S, [system.hamiltonian, *system.integrals]):
        for x, (got, want) in zip(points, _generated_and_frame_rows(vf, points)):
            _assert_same(got, want)
            if vf.kind == "reeb":
                assert np.array_equal(got, const.Z)
            else:
                X = const.C @ vf.scalar.gradient(x)
                assert np.array_equal(got, X if vf.kind == "hamiltonian" else const.Z + X)


@pytest.mark.parametrize("name", _CONSTANT)
def test_constant_one_point_fields_raise_frame_errors(name):
    scenario = builtin(name)
    S, x = scenario.structure, scenario.base_point().copy()
    H = scenario.system.hamiltonian
    a, b = [n for i, n in enumerate(S.chart.names) if S._constant_data.Z[i] == 0.0][:2]
    l0, l1, l2 = S._constant_data.limits
    assert l2 < l0 < l1
    points = sample_box(S.domain_box, 50, np.random.default_rng(26))

    def scaled(size):
        return ScalarField.from_source(f"{size!r}*{a}", S.chart, "scaled")

    def check(S, f, kinds, message, at=points):
        for vf in _fields(S, [f], kinds):
            for p in at:
                got, want = _generated_and_frame(vf, p)
                _assert_same(got, want)
                assert isinstance(want, tuple), (vf.kind, p)
                assert want[1].startswith(message), want

    kinds = ("reeb", "hamiltonian", "evaluation")
    floor = 2.0 * abs(S._constant_data.det)
    check(_with_tol(S, volume_min_det=floor), H, kinds, "structure degenerate at")
    check(_with_tol(S, reeb_check=-1.0), H, kinds, "Reeb conditions violated")
    check(_with_tol(S, field_check=-1.0), H, kinds[1:], "i_X omega != df - Z(f) eta")
    check(S, scaled(2 * l0), kinds[1:], "eta(X_f) != 0")
    # between the Y_f and X_f limits only the evaluation field fails
    between = scaled((l0 + l2) / 2)
    check(S, between, ("evaluation",), "eta(Y_f) != 1")
    for vf in _fields(S, [between], ("hamiltonian",)):
        got, want = _generated_and_frame(vf, x)
        assert isinstance(want, np.ndarray)
        _assert_same(got, want)
    # an infinite entry of df meets Z's zero there: df(Z) is NaN
    huge = ScalarField.from_source(f"1e308*{a}*{a} + {b}*{b}", S.chart, "huge")
    x[S.chart.index(a)] = 1.2
    assert not np.isfinite(huge.gradient(x)).all()
    check(S, huge, kinds[1:], "evaluation failed at", at=[x])
    assert _outcome(lambda: S.hamiltonian_field(huge, x))[1].endswith(
        "df(Z) = nan is not finite"
    )


def _with_tol(S, **overrides):
    return replace(S, tol=replace(S.tol, **overrides))


def _float_dot(u, v) -> float:
    """``u . v`` summed left to right on floats, as the generated code sums
    it (``sum`` may compensate)."""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def _residual_ranges(Z, Omega, eta, X):
    """The largest residual of the Reeb conditions, and the smallest and
    largest of ``|eta(X_f)|`` and ``|eta(Y_f) - 1|``, each over numpy's sums
    and the generated code's, at one point."""
    Y = Z + X
    e, z, u, y = (v.tolist() for v in (eta, Z, X, Y))
    reeb = max(
        float(np.abs(Z @ Omega).max()),
        max(abs(_float_dot(z, column)) for column in Omega.T.tolist()),
        abs(float(eta @ Z) - 1.0),
        abs(_float_dot(e, z) - 1.0),
    )
    x_eta = (abs(float(eta @ X)), abs(_float_dot(e, u)))
    y_eta = (abs(float(eta @ Y) - 1.0), abs(_float_dot(e, y) - 1.0))
    return reeb, (min(x_eta), max(x_eta)), (min(y_eta), max(y_eta))


@pytest.mark.parametrize("name", ["pc-oscillator-1d", "pc-oscillator-2d-super"])
def test_generated_one_point_fields_raise_frame_condition_errors(name):
    scenario = builtin(name)
    S, x = scenario.structure, scenario.base_point()
    H = scenario.system.integrals[0]
    messages = set()

    def check(S, kinds, points):
        for vf in _fields(S, [H], kinds):
            for p in points:
                got, want = _generated_and_frame(vf, p)
                _assert_same(got, want)
                if isinstance(want, tuple):
                    assert want[0] is FieldConditionError
                    messages.add(want[1].split(" at [")[0])

    # a negative tolerance fails every check that reads it
    check(_with_tol(S, reeb_check=-1.0), ("reeb", "hamiltonian", "evaluation"), [x])
    check(_with_tol(S, field_check=-1.0), ("hamiltonian", "evaluation"), [x])
    assert messages == {"Reeb conditions violated", "i_X omega != df - Z(f) eta"}
    # eta(X_f) = 0 fails first where reeb_check lies above the Reeb residuals
    # and below |eta(X_f)|, and eta(Y_f) = 1 fails alone where it lies above
    # both and below |eta(Y_f) - 1|, in numpy's sums and in floats
    points = sample_box(S.domain_box, 400, np.random.default_rng(25))
    frame = S.frame(points)
    rows = zip(frame.reeb, frame.Omega, frame.eta, frame.hamiltonian(frame.differential(H)))
    for p, row in zip(points, rows):
        reeb, x_eta, y_eta = _residual_ranges(*row)
        if x_eta[0] > 1.25 * reeb:
            check(_with_tol(S, reeb_check=(reeb + x_eta[0]) / 2), ("hamiltonian",), [p])
        passing = max(reeb, x_eta[1])
        if y_eta[0] > 1.25 * passing:
            check(_with_tol(S, reeb_check=(passing + y_eta[0]) / 2), ("evaluation",), [p])
    assert messages == {
        "Reeb conditions violated",
        "eta(X_f) != 0",
        "i_X omega != df - Z(f) eta",
        "eta(Y_f) != 1",
    }


@pytest.mark.parametrize("seed", [24, 2, 15])
def test_rounding_decided_residual_checks_decide_alike(seed):
    # with f = 1e12*(q + 2p) the i_X omega residual is rounding of about
    # 1e-4 against field_check 1e-8, so the sum's order decides it.  Frame
    # sums the residuals as the one-point code does, left to right with every
    # term written, so both paths give one verdict.  These seeds hold points
    # where numpy's vecmat order decides otherwise than the left-to-right sum:
    # point 32 of seed 24, 0 and 12 of seed 2, 18 and 26 of seed 15
    S = builtin("pc-oscillator-1d").structure
    f = ScalarField.from_source("1e12*(q + 2*p)", S.chart, "f")
    points = sample_box(S.domain_box, 50, np.random.default_rng(seed))
    verdicts = set()
    for vf in _fields(S, [f], ("hamiltonian", "evaluation")):
        for x in points:
            got, want = _generated_and_frame(vf, x)
            _assert_same(got, want)
            verdicts.add(isinstance(want, tuple) and want[1].split(" at [")[0])
    assert "i_X omega != df - Z(f) eta" in verdicts


@pytest.mark.parametrize("name", ["pc-oscillator-1d", "pc-oscillator-2d-super"])
def test_generated_one_point_fields_read_the_scalar_before_the_reeb_check(name):
    scenario = builtin(name)
    S = _with_tol(scenario.structure, reeb_check=-1.0)
    q, p = S.chart.names[1], S.chart.names[-1]
    x = scenario.base_point().copy()
    # the scalar's own error comes first, unwrapped, though Z fails its check
    root = ScalarField.from_source(f"sqrt({q})", S.chart, "root")
    x[1] = -0.5
    for vf in _fields(S, [root], ("hamiltonian", "evaluation")):
        got, want = _generated_and_frame(vf, x)
        _assert_same(got, want)
        assert want[0] is EvalDomainError
    # a non-finite differential fails df(Z) once Z passes
    S = scenario.structure
    huge = ScalarField.from_source(f"1e308*{q}*{q} + {p}*{p}", S.chart, "huge")
    x[1] = 1.2
    assert not np.isfinite(huge.gradient(x)).all()
    for vf in _fields(S, [huge], ("hamiltonian", "evaluation")):
        got, want = _generated_and_frame(vf, x)
        _assert_same(got, want)
        assert want[0] is StructureEvalError
        assert "df(Z) = " in want[1] and "is not finite" in want[1]


def _counting(monkeypatch) -> list:
    """The (structure, kind) pairs that ``cosym._point_function`` is called
    for from now on."""
    made = []
    build = cosym._point_function

    def counting(S, kind, scalar):
        made.append((S, kind))
        return build(S, kind, scalar)

    monkeypatch.setattr(cosym, "_point_function", counting)
    return made


def _kinds_for(made, S) -> list:
    return sorted(kind for T, kind in made if T is S)


def _call_every_field(S, x, scalars):
    for _ in range(3):
        for f in scalars:
            S.reeb(x), S.hamiltonian_field(f, x), S.evaluation_vf(f)(x)
            StructureVectorField(S, "gradient", f)(x)
            S.evaluation_vf(f)(x)


def test_one_point_functions_are_generated_once_per_structure_and_kind(monkeypatch):
    # both structure kinds generate one function per kind and scalar (one
    # reeb function, which reads no scalar) and none for gradient: a varying
    # structure from omega's, eta's and the scalar's expressions, a constant
    # one over _constant_data
    made = _counting(monkeypatch)
    per_scalar = ["evaluation"] * 2 + ["hamiltonian"] * 2 + ["reeb"]
    scenario = builtin("pc-oscillator-2d-super")
    S, x = replace(scenario.structure), scenario.base_point()
    H, L = scenario.system.integrals[:2]
    _call_every_field(S, x, (H, L))
    assert StructureVectorField(S, "reeb", H)._at_point is S._one_point("reeb", None)
    varying = S
    assert _kinds_for(made, varying) == per_scalar
    assert StructureVectorField(S, "gradient", H)._at_point is None
    scenario = builtin("ext-oscillator-2d-super")
    S, x = replace(scenario.structure), scenario.base_point()
    assert S._constant_data is not None
    H, L = scenario.system.integrals[:2]
    _call_every_field(S, x, (H, L))
    assert _kinds_for(made, S) == per_scalar
    assert StructureVectorField(S, "gradient", H)._at_point is None
    for vf in _fields(S, [H]):
        assert vf._at_point is not None
        assert np.array_equal(vf(x), vf.on(S.frame([x]))[0])
    assert _kinds_for(made, varying) == per_scalar
    assert _kinds_for(made, S) == per_scalar


@pytest.mark.parametrize("name", ["pc-oscillator-1d", "pc-oscillator-2d-super"])
def test_varying_one_point_functions_call_no_numpy(name):
    # for an expression scalar a flow stage runs on floats alone: no global
    # name the generated code reads is a numpy callable
    scenario = builtin(name)
    S, H = replace(scenario.structure), scenario.system.hamiltonian
    q, p = S.chart.names[1], S.chart.names[-1]
    g = ScalarField.from_source(f"exp({q}/3)*({q}*{q}+{p}*{p})/2 + sqrt(2 + cos(t))", S.chart)
    for vf in _fields(S, [H, g]):
        field = vf._at_point
        read = {n: field.__globals__[n] for n in field.__code__.co_names if n in field.__globals__}
        numpy = [n for n, v in read.items() if callable(v) and _from_numpy(v)]
        assert not numpy, (vf.label, numpy)
        assert "scalar" not in read, vf.label
    # a bracket scalar has no expression: its gradient is asked for
    bracket = S.bracket_scalar(H, g)
    assert "scalar" in StructureVectorField(S, "hamiltonian", bracket)._at_point.__code__.co_names


def _from_numpy(v) -> bool:
    return isinstance(v, np.ufunc) or (getattr(v, "__module__", None) or "").startswith("numpy")


def test_make_poincare_cartan_primitive():
    S = make_poincare_cartan(oscillator_h(), box=BOX)
    rng = np.random.default_rng(4)
    pts = sample_box(BOX, 50, rng)
    assert S.check_primitive(pts) < 1e-9


def test_make_poincare_cartan_keeps_periodic_mask():
    # pendulum on (t, q, p) with an angle q: the canonical chart has q on the line
    chart = ChartSpec(("t", "q", "p"), (True, True, False))
    H = ScalarField.from_source("p^2/2 - cos(q)", chart, name="H")
    assert make_poincare_cartan(H).chart == H.chart


def test_twist_matches_poincare_cartan_componentwise():
    H = oscillator_h()
    St = twist(canonical(), H)
    Spc = make_poincare_cartan(H, box=BOX)
    rng = np.random.default_rng(5)
    for x in sample_box(BOX, 20, rng):
        assert np.max(np.abs(St.omega.at(x) - Spc.omega.at(x))) < 1e-14
        assert np.max(np.abs(St.eta.at(x) - Spc.eta.at(x))) < 1e-14


def test_twist_by_zero_is_identity():
    S = canonical()
    St = twist(S, ScalarField(CHART, Const(0.0), "zero"))
    rng = np.random.default_rng(6)
    for x in sample_box(BOX, 10, rng):
        assert np.array_equal(St.omega.at(x), S.omega.at(x))
        assert np.array_equal(St.eta.at(x), S.eta.at(x))


def _random_polynomial_field(rng, chart, name):
    c = rng.uniform(-1, 1, size=7)
    src = (
        f"{c[0]} + {c[1]}*q + {c[2]}*p + {c[3]}*q*p"
        f" + {c[4]}*q^2 + {c[5]}*p^2 + {c[6]}*t"
    )
    return ScalarField.from_source(src, chart, name)


def test_twist_preserves_poisson_bracket():
    S = canonical()
    H = oscillator_h()
    St = twist(S, H)
    rng = np.random.default_rng(7)
    for k in range(10):
        f = _random_polynomial_field(rng, CHART, f"f{k}")
        g = _random_polynomial_field(rng, CHART, f"g{k}")
        for x in sample_box(BOX, 20, rng):
            b0 = S.poisson_bracket(f, g, x)
            b1 = St.poisson_bracket(f, g, x)
            assert abs(b0 - b1) < 1e-8


def test_identity_contraction_of_hamiltonian_and_gradient_agree():
    # i_{X_f} omega == i_{grad f} omega
    S = make_poincare_cartan(oscillator_h(), box=BOX)
    rng = np.random.default_rng(8)
    f = _random_polynomial_field(rng, CHART, "f")
    pts = sample_box(BOX, 30, rng)
    frame = S.frame(pts)
    df = f.gradient_stack(pts)
    lhs = np.vecmat(frame.hamiltonian(df), frame.Omega)
    rhs = np.vecmat(frame.gradient(df), frame.Omega)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_identity_bracket_field_is_minus_commutator():
    # X_{{f,g}} == -[X_f, X_g], exact commutator
    S = canonical()
    rng = np.random.default_rng(9)
    f = _random_polynomial_field(rng, CHART, "f")
    g = _random_polynomial_field(rng, CHART, "g")
    fg = S.bracket_scalar(f, g)
    Xf, Xg = S.hamiltonian_vf(f), S.hamiltonian_vf(g)
    for x in sample_box(BOX, 20, rng):
        lhs = S.hamiltonian_field(fg, x)
        rhs = -lie_bracket(Xf, Xg, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_identity_bracket_field_numeric_fallback():
    # same identity on the twisted structure, whose omega varies: the
    # bracket's gradient comes from the implicit derivatives of X_f and X_g
    S = twist(canonical(), oscillator_h())
    assert S._constant_data is None
    rng = np.random.default_rng(10)
    f = _random_polynomial_field(rng, CHART, "f")
    g = _random_polynomial_field(rng, CHART, "g")
    fg = S.bracket_scalar(f, g)
    Xf, Xg = S.hamiltonian_vf(f), S.hamiltonian_vf(g)
    pts = sample_box(BOX, 5, rng)
    for x, lhs in zip(pts, S.frame(pts).hamiltonian(fg.gradient_stack(pts))):
        rhs = -lie_bracket(Xf, Xg, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def reeb_derivative_gradient(S, f, X):
    """d(Z(f)) = Hess f Z + J(Z)^T df at the rows of ``X``."""
    Z, JZ = S.reeb(X), S.reeb_vf().jacobian(X)
    hess_z = (Z[:, None, :] @ f.hessian_stack(X))[:, 0]
    return hess_z + (f.gradient_stack(X)[:, None, :] @ JZ)[:, 0]


def test_identity_reeb_commutator():
    # [Z, X_f] == X_{Z(f)}
    S = canonical()
    rng = np.random.default_rng(11)
    f = _random_polynomial_field(rng, CHART, "f")
    Z, Xf = S.reeb_vf(), S.hamiltonian_vf(f)
    pts = sample_box(BOX, 10, rng)
    for x, rhs in zip(pts, S.frame(pts).hamiltonian(reeb_derivative_gradient(S, f, pts))):
        lhs = lie_bracket(Z, Xf, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_reeb_commutator_vanishes_for_autonomous_h():
    S = canonical()
    H = oscillator_h()
    Z, XH = S.reeb_vf(), S.hamiltonian_vf(H)
    for x in sample_box(BOX, 10, np.random.default_rng(12)):
        assert np.max(np.abs(lie_bracket(Z, XH, x))) < 1e-7


def test_jacobi_identity():
    S = make_poincare_cartan(oscillator_h(), box=BOX)
    rng = np.random.default_rng(13)
    f = _random_polynomial_field(rng, CHART, "f")
    g = _random_polynomial_field(rng, CHART, "g")
    h = _random_polynomial_field(rng, CHART, "h")
    fg = S.bracket_scalar(f, g)
    gh = S.bracket_scalar(g, h)
    hf = S.bracket_scalar(h, f)
    pts = sample_box(BOX, 10, rng)
    frame = S.frame(pts)
    df, dg, dh = (u.gradient_stack(pts) for u in (f, g, h))
    total = (
        frame.bracket(fg.gradient_stack(pts), dh)
        + frame.bracket(gh.gradient_stack(pts), df)
        + frame.bracket(hf.gradient_stack(pts), dg)
    )
    assert np.max(np.abs(total)) < 1e-7


def test_leibniz_rule():
    from cosymkit.exprlang import Mul

    S = canonical()
    rng = np.random.default_rng(14)
    f = _random_polynomial_field(rng, CHART, "f")
    g = _random_polynomial_field(rng, CHART, "g")
    h = _random_polynomial_field(rng, CHART, "h")
    gh = ScalarField(CHART, Mul(g.expr, h.expr), "gh")
    for x in sample_box(BOX, 20, rng):
        lhs = S.poisson_bracket(f, gh, x)
        rhs = g.value(x) * S.poisson_bracket(f, h, x) + h.value(x) * S.poisson_bracket(
            f, g, x
        )
        assert abs(lhs - rhs) < 1e-8


def test_bracket_bilinearity():
    from cosymkit.exprlang import Add, Const, Mul

    S = canonical()
    rng = np.random.default_rng(21)
    f = _random_polynomial_field(rng, CHART, "f")
    g = _random_polynomial_field(rng, CHART, "g")
    h = _random_polynomial_field(rng, CHART, "h")
    a, b = 1.7, -0.4
    combo = ScalarField(
        CHART, Add(Mul(Const(a), f.expr), Mul(Const(b), g.expr)), "af+bg"
    )
    for x in sample_box(BOX, 20, rng):
        lhs = S.poisson_bracket(combo, h, x)
        rhs = a * S.poisson_bracket(f, h, x) + b * S.poisson_bracket(g, h, x)
        assert abs(lhs - rhs) < 1e-8


def test_reeb_uniqueness_bound():
    # a vector satisfying the defining conditions to eps is eps-close to Z
    S = make_poincare_cartan(oscillator_h(), box=BOX)
    rng = np.random.default_rng(15)
    eps = 1e-9
    frame = S.frame(sample_box(BOX, 10, rng))
    for Z, Omega, eta in zip(frame.reeb, frame.Omega, frame.eta):
        u = rng.normal(size=3)
        u = u - (eta @ u) * Z  # eta(u) = 0 so eta(v) stays 1
        v = Z + eps * u
        residual = np.linalg.norm(v @ Omega)
        A = Omega + np.outer(eta, eta)
        inv_norm = np.linalg.norm(np.linalg.inv(A), 2)
        assert np.linalg.norm(v - Z) <= inv_norm * residual * (1 + 1e-6)


def test_tolerance_overrides():
    tol = ToleranceConfig.from_dict({"closedness": 1e-6})
    assert tol.closedness == 1e-6
    assert tol.volume_min_det == 1e-10
    for name in ("nope", "action_independence", "angle_fit"):
        with pytest.raises(ValueError, match="unknown tolerance names"):
            ToleranceConfig.from_dict({name: 1.0})


def test_constant_structure_reeb_failure_raises_at_every_point():
    # a constant structure computes Z and the verdict of its Reeb conditions
    # once; a failing verdict still fails every point that asks for Z.  No
    # residual meets a negative tolerance.
    S = make_canonical(1, box=BOX, tol=ToleranceConfig.from_dict({"reeb_check": -1.0}))
    assert S._constant_data is not None
    for x in ([0.1, 0.2, 0.3], [1.0, -0.5, 2.0], [0.1, 0.2, 0.3]):
        with pytest.raises(FieldConditionError, match=re.escape(f"Reeb conditions violated at {x}")):
            S.frame([x]).reeb
    X = np.array([[0.4, 0.1, 0.0], [0.2, 0.3, 0.1]])
    for _ in range(2):
        with pytest.raises(FieldConditionError, match=re.escape(f"at {X[0].tolist()}")) as info:
            Frame(S, X).reeb
        assert info.value.row == 0
    # a passing structure shares its Z = d/dt read-only
    S = make_canonical(1, box=BOX)
    Z = S.frame([[0.3, 1.0, -0.2]]).reeb[0]
    assert np.array_equal(Z, [1.0, 0.0, 0.0])
    assert not Z.flags.writeable
    assert np.array_equal(Frame(S, X).reeb, np.stack([Z, Z]))


def test_constant_structure_data_errors_raise_at_each_call():
    # omega's constant overflows: the structure derives no data, its fields
    # are still built, and each one-point call raises what a frame raises
    S = CosymplecticStructure(
        CHART,
        TwoFormField.from_upper_sources({"q,p": "1e308*10"}, CHART),
        OneFormField.from_sources(["1", "0", "0"], CHART),
        BOX,
    )
    H = oscillator_h()
    want = _error_of(lambda: S.frame([[0.1, 0.2, 0.3]]))
    assert type(want) is EvalDomainError
    for vf in _fields(S, [H]):
        for _ in range(2):
            err = _error_of(lambda: vf([0.1, 0.2, 0.3]))
            assert (type(err), str(err)) == (type(want), str(want)), vf.label


def test_frame_takes_a_point_stack():
    S = canonical()
    for x in ([0.1, 0.2, 0.3], [[[0.1, 0.2, 0.3]]]):
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(x)}")):
            S.frame(x)
    assert S.frame([[0.1, 0.2, 0.3]]).reeb.shape == (1, 3)


def _residual_checks(S, df):
    """Reference: the residual checks at one point, with X the inverse of A^T
    applied to the right-hand side; (Reeb verdict, residuals of eta(X_f),
    i_X omega and eta(Y_f)).  The inverse M, Z and the Reeb verdict come from
    the LU factors of A^T, as the structure derives the M, Z and C that its
    limits are proved for."""
    x0 = np.zeros(S.chart.dim)
    W, e, tol = S.omega.at(x0), S.eta.at(x0), S.tol
    d = len(e)
    factor, solve = cosym._lu(d)
    F = factor((e[:, None] * e - W)[None])[1]
    M = solve(F, np.eye(d)[None])[0]
    Z = solve(F, e[None, :, None])[0, :, 0]
    reeb_ok = bool(_reeb_rows_ok(Z[None], W, e[None], tol.reeb_check)[0])
    rhs = df - (df @ Z) * e
    X = M @ rhs
    return reeb_ok, (abs(e @ X), np.abs(X @ W - rhs).max(), abs(e @ (Z + X) - 1.0))


_CONDITIONS = ("eta(X_f) != 0", "i_X omega != df - Z(f) eta", "eta(Y_f) != 1")


@settings(max_examples=150, deadline=None)
@given(
    P=st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
    scales=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    exponents=st.lists(st.floats(-6.0, 12.0), min_size=3, max_size=3),
    negative=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_field_limits_raise_wherever_residual_checks_do(P, scales, exponents, negative):
    # a constant structure whose C has inexact entries (rows of the chart
    # change scaled by 10^scale, so A can be ill-conditioned), df log-uniform
    # over 1e-6..1e12 with random signs.  The limits on ||df||_inf bound the
    # residuals of the per-point checks, so they fail wherever those checks
    # fail; a tolerance just below a residual makes the bound meet it.  They
    # name the first condition whose limit fails: the checks' condition or,
    # where the bound of an earlier one is exceeded but its residual happened
    # to stay small, that earlier condition.
    P = np.reshape(P, (3, 3))
    with np.errstate(all="ignore"):  # LAPACK warns on a subnormal pivot
        assume(abs(np.linalg.det(P)) >= 0.1)
    P = P * 10.0 ** np.array(scales, dtype=float)[:, None]
    df = np.array([(-1.0 if neg else 1.0) * 10.0**k for k, neg in zip(exponents, negative)])
    x = np.array([0.5, 0.25, -1.0])
    size = np.abs(df).max()
    S = canonical_in_linear_chart(P)
    # the linear scalar whose differential is df at every point
    f = ScalarField(S.chart, exprlang.parse(
        " + ".join(f"{c!r}*{name}" for c, name in zip(df.tolist(), S.chart.names)), S.chart
    ))
    assert np.array_equal(f.gradient(x), df)
    assume(abs(S._constant_data.det) >= S.tol.volume_min_det)
    _, (r1, r2, r3) = _residual_checks(S, df)
    # steer the search toward residuals close to their bounds; B_c(s) is
    # about tol_c s / limit_c for the first two conditions
    limits = S._constant_data.limits
    target(max(r1 * limits[0] / S.tol.reeb_check, r2 * limits[1] / S.tol.field_check) / size)
    below = 1 - 2.0**-20
    for overrides in (
        {},
        {"field_check": -1.0},
        {"reeb_check": -1.0},
        {"reeb_check": r1 * below},
        {"field_check": r2 * below},
        {"reeb_check": r3 * below},
    ):
        S = canonical_in_linear_chart(P, tol=ToleranceConfig.from_dict(overrides))
        reeb_ok, residuals = _residual_checks(S, df)
        tols = (S.tol.reeb_check, S.tol.field_check, S.tol.reeb_check)
        for n in (2, 3):  # X_f, then Y_f
            failed = [
                what for what, limit in zip(_CONDITIONS[:n], S._constant_data.limits)
                if not size < limit
            ]
            want = next(
                (what for what, r, t in zip(_CONDITIONS[:n], residuals, tols) if not r <= t),
                None,
            )
            # the constant one-point function generated for f, then a frame row
            errors = []
            kind = "hamiltonian" if n == 2 else "evaluation"
            for run in (
                lambda: S._one_point(kind, f)(x.tolist()),
                lambda: getattr(Frame(S, x[None]), kind)(df[None]),
            ):
                try:
                    run()
                except FieldConditionError as err:
                    errors.append(str(err))
                else:
                    errors.append(None)
            assert errors[0] == errors[1]
            if not reeb_ok:
                assert errors[0] == f"Reeb conditions violated at {x.tolist()}"
                continue
            assert errors[0] == (f"{failed[0]} at {x.tolist()}" if failed else None)
            if want is not None:
                assert failed and _CONDITIONS.index(failed[0]) <= _CONDITIONS.index(want)
            if not overrides and not any(scales) and size <= 1.0:
                assert not failed


# --- exact Jacobians ------------------------------------------------------------


def _jacobian_case(name):
    """A structure and two scalars: a builtin's first integral and a quadratic
    in every coordinate; the canonical structure in a linear chart; a
    structure whose eta varies, ``dt + 0.1 d(q p)``; a twist by a
    t-dependent Hamiltonian."""
    if name in builtin_names():
        sc = builtin(name)
        names = sc.chart.names
        g = " + ".join(f"0.3*{a}*{b}" for a, b in zip(names, names[1:]))
        return sc.structure, sc.system.integrals[0], ScalarField.from_source(g, sc.chart, "g")
    f = ScalarField.from_source("q*p + 0.2*cos(t)*q^3", CHART, "f")
    g = ScalarField.from_source("(q^2 + p^2)/2*(1 + 0.3*sin(t))", CHART, "g")
    if name == "linear-chart":
        S = canonical_in_linear_chart(chart_change(11))
        f, g = (ScalarField(S.chart, e.expr, e.name) for e in (f, g))
    elif name == "varying-eta":
        S = CosymplecticStructure(
            CHART,
            TwoFormField.from_upper_sources({"q,p": "1"}, CHART),
            OneFormField.from_sources(["1", "0.1*p", "0.1*q"], CHART),
            BOX,
        )
        assert S.validate(50).passed
    else:
        S = twist(canonical(), g)
    return S, f, g


@pytest.mark.parametrize(
    "name", [*builtin_names(), "linear-chart", "varying-eta", "t-dependent-twist"]
)
def test_exact_jacobians_match_stencils(name):
    S, f, g = _jacobian_case(name)
    pts = sample_box(S.domain_box, 12, np.random.default_rng(17))
    for kind in ("reeb", "hamiltonian", "evaluation", "gradient"):
        V = StructureVectorField(S, kind, f)
        J = V.jacobian(pts)
        assert J.shape == (12, S.chart.dim, S.chart.dim)
        assert np.array_equal(J, np.array([V.jacobian(x) for x in pts])), kind
        assert np.max(np.abs(J - fd_jacobian(V, pts))) <= 1e-8, kind
    fg = S.bracket_scalar(f, g)
    grad = fg.gradient_stack(pts)
    assert np.array_equal(grad, np.array([fg.gradient(x) for x in pts]))
    reference = scalar_fd_gradient(lambda X: S.poisson_bracket(f, g, X), pts)
    assert np.max(np.abs(grad - reference)) <= 1e-8
    assert fg.value(pts[0]) == S.poisson_bracket(f, g, pts[0])
    const = S._constant_data
    if const is not None:
        # X_f = C df, so J(X_f) = C Hess f up to rounding
        CH = const.C @ f.hessian_stack(pts)
        assert np.max(np.abs(S.hamiltonian_vf(f).jacobian(pts) - CH)) <= 1e-12


def test_jacobian_failures_are_typed_at_their_row():
    S = canonical()
    pts = np.tile([0.5, 0.5, 0.5], (5, 1))
    # d/dq of 1e-190 log(q) is 1e5 at q = 1e-195, and its derivative is -inf
    f = ScalarField.from_source("1e-190*log(q)", CHART, "f")
    pts[2, 1] = pts[4, 1] = 1e-195
    with np.errstate(invalid="ignore"):  # the solve meets the inf on purpose
        err = _error_of(lambda: S.hamiltonian_vf(f).jacobian(pts))
        one = _error_of(lambda: S.hamiltonian_vf(f).jacobian(pts[2]))
    assert type(err) is StructureEvalError and err.row == 2
    assert str(err) == f"evaluation failed at {pts[2].tolist()}: J(X_f) is not finite"
    assert str(one) == str(err)
    # a second derivative outside its domain stays an expression error
    f = ScalarField.from_source("q^1.5 + p", CHART, "f")
    pts[2, 1] = 0.0
    err = _error_of(lambda: S.hamiltonian_vf(f).jacobian(pts))
    assert type(err) is EvalDomainError and err.row == 2
    # a structure whose omega has no gradient at a point fails there
    S = CosymplecticStructure(
        CHART,
        TwoFormField.from_upper_sources({"q,p": "1 + sqrt(q)"}, CHART),
        OneFormField.from_sources(["1", "0", "0"], CHART),
        BOX,
    )
    err = _error_of(lambda: S.reeb_vf().jacobian(pts))
    assert type(err) is StructureEvalError and err.row == 2
    assert isinstance(err.cause, EvalDomainError)
    assert np.array_equal(err.point, pts[2])


def _error_of(call):
    with pytest.raises(Exception) as info:
        call()
    return info.value
