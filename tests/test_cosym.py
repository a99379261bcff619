import math

import numpy as np
import pytest

from cosymkit.cosym import (
    CosymplecticStructure,
    DegenerateStructureError,
    StructureEvalError,
    ToleranceConfig,
    bracket_expr,
    make_canonical,
    make_poincare_cartan,
    twist,
)
from cosymkit.exprlang import Const
from cosymkit.fields import (
    ChartSpec,
    NumericScalarField,
    OneFormField,
    ScalarField,
    TwoFormField,
    lie_bracket,
    sample_box,
)
from cosymkit.scenarios import builtin

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
        diff = St.reeb(x) - S.evaluation_field(H, x)
        assert np.max(np.abs(diff)) < 1e-9


def test_reeb_pairing_is_one():
    S = make_poincare_cartan(oscillator_h(), box=BOX)
    rng = np.random.default_rng(3)
    for x in sample_box(BOX, 10, rng):
        frame = S.frame(x)
        assert frame.eta @ frame.reeb == pytest.approx(1.0, abs=1e-12)


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
    assert S.evaluation_field(H, x) == pytest.approx([1.0, 0.0, -1.0], abs=1e-14)
    const = ScalarField(CHART, Const(3.0), "c")
    assert S.evaluation_field(const, x) == pytest.approx(S.reeb(x), abs=1e-14)


def test_gradient_field_examples():
    S = canonical()
    x = np.array([0.4, 0.7, -0.2])
    t = ScalarField.from_source("t", CHART, "t")
    q = ScalarField.from_source("q", CHART, "q")
    const = ScalarField(CHART, Const(5.0), "c")
    assert S.gradient_field(t, x) == pytest.approx(S.reeb(x), abs=1e-14)
    assert S.gradient_field(const, x) == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)
    assert S.gradient_field(q, x) == pytest.approx([0.0, 0.0, -1.0], abs=1e-14)


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
        lambda: S.evaluation_field(H, x),
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
            lambda: S.evaluation_field(H, x),
        ):
            with pytest.raises(StructureEvalError) as info:
                call()
            assert np.array_equal(info.value.point, x)


def test_non_finite_gradient_is_eval_error():
    # d/dq of 1e308*q*q is 1e308*q + 1e308*q = inf at q = 1.5, so df(Z) is
    # NaN; every "resid > tol" check would let the NaN field through
    S = builtin("ext-oscillator-1d").structure
    H = ScalarField.from_source("1e308*q*q + p*p", S.chart, "H")
    x = np.array([0.0, 1.5, 0.3])
    assert not np.isfinite(H.gradient(x)).all()
    for call in (S.hamiltonian_field, S.evaluation_field):
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
            lambda S: S.evaluation_field(f, x),
            lambda S: S.gradient_field(f, x),
        ):
            assert np.max(np.abs(derived(S_var) - derived(S_const))) <= 1e-15
        bracket = [S.poisson_bracket(f, g, x) for S in (S_var, S_const)]
        assert abs(bracket[0] - bracket[1]) <= 1e-15


def test_frame_solve_backward_error_on_varying_structure():
    from cosymkit.scenarios import builtin

    S = builtin("pc-oscillator-1d").structure
    assert S._constant_data is None
    rng = np.random.default_rng(17)
    for x in sample_box(S.domain_box, 30, rng):
        frame = S.frame(x)
        A_T = frame.matrix.T
        for rhs in (frame.eta, rng.normal(size=3)):
            u = frame.solve(rhs)
            bound = 1e-14 * np.linalg.norm(A_T, 2) * np.linalg.norm(u)
            assert np.linalg.norm(A_T @ u - rhs) <= bound


def test_make_poincare_cartan_primitive():
    S = make_poincare_cartan(oscillator_h(), box=BOX)
    rng = np.random.default_rng(4)
    pts = sample_box(BOX, 50, rng)
    assert S.check_primitive(pts) < 1e-9


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
    for x in sample_box(BOX, 30, rng):
        frame = S.frame(x)
        df = f.gradient(x)
        lhs = frame.hamiltonian(df) @ frame.Omega
        rhs = frame.gradient(df) @ frame.Omega
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_identity_bracket_field_is_minus_commutator():
    # X_{{f,g}} == -[X_f, X_g], finite-difference commutator
    S = canonical()
    rng = np.random.default_rng(9)
    f = _random_polynomial_field(rng, CHART, "f")
    g = _random_polynomial_field(rng, CHART, "g")
    fg = ScalarField(CHART, bracket_expr(S, f, g), "{f,g}")
    Xf, Xg = S.hamiltonian_vf(f), S.hamiltonian_vf(g)
    for x in sample_box(BOX, 20, rng):
        lhs = S.hamiltonian_field(fg, x)
        rhs = -lie_bracket(Xf, Xg, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-5


def test_identity_bracket_field_numeric_fallback():
    # same identity on the twisted structure, bracket as a numeric field
    S = twist(canonical(), oscillator_h())
    assert bracket_expr(S, None, None) is None
    rng = np.random.default_rng(10)
    f = _random_polynomial_field(rng, CHART, "f")
    g = _random_polynomial_field(rng, CHART, "g")
    fg = S.bracket_scalar(f, g)
    Xf, Xg = S.hamiltonian_vf(f), S.hamiltonian_vf(g)
    for x in sample_box(BOX, 5, rng):
        lhs = S.frame(x).hamiltonian(fg.gradient(x))
        rhs = -lie_bracket(Xf, Xg, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-5


def test_identity_reeb_commutator():
    # [Z, X_f] == X_{Z(f)}
    S = canonical()
    rng = np.random.default_rng(11)
    f = _random_polynomial_field(rng, CHART, "f")
    Z, Xf = S.reeb_vf(), S.hamiltonian_vf(f)
    zf = NumericScalarField(lambda x: S.reeb_derivative(f, x), name="Z(f)")
    for x in sample_box(BOX, 10, rng):
        lhs = lie_bracket(Z, Xf, x)
        rhs = S.frame(x).hamiltonian(zf.gradient(x))
        assert np.max(np.abs(lhs - rhs)) < 1e-5


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
    for x in sample_box(BOX, 10, rng):
        total = (
            S.frame(x).bracket(fg.gradient(x), h.gradient(x))
            + S.frame(x).bracket(gh.gradient(x), f.gradient(x))
            + S.frame(x).bracket(hf.gradient(x), g.gradient(x))
        )
        assert abs(total) < 1e-7


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
    for x in sample_box(BOX, 10, rng):
        frame = S.frame(x)
        Z = frame.reeb
        u = rng.normal(size=3)
        u = u - (frame.eta @ u) * Z  # eta(u) = 0 so eta(v) stays 1
        v = Z + eps * u
        residual = np.linalg.norm(v @ frame.Omega)
        inv_norm = np.linalg.norm(np.linalg.inv(frame.matrix), 2)
        assert np.linalg.norm(v - Z) <= inv_norm * residual * (1 + 1e-6)


def test_tolerance_overrides():
    tol = ToleranceConfig.from_dict({"closedness": 1e-6})
    assert tol.closedness == 1e-6
    assert tol.volume_min_det == 1e-10
    for name in ("nope", "action_independence", "angle_fit"):
        with pytest.raises(ValueError, match="unknown tolerance names"):
            ToleranceConfig.from_dict({name: 1.0})
