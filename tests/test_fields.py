import math

import numpy as np
import pytest

from cosymkit.exprlang import Const, differentiate, parse
from cosymkit.fields import (
    ChartSpec,
    OneFormField,
    ScalarField,
    TwoFormField,
    fd_jacobian,
    lie_bracket,
    sample_box,
)

CHART = ChartSpec(("t", "q", "p"), (True, False, False))


def test_chart_validation():
    with pytest.raises(ValueError):
        ChartSpec(("t", "q"), (False, False))  # even dimension
    with pytest.raises(ValueError):
        ChartSpec(("t", "q", "q"), (False, False, False))  # duplicate name
    with pytest.raises(ValueError):
        ChartSpec(("t", "q", "sin"), (False, False, False))  # reserved name
    with pytest.raises(ValueError):
        ChartSpec(("t", "q", "p"), (False, False))  # length mismatch


def test_normalize_and_wrap():
    x = CHART.normalize(np.array([2 * math.pi + 0.5, 3.0, -1.0]))
    assert x[0] == pytest.approx(0.5)
    assert x[1] == 3.0 and x[2] == -1.0
    d = CHART.wrap_difference(np.array([0.1, 0, 0]), np.array([2 * math.pi - 0.1, 0, 0]))
    assert d[0] == pytest.approx(0.2)


def test_normalize_folds_each_row_of_a_stack():
    X = np.array([[2 * math.pi + 0.5, 3.0, -1.0], [-0.25, 7.0, 0.0], [0.0, -9.0, 4.0]])
    assert np.array_equal(CHART.normalize(X), np.array([CHART.normalize(x) for x in X]))


def test_exterior_derivative_constant_form_is_zero():
    theta = OneFormField.from_sources(["1", "0", "0"], CHART)  # dt
    assert np.array_equal(theta.exterior_derivative(np.array([0.3, 1.0, 2.0])), np.zeros((3, 3)))


def test_exterior_derivative_p_dq():
    theta = OneFormField.from_sources(["0", "p", "0"], CHART)  # p dq
    d = theta.exterior_derivative(np.array([0.0, 1.3, -0.4]))
    # (d theta)[p, q] = d_p(p) = 1, i.e. d theta = dp ^ dq
    iq, ip = CHART.index("q"), CHART.index("p")
    assert d[ip, iq] == 1.0
    assert d[iq, ip] == -1.0
    assert d[0, 1] == d[0, 2] == 0.0


def test_exterior_derivative_q_dp():
    theta = OneFormField.from_sources(["0", "0", "q"], CHART)  # q dp
    d = theta.exterior_derivative(np.array([0.0, 0.7, 0.2]))
    iq, ip = CHART.index("q"), CHART.index("p")
    assert d[iq, ip] == 1.0


def test_two_form_canonical_closed():
    omega = TwoFormField.from_upper_sources({"q,p": "1"}, CHART)
    x = np.array([0.1, 0.5, -0.3])
    W = omega.at(x)
    assert W[1, 2] == 1.0 and W[2, 1] == -1.0
    assert np.array_equal(omega.exterior_derivative(x), np.zeros((3, 3, 3)))


def test_two_form_twisted_closed():
    # dq^dp + dH^dt for H = (q^2+p^2)/2 stays closed (d of an exact form)
    omega = TwoFormField.from_upper_sources(
        {"t,q": "-q", "t,p": "-p", "q,p": "1"}, CHART
    )
    rng = np.random.default_rng(0)
    for x in sample_box([[0, 2 * math.pi], [-2, 2], [-2, 2]], 20, rng):
        assert np.max(np.abs(omega.exterior_derivative(x))) < 1e-12


def test_two_form_nonclosed_detected():
    omega = TwoFormField.from_upper_sources({"q,p": "t"}, CHART)
    T = omega.exterior_derivative(np.array([0.2, 0.4, 0.6]))
    it, iq, ip = 0, 1, 2
    assert T[it, iq, ip] == 1.0
    assert T[iq, it, ip] == -1.0


def test_dd_zero_on_exact_forms():
    # theta = dF for random polynomial F => d(theta) == 0 (within roundoff)
    rng = np.random.default_rng(42)
    names = ("t", "q", "p")
    for _ in range(5):
        coeffs = rng.uniform(-2, 2, size=6)
        src = (
            f"{coeffs[0]}*t^2 + {coeffs[1]}*q^2 + {coeffs[2]}*p^2"
            f" + {coeffs[3]}*t*q + {coeffs[4]}*q*p^2 + {coeffs[5]}*t*q*p"
        )
        F = ScalarField.from_source(src, CHART)
        theta = OneFormField(CHART, tuple(differentiate(F.expr, i) for i in range(3)))
        for x in sample_box([[-2, 2]] * 3, 20, rng):
            assert np.max(np.abs(theta.exterior_derivative(x))) < 1e-9


def test_lie_bracket_constant_fields_commute():
    X = _LinearField(np.zeros((3, 3)), [0, 1, 0])  # d/dq
    Y = _LinearField(np.zeros((3, 3)), [0, 0, 1])  # d/dp
    assert np.array_equal(lie_bracket(X, Y, np.array([0.0, 1.0, 2.0])), np.zeros(3))


def test_lie_bracket_hand_example():
    # X = q d/dp, Y = p d/dq  =>  [X, Y] = q d/dq - p d/dp
    X = _LinearField([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    Y = _LinearField([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    x = np.array([0.0, 1.7, -0.6])
    b = lie_bracket(X, Y, x)
    assert b == pytest.approx([0.0, 1.7, 0.6], abs=1e-12)


class _LinearField:
    """The field x -> M x + c, with its exact Jacobian M."""

    def __init__(self, M, c=(0.0, 0.0, 0.0)):
        self.M = np.asarray(M, dtype=float)
        self.c = np.asarray(c, dtype=float)

    def __call__(self, x):
        return self.M @ x + self.c

    def jacobian(self, x):
        return self.M


class _BracketField(_LinearField):
    """[A, B] of linear fields A, B, evaluated by ``lie_bracket``: linear
    again, with Jacobian M_B M_A - M_A M_B."""

    def __init__(self, A, B):
        super().__init__(B.M @ A.M - A.M @ B.M)
        self.A, self.B = A, B

    def __call__(self, x):
        return lie_bracket(self.A, self.B, x)


def test_lie_bracket_linear_fields_antisymmetric():
    X = _LinearField([[0, 0, 0], [0, 0, 1], [0, -1, 0]])  # p d/dq - q d/dp
    Y = _LinearField([[0, 0, 0], [0, 1, 0], [0, 0, -1]])  # q d/dq - p d/dp
    x = np.array([0.3, 0.9, 1.1])
    b1 = lie_bracket(X, Y, x)
    b2 = lie_bracket(Y, X, x)
    assert np.array_equal(b1, -b2)
    # by hand: [X, Y] = (M_Y M_X - M_X M_Y) x = 2p d/dq + 2q d/dp
    assert b1 == pytest.approx([0.0, 2 * 1.1, 2 * 0.9], abs=1e-9)


def test_lie_bracket_refuses_a_field_without_a_jacobian():
    X = _LinearField([[0, 0, 0], [0, 0, 1], [0, 1, 0]])  # p d/dq + q d/dp

    def plain(x):
        return np.array([1.0, x[2], -x[1]])

    x = np.array([0.3, 0.9, 1.1])
    for A, B in ((X, plain), (plain, X)):
        with pytest.raises(TypeError, match="exact jacobian"):
            lie_bracket(A, B, x)


def test_lie_bracket_jacobi():
    rng = np.random.default_rng(5)
    X, Y, Z = (_LinearField(rng.uniform(-1.5, 1.5, size=(3, 3))) for _ in range(3))
    for x in rng.uniform(-1.5, 1.5, size=(5, 3)):
        total = (
            lie_bracket(_BracketField(X, Y), Z, x)
            + lie_bracket(_BracketField(Y, Z), X, x)
            + lie_bracket(_BracketField(Z, X), Y, x)
        )
        assert np.max(np.abs(total)) < 1e-5


def test_fd_jacobian_matches_exact():
    # X = (sin(q) p, exp(t/4), q^3): its components' exact gradients are the
    # rows of its Jacobian
    components = [ScalarField.from_source(s, CHART) for s in ("sin(q)*p", "exp(t/4)", "q^3")]
    x = np.array([0.4, 0.8, -1.2])
    J_fd = fd_jacobian(lambda y: np.array([c(y) for c in components]), x)
    assert J_fd == pytest.approx(np.array([c.gradient(x) for c in components]), abs=1e-9)


def test_sample_box_bounds():
    rng = np.random.default_rng(1)
    pts = sample_box([[0, 1], [-2, -1], [5, 5]], 50, rng)
    assert pts.shape == (50, 3)
    assert np.all(pts[:, 0] >= 0) and np.all(pts[:, 0] <= 1)
    assert np.all(pts[:, 1] >= -2) and np.all(pts[:, 1] <= -1)
    assert np.all(pts[:, 2] == 5.0)


def test_scalar_field_roundtrip():
    f = ScalarField.from_source("q^2/2 + cos(t)", CHART, name="H")
    x = np.array([0.0, 2.0, 0.0])
    assert f.value(x) == 3.0
    assert f.gradient(x) == pytest.approx([0.0, 2.0, 0.0])
    assert differentiate(f.expr, 1).gradient(x)[1] == 1.0
