import json
import math

import numpy as np
import pytest

from cosymkit.cli import main
from cosymkit.cosym import make_canonical
from cosymkit.fields import ChartSpec, ScalarField, sample_box
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
)
from cosymkit.scenarios import builtin, builtin_file_path, builtin_names

CHART1 = ChartSpec(("t", "q", "p"), (True, False, False))
BOX1 = [[0.0, 2 * math.pi], [-2.0, 2.0], [-2.0, 2.0]]
CHART2 = ChartSpec(("t", "q1", "q2", "p1", "p2"), (True,) + (False,) * 4)
BOX2 = [[0.0, 2 * math.pi]] + [[-1.5, 1.5]] * 4


def oscillator_1d():
    S = make_canonical(1, box=BOX1)
    H = ScalarField.from_source("(q^2 + p^2)/2", CHART1, "H")
    return IntegralSystem(S, H, (H,), r=1)


def oscillator_2d_super():
    S = make_canonical(2, box=BOX2)
    H = ScalarField.from_source("(q1^2 + q2^2 + p1^2 + p2^2)/2", CHART2, "H")
    L = ScalarField.from_source("q1*p2 - q2*p1", CHART2, "L")
    F = ScalarField.from_source("(p1^2 - p2^2 + q1^2 - q2^2)/2", CHART2, "F")
    return IntegralSystem(S, H, (H, L, F), r=1)


def pts(sys, n, seed=0):
    rng = np.random.default_rng(seed)
    return sample_box(sys.structure.domain_box, n, rng)


def test_system_dimension_contract():
    S = make_canonical(1, box=BOX1)
    H = ScalarField.from_source("(q^2 + p^2)/2", CHART1, "H")
    with pytest.raises(ValueError):
        IntegralSystem(S, H, (H, H), r=1)  # m + r = 3 != 2n = 2
    IntegralSystem(S, H, (H, H), r=1, enforce_completeness=False)
    with pytest.raises(ValueError):
        IntegralSystem(S, H, (H,), r=2)


def test_first_integrals_oscillator():
    sys = oscillator_1d()
    report = check_first_integrals(sys, pts(sys, 30))
    assert report.passed
    assert report.max_residual < 1e-12


def test_first_integral_failure_witnessed():
    S = make_canonical(1, box=BOX1)
    H = ScalarField.from_source("(q^2 + p^2)/2", CHART1, "H")
    q = ScalarField.from_source("q", CHART1, "q")
    sys = IntegralSystem(S, H, (q,), r=1)
    report = check_first_integrals(sys, [np.array([0.0, 1.0, 1.0])])
    assert not report.passed
    # Z(q) = 0 and {q, H} = dH/dp = p = 1 at this point
    assert report.max_residual == pytest.approx(1.0, abs=1e-10)
    assert report.witness["integral"] == "q"


def test_angular_momentum_is_first_integral():
    sys = oscillator_2d_super()
    report = check_first_integrals(sys, pts(sys, 40))
    assert report.passed
    assert report.max_residual < 1e-10


def test_commuting_prefix_2d():
    sys = oscillator_2d_super()
    report = check_commuting_prefix(sys, pts(sys, 40))
    assert report.passed


def test_commuting_prefix_violation_witnessed():
    S = make_canonical(2, box=BOX2)
    H = ScalarField.from_source("(q1^2 + q2^2 + p1^2 + p2^2)/2", CHART2, "H")
    L = ScalarField.from_source("q1*p2 - q2*p1", CHART2, "L")
    bad = ScalarField.from_source("q1", CHART2, "q1")
    sys = IntegralSystem(S, H, (L, bad, H), r=2, enforce_completeness=False)
    report = check_commuting_prefix(sys, pts(sys, 10, seed=3))
    assert not report.passed
    assert report.witness is not None
    assert set(report.witness["pair"]) <= {"L", "q1", "H"}


def test_commutative_chain_passes():
    S = make_canonical(2, box=BOX2)
    H1 = ScalarField.from_source("(p1^2 + q1^2)/2", CHART2, "H1")
    H2 = ScalarField.from_source("(p2^2 + 2*q2^2)/2", CHART2, "H2")
    H = ScalarField.from_source("(p1^2 + p2^2 + q1^2 + 2*q2^2)/2", CHART2, "H")
    sys = IntegralSystem(S, H, (H1, H2), r=2)
    p = pts(sys, 30, seed=1)
    assert check_first_integrals(sys, p).passed
    assert check_commuting_prefix(sys, p).passed
    assert check_independence(sys, p).passed
    assert check_symmetry_algebra(sys, p).passed


def test_independence_generic_and_singular():
    sys = oscillator_2d_super()
    good = np.array([0.0, 1.0, 0.1, -0.2, 1.1])
    report = check_independence(sys, [good])
    assert report.passed
    assert report.extra["regular_points"] == 1

    origin = np.array([0.0, 0.0, 0.0, 0.0, 0.0])  # dH = 0
    # p1*p2 + q1*q2 = 0 makes dL proportional to dH: also a rank drop
    aligned = np.array([0.0, 1.0, 0.0, 0.0, 1.0])
    report = check_independence(sys, [good, origin, aligned])
    assert report.passed  # singular points excluded, not defects
    assert len(report.extra["excluded_points"]) == 2


def test_independence_vacuous_for_no_integrals():
    S = make_canonical(1, box=BOX1)
    H = ScalarField.from_source("(q^2 + p^2)/2", CHART1, "H")
    sys = IntegralSystem(S, H, (), r=0, enforce_completeness=False)
    report = check_independence(sys, pts(sys, 5))
    assert report.passed


def test_symmetry_algebra_oscillator():
    sys = oscillator_1d()
    report = check_symmetry_algebra(sys, pts(sys, 15))
    assert report.passed
    assert report.max_residual < 1e-6


def test_symmetry_algebra_2d():
    sys = oscillator_2d_super()
    report = check_symmetry_algebra(sys, pts(sys, 10, seed=2))
    assert report.passed


def test_symmetry_algebra_detects_non_integral():
    S = make_canonical(1, box=BOX1)
    H = ScalarField.from_source("(q^2 + p^2)/2", CHART1, "H")
    q = ScalarField.from_source("q", CHART1, "q")
    sys = IntegralSystem(S, H, (q,), r=1)
    report = check_symmetry_algebra(sys, [np.array([0.1, 0.8, 0.5])])
    assert not report.passed
    assert report.max_residual > 0.1


def test_fiber_tangency():
    sys = oscillator_2d_super()
    report = check_fiber_tangency(sys, pts(sys, 20, seed=5))
    assert report.passed


def test_verifier_self_consistency():
    # passing the first three checks implies a commuting symmetry algebra
    for sys in (oscillator_1d(), oscillator_2d_super()):
        p = pts(sys, 20, seed=7)
        if (
            check_first_integrals(sys, p).passed
            and check_commuting_prefix(sys, p).passed
            and check_independence(sys, p).passed
        ):
            assert check_symmetry_algebra(sys, p).passed


def _fiber_groups(sys, seeds, rng, per_fiber=3):
    groups = []
    for x0 in seeds:
        groups.append(sample_fiber(sys, x0, per_fiber, rng, span=3.0))
    return groups


def test_closure_and_corank_2d_super():
    sys = oscillator_2d_super()
    rng = np.random.default_rng(11)
    seeds = [
        np.array([0.0, 1.0, 0.1, -0.2, 1.1]),
        np.array([0.5, 0.8, -0.5, 0.7, 0.6]),
        np.array([1.0, 1.2, 0.4, 0.3, -0.8]),
    ]
    result = bracket_closure_and_corank(sys, _fiber_groups(sys, seeds, rng))
    assert result.closure_ok
    assert result.corank_ok()
    assert result.parity_ok()
    assert result.ddim == 3 and result.dind == 1
    assert result.completeness_ok


def test_closure_commutative_zero_matrix():
    S = make_canonical(2, box=BOX2)
    H1 = ScalarField.from_source("(p1^2 + q1^2)/2", CHART2, "H1")
    H2 = ScalarField.from_source("(p2^2 + 2*q2^2)/2", CHART2, "H2")
    H = ScalarField.from_source("(p1^2 + p2^2 + q1^2 + 2*q2^2)/2", CHART2, "H")
    sys = IntegralSystem(S, H, (H1, H2), r=2)
    rng = np.random.default_rng(13)
    groups = _fiber_groups(sys, [np.array([0.0, 1.0, 0.5, 0.2, 0.4])], rng)
    result = bracket_closure_and_corank(sys, groups)
    assert result.corank_ok()  # a == 0 so corank = m = r
    assert result.closure_ok


def test_overcomplete_set_fails_completeness():
    S = make_canonical(1, box=BOX1)
    H = ScalarField.from_source("(q^2 + p^2)/2", CHART1, "H")
    p_field = ScalarField.from_source("p", CHART1, "pf")
    sys = IntegralSystem(S, H, (H, p_field), r=1, enforce_completeness=False)
    rng = np.random.default_rng(17)
    x0 = np.array([0.0, 1.0, 0.3])
    groups = [[x0, x0 + 0.0]]
    result = bracket_closure_and_corank(sys, groups)
    assert not result.completeness_ok


def test_casimir_check():
    sys = oscillator_2d_super()
    rng = np.random.default_rng(19)
    groups = _fiber_groups(sys, [np.array([0.0, 1.0, 0.1, -0.2, 1.1])], rng)
    casimir = ScalarField.from_source("(q1^2 + q2^2 + p1^2 + p2^2)/2", CHART2, "G1")
    result = bracket_closure_and_corank(sys, groups, casimirs=(casimir,))
    assert result.casimir_residual < 1e-9


def test_fiber_group_mixing_rejected():
    sys = oscillator_2d_super()
    a = np.array([0.0, 1.0, 0.1, -0.2, 1.1])
    b = np.array([0.0, 0.5, 0.1, -0.2, 1.1])  # different H
    with pytest.raises(ValueError):
        bracket_closure_and_corank(sys, [[a, b]])


def test_bracket_of_integrals_is_integral():
    sys = oscillator_2d_super()
    # L and F do not commute; their bracket must still be a first integral
    report = check_bracket_of_integrals(sys, [(1, 2)], pts(sys, 25, seed=23))
    assert report.passed
    assert report.max_residual < 1e-5


def test_bracket_of_integrals_exact_on_constant_structure(monkeypatch):
    # the bracket's gradient comes from the exact Jacobians of X_f and X_g,
    # so the check differences nothing and its residual is at rounding level
    import cosymkit.fields as fields

    def stencil(*args, **kwargs):
        raise AssertionError("the bracket check ran a finite-difference stencil")

    monkeypatch.setattr(fields, "scalar_fd_gradient", stencil)
    sys = builtin("ext-oscillator-2d-super").system
    # the pairs and point count of `cosym verify --points 1500`
    report = check_bracket_of_integrals(sys, [(0, 1), (0, 2), (1, 2)], pts(sys, 187))
    assert report.passed
    assert report.max_residual <= 1e-13


@pytest.mark.parametrize("name", builtin_names())
def test_verify_runs_no_stencil(monkeypatch, capsys, name):
    # every check of `cosym verify --points 1500` differentiates structure
    # fields and brackets exactly, so both Lie-bracket residuals sit at
    # rounding level
    import cosymkit.fields as fields

    def stencil(*args, **kwargs):
        raise AssertionError("verify ran a finite-difference stencil")

    monkeypatch.setattr(fields, "fd_jacobian", stencil)
    monkeypatch.setattr(fields, "scalar_fd_gradient", stencil)
    assert main(["verify", str(builtin_file_path(name)), "--points", "1500"]) == 0
    checks = json.loads(capsys.readouterr().out)["report"]["checks"]
    assert checks["symmetry_algebra"]["max_residual"] <= 1e-12
    assert checks["symmetry_algebra"]["tolerance"] == 1e-8
    if "bracket_of_integrals" in checks:
        assert checks["bracket_of_integrals"]["max_residual"] <= 1e-12


def test_bracket_of_commuting_pair_trivial():
    sys = oscillator_2d_super()
    report = check_bracket_of_integrals(sys, [(0, 1)], pts(sys, 10, seed=29))
    assert report.passed
    assert report.max_residual < 1e-9


def test_bracket_check_refuses_non_integrals():
    S = make_canonical(1, box=BOX1)
    H = ScalarField.from_source("(q^2 + p^2)/2", CHART1, "H")
    q = ScalarField.from_source("q", CHART1, "q")
    sys = IntegralSystem(S, H, (H, q), r=1, enforce_completeness=False)
    with pytest.raises(ValueError, match="precondition"):
        check_bracket_of_integrals(sys, [(0, 1)], pts(sys, 5, seed=31))


def test_sample_fiber_stays_on_fiber():
    sys = oscillator_2d_super()
    rng = np.random.default_rng(37)
    x0 = np.array([0.0, 1.0, 0.1, -0.2, 1.1])
    group = sample_fiber(sys, x0, 4, rng)
    f0 = sys.integral_values(x0)
    for x in group:
        assert np.max(np.abs(sys.integral_values(x) - f0)) < 1e-9
