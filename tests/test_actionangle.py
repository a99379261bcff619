import math
from dataclasses import replace

import numpy as np
import pytest

from cosymkit import actionangle
from cosymkit.actionangle import (
    ActionAngleError,
    AngleMap,
    AngleUnwrapError,
    CycleError,
    NoReturnError,
    WindingError,
    action_integrals,
    align_lattice_to_angles,
    b_matrix,
    detect_period_lattice,
    empirical_frequencies,
    evaluation_frequencies,
    find_fiber_point,
    line_integral,
    refine_lattice_vector,
    solve_frequencies,
    torus_lattice,
    trace_cycle,
)
from cosymkit.cosym import (
    StructureVectorField,
    make_canonical,
    make_poincare_cartan,
)
from cosymkit.fields import ChartSpec, OneFormField, ScalarField
from cosymkit.flow import Trajectory, integrate
from cosymkit.integrability import IntegralSystem
from cosymkit.scenarios import builtin, builtin_dict

TWO_PI = 2 * math.pi
CHART = ChartSpec(("t", "q", "p"), (True, False, False))
BOX = [[0.0, TWO_PI], [-2.5, 2.5], [-2.5, 2.5]]


def oscillator_system():
    S = make_canonical(1, box=BOX)
    H = ScalarField.from_source("(q^2 + p^2)/2", CHART, "H")
    return IntegralSystem(S, H, (H,), r=1)


def oscillator_angles():
    return (
        AngleMap.from_spec({"plane": ["q", "-p"], "label": "phase"}, CHART),
        AngleMap.from_spec({"coordinate": "t", "label": "t"}, CHART),
    )


def pc_system():
    H = ScalarField.from_source("(q^2 + p^2)/2", CHART, "H")
    S = make_poincare_cartan(H, box=BOX)
    zero = ScalarField.from_source("0", CHART, "0")
    return IntegralSystem(S, zero, (H,), r=1)


def fiber_torus(sys, fiber, angle_maps, seed=(0.0, 1.0, 0.0)):
    """Fiber point, aligned period lattice, loop actions and b of one torus."""
    x0 = find_fiber_point(sys, fiber, np.asarray(seed, dtype=float))
    lattice = torus_lattice(sys, x0, angle_maps=angle_maps)
    return action_integrals(sys, lattice)


def lattices_equal(B1, B2, tol=1e-6):
    """Same lattice iff the change of basis is an integer matrix of det +-1."""
    M = B2 @ np.linalg.inv(B1)
    Mi = np.rint(M)
    return np.max(np.abs(M - Mi)) < tol and abs(abs(np.linalg.det(Mi)) - 1) < tol


def test_lattice_oscillator_commuting_fields():
    sys = oscillator_system()
    x0 = np.array([0.0, 1.0, 0.0])
    lattice = detect_period_lattice(sys, x0)
    # X_H closes after 2*pi at fixed t; Z closes the t-circle
    assert lattices_equal(lattice.basis, np.diag([TWO_PI, TWO_PI]))
    assert np.all(lattice.residuals < 1e-6)


def test_lattice_evaluation_and_hamiltonian_fields():
    sys = oscillator_system()
    S = sys.structure
    H = sys.hamiltonian
    x0 = np.array([0.0, 1.0, 0.0])
    lattice = detect_period_lattice(
        sys, x0, fields=[S.evaluation_vf(H), S.hamiltonian_vf(H)]
    )
    expected = np.array([[TWO_PI, -TWO_PI], [0.0, TWO_PI]])
    assert lattices_equal(lattice.basis, expected)


def test_lattice_no_return_on_line():
    S = make_canonical(1, box=[[-30.0, 30.0], [-2.5, 2.5], [-2.5, 2.5]], t_periodic=False)
    H = ScalarField.from_source("(q^2 + p^2)/2", S.chart, "H")
    sys = IntegralSystem(S, H, (H,), r=1)
    with pytest.raises(NoReturnError):
        detect_period_lattice(sys, np.array([0.0, 1.0, 0.0]), horizon=60.0)


def test_refine_rejects_far_guess():
    sys = oscillator_system()
    with pytest.raises(CycleError):
        refine_lattice_vector(
            sys, sys.commuting_fields(), (1.0, 0.5), np.array([0.0, 1.0, 0.0])
        )


def test_refine_refuses_the_zero_vector_naming_its_times():
    # Newton from (1.0, 0.5) closes the cycle by shrinking both times to
    # about 5e-11: a return with no cycle, which must not pass for a period
    sys = oscillator_system()
    with pytest.raises(CycleError, match="collapsed to zero: times ") as err:
        refine_lattice_vector(
            sys, sys.commuting_fields(), (1.0, 0.5), np.array([0.0, 1.0, 0.0])
        )
    times = [float(v) for v in str(err.value).split("times ")[1].strip("[]").split(",")]
    assert len(times) == 2
    assert max(map(abs, times)) < 1e-9


def test_action_equals_fiber_value():
    sys = oscillator_system()
    for c in (0.25, 0.5, 1.0):
        x0 = np.array([0.0, math.sqrt(2 * c), 0.0])
        lattice = torus_lattice(sys, x0, angle_maps=oscillator_angles())
        torus = action_integrals(sys, lattice)
        assert torus.actions[0] == pytest.approx(c, abs=1e-10)
        # the t-circle carries no p dq action
        assert torus.actions[1] == pytest.approx(0.0, abs=1e-10)
        assert torus.eta_pairings == pytest.approx([0.0, 1.0], abs=1e-10)


def test_action_base_point_independence():
    sys = oscillator_system()
    c = 0.5
    x0 = np.array([0.0, 1.0, 0.0])
    lat0 = torus_lattice(sys, x0, angle_maps=oscillator_angles())
    I0 = action_integrals(sys, lat0).actions
    # move along the torus: flow both fields for incommensurate times
    x1 = trace_cycle(sys.commuting_fields(), (0.37, 1.91), x0, 1e-12)[-1][1].final_state
    lat1 = torus_lattice(sys, x1, angle_maps=oscillator_angles())
    I1 = action_integrals(sys, lat1).actions
    assert np.max(np.abs(I1 - I0)) < 1e-5


def test_action_retrace_stability(monkeypatch):
    # the actions come from the cycles the refinement traced, so the flow
    # tolerance is the lattice's
    sys = oscillator_system()
    x0 = np.array([0.0, 1.0, 0.0])
    actions = []
    for tol in (1e-10, 5e-11):
        monkeypatch.setattr(actionangle, "_LATTICE_FLOW_TOL", tol)
        lattice = torus_lattice(sys, x0, angle_maps=oscillator_angles())
        actions.append(action_integrals(sys, lattice).actions)
    I_a, I_b = actions
    assert np.max(np.abs(I_a - I_b)) < 1e-6


def _with_primitive(sys, sources):
    """``sys`` on its structure with the primitive of components ``sources``."""
    lam = OneFormField.from_sources(sources, sys.structure.chart)
    return replace(sys, structure=replace(sys.structure, primitive=lam))


@pytest.mark.parametrize("name", ["ext-oscillator-1d", "pc-oscillator-1d"])
def test_loop_actions_do_not_depend_on_the_gauge(name):
    # lambda + d(q p) is a primitive of omega too, and an exact form
    # integrates to zero around every closed cycle; lambda + p^2 dq is not a
    # primitive, and is refused before any action is read
    sc = builtin(name)
    sys = sc.system
    lattice = torus_lattice(sys, _fiber_base(sc), angle_maps=sc.angle_maps)
    lam_t, lam_q, lam_p = builtin_dict(name)["lambda"]
    gauged = _with_primitive(sys, [lam_t, f"({lam_q}) + p", f"({lam_p}) + q"])
    actions = action_integrals(sys, lattice).actions
    assert np.max(np.abs(action_integrals(gauged, lattice).actions - actions)) <= 1e-12
    wrong = _with_primitive(sys, [lam_t, f"({lam_q}) + p*p", lam_p])
    with pytest.raises(CycleError, match="one-form is not a primitive of omega"):
        action_integrals(wrong, lattice)


def test_action_integrals_integrate_no_flow(monkeypatch):
    # the actions sum over the stages the lattice's traces kept: no flow, no
    # field evaluation and no dense output after the trace
    sys = oscillator_system()
    x0 = np.array([0.0, 1.0, 0.0])
    lattice = torus_lattice(sys, x0, angle_maps=oscillator_angles())

    def recompute(*args, **kwargs):
        raise AssertionError("action_integrals recomputed along a traced cycle")

    monkeypatch.setattr(actionangle, "integrate", recompute)
    monkeypatch.setattr(StructureVectorField, "__call__", recompute)
    monkeypatch.setattr(Trajectory, "state_at", recompute)
    torus = action_integrals(sys, lattice)
    assert torus.actions == pytest.approx([0.5, 0.0], abs=1e-10)
    assert torus.eta_pairings == pytest.approx([0.0, 1.0], abs=1e-10)


def test_refine_traces_the_cycle_once_per_newton_iteration(monkeypatch):
    sys = oscillator_system()
    fields = sys.commuting_fields()
    x0 = np.array([0.0, 1.0, 0.0])
    traces, flows = [], []
    trace, integrate = actionangle.trace_cycle, actionangle.integrate

    def counting_trace(*args, **kwargs):
        traces.append(trace(*args, **kwargs))
        return traces[-1]

    def counting_integrate(*args, **kwargs):
        flows.append(args[2])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(actionangle, "trace_cycle", counting_trace)
    monkeypatch.setattr(actionangle, "integrate", counting_integrate)
    v, resid, segments = refine_lattice_vector(
        sys, fields, (TWO_PI + 0.05, TWO_PI - 0.03), x0
    )
    assert v == pytest.approx([TWO_PI, TWO_PI], abs=1e-9)
    assert resid < 1e-9
    # each iteration is one composite flow of both fields, and Newton with
    # the exact Jacobian converges in a few of them
    assert 2 <= len(traces) <= 5
    assert len(flows) == 2 * len(traces)
    # the returned cycle is the last iterate's trace, not a new one
    assert segments is traces[-1]
    assert [traj.times[-1] - traj.times[0] for _, traj in segments] == [v[1], v[0]]


def test_refine_jacobian_is_endpoint_field_values():
    # d(endpoint)/d(tau_j) = V_j(endpoint) for commuting flows; checked by
    # central differences of the composite flow on pc-oscillator-1d
    sc = builtin("pc-oscillator-1d")
    fields = sc.system.commuting_fields()
    x0 = sc.base_point()
    times = np.array([0.7, 1.3])

    def endpoint(ts):
        return trace_cycle(fields, ts, x0, 1e-12)[-1][1].final_state

    end = endpoint(times)
    for j, vf in enumerate(fields):
        dt = np.zeros(2)
        dt[j] = 1e-5
        fd = (endpoint(times + dt) - endpoint(times - dt)) / 2e-5
        assert np.max(np.abs(fd - vf(end))) < 1e-6


def test_poincare_cartan_action_around_t_circle():
    # alpha = p dq - H dt around the pure evaluation cycle: the -H dt part
    # contributes -c per turn and the p dq part +c, so the total vanishes
    sys = pc_system()
    S = sys.structure
    c = 0.5
    x0 = np.array([0.0, 1.0, 0.0])
    fields = sys.commuting_fields()  # [X_H, Z'] with Z' the oscillator flow
    segments = trace_cycle(fields, (0.0, TWO_PI), x0, 1e-11)
    val = line_integral(segments, S.primitive) / TWO_PI
    assert val == pytest.approx(0.0, abs=1e-6)

    # brute-force oracle: trapezoid on the analytic circle x(tau)
    taus = np.linspace(0.0, TWO_PI, 200_001)
    q = np.cos(taus)
    p = -np.sin(taus)
    H = 0.5 * (q**2 + p**2)
    integrand = p * (-np.sin(taus)) - H  # alpha(Y_H) = p*qdot - H*tdot
    oracle = np.trapezoid(integrand, taus) / TWO_PI
    assert val == pytest.approx(oracle, abs=1e-6)


def test_b_matrix_oscillator_identity():
    sys = oscillator_system()
    torus = fiber_torus(sys, [0.5], oscillator_angles())
    assert torus.b == pytest.approx(np.eye(2), abs=1e-9)
    assert torus.eta_residual < 1e-12
    assert torus.cond < 10


def test_b_matrix_rescaled_oscillator():
    # H = (p^2 + w0^2 q^2)/2 has action I = H / w0
    w0 = math.sqrt(2.0)
    S = make_canonical(1, box=BOX)
    H = ScalarField.from_source(f"(p^2 + {w0**2}*q^2)/2", CHART, "H")
    sys = IntegralSystem(S, H, (H,), r=1)
    angles = (
        AngleMap.from_spec({"plane": ["q", f"-p/{w0}"], "label": "phase"}, CHART),
        AngleMap.from_spec({"coordinate": "t", "label": "t"}, CHART),
    )
    torus = fiber_torus(sys, [0.5], angles)
    assert torus.b[0, 0] == pytest.approx(1.0 / w0, abs=1e-9)
    assert torus.b[1, 0] == pytest.approx(0.0, abs=1e-9)
    assert torus.b[:, 1] == pytest.approx([0.0, 1.0], abs=1e-9)


def test_frequencies_canonical_reeb_and_hamiltonian():
    sys = oscillator_system()
    torus = fiber_torus(sys, [0.5], oscillator_angles())
    reeb = solve_frequencies(torus, "reeb")
    assert reeb == pytest.approx([0.0, 1.0], abs=1e-9)
    ham = solve_frequencies(torus, "hamiltonian", 1)
    assert ham == pytest.approx([1.0, 0.0], abs=1e-9)
    ev = evaluation_frequencies(torus, sys)
    assert ev == pytest.approx([1.0, 1.0], abs=1e-9)


def test_evaluation_frequencies_scale_with_a_small_hamiltonian():
    # H = c (q^2 + p^2)/2 with c = 1e-13 gives Y_H = Z + c X_f1, so
    # w_eval = w_reeb + c w_1 = (c, 1): no coefficient is too small to count
    sc = builtin("ext-oscillator-1d")
    sys = sc.system
    lattice = torus_lattice(sys, sc.base_point(), angle_maps=sc.angle_maps)
    torus = action_integrals(sys, lattice)
    H = ScalarField.from_source("1e-13*(q^2 + p^2)/2", sc.chart, "H")
    ev = evaluation_frequencies(torus, IntegralSystem(sc.structure, H, sys.integrals, sys.r))
    assert abs(ev[0] - 1e-13) <= 1e-9 * 1e-13
    assert ev[1] == pytest.approx(1.0, abs=1e-9)


def test_frequencies_poincare_cartan_reeb():
    sys = pc_system()
    torus = fiber_torus(sys, [0.5], oscillator_angles())
    # aligned cycle basis gives b = [[1, 0], [-1, 1]]
    assert torus.b == pytest.approx(np.array([[1.0, 0.0], [-1.0, 1.0]]), abs=1e-9)
    reeb = solve_frequencies(torus, "reeb")
    assert reeb == pytest.approx([1.0, 1.0], abs=1e-9)
    # H == 0 for this system, so the evaluation flow is the Reeb flow
    ev = evaluation_frequencies(torus, sys)
    assert ev == pytest.approx(reeb, abs=1e-10)


def test_reconstructed_generators_have_period_two_pi():
    # the rows of b recombine the commuting fields into angle generators;
    # flowing such a generator for 2*pi must return the base point
    sys = oscillator_system()
    torus = fiber_torus(sys, [0.5], oscillator_angles())
    fields = sys.commuting_fields()
    x0 = torus.lattice.base_point
    for mu in range(2):
        coeffs = torus.b[mu]

        def generator(x, c=coeffs):
            return c[0] * fields[0](x) + c[1] * fields[1](x)

        end = integrate(generator, x0, TWO_PI, 1e-11).final_state
        assert np.linalg.norm(CHART.wrap_difference(end, x0)) < 1e-4


def test_empirical_frequencies_oscillator():
    sys = oscillator_system()
    S = sys.structure
    x0 = np.array([0.0, 1.0, 0.0])
    angles = oscillator_angles()
    slopes, resid = empirical_frequencies(S.reeb_vf(), x0, angles, 60.0)
    assert slopes == pytest.approx([0.0, 1.0], abs=1e-6)
    assert np.max(resid) < 1e-6
    slopes, resid = empirical_frequencies(S.evaluation_vf(sys.hamiltonian), x0, angles, 60.0)
    assert slopes == pytest.approx([1.0, 1.0], abs=1e-4)
    assert np.max(resid) < 1e-3


def test_empirical_frequencies_unwrap_guard():
    sys = oscillator_system()
    S = sys.structure
    x0 = np.array([0.0, 1.0, 0.0])
    angles = oscillator_angles()
    traj = integrate(S.evaluation_vf(sys.hamiltonian), x0, 60.0, 1e-10)
    # the phase advances at unit rate: 3.0 rad between states is past the guard
    states = [traj.state_at(tau) for tau in np.arange(0.0, 60.0, 3.0)]
    with pytest.raises(AngleUnwrapError):
        angles[0].series(np.array(states))


def test_find_fiber_point():
    sys = oscillator_system()
    x = find_fiber_point(sys, [0.8], np.array([0.3, 1.0, 0.5]))
    assert sys.integral_values(x)[0] == pytest.approx(0.8, abs=1e-12)


def test_time_section_return_periodic_orbit_is_small():
    sys = oscillator_system()
    S = sys.structure
    x0 = np.array([0.0, 1.0, 0.0])
    traj = integrate(S.evaluation_vf(sys.hamiltonian), x0, 30.0, 1e-9)
    # t advances at unit rate, so the section t = 0 is crossed at 2*pi*k
    returns = TWO_PI * np.arange(1, int(30.0 // TWO_PI) + 1)
    dists = [S.chart.distance(traj.state_at(tau), x0) for tau in returns]
    # frequencies (1, 1): the orbit closes at the first section return
    assert min(dists) < 1e-6
    assert returns[np.argmin(dists)] == pytest.approx(TWO_PI, abs=1e-6)


def test_action_redundancy_rank():
    # r+1 actions but only r independent ones: rank of the derivative block
    sys = oscillator_system()
    torus = fiber_torus(sys, [0.5], oscillator_angles())
    assert torus.derivative_rank == sys.r == 1


@pytest.mark.parametrize("name", ["ext-oscillator-1d", "pc-oscillator-1d"])
def test_b_matrix_matches_action_differences(name):
    # period-action relation: the lattice basis over 2pi equals the central
    # differences of the loop actions across neighboring fibers, built here
    # only from the public fiber, lattice and action functions
    sc = builtin(name)
    sys = sc.system
    fiber = sys.integral_values(sc.base_point())
    x0 = find_fiber_point(sys, fiber, sc.base_point())
    lattice = torus_lattice(sys, x0, angle_maps=sc.angle_maps)
    torus = action_integrals(sys, lattice)
    delta = 1e-4
    fd = np.zeros_like(torus.b)
    fd[:, sys.r] = torus.eta_pairings
    for nu in range(sys.r):
        neighbors = []
        for sgn in (+1.0, -1.0):
            target = fiber.copy()
            target[nu] += sgn * delta
            x = find_fiber_point(sys, target, x0)
            lat = torus_lattice(sys, x, declared_vectors=lattice.basis)
            neighbors.append(action_integrals(sys, lat))
        plus, minus = neighbors
        fd[:, nu] = (plus.actions - minus.actions) / (2 * delta)
        # the eta column stays constant across the neighboring fibers
        for near in neighbors:
            assert near.eta_pairings == pytest.approx(torus.eta_pairings, abs=1e-6)
    assert np.max(np.abs(fd - torus.b)) <= 1e-6
    if name == "pc-oscillator-1d":
        # non-symmetric b: the differences fix its orientation
        assert np.max(np.abs(fd - torus.b.T)) > 0.5
    assert torus.derivative_rank == sys.r
    assert torus.eta_residual <= 1e-12


def test_b_matrix_rejects_eta_mismatch():
    sys = oscillator_system()
    torus = fiber_torus(sys, [0.5], oscillator_angles())
    with pytest.raises(CycleError, match="do not match the Reeb-time column"):
        b_matrix(sys, torus.lattice, torus.eta_pairings + np.array([0.0, 1e-3]))


@pytest.mark.parametrize("mode, k, message", [
    ("radial", None, "unknown mode 'radial'"),
    ("hamiltonian", None, r"prefix index 1\.\.1"),
    ("hamiltonian", 0, r"prefix index 1\.\.1"),
    ("hamiltonian", 2, r"prefix index 1\.\.1"),
])
def test_solve_frequencies_refuses_bad_modes(mode, k, message):
    torus = fiber_torus(oscillator_system(), [0.5], oscillator_angles())
    with pytest.raises(ValueError, match=message):
        solve_frequencies(torus, mode, k)


def test_ill_conditioned_torus_is_refused_by_every_solve():
    sys = oscillator_system()
    torus = replace(fiber_torus(sys, [0.5], oscillator_angles()), cond=1e9)
    for solve in (
        lambda: solve_frequencies(torus, "reeb"),
        lambda: solve_frequencies(torus, "hamiltonian", 1),
        lambda: evaluation_frequencies(torus, sys),
    ):
        with pytest.raises(ActionAngleError, match="ill-conditioned: cond=1.000e"):
            solve()


def test_angle_alignment_rejects_wrong_angles():
    from cosymkit.actionangle import ActionAngleError

    sys = oscillator_system()
    x0 = np.array([0.0, 1.0, 0.0])
    lattice = detect_period_lattice(sys, x0)
    bad = (
        AngleMap.from_spec({"plane": ["q", "-p"], "label": "a"}, CHART),
        AngleMap.from_spec({"plane": ["q", "-p"], "label": "b"}, CHART),
    )
    with pytest.raises(ActionAngleError):
        align_lattice_to_angles(sys, lattice, bad)


# --- lattices seeded from the angle maps ---------------------------------------


def _fiber_base(sc):
    sys = sc.system
    return find_fiber_point(sys, sys.integral_values(sc.base_point()), sc.base_point())


@pytest.mark.parametrize(
    "name", ["ext-oscillator-1d", "ext-oscillator-2d-super", "pc-oscillator-1d"]
)
def test_angle_seeded_lattice_matches_scan(name):
    sc = builtin(name)
    sys = sc.system
    x0 = _fiber_base(sc)
    seeded = torus_lattice(sys, x0, angle_maps=sc.angle_maps)
    scanned = align_lattice_to_angles(sys, detect_period_lattice(sys, x0), sc.angle_maps)
    assert np.max(np.abs(seeded.basis - scanned.basis)) <= 1e-9
    assert np.all(seeded.residuals < 1e-9)


def _anisotropic_angles(sc, mode2_plane):
    phase1, _, t = sc.angle_maps
    return (phase1, AngleMap.from_spec({"plane": mode2_plane}, sc.chart), t)


@pytest.mark.parametrize("mode2_plane", [["q2", "-p2"], ["q2 + 0.5*p2", "-p2/sqrt(2)"]])
def test_angle_seeds_tolerate_nonuniform_angles(mode2_plane):
    # these mode-2 angles do not advance at a constant rate, so their mean
    # rate over the seeding flow is only near sqrt(2); Newton closes the row
    sc = builtin("ext-oscillator-anisotropic")
    lattice = torus_lattice(
        sc.system, _fiber_base(sc), angle_maps=_anisotropic_angles(sc, mode2_plane)
    )
    assert np.max(np.abs(lattice.basis - sc.declared_lattice)) <= 1e-9


@pytest.mark.parametrize("name", ["ext-oscillator-anisotropic", "pc-oscillator-1d"])
def test_angle_seeded_lattice_runs_no_scan(monkeypatch, name):
    def scan(*args, **kwargs):
        raise AssertionError("angle-seeded lattice ran the near-return scan")

    monkeypatch.setattr(actionangle, "detect_period_lattice", scan)
    monkeypatch.setattr(actionangle, "_near_return_candidates", scan)
    sc = builtin(name)
    sys = sc.system
    lattice = torus_lattice(sys, _fiber_base(sc), angle_maps=sc.angle_maps)
    assert lattice.rank == sys.r + 1
    torus = action_integrals(sys, lattice)
    if name == "ext-oscillator-anisotropic":
        assert lattice.basis == pytest.approx(sc.declared_lattice, abs=1e-9)
        assert np.diag(torus.b) == pytest.approx(sc.oracles["b_diagonal"]["value"], abs=1e-9)
    else:
        assert torus.b == pytest.approx(np.array([[1.0, 0.0], [-1.0, 1.0]]), abs=1e-9)


def test_angle_map_needs_coordinate_or_plane():
    # naming both is refused the same way (tests/test_cli.py)
    with pytest.raises(ValueError, match="exactly one of 'coordinate' and 'plane'"):
        AngleMap.from_spec({"label": "none"}, CHART)


@pytest.mark.parametrize("twice", [0, 1])
def test_angles_that_do_not_separate_fields_raise(twice):
    sys = oscillator_system()
    angle = oscillator_angles()[twice]
    with pytest.raises(ActionAngleError) as info:
        torus_lattice(sys, np.array([0.0, 1.0, 0.0]), angle_maps=(angle, angle))
    rates = info.value.rates
    assert rates.shape == (2, 2)
    assert np.array_equal(rates[0], rates[1])
    assert rates[0] == pytest.approx(np.eye(2)[twice], abs=1e-9)


def _forbid_flows(monkeypatch):
    def flow(*args, **kwargs):
        raise AssertionError("the lattice flowed or scanned")

    for name in ("integrate", "detect_period_lattice", "_near_return_candidates"):
        monkeypatch.setattr(actionangle, name, flow)


def test_lattice_without_seeds_raises_before_flowing(monkeypatch):
    _forbid_flows(monkeypatch)
    sys = oscillator_system()
    with pytest.raises(ActionAngleError, match="needs declared vectors or one angle map"):
        torus_lattice(sys, np.array([0.0, 1.0, 0.0]))


@pytest.mark.parametrize("count", [1, 3])
def test_lattice_with_miscounted_angles_raises_before_flowing(monkeypatch, count):
    _forbid_flows(monkeypatch)
    sys = oscillator_system()
    angles = (oscillator_angles() * 2)[:count]
    with pytest.raises(ActionAngleError, match=f"per field; got {count} angle maps"):
        torus_lattice(
            sys, np.array([0.0, 1.0, 0.0]), angle_maps=angles,
            declared_vectors=np.diag([TWO_PI, TWO_PI]),
        )


def test_non_unimodular_windings_are_typed():
    # row 0 doubled still closes, but winds the first phase twice
    sc = builtin("ext-oscillator-anisotropic")
    doubled = sc.declared_lattice.copy()
    doubled[0] *= 2
    with pytest.raises(WindingError) as info:
        torus_lattice(
            sc.system, _fiber_base(sc), angle_maps=sc.angle_maps, declared_vectors=doubled
        )
    assert "not unimodular" in str(info.value)
    assert info.value.windings == pytest.approx(np.diag([2.0, 1.0, 1.0]), abs=1e-6)
