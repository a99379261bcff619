import io
import math
import re

import numpy as np
import pytest

from cosymkit import flow
from cosymkit.cosym import make_canonical, make_poincare_cartan
from cosymkit.fields import ChartSpec, ScalarField
from cosymkit.flow import FlowError, StepSizeUnderflowError, drift_report, integrate
from cosymkit.scenarios import builtin, builtin_names

CHART = ChartSpec(("t", "q", "p"), (True, False, False))
BOX = [[0.0, 2 * math.pi], [-2.0, 2.0], [-2.0, 2.0]]
TWO_PI = 2 * math.pi


def oscillator():
    S = make_canonical(1, box=BOX)
    H = ScalarField.from_source("(q^2 + p^2)/2", CHART, "H")
    return S, H


def test_evaluation_flow_returns_after_period():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], TWO_PI, 1e-10)
    # q = cos(tau), p = -sin(tau), t advances by 2*pi (unwrapped)
    assert traj.final_state == pytest.approx([TWO_PI, 1.0, 0.0], abs=1e-8)
    # the chart folds t back into [0, 2*pi)
    norm_final = CHART.normalize(traj.states)[-1]
    assert norm_final[0] == pytest.approx(0.0, abs=1e-8) or norm_final[0] == pytest.approx(
        TWO_PI, abs=1e-8
    )


def test_reeb_flow_is_exact_translation():
    S, _ = oscillator()
    end = integrate(S.reeb_vf(), [0.0, 1.0, 0.0], 1.0, 1e-10).final_state
    assert end == pytest.approx([1.0, 1.0, 0.0], abs=1e-13)


def test_hamiltonian_flow_keeps_time_constant():
    S, H = oscillator()
    traj = integrate(S.hamiltonian_vf(H), [0.4, 1.0, 0.0], 5.0, 1e-10)
    assert np.max(np.abs(traj.states[:, 0] - 0.4)) < 1e-12


def test_eta_pairing_time_rate_along_evaluation_flow():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.3, 0.2], 7.0, 1e-10)
    assert traj.final_state[0] == pytest.approx(7.0, abs=1e-10)


def test_drift_oscillator_long_run():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], 100.0, 1e-10)
    drift = drift_report(traj, [H])
    assert drift["H"] < 1e-7


def test_drift_non_integral_is_order_one():
    S, H = oscillator()
    q = ScalarField.from_source("q", CHART, "q")
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], 10.0, 1e-10)
    drift = drift_report(traj, [q])
    assert drift["q"] > 0.5  # reported, not failed


def test_zero_length_trajectory():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], 0.0, 1e-10)
    assert len(traj.times) == 1
    assert drift_report(traj, [H]) == {"H": 0.0}
    assert traj.stages.shape == (0, 2, 12, 3)
    assert traj.quadrature(S.eta.at_stack) == 0.0


def test_time_reversal():
    S, H = oscillator()
    tol = 1e-10
    x0 = np.array([0.0, 1.1, -0.3])
    fwd = integrate(S.evaluation_vf(H), x0, 0.25, tol)
    back = integrate(S.evaluation_vf(H), fwd.final_state, -0.25, tol)
    assert np.max(np.abs(back.final_state - x0)) < 10 * tol


def test_flow_commutativity():
    S, H = oscillator()
    x0 = np.array([0.2, 0.9, 0.4])
    YH = S.evaluation_vf(H)
    XH = S.hamiltonian_vf(H)
    a, b = 0.8, 0.6
    via_x = integrate(XH, x0, b, 1e-10).final_state
    via_y = integrate(YH, x0, a, 1e-10).final_state
    one = integrate(YH, via_x, a, 1e-10).final_state
    two = integrate(XH, via_y, b, 1e-10).final_state
    assert np.max(np.abs(one - two)) < 1e-6


@pytest.mark.parametrize("flow", ["evaluation", "reeb"])
@pytest.mark.parametrize("name", builtin_names())
def test_eta_coordinate_advances_at_unit_rate(name, flow):
    # eta(Y_H) = eta(Z) = 1 and eta is d of one coordinate, so that
    # coordinate reads tau at every step: where it is periodic, the section
    # {x_c = x_c(0)} is crossed at exactly tau = 2*pi*k
    sc = builtin(name)
    S = sc.structure
    x0 = sc.base_point()
    field = S.evaluation_vf(sc.system.hamiltonian) if flow == "evaluation" else S.reeb_vf()
    traj = integrate(field, x0, 50.0, 1e-10)
    c = int(np.argmax(np.abs(S.eta.at(x0))))
    assert np.all(S.eta.at_stack(traj.states) == np.eye(len(x0))[c])
    drift = traj.states[:, c] - traj.states[0, c] - traj.times
    assert np.all(np.abs(drift) <= 1e-12 * (1 + traj.times))


def test_pc_reeb_flow_matches_oscillator():
    S = make_poincare_cartan(
        ScalarField.from_source("(q^2 + p^2)/2", CHART, "H"), box=BOX
    )
    traj = integrate(S.reeb_vf(), [0.0, 1.0, 0.0], TWO_PI, 1e-10)
    assert traj.final_state == pytest.approx([TWO_PI, 1.0, 0.0], abs=1e-8)


def test_csv_export_shape():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], 1.0, 1e-8)
    buf = io.StringIO()
    traj.to_csv(buf, CHART, [H])
    text = buf.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == "tau,t,q,p,H"
    assert len(lines) == len(traj.times) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first == pytest.approx([0.0, 0.0, 1.0, 0.0, 0.5])


def test_step_underflow_reported():
    def stiff(x):
        # derivative blows up approaching q = 1; forces h -> 0
        return np.array([1.0, 1.0 / (1.0 - x[1]), 0.0])

    with pytest.raises(StepSizeUnderflowError):
        integrate(stiff, [0.0, 0.0, 0.0], 2.0, 1e-10)


def test_dense_output_accuracy():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], TWO_PI, 1e-10)
    for tau in np.linspace(0.3, 6.0, 17):
        x = traj.state_at(tau)
        assert x[1] == pytest.approx(math.cos(tau), abs=1e-9)
        assert x[2] == pytest.approx(-math.sin(tau), abs=1e-9)


def test_tableau_order_conditions():
    # a mistyped coefficient breaks one of these without a reference solver
    c = flow._C
    assert len(flow._A) == 11
    for i, row in enumerate(flow._A, start=1):
        assert len(row) == i
        assert np.sum(row) == pytest.approx(c[i], abs=1e-14)
    for k in range(1, 9):
        assert flow._B @ c ** (k - 1) == pytest.approx(1 / k, abs=1e-14)
    # eighth order exactly: the ninth quadrature condition fails
    assert abs(flow._B @ c**8 - 1 / 9) > 1e-6
    for k in range(1, 6):
        assert flow._E5 @ c ** (k - 1) == pytest.approx(0.0, abs=1e-14)
    for k in range(1, 4):
        assert flow._E3 @ c ** (k - 1) == pytest.approx(0.0, abs=1e-14)


def test_evaluation_flow_step_count():
    # Dormand-Prince 5(4) took 505 accepted steps on this flow
    sc = builtin("pc-oscillator-1d")
    S = sc.structure
    traj = integrate(S.evaluation_vf(sc.system.hamiltonian), sc.base_point(), 20.0, 1e-10)
    assert len(traj.times) - 1 <= 80


@pytest.mark.parametrize("tau_end, tol, evaluations, accepted, rejected", [
    (6.0, 1e-10, 1552, 120, 10),
    (6.0, 1e-8, 963, 70, 11),
    (0.0, 1e-10, 1, 0, 0),
])
def test_field_evaluations_per_step_attempt(
    monkeypatch, tau_end, tol, evaluations, accepted, rejected
):
    # the initial value and the first-step probe, eleven stages per attempt
    # (the first stage is the value at the step's start) and the value at
    # each accepted state; a zero flow time reads only the initial value
    calls, attempts = [], []
    make_step = flow._step

    def counting_step(d):
        step = make_step(d)

        def attempt(*args):
            attempts.append(None)
            return step(*args)

        return attempt

    def field(x):
        # an oscillator whose spring stiffens 401-fold around t = 3, where
        # steps are rejected
        calls.append(None)
        return np.array([1.0, x[2], -(1.0 + 400.0 * math.exp(-4.0 * (x[0] - 3.0) ** 2)) * x[1]])

    monkeypatch.setattr(flow, "_step", counting_step)
    steps = len(integrate(field, [0.0, 1.0, 0.0], tau_end, tol).times) - 1
    assert (steps, len(attempts) - steps) == (accepted, rejected)
    assert len(calls) == evaluations
    if tau_end != 0.0:
        assert len(calls) == 2 + 11 * len(attempts) + accepted


# --- the generated step against references ------------------------------------


def _nonzero_sum(coefficients, values):
    """``sum c_m v_m`` over the nonzero ``c_m``, left to right."""
    total = None
    for c, v in zip(coefficients, values):
        if c != 0.0:
            term = float(c) * v
            total = term if total is None else total + term
    return total


def _reference_step(field, y, f, hs, tol):
    """The Dormand-Prince 8 step written out in plain Python, in the order
    the generated step sums."""
    Y, K = [list(y)], [list(f)]
    for a in flow._A:
        stage = [Y[0][j] + hs * _nonzero_sum(a, [k[j] for k in K]) for j in range(len(y))]
        Y.append(stage)
        K.append(np.asarray(field(np.array(stage)), dtype=float).tolist())
    new = [Y[0][j] + hs * _nonzero_sum(flow._B, [k[j] for k in K]) for j in range(len(y))]
    s5 = s3 = None
    for j in range(len(y)):
        w = tol + tol * max(abs(new[j]), abs(Y[0][j]))
        e5 = _nonzero_sum(flow._E5, [k[j] for k in K]) / w
        e3 = _nonzero_sum(flow._E3, [k[j] for k in K]) / w
        s5 = e5 * e5 if s5 is None else s5 + e5 * e5
        s3 = e3 * e3 if s3 is None else s3 + e3 * e3
    record = tuple(v for row in Y + K for v in row)
    return record, tuple(new), s5, s3


def _numpy_step(field, y, f, hs):
    """The stage record and the new state by numpy's tableau products,
    ``y + hs * (a @ K[:i])``, whose sums run in a BLAS kernel's order."""
    record = np.empty((2, 12, len(y)))
    Y, K = record
    Y[0], K[0] = y, f
    for i, a in enumerate(flow._A, start=1):
        Y[i] = y + hs * (a @ K[:i])
        K[i] = field(Y[i])
    return record, y + hs * (flow._B @ K)


def _random_problem(d, rng):
    """A smooth nonlinear field in dimension ``d``, its Lipschitz constant in
    the max norm, a state, the field's value there and a signed step size."""
    M = rng.standard_normal((d, d))
    c = rng.standard_normal(d)

    def field(x):
        return np.sin(M @ x) + c * x[0]

    y = rng.uniform(-3.0, 3.0, d)
    lipschitz = float(np.abs(M).sum(axis=1).max() + np.abs(c).max())
    return field, lipschitz, y, field(y), float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.5))


@pytest.mark.parametrize("d", range(1, 8))
def test_generated_step_matches_plain_python_reference(d):
    rng = np.random.default_rng(100 + d)
    step = flow._step(d)
    for _ in range(40):
        field, _, y, f, hs = _random_problem(d, rng)
        tol = float(10.0 ** rng.uniform(-13, -6))
        got = step(field, y.tolist(), f.tolist(), hs, tol)
        want = _reference_step(field, y.tolist(), f.tolist(), hs, tol)
        assert got == want


@pytest.mark.parametrize("d", range(1, 8))
def test_generated_step_agrees_with_numpy_products(d):
    rng = np.random.default_rng(200 + d)
    step = flow._step(d)
    for _ in range(200):
        field, lipschitz, y, f, hs = _random_problem(d, rng)
        record, new, _, _ = step(field, y.tolist(), f.tolist(), hs, 1e-10)
        want_record, want_new = _numpy_step(field, y, f, hs)
        # the state's scale: |y| and the largest increment term, |hs| |a| |K|
        K = np.abs(want_record[1])
        terms = max((np.abs(a) @ K[: len(a)]).max() for a in (*flow._A, flow._B))
        ulp = np.spacing(np.abs(y).max() + abs(hs) * terms)
        assert np.abs(np.array(new) - want_new).max() <= 2 * ulp
        # a stage state also inherits the earlier stages' differences through
        # the field, so the stages get a looser bound (13 ulp seen at d = 5)
        got = np.array(record).reshape(2, 12, d)
        assert np.abs(got[0] - want_record[0]).max() <= 32 * ulp
        assert np.abs(got[1] - want_record[1]).max() <= 32 * ulp * (1 + lipschitz)


def test_step_is_generated_once_per_dimension(monkeypatch):
    made = []
    generate = flow._step_code

    def counting(d):
        made.append(d)
        return generate(d)

    monkeypatch.setattr(flow, "_step_code", counting)
    flow._step.cache_clear()
    S, H = oscillator()
    for _ in range(2):
        integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], 1.0, 1e-10)
        integrate(lambda x: -x, np.ones(5), 1.0, 1e-10)
    assert made == [3, 5]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("stage", [1, 4, 11])
def test_non_finite_stage_value_rejects_every_step(stage, bad):
    # the oscillator field, but ``bad`` at one stage of every attempted step;
    # it carries a non-finite stage state on, so each attempt's error is not
    # finite and the step shrinks to the floor at the initial point
    calls = []

    def field(x):
        calls.append(None)
        # calls 1 and 2 are the initial value and the first-step probe; every
        # rejected attempt then makes 11 calls, stages 1 to 11
        if len(calls) > 2 and (len(calls) - 3) % 11 == stage - 1:
            return np.full(3, bad)
        return np.array([1.0, x[2], -x[1]])

    with pytest.raises(StepSizeUnderflowError) as info:
        integrate(field, [0.0, 1.0, 0.0], 2.0, 1e-10)
    assert str(info.value) == "step size underflow at tau=0.0, state=[0.0, 1.0, 0.0]"
    assert (len(calls) - 2) % 11 == 0


@pytest.mark.parametrize("tau_end, tol", [
    (math.nan, 1e-10), (math.inf, 1e-10), (-math.inf, 1e-10), (1.0, math.nan), (1.0, math.inf),
])
def test_non_finite_flow_inputs_are_refused_before_any_evaluation(tau_end, tol):
    calls = []

    def field(x):
        calls.append(x)
        return np.array([1.0, x[2], -x[1]])

    with pytest.raises(ValueError, match="must be (positive and )?finite"):
        integrate(field, [0.0, 1.0, 0.0], tau_end, tol)
    assert calls == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_start_is_refused_before_any_evaluation(monkeypatch, bad):
    # a non-finite start made a NaN first step, and every attempt was then
    # rejected until the step budget ran out
    monkeypatch.setattr(flow, "_MAX_STEPS", 1000)
    calls = []

    def field(x):
        calls.append(x)
        return np.array([1.0, 0.0, 0.0])

    with pytest.raises(ValueError, match=re.escape(f"x0 must be finite, got [0.0, {bad}, 0.0]")):
        integrate(field, [0.0, bad, 0.0], 1.0, 1e-10)
    assert calls == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_field_not_finite_at_the_start_is_a_flow_error(monkeypatch, bad):
    monkeypatch.setattr(flow, "_MAX_STEPS", 1000)
    calls = []

    def field(x):
        calls.append(x)
        return np.array([1.0, bad, -x[1]])

    with pytest.raises(FlowError) as info:
        integrate(field, [0.0, 1.0, 0.0], 1.0, 1e-10)
    assert str(info.value) == f"field is not finite at x0 = [0.0, 1.0, 0.0]: [1.0, {bad}, -1.0]"
    assert len(calls) == 1
