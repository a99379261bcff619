import io
import math

import numpy as np
import pytest

from cosymkit.cosym import make_canonical, make_poincare_cartan
from cosymkit.fields import ChartSpec, ScalarField
from cosymkit.flow import (
    SectionSpec,
    StepSizeUnderflowError,
    drift_report,
    integrate,
    section_crossings,
)

CHART = ChartSpec(("t", "q", "p"), (True, False, False))
BOX = [[0.0, 2 * math.pi], [-2.0, 2.0], [-2.0, 2.0]]
TWO_PI = 2 * math.pi


def oscillator():
    S = make_canonical(1, box=BOX)
    H = ScalarField.from_source("(q^2 + p^2)/2", CHART, "H")
    return S, H


def test_evaluation_flow_returns_after_period():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], TWO_PI, 1e-10, CHART, [H])
    # q = cos(tau), p = -sin(tau), t advances by 2*pi (unwrapped)
    assert traj.final_state == pytest.approx([TWO_PI, 1.0, 0.0], abs=1e-8)
    # normalized view folds t back into [0, 2*pi)
    norm_final = traj.normalized_states()[-1]
    assert norm_final[0] == pytest.approx(0.0, abs=1e-8) or norm_final[0] == pytest.approx(
        TWO_PI, abs=1e-8
    )


def test_reeb_flow_is_exact_translation():
    S, _ = oscillator()
    end = integrate(S.reeb_vf(), [0.0, 1.0, 0.0], 1.0, 1e-10, CHART).final_state
    assert end == pytest.approx([1.0, 1.0, 0.0], abs=1e-13)


def test_hamiltonian_flow_keeps_time_constant():
    S, H = oscillator()
    traj = integrate(S.hamiltonian_vf(H), [0.4, 1.0, 0.0], 5.0, 1e-10, CHART)
    assert np.max(np.abs(traj.states[:, 0] - 0.4)) < 1e-12


def test_eta_pairing_time_rate_along_evaluation_flow():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.3, 0.2], 7.0, 1e-10, CHART)
    assert traj.final_state[0] == pytest.approx(7.0, abs=1e-10)


def test_drift_oscillator_long_run():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], 100.0, 1e-10, CHART, [H])
    drift = drift_report(traj)
    assert drift["H"] < 1e-7


def test_drift_non_integral_is_order_one():
    S, H = oscillator()
    q = ScalarField.from_source("q", CHART, "q")
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], 10.0, 1e-10, CHART, [q])
    drift = drift_report(traj)
    assert drift["q"] > 0.5  # reported, not failed


def test_zero_length_trajectory():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], 0.0, 1e-10, CHART, [H])
    assert len(traj.times) == 1
    assert drift_report(traj) == {"H": 0.0}
    assert traj.stages.shape == (0, 2, 6, 3)
    assert traj.quadrature(S.eta.at_stack) == 0.0


def test_time_reversal():
    S, H = oscillator()
    tol = 1e-10
    x0 = np.array([0.0, 1.1, -0.3])
    fwd = integrate(S.evaluation_vf(H), x0, 0.25, tol, CHART)
    back = integrate(S.evaluation_vf(H), fwd.final_state, -0.25, tol, CHART)
    assert np.max(np.abs(back.final_state - x0)) < 10 * tol


def test_flow_commutativity():
    S, H = oscillator()
    x0 = np.array([0.2, 0.9, 0.4])
    YH = S.evaluation_vf(H)
    XH = S.hamiltonian_vf(H)
    a, b = 0.8, 0.6
    via_x = integrate(XH, x0, b, 1e-10, CHART).final_state
    via_y = integrate(YH, x0, a, 1e-10, CHART).final_state
    one = integrate(YH, via_x, a, 1e-10, CHART).final_state
    two = integrate(XH, via_y, b, 1e-10, CHART).final_state
    assert np.max(np.abs(one - two)) < 1e-6


def test_t_section_events_at_multiples_of_two_pi():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], 25.0, 1e-10, CHART)
    events = section_crossings(
        traj, SectionSpec("t", 0.0, direction=1), field=S.evaluation_vf(H)
    )
    times = [e.time for e in events]
    assert times == pytest.approx([TWO_PI, 2 * TWO_PI, 3 * TWO_PI], abs=1e-9)
    assert [e.winding["t"] for e in events] == [1, 2, 3]


def test_q_section_events_oscillator():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], 20.0, 1e-10, CHART)
    events = section_crossings(
        traj, SectionSpec("q", 0.0, direction=1), field=S.evaluation_vf(H)
    )
    # q = cos(tau) crosses zero upward at 3*pi/2 + 2*pi*k
    times = [e.time for e in events]
    expected = [3 * math.pi / 2 + TWO_PI * k for k in range(3)]
    assert times == pytest.approx(expected, abs=1e-9)


def test_no_crossing_returns_empty():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], 3.0, 1e-10, CHART)
    events = section_crossings(traj, SectionSpec("q", 5.0, direction=0))
    assert events == []


def test_pc_reeb_flow_matches_oscillator():
    S = make_poincare_cartan(
        ScalarField.from_source("(q^2 + p^2)/2", CHART, "H"), box=BOX
    )
    traj = integrate(S.reeb_vf(), [0.0, 1.0, 0.0], TWO_PI, 1e-10, CHART)
    assert traj.final_state == pytest.approx([TWO_PI, 1.0, 0.0], abs=1e-8)


def test_csv_export_shape():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], 1.0, 1e-8, CHART, [H])
    buf = io.StringIO()
    traj.to_csv(buf)
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
        integrate(stiff, [0.0, 0.0, 0.0], 2.0, 1e-10, CHART)


def test_dense_output_accuracy():
    S, H = oscillator()
    traj = integrate(S.evaluation_vf(H), [0.0, 1.0, 0.0], TWO_PI, 1e-10, CHART)
    for tau in np.linspace(0.3, 6.0, 17):
        x = traj.state_at(tau)
        assert x[1] == pytest.approx(math.cos(tau), abs=1e-7)
        assert x[2] == pytest.approx(-math.sin(tau), abs=1e-7)
