"""Numerical flows of Reeb, Hamiltonian and evaluation fields.

An adaptive Dormand-Prince 5(4) pair drives every trajectory; the embedded
fourth-order solution controls the local error per step against ``tol``.
Accepted steps keep the state, the field value and the values of all declared
integrals, so conservation is measured rather than assumed.  They also keep
their stages, on which ``Trajectory.quadrature`` integrates a one-form along
the flow as one more fifth-order ODE component.  Dense output is
cubic Hermite on each accepted step.

Internal states are never folded into periodic ranges: winding counts stay
exact and angle unwrapping downstream is trivial.  Normalization happens only
in exported views (CSV, ``normalized_states``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ChartSpec, Point

__all__ = [
    "FlowError",
    "StepSizeUnderflowError",
    "Trajectory",
    "integrate",
    "drift_report",
]


class FlowError(Exception):
    """Base class for integration failures."""


class StepSizeUnderflowError(FlowError):
    def __init__(self, tau, state):
        super().__init__(
            f"step size underflow at tau={tau!r}, state={np.asarray(state).tolist()}"
        )
        self.tau = tau
        self.state = np.asarray(state, dtype=float)


# Dormand-Prince 5(4) tableau; the propagating solution is fifth order and
# the last stage is the derivative at the new point (FSAL).
_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array(
    [
        71 / 57600,
        0.0,
        -71 / 16695,
        71 / 1920,
        -17253 / 339200,
        22 / 525,
        -1 / 40,
    ]
)


@dataclass
class Trajectory:
    """Accepted integration steps of one flow.

    ``states`` are unwrapped (periodic coordinates keep accumulating);
    ``integral_values`` has one column per declared integral, evaluated at
    every accepted step.  ``stages[k]`` (2, 6, d) holds the stage states of
    accepted step k and the field values there.
    """

    chart: ChartSpec
    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    integral_names: tuple[str, ...]
    integral_values: np.ndarray
    stages: np.ndarray

    def __post_init__(self):
        d = np.diff(self.times)
        if len(d) and not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("times must be strictly monotone")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def _segment(self, tau: float) -> int:
        t = self.times
        sign = 1.0 if t[-1] >= t[0] else -1.0
        idx = int(np.searchsorted(sign * t, sign * tau, side="right")) - 1
        return min(max(idx, 0), len(t) - 2)

    def state_at(self, tau: float) -> np.ndarray:
        """Cubic Hermite interpolation on the accepted step containing tau."""
        if len(self.times) == 1:
            return self.states[0].copy()
        i = self._segment(tau)
        t0, t1 = self.times[i], self.times[i + 1]
        h = t1 - t0
        s = (tau - t0) / h
        y0, y1 = self.states[i], self.states[i + 1]
        f0, f1 = self.derivs[i], self.derivs[i + 1]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1

    def quadrature(self, alpha) -> float:
        """Integral of ``alpha(x) . V(x)`` over tau along the accepted steps.

        ``alpha`` maps points (N, d) to covectors (N, d).  It is taken at the
        stage states against the stage values, summed with the fifth-order
        weights: no field is evaluated, and the result is as accurate as the
        flow.
        """
        Y, K = self.stages[:, 0], self.stages[:, 1]
        covectors = alpha(Y.reshape(-1, Y.shape[-1])).reshape(Y.shape)
        return float(np.diff(self.times) @ (np.sum(covectors * K, axis=-1) @ _B5))

    def sample(self, taus) -> np.ndarray:
        return np.array([self.state_at(t) for t in np.asarray(taus, dtype=float)])

    def normalized_states(self) -> np.ndarray:
        return self.chart.normalize(self.states)

    def to_csv(self, target) -> None:
        """Write ``tau,<coords...>,<integrals...>`` rows, one per accepted step."""
        close = False
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            handle = open(target, "w", encoding="utf-8")
            close = True
        else:
            handle = target
        try:
            header = ["tau", *self.chart.names, *self.integral_names]
            handle.write(",".join(header) + "\n")
            norm = self.normalized_states()
            for k in range(len(self.times)):
                row = [repr(float(self.times[k]))]
                row += [repr(float(v)) for v in norm[k]]
                row += [repr(float(v)) for v in self.integral_values[k]]
                handle.write(",".join(row) + "\n")
        finally:
            if close:
                handle.close()


def _initial_step(field, y0, f0, sign, tol):
    sc = tol + tol * np.abs(y0)
    n = len(y0)
    d0 = float(np.linalg.norm(y0 / sc)) / math.sqrt(n)
    d1 = float(np.linalg.norm(f0 / sc)) / math.sqrt(n)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + sign * h0 * f0
    f1 = np.asarray(field(y1), dtype=float)
    d2 = float(np.linalg.norm((f1 - f0) / sc)) / math.sqrt(n) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


#: Step attempts (accepted or rejected) after which a flow is abandoned.
_MAX_STEPS = 2_000_000


def integrate(
    field,
    x0: Point,
    tau_end: float,
    tol: float,
    chart: ChartSpec,
    integrals=(),
) -> Trajectory:
    """Integrate ``dx/dtau = field(x)`` from 0 to ``tau_end`` adaptively.

    ``tol`` bounds the estimated local error per accepted step (used both as
    absolute and relative scale).  Negative ``tau_end`` integrates backward.
    Declared integrals are evaluated at every accepted step.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x0 = np.asarray(x0, dtype=float)
    names = tuple(getattr(f, "name", f"f{i}") for i, f in enumerate(integrals))

    f0 = np.asarray(field(x0), dtype=float)
    times = [0.0]
    ivals = [[f.value(x0) for f in integrals]]
    stages = []

    if tau_end == 0.0:
        return Trajectory(
            chart, np.array(times), x0[None].copy(), f0[None].copy(),
            names, np.array(ivals), np.zeros((0, 2, 6, len(x0))),
        )

    sign = 1.0 if tau_end > 0 else -1.0
    span = abs(tau_end)
    h = min(_initial_step(field, x0, f0, sign, tol), span)
    h_min = 1e-14 * max(1.0, span)

    t = 0.0
    y = x0.copy()
    f_cur = f0
    steps = 0
    n = len(x0)
    K = np.empty((7, n))
    while sign * (tau_end - t) > 1e-15 * span:
        if steps >= _MAX_STEPS:
            raise FlowError(f"exceeded {_MAX_STEPS} steps at tau={t}")
        remaining = abs(tau_end - t)
        h = min(h, remaining)
        if h < h_min and h < remaining:
            raise StepSizeUnderflowError(t, y)
        hs = sign * h
        # fresh for every try: an accepted record is kept as it is
        record = np.empty((2, 6, n))
        Y = record[0]
        K[0] = f_cur
        Y[0] = y
        for i, a in enumerate(_A):
            yi = Y[i + 1] = y + hs * (a @ K[: i + 1])
            K[i + 1] = field(yi)
        y_new = y + hs * (_B5 @ K[:6])
        f_new = np.asarray(field(y_new), dtype=float)
        K[6] = f_new
        err = hs * (_E @ K)
        sc = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        v = err / sc
        # the RMS norm: np.mean's add.reduce and division, without its wrapper
        err_norm = math.sqrt(float(np.add.reduce(v * v)) / n)
        steps += 1
        if err_norm <= 1.0:
            t = tau_end if abs(tau_end - (t + hs)) <= 1e-15 * span else t + hs
            y = y_new
            f_cur = f_new
            times.append(t)
            ivals.append([f.value(y) for f in integrals])
            record[1] = K[:6]
            stages.append(record)
        factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.8 * err_norm ** -0.2))
        h *= factor
    # every step starts at its first stage state, with its first stage value
    stages = np.array(stages)
    return Trajectory(
        chart,
        np.array(times),
        np.concatenate((stages[:, 0, 0], [y])),
        np.concatenate((stages[:, 1, 0], [f_cur])),
        names,
        np.array(ivals) if integrals else np.zeros((len(times), 0)),
        stages,
    )


def drift_report(traj: Trajectory) -> dict:
    """Max |f_i(x(tau)) - f_i(x(0))| per integral recorded on the trajectory."""
    values = traj.integral_values
    if values.shape[1] == 0:
        return {}
    drifts = np.max(np.abs(values - values[0]), axis=0)
    return {name: float(d) for name, d in zip(traj.integral_names, drifts)}
