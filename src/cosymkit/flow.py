"""Numerical flows of Reeb, Hamiltonian and evaluation fields.

A flow takes a field, a start, a flow time and a tolerance.  An adaptive
Dormand-Prince 8(5,3) pair drives every trajectory; the combined fifth- and
third-order error estimate controls the local error per step against
``tol``.  Accepted steps keep the state and their twelve stages, on which
``Trajectory.quadrature`` integrates a one-form along the flow as one more
eighth-order ODE component.  Dense output takes one step of the same method
from the accepted state before the requested time.  Conservation is measured
rather than assumed: ``drift_report`` reads the integrals off the accepted
states after the flow.

A step is one straight-line function per state dimension, generated from the
tableau on the first flow of that dimension (:func:`_step`): the stage sums,
the eighth-order update and the error sums run on Python floats in one fixed
order.  A stage is a function from d floats to d floats (:func:`_on_floats`):
a ``StructureVectorField`` of the Reeb, Hamiltonian or evaluation kind runs
its own one-point function on floats end to end, and any other field is
called on a fresh float array once per stage, its value read back as floats.
A flow time, a tolerance or a start that is not finite is refused before any
field is evaluated, and a field that is not finite at the start before any
step.

Internal states are never folded into periodic ranges: winding counts stay
exact and angle unwrapping downstream is trivial.  Normalization happens only
in the CSV export, through the chart it is given.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import exprlang
from .cosym import StructureVectorField
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


# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, 2nd ed., sec. II.10).  Twelve stages propagate an
# eighth-order solution; the error weights _E5 and _E3 give the fifth- and
# third-order estimates of the combined norm.  Row i of _A holds the
# coefficients of stage i + 1 on stages 0..i; _C[i] is the row sum.
_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])
_A = (
    np.array([5.26001519587677318785587544488e-2]),
    np.array([1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]),
    np.array([2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]),
    np.array([
        2.41365134159266685502369798665e-1, 0.0,
        -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1,
    ]),
    np.array([
        3.7037037037037037037037037037e-2, 0.0, 0.0,
        1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1,
    ]),
    np.array([
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2,
    ]),
    np.array([
        3.70920001185047927108779319836e-2, 0.0, 0.0,
        1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
        -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3,
    ]),
    np.array([
        6.24110958716075717114429577812e-1, 0.0, 0.0,
        -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
        2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
        -4.34898841810699588477366255144e1,
    ]),
    np.array([
        4.77662536438264365890433908527e-1, 0.0, 0.0,
        -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
        2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
        -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2,
    ]),
    np.array([
        -9.3714243008598732571704021658e-1, 0.0, 0.0,
        5.18637242884406370830023853209, 1.09143734899672957818500254654,
        -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
        2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
        -3.0467644718982195003823669022,
    ]),
    np.array([
        2.27331014751653820792359768449, 0.0, 0.0,
        -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
        -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
        -2.85899827713502369474065508674, -8.87285693353062954433549289258,
        1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1,
    ]),
)
_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
])
# _B minus the third-order weights
_E3 = _B - np.array([
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0,
    0.220588235294117647058823529412e-1,
])


def _step_code(d: int) -> str:
    """Source of the Dormand-Prince 8 step for states of dimension ``d``:
    ``Y{i}_{j}`` is component j of stage state i and ``K{i}_{j}`` of the
    field value there."""
    dims = range(d)

    def row(name: str, i: int) -> str:
        return "".join(f"{name}{i}_{j}, " for j in dims)

    def column(coefficients, j: int) -> str:
        """``c_0 K0_j + c_1 K1_j + ...`` over the nonzero ``c_m``, left to
        right, each coefficient written as its exact literal."""
        return " + ".join(
            f"{float(c)!r} * K{m}_{j}" for m, c in enumerate(coefficients) if c != 0.0
        )

    body = [f"({row('Y', 0)}) = y", f"({row('K', 0)}) = f"]
    for i, a in enumerate(_A, start=1):
        body += [f"Y{i}_{j} = Y0_{j} + hs * ({column(a, j)})" for j in dims]
        body.append(f"({row('K', i)}) = field(({row('Y', i)}))")
    body += [f"u{j} = Y0_{j} + hs * ({column(_B, j)})" for j in dims]
    for j in dims:
        body += [
            f"w = tol + tol * max(abs(u{j}), abs(Y0_{j}))",
            f"e{j} = ({column(_E5, j)}) / w",
            f"g{j} = ({column(_E3, j)}) / w",
        ]
    record = "".join(row("Y", i) for i in range(12)) + "".join(row("K", i) for i in range(12))
    body += [
        f"s5 = {' + '.join(f'e{j} * e{j}' for j in dims)}",
        f"s3 = {' + '.join(f'g{j} * g{j}' for j in dims)}",
        f"return ({record}), ({''.join(f'u{j}, ' for j in dims)}), s5, s3",
    ]
    return "def step(field, y, f, hs, tol):\n" + "".join(f"    {line}\n" for line in body)


@functools.cache
def _step(d: int):
    """``step(field, y, f, hs, tol)``: one Dormand-Prince 8 step of signed
    size ``hs`` from the state ``y`` (d floats) with ``f = field(y)``, for a
    ``field`` from d floats to d floats (:func:`_on_floats`).

    It returns the stage record (the twelve stage states, then the field
    values there: 24 d floats, in ``Trajectory.stages``' order), the
    eighth-order state at the end of the step (d floats) and the sums of
    squares of the fifth- and third-order error estimates, each component
    scaled by ``tol + tol * max(|y_new|, |y|)``.

    The function is straight-line code on Python floats, generated from
    ``_A``, ``_B``, ``_E5`` and ``_E3`` on the first request for ``d`` and
    cached.  Every sum runs over the nonzero coefficients, left to right, so
    its bits do not depend on a BLAS kernel; a non-finite stage value reaches
    only the sums that use it.  Each stage calls ``field`` on a tuple of the
    stage state's d floats and unpacks the d values it returns.
    """
    env = {}
    exec(exprlang.compiled(_step_code(d), f"<Dormand-Prince 8 step, d={d}>"), env)
    return env["step"]


def _on_floats(field):
    """``field`` as a function from d floats to d floats, the form a step
    calls.  A ``StructureVectorField`` with a one-point function is that
    function; any other callable (the gradient kind included) is called on a
    fresh float array, its value read back as floats.

    The check is on the class itself: a wrapper that forwards attributes,
    such as a counting proxy, is a plain callable here and sees every
    evaluation.
    """
    if type(field) is StructureVectorField and field._at_point is not None:
        return field._at_point

    def at(y):
        return np.asarray(field(np.array(y)), dtype=float).tolist()

    return at


@dataclass
class Trajectory:
    """Accepted integration steps of one flow.

    ``states`` are unwrapped (periodic coordinates keep accumulating).
    ``stages[k]`` (2, 12, d) holds the stage states of accepted step k and
    the field values there; ``integrate`` builds the array once, from the
    float records its steps return.  ``field`` is the flowed field, which
    dense output steps with.
    """

    times: np.ndarray
    states: np.ndarray
    stages: np.ndarray
    field: object

    def __post_init__(self):
        d = np.diff(self.times)
        if len(d) and not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("times must be strictly monotone")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def state_at(self, tau: float) -> np.ndarray:
        """The state at ``tau``: one step of the flow's own method from the
        accepted state before ``tau``, shorter than the step accepted there."""
        t = self.times
        if len(t) == 1:
            return self.states[0].copy()
        sign = 1.0 if t[-1] >= t[0] else -1.0
        i = int(np.searchsorted(sign * t, sign * tau, side="right")) - 1
        i = min(max(i, 0), len(t) - 2)
        y, f = self.states[i].tolist(), self.stages[i, 1, 0].tolist()
        # the error sums go unread; 1.0 only keeps their scale positive
        return np.array(_step(len(y))(_on_floats(self.field), y, f, tau - t[i], 1.0)[1])

    def quadrature(self, alpha) -> float:
        """Integral of ``alpha(x) . V(x)`` over tau along the accepted steps.

        ``alpha`` maps points (N, d) to covectors (N, d).  It is taken at the
        stage states against the stage values, summed with the eighth-order
        weights: no field is evaluated, and the result is as accurate as the
        flow.
        """
        Y, K = self.stages[:, 0], self.stages[:, 1]
        covectors = alpha(Y.reshape(-1, Y.shape[-1])).reshape(Y.shape)
        return float(np.diff(self.times) @ (np.sum(covectors * K, axis=-1) @ _B))

    def to_csv(self, path, chart: ChartSpec, integrals) -> None:
        """Write ``tau,<coords...>,<integrals...>`` rows to the file at
        ``path``, one per accepted step, with the states folded by
        ``chart.normalize`` and the integrals read at the unwrapped states."""
        columns = ["tau", *chart.names, *(f.name for f in integrals)]
        rows = [",".join(columns)] + [
            ",".join(repr(float(v)) for v in (t, *x, *(f.value(y) for f in integrals)))
            for t, x, y in zip(self.times, chart.normalize(self.states), self.states)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(row + "\n" for row in rows))


def _initial_step(field, y0, f0, sign, tol):
    """The first step size from the state ``y0`` and ``f0 = field(y0)``
    (arrays), with ``field`` from d floats to d floats."""
    sc = tol + tol * np.abs(y0)
    n = len(y0)
    d0 = float(np.linalg.norm(y0 / sc)) / math.sqrt(n)
    d1 = float(np.linalg.norm(f0 / sc)) / math.sqrt(n)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + sign * h0 * f0
    f1 = np.array(field(y1.tolist()), dtype=float)
    d2 = float(np.linalg.norm((f1 - f0) / sc)) / math.sqrt(n) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1)


#: Step attempts (accepted or rejected) after which a flow is abandoned.
_MAX_STEPS = 2_000_000


def integrate(field, x0: Point, tau_end: float, tol: float) -> Trajectory:
    """Integrate ``dx/dtau = field(x)`` from 0 to ``tau_end`` adaptively.

    ``tol`` bounds the estimated local error per accepted step (used both as
    absolute and relative scale).  Negative ``tau_end`` integrates backward.
    The flow evaluates nothing but ``field``, on floats (:func:`_on_floats`).
    A field that is not finite at ``x0`` raises ``FlowError``.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not math.isfinite(tau_end):
        raise ValueError(f"tau_end must be finite, got {tau_end!r}")
    x0 = np.asarray(x0, dtype=float)
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    n = len(x0)

    at = _on_floats(field)
    y = x0.tolist()
    f_cur = list(at(y))
    if not all(map(math.isfinite, f_cur)):
        raise FlowError(f"field is not finite at x0 = {y}: {f_cur}")
    if tau_end == 0.0:
        return Trajectory(np.zeros(1), x0[None].copy(), np.zeros((0, 2, 12, n)), field)

    sign = 1.0 if tau_end > 0 else -1.0
    span = abs(tau_end)
    h = min(_initial_step(at, x0, np.array(f_cur), sign, tol), span)
    h_min = 1e-14 * max(1.0, span)

    step = _step(n)
    t = 0.0
    times = [0.0]
    stages = []
    steps = 0
    while sign * (tau_end - t) > 1e-15 * span:
        if steps >= _MAX_STEPS:
            raise FlowError(f"exceeded {_MAX_STEPS} steps at tau={t}")
        remaining = abs(tau_end - t)
        h = min(h, remaining)
        if h < h_min and h < remaining:
            raise StepSizeUnderflowError(t, y)
        hs = sign * h
        record, y_new, s5, s3 = step(at, y, f_cur, hs, tol)
        # the combined norm e5^2 / sqrt(e5^2 + 0.01 e3^2) shrinks like h^8,
        # the order that the step factor's exponent -1/8 assumes
        err_norm = 0.0 if s5 == 0.0 else h * s5 / math.sqrt(n * (s5 + 0.01 * s3))
        steps += 1
        if err_norm <= 1.0:
            t = tau_end if abs(tau_end - (t + hs)) <= 1e-15 * span else t + hs
            y = y_new
            f_cur = at(y)
            times.append(t)
            stages.append(record)
        factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.8 * err_norm ** -0.125))
        h *= factor
    # every step starts at its first stage state
    stages = np.array(stages).reshape(-1, 2, 12, n)
    return Trajectory(
        np.array(times), np.concatenate((stages[:, 0, 0], [y])), stages, field
    )


def drift_report(traj: Trajectory, integrals) -> dict:
    """Max |f_i(x(tau)) - f_i(x(0))| per integral over the accepted states."""
    values = np.array([[f.value(x) for f in integrals] for x in traj.states])
    drifts = np.max(np.abs(values - values[0]), axis=0)
    return {f.name: float(d) for f, d in zip(integrals, drifts)}
