"""Period lattices on invariant tori, loop actions and flow frequencies.

On a compact regular fiber the commuting fields (X_{f_1}..X_{f_r}, Z) define
a lattice of flow-time vectors returning the base point; its basis cycles
carry the loop actions I_mu = (1/2pi) * integral of a primitive one-form.
By the period-action relation (Arnold, Mathematical Methods of Classical
Mechanics, sec. 50; Duistermaat, CPAM 33, 1980) the time that cycle mu
spends in the flow of f_nu is 2pi dI_mu/df_nu, so the lattice basis itself
is the frequency matrix

    b[mu, nu] = dI_mu / df_nu = basis[mu, nu] / 2pi   (nu <= r),
    b[mu, r]  = (1/2pi) * integral of eta over the cycle = basis[mu, r] / 2pi

(the eta column is the Reeb-time column because eta(X_f) = 0 and
eta(Z) = 1), and the linear systems b^T w = e_k give the frequencies of the
Reeb flow (k = r+1) and of the Hamiltonian flows of the prefix integrals
(k <= r).

A lattice of any rank is seeded from one declared angle map per lattice
direction: each field V_j is flowed once for 2pi, the mean winding rates
R[mu, j] of the angles along it give the seed basis 2pi R^{-1} (row mu winds
angle mu once and the others not), and every row is polished with a
least-squares Newton.  The flows commute, so the endpoint of the composite
flow moves with tau_j at exactly V_j(endpoint): the Jacobian is the field
values there, and each Newton iteration traces the cycle once.  Declared
lattice vectors are polished the same way in place of the seeds.  Either
basis is certified by the unimodular winding matrix of its cycles against the
angles.  A caller with neither is refused before anything is flowed; no
lattice runs the near-return scan, ``detect_period_lattice``, which stays
callable on its own.  The lattice keeps the traced cycles of its basis, and
the windings and the loop actions are read off them: the actions and eta
pairings sum the one-forms against the Dormand-Prince stages each trajectory
kept, so they are eighth-order quadratures on the flow's own steps and
evaluate no field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cosym import ToleranceConfig
from .exprlang import Expr, parse
from .fields import TWO_PI, ChartSpec, OneFormField, Point
from .flow import Trajectory, integrate
from .integrability import IntegralSystem

__all__ = [
    "ActionAngleError",
    "SingularRatesError",
    "WindingError",
    "NoReturnError",
    "ContinuationError",
    "CycleError",
    "AngleUnwrapError",
    "AngleMap",
    "PeriodLattice",
    "ActionProfile",
    "FrequencyTable",
    "find_fiber_point",
    "trace_cycle",
    "refine_lattice_vector",
    "detect_period_lattice",
    "align_lattice_to_angles",
    "torus_lattice",
    "line_integral",
    "action_integrals",
    "b_matrix",
    "solve_frequencies",
    "evaluation_frequencies",
    "empirical_frequencies",
    "winding_ratio_test",
]

class ActionAngleError(Exception):
    """Base class for torus-machinery failures."""


class SingularRatesError(ActionAngleError):
    """The declared angles do not separate the commuting fields: their
    winding-rate matrix ``rates`` (angles by fields) is singular."""

    def __init__(self, rates):
        super().__init__(
            f"winding rates {np.asarray(rates).tolist()} of the angle maps along "
            "the commuting fields are singular; the angles do not separate the flows"
        )
        self.rates = np.asarray(rates)


class WindingError(ActionAngleError):
    """The cycles wind the declared angles by ``windings`` (cycles by angles,
    in turns), which is not a unimodular integer matrix."""

    def __init__(self, message, windings):
        super().__init__(message)
        self.windings = np.asarray(windings)


class NoReturnError(ActionAngleError):
    def __init__(self, horizon):
        super().__init__(f"no flow return found within time horizon {horizon}")
        self.horizon = horizon


class ContinuationError(ActionAngleError):
    """Newton could not reach the requested fiber from the seed point."""


class CycleError(ActionAngleError):
    """A traced cycle failed to close or a primitive check failed."""


class AngleUnwrapError(ActionAngleError):
    """Consecutive angle values jumped too far apart to unwrap."""


@dataclass(frozen=True)
class AngleMap:
    """A declared angle on the torus neighborhood.

    Either the unwrapped value of a periodic coordinate, or the continuous
    argument of a plane curve (atan2 of two expressions).
    """

    chart: ChartSpec
    label: str
    coordinate: str | None = None
    plane: tuple[Expr, Expr] | None = None

    @classmethod
    def from_spec(cls, spec: dict, chart: ChartSpec) -> "AngleMap":
        label = spec.get("label")
        if ("coordinate" in spec) == ("plane" in spec):
            raise ValueError("angle map needs exactly one of 'coordinate' and 'plane'")
        if "coordinate" in spec:
            name = spec["coordinate"]
            if not chart.periodic[chart.index(name)]:
                raise ValueError(f"angle coordinate '{name}' is not periodic")
            return cls(chart, label or name, coordinate=name)
        xs, ys = spec["plane"]
        return cls(
            chart, label or f"arg({xs},{ys})", plane=(parse(xs, chart), parse(ys, chart))
        )

    def series(self, states: np.ndarray) -> np.ndarray:
        """Continuous angle values along a sequence of (unwrapped) states."""
        states = np.atleast_2d(states)
        if self.coordinate is not None:
            return states[:, self.chart.index(self.coordinate)].copy()
        xs = np.array([self.plane[0].value(s) for s in states])
        ys = np.array([self.plane[1].value(s) for s in states])
        raw = np.arctan2(ys, xs)
        wrapped_jumps = np.abs((np.diff(raw) + math.pi) % TWO_PI - math.pi)
        if len(wrapped_jumps) and np.max(wrapped_jumps) > 0.9 * math.pi:
            raise AngleUnwrapError(
                f"angle '{self.label}' jumps by {np.max(wrapped_jumps):.3f} rad "
                "between consecutive states"
            )
        return np.unwrap(raw)


@dataclass(frozen=True)
class PeriodLattice:
    """Basis of flow-time vectors closing up on the torus.

    ``cycles`` holds the traced segments of each row, as ``trace_cycle``
    returns them; it is not part of the JSON form.
    """

    field_labels: tuple[str, ...]
    base_point: np.ndarray
    basis: np.ndarray        # rows are lattice vectors
    residuals: np.ndarray    # per-row return distance
    cycles: tuple = field(repr=False)

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def to_dict(self) -> dict:
        return {
            "fields": list(self.field_labels),
            "base_point": [float(v) for v in self.base_point],
            "basis": [[float(v) for v in row] for row in self.basis],
            "residuals": [float(v) for v in self.residuals],
        }


@dataclass(frozen=True)
class ActionProfile:
    lattice: PeriodLattice
    actions: np.ndarray
    eta_pairings: np.ndarray
    fiber_values: np.ndarray
    primitive_residual: float

    def to_dict(self) -> dict:
        return {
            "actions": [float(v) for v in self.actions],
            "eta_pairings": [float(v) for v in self.eta_pairings],
            "fiber": [float(v) for v in self.fiber_values],
            "primitive_residual": float(self.primitive_residual),
            "lattice": self.lattice.to_dict(),
        }


@dataclass(frozen=True)
class FrequencyTable:
    """The matrix b with derivative columns and the constant eta column.

    The actions are redundant: the derivative sub-block b[:, :r] has rank r
    even though there are r+1 of them.  ``derivative_rank`` reports it.
    ``eta_residual`` compares the line-integral eta pairings of the cycles
    with the Reeb-time column they must equal.
    """

    b: np.ndarray
    fiber: np.ndarray
    actions: np.ndarray
    eta_residual: float
    cond: float
    lattice: PeriodLattice

    @property
    def derivative_rank(self) -> int:
        block = self.b[:, : self.b.shape[1] - 1]
        if block.size == 0:
            return 0
        s = np.linalg.svd(block, compute_uv=False)
        return int(np.sum(s > max(1e-8, float(s[0]) * 1e-8)))

    def to_dict(self) -> dict:
        return {
            "b": [[float(v) for v in row] for row in self.b],
            "fiber": [float(v) for v in self.fiber],
            "actions": [float(v) for v in self.actions],
            "eta_residual": self.eta_residual,
            "cond": self.cond,
            "derivative_rank": self.derivative_rank,
        }


# --- fiber location ----------------------------------------------------------

def find_fiber_point(
    sys: IntegralSystem,
    target,
    seed: Point,
) -> np.ndarray:
    """Least-norm Newton solve of f(x) = target starting from ``seed``, to
    |f(x) - target| < 1e-12 within 60 iterations."""
    target = np.asarray(target, dtype=float)
    x = np.array(seed, dtype=float)
    for _ in range(60):
        resid = target - sys.integral_values(x)
        if np.max(np.abs(resid)) < 1e-12:
            return x
        J = np.array([f.gradient(x) for f in sys.integrals])
        step, *_ = np.linalg.lstsq(J, resid, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        x = x + step
    raise ContinuationError(
        f"could not reach fiber {target.tolist()} from {np.asarray(seed).tolist()}"
    )


# --- composite flows and lattice refinement ----------------------------------

#: Flow tolerance of the seeding flows and of every traced lattice cycle.
_LATTICE_FLOW_TOL = 1e-11
#: Newton iterations ``refine_lattice_vector`` takes at most.
_LATTICE_NEWTON_ITER = 15


def trace_cycle(fields, times, x0: Point, tol: float, chart: ChartSpec) -> list[tuple]:
    """Trajectories of the composite flow, in the order they are traversed
    (last field first).

    Returns (field, trajectory) pairs; zero-time segments are skipped.
    """
    x = np.array(x0, dtype=float)
    segments = []
    for vf, tau in reversed(list(zip(fields, times))):
        if abs(tau) <= 1e-14:
            continue
        traj = integrate(vf, x, float(tau), tol, chart)
        segments.append((vf, traj))
        x = traj.final_state
    return segments


def refine_lattice_vector(
    fields,
    times0,
    x0: Point,
    chart: ChartSpec,
    return_tol: float = 1e-6,
) -> tuple[np.ndarray, float, list[tuple]]:
    """Newton-polish candidate return times.

    The flows commute, so d(endpoint)/d(tau_j) = V_j(endpoint): the Jacobian
    is the field values at the endpoint, and each iteration traces the cycle
    once, at ``_LATTICE_FLOW_TOL``, for at most ``_LATTICE_NEWTON_ITER``
    iterations.  Returns the best iterate's times, its return distance and
    its traced segments.  Raises CycleError when the best iterate does not
    close within ``return_tol``, or when it collapses to the trivial vector
    (every time within ``return_tol`` of 0), which closes without a cycle.
    """
    x0 = np.asarray(x0, dtype=float)
    v = np.array(times0, dtype=float)
    best, best_v, best_segments = math.inf, v, []
    for _ in range(_LATTICE_NEWTON_ITER):
        segments = trace_cycle(fields, v, x0, _LATTICE_FLOW_TOL, chart)
        end = segments[-1][1].final_state if segments else x0
        F = chart.wrap_difference(end, x0)
        resid = float(np.linalg.norm(F))
        if resid < best:
            best, best_v, best_segments = resid, v, segments
        if resid < 1e-9:
            break
        J = np.stack([vf(end) for vf in fields], axis=1)
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        v = v + step
        if np.max(np.abs(step)) < 1e-12:
            break
    if best > return_tol:
        raise CycleError(
            f"lattice vector failed to close: residual {best:.3e} at times {best_v.tolist()}"
        )
    if np.all(np.abs(best_v) <= return_tol):
        raise CycleError(f"lattice vector collapsed to zero: times {best_v.tolist()}")
    return best_v, best, best_segments


def _lattice(fields, x0: Point, refined) -> PeriodLattice:
    """The lattice whose rows are ``refine_lattice_vector`` results."""
    times, residuals, cycles = zip(*refined)
    return PeriodLattice(
        tuple(getattr(f, "label", "field") for f in fields),
        np.asarray(x0, dtype=float),
        np.array(times),
        np.array(residuals),
        tuple(cycles),
    )


def _near_return_candidates(traj: Trajectory, x0, window, t_min):
    """Accepted times past ``t_min`` where the distance to ``x0`` has a local
    minimum below ``window``."""
    chart = traj.chart
    taus = traj.times
    dists = np.array([chart.distance(s, x0) for s in traj.states])
    out = []
    for k in range(1, len(taus) - 1):
        if dists[k] <= dists[k - 1] and dists[k] <= dists[k + 1]:
            if dists[k] < window and abs(taus[k]) > t_min:
                out.append(float(taus[k]))
    return out


def detect_period_lattice(
    sys: IntegralSystem,
    x0: Point,
    fields=None,
    horizon: float = 250.0,
    window: float = 0.5,
    scan_tol: float = 1e-9,
    return_tol: float | None = None,
    t_min: float = 0.3,
) -> PeriodLattice:
    """Detect a lattice basis on a two-dimensional invariant torus by a scan.

    Each commuting field is scanned for near-returns of its own flow; each
    candidate is polished with the times of both fields free.  A slanted
    combined scan backs up the pure-field scans when a flow is dense on the
    torus.  Raises NoReturnError when the horizon is exhausted (noncompact or
    too-long periods).  ``torus_lattice`` never scans: tori of any rank are
    seeded from their angle maps or declared vectors.
    """
    S = sys.structure
    chart = S.chart
    return_tol = return_tol if return_tol is not None else S.tol.lattice_return
    fields = list(fields) if fields is not None else sys.commuting_fields()
    if len(fields) != 2:
        raise ActionAngleError(
            "the near-return scan supports two commuting fields; "
            "declare one angle map per field or lattice vectors for higher rank"
        )
    x0 = np.asarray(x0, dtype=float)

    def seek(direction) -> tuple[np.ndarray, float, list[tuple]] | None:
        if direction == 0:
            field = fields[0]
            def seed_times(s):
                return (s, 0.0)
        elif direction == 1:
            field = fields[1]
            def seed_times(s):
                return (0.0, s)
        else:
            f0, f1 = fields
            def field(x):
                return f0(x) + f1(x)
            def seed_times(s):
                return (s, s)
        chunk = 8 * TWO_PI
        start = 0.0
        x_start = x0
        while start < horizon:
            tau = min(chunk, horizon - start)
            traj = integrate(field, x_start, tau, scan_tol, chart)
            for s in _near_return_candidates(traj, x0, window, t_min - start):
                try:
                    hit = refine_lattice_vector(
                        fields, seed_times(start + s), x0, chart, return_tol
                    )
                except CycleError:
                    continue
                if np.max(np.abs(hit[0])) > t_min:
                    return hit
            start += tau
            x_start = traj.final_state
        return None

    found = []
    for direction in (0, 1, 2):
        hit = seek(direction)
        if hit is None:
            continue
        v = hit[0]
        if found:
            det = abs(np.linalg.det(np.array([found[0][0], v])))
            if det < 1e-3 * np.linalg.norm(found[0][0]) * np.linalg.norm(v):
                continue
        found.append(hit)
        if len(found) == 2:
            break
    if len(found) < 2:
        raise NoReturnError(horizon)
    return _lattice(fields, x0, found)


def _cycle_states(segments) -> np.ndarray:
    """Accepted states along a traced cycle, in traversal order."""
    return np.concatenate([traj.states for _, traj in segments])


def cycle_windings(segments, angle_maps) -> np.ndarray:
    """Net winding (in turns) of each declared angle along a traced cycle."""
    states = _cycle_states(segments)
    out = []
    for amap in angle_maps:
        series = amap.series(states)
        out.append((series[-1] - series[0]) / TWO_PI)
    return np.array(out)


def align_lattice_to_angles(
    sys: IntegralSystem,
    lattice: PeriodLattice,
    angle_maps,
) -> PeriodLattice:
    """Change the lattice basis so cycle mu winds angle mu once and others not.

    The winding matrix of the basis against the declared angles, read off the
    lattice's traced cycles, must be unimodular, or WindingError carries it;
    its integer inverse transforms the basis, and the rows are re-polished.
    """
    k = lattice.rank
    if len(angle_maps) != k:
        raise ActionAngleError(
            f"need {k} angle maps to align a rank-{k} lattice, got {len(angle_maps)}"
        )
    W = np.array([cycle_windings(segments, angle_maps) for segments in lattice.cycles])
    Wi = np.rint(W).astype(int)
    if np.max(np.abs(W - Wi)) > 5e-3:
        raise WindingError(f"cycle windings are not integers: {W.tolist()}", W)
    det = int(round(np.linalg.det(Wi)))
    if abs(det) != 1:
        raise WindingError(
            f"winding matrix {Wi.tolist()} is not unimodular; "
            "angle maps do not match the detected torus",
            W,
        )
    if np.array_equal(Wi, np.eye(k, dtype=int)):
        return lattice
    fields = sys.commuting_fields()
    Winv = np.rint(np.linalg.inv(Wi)).astype(int)
    return _lattice(fields, lattice.base_point, [
        refine_lattice_vector(
            fields, Winv[mu].astype(float) @ lattice.basis, lattice.base_point,
            sys.structure.chart, sys.structure.tol.lattice_return,
        )
        for mu in range(k)
    ])


def _angle_seeds(fields, x0: Point, angle_maps, chart: ChartSpec) -> np.ndarray:
    """Seed basis ``2pi R^{-1}`` from the mean winding rates of the angles.

    Each field V_j is flowed once for 2pi from ``x0``;
    ``R[mu, j] = (theta_mu(end) - theta_mu(start)) / 2pi`` is the mean rate
    of angle mu along it, exact whenever the angle advances linearly.  Row mu
    of the seed (column mu of ``2pi R^{-1}``) winds angle mu once and the
    others not.  Raises SingularRatesError when the angles do not separate
    the fields.
    """
    # over a flow of 2pi the winding in turns is the mean rate
    R = np.stack([
        cycle_windings([(vf, integrate(vf, x0, TWO_PI, _LATTICE_FLOW_TOL, chart))], angle_maps)
        for vf in fields
    ], axis=1)
    s = np.linalg.svd(R, compute_uv=False)
    if not s[-1] > 1e-8 * s[0]:
        raise SingularRatesError(R)
    return TWO_PI * np.linalg.inv(R).T


def torus_lattice(
    sys: IntegralSystem,
    x0: Point,
    angle_maps=(),
    declared_vectors=None,
) -> PeriodLattice:
    """Lattice at ``x0``: polish seed vectors, then certify them by the angles.

    The seeds are the declared vectors, or else the winding-rate basis of
    ``_angle_seeds``; a torus of any rank is handled either way.  Given angle
    maps, one per commuting field, the basis must wind them by a unimodular
    matrix (the identity for angle seeds), and is re-based when it is not the
    identity.  Miscounted angle maps, or no seeds, raise before any flow.
    """
    fields = sys.commuting_fields()
    if len(angle_maps) not in (0, len(fields)) or (declared_vectors is None and not angle_maps):
        raise ActionAngleError(
            f"a lattice of {len(fields)} commuting fields needs declared vectors or one"
            f" angle map per field; got {len(angle_maps)} angle maps"
        )
    chart = sys.structure.chart
    seeds = declared_vectors
    if seeds is None:
        seeds = _angle_seeds(fields, x0, angle_maps, chart)
    lattice = _lattice(fields, x0, [
        refine_lattice_vector(fields, row, x0, chart, sys.structure.tol.lattice_return)
        for row in np.asarray(seeds, dtype=float)
    ])
    if angle_maps:
        lattice = align_lattice_to_angles(sys, lattice, angle_maps)
    return lattice


# --- loop actions -------------------------------------------------------------

def line_integral(segments, form: OneFormField) -> float:
    """Integral of a one-form along traced segments.

    Each segment's trajectory sums the form against its own Dormand-Prince
    stages (``Trajectory.quadrature``), so the result carries the flow's
    eighth order and no field is evaluated again.
    """
    return sum((traj.quadrature(form.at_stack) for _, traj in segments), 0.0)


def action_integrals(
    sys: IntegralSystem,
    lattice: PeriodLattice,
    lam: OneFormField,
) -> ActionProfile:
    """Loop actions (1/2pi) * integral of lambda over each lattice cycle.

    Reads the cycles the lattice refinement traced; integrates no flow.
    Verifies that -d(lambda) = omega on accepted states of the cycles and
    that every cycle closes; also records the eta pairing of each cycle,
    which is the constant column of the frequency matrix.
    """
    S = sys.structure
    chart = S.chart
    x0 = lattice.base_point
    actions = []
    pairings = []
    prim_worst = 0.0
    for mu, segments in enumerate(lattice.cycles):
        if segments:
            end = segments[-1][1].final_state
            gap = float(np.linalg.norm(chart.wrap_difference(end, x0)))
            if gap > 10 * S.tol.lattice_return:
                raise CycleError(f"cycle {mu} failed to close: gap {gap:.3e}")
            check_states = _cycle_states(segments)[:: max(1, lattice.rank * 2)]
            resid = S.check_primitive(check_states, lam)
            prim_worst = max(prim_worst, resid)
            if resid > S.tol.primitive_check:
                raise CycleError(
                    f"one-form is not a primitive of omega: residual {resid:.3e}"
                )
        actions.append(line_integral(segments, lam) / TWO_PI)
        pairings.append(line_integral(segments, S.eta) / TWO_PI)
    return ActionProfile(
        lattice,
        np.array(actions),
        np.array(pairings),
        sys.integral_values(x0),
        prim_worst,
    )


# --- frequency matrix and solves ----------------------------------------------

def b_matrix(
    profile: ActionProfile, eta_tol: float = ToleranceConfig.lattice_return
) -> FrequencyTable:
    """Frequency matrix of a torus, read off its period lattice.

    ``b = basis / 2pi`` by the period-action relation.  The eta pairings that
    ``action_integrals`` measured along the cycles must reproduce the last
    (Reeb-time) column; a larger gap than ``eta_tol`` means the fields are not
    the commuting (X_f, Z) frame the relation needs, or a cycle was traced
    badly, and raises CycleError.
    """
    lattice = profile.lattice
    b = lattice.basis / TWO_PI
    eta_residual = float(np.max(np.abs(profile.eta_pairings - b[:, -1])))
    if eta_residual > eta_tol:
        raise CycleError(
            f"eta pairings {profile.eta_pairings.tolist()} do not match the "
            f"Reeb-time column {b[:, -1].tolist()}: residual {eta_residual:.3e}"
        )
    return FrequencyTable(
        b=b,
        fiber=profile.fiber_values,
        actions=profile.actions,
        eta_residual=eta_residual,
        cond=float(np.linalg.cond(b)),
        lattice=lattice,
    )


def solve_frequencies(table: FrequencyTable, mode: str, k: int | None = None) -> np.ndarray:
    """Solve b^T w = e_mode for the flow frequencies in the cycle basis.

    ``mode`` is "reeb" (right-hand side selects the eta column) or
    "hamiltonian" with a 1-based prefix index ``k``.
    """
    b = table.b
    size = b.shape[0]
    if table.cond > 1e8:
        raise ActionAngleError(f"frequency matrix is ill-conditioned: cond={table.cond:.3e}")
    rhs = np.zeros(size)
    if mode == "reeb":
        rhs[size - 1] = 1.0
    elif mode == "hamiltonian":
        if k is None or not 1 <= k <= size - 1:
            raise ValueError(f"hamiltonian mode needs a prefix index 1..{size - 1}")
        rhs[k - 1] = 1.0
    else:
        raise ValueError(f"unknown mode '{mode}'")
    return np.linalg.solve(b.T, rhs)


def evaluation_frequencies(table: FrequencyTable, sys: IntegralSystem) -> np.ndarray:
    """Frequencies of the evaluation flow Y_H in the cycle basis.

    Writes dH as a constant combination of the prefix differentials
    df_1..df_r (fit at the lattice base point); Y_H = Z + sum c_nu X_{f_nu}
    then gives w_eval = w_reeb + sum c_nu W^nu.  Fails when H is not
    generated by the commuting prefix.
    """
    x = table.lattice.base_point
    Gs = np.array([f.gradient(x) for f in sys.integrals[: sys.r]]).T
    hs = sys.hamiltonian.gradient(x)
    if sys.r == 0:
        if np.max(np.abs(hs)) > 1e-8:
            raise ActionAngleError("H is not constant and the prefix is empty")
        coeffs = np.zeros(0)
    else:
        coeffs, *_ = np.linalg.lstsq(Gs, hs, rcond=None)
        resid = np.max(np.abs(Gs @ coeffs - hs))
        if resid > 1e-8 * max(1.0, float(np.max(np.abs(hs)))):
            raise ActionAngleError(
                f"dH is not a constant combination of the prefix differentials "
                f"(residual {resid:.3e})"
            )
    omega = solve_frequencies(table, "reeb")
    for nu, c in enumerate(coeffs, start=1):
        if abs(c) > 1e-12:
            omega = omega + c * solve_frequencies(table, "hamiltonian", nu)
    return omega


# --- empirical frequencies and winding ----------------------------------------

def empirical_frequencies(
    sys: IntegralSystem,
    field,
    x0: Point,
    angle_maps,
    tau_end: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares slopes of the declared angles along one trajectory,
    flowed at tolerance 1e-10 and fit at its accepted states.

    Returns (slopes, residuals); the residual is the max deviation of the
    unwrapped angle from its linear fit; a small residual certifies linear
    flow in these angles.
    """
    chart = sys.structure.chart
    traj = integrate(field, x0, tau_end, 1e-10, chart)
    A = np.vstack([traj.times, np.ones_like(traj.times)]).T
    slopes = []
    residuals = []
    for amap in angle_maps:
        series = amap.series(traj.states)
        coef, *_ = np.linalg.lstsq(A, series, rcond=None)
        fit = A @ coef
        slopes.append(float(coef[0]))
        residuals.append(float(np.max(np.abs(series - fit))))
    return np.array(slopes), np.array(residuals)


def winding_ratio_test(freqs) -> dict:
    """Classify pairwise frequency ratios as commensurate or not.

    A ratio counts as rational when some fraction with denominator up to 32
    approximates it within 1e-4 (well above the measurement error of the
    slope fits).
    """
    freqs = np.asarray(freqs, dtype=float)
    pairs = []
    any_irrational = False
    for i in range(len(freqs)):
        for j in range(i + 1, len(freqs)):
            lo, hi = sorted([abs(freqs[i]), abs(freqs[j])])
            if hi == 0.0:
                continue
            ratio = lo / hi
            frac = Fraction(ratio).limit_denominator(32)
            err = abs(ratio - float(frac))
            rational = err <= 1e-4
            any_irrational = any_irrational or not rational
            pairs.append(
                {
                    "pair": [i, j],
                    "ratio": ratio,
                    "closest_fraction": f"{frac.numerator}/{frac.denominator}",
                    "error": err,
                    "rational": rational,
                }
            )
    return {"pairs": pairs, "irrational_winding": any_irrational}
