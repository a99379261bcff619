"""Numerical verification that a declared integral set is complete.

The checks mirror the structural requirements on a system (H; f_1..f_m) with
a commuting prefix of length r on a (2n+1)-dimensional structure:

* every f_i is a first integral of the evaluation flow: Z(f) + {f, H} = 0;
* the prefix f_1..f_r commutes with all integrals;
* the integral differentials have rank m and the symmetry fields
  (Y_H, X_{f_1}..X_{f_r}) have rank r+1 on the regular set;
* the symmetry fields commute pairwise;
* the pairwise brackets a_ij = {f_i, f_j} are constant on fibers and the
  antisymmetric matrix a has corank r, with m + r = dim - 1.

Points failing the rank checks are reported and excluded rather than
extrapolated across; every report carries its worst witness.

Every check evaluates its points as stacks (N, d), in blocks of
``cosym.BLOCK_ROWS``, and the induced bracket one stack per fiber group: one
``Frame`` per block, read by every field in the order a loop over the points
needs them, the integrals' array code for gradients, exact Jacobians of the
structure fields for Lie brackets, and reductions over the residual arrays.
Every row gets the bits a one-row ``Frame`` at that point computes.  A
residual array is laid out in the order of the loop over points (and
integrals, pairs or fields) it replaces, and the witness is its first maximum
in that order (``np.argmax``); a NaN residual never is one, and with no
residual above 0 there is no witness.  A point that fails raises what its
one-row ``Frame`` raises, and the first failing point is the one that
raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cosym import (
    CosymplecticStructure,
    StructureVectorField,
    _ROW_ERRORS,
    _at_row,
    map_blocks,
)
from .fields import Point, ScalarField, commutator
from .flow import integrate

__all__ = [
    "IntegralSystem",
    "CheckReport",
    "InducedBracket",
    "check_first_integrals",
    "check_commuting_prefix",
    "check_independence",
    "check_symmetry_algebra",
    "check_fiber_tangency",
    "bracket_closure_and_corank",
    "check_bracket_of_integrals",
    "sample_fiber",
    "svd_rank",
]


@dataclass(frozen=True)
class IntegralSystem:
    """A structure with Hamiltonian, ordered integrals and commuting prefix r.

    ``enforce_completeness=False`` admits deliberately wrong integral counts
    (used to exercise failure reporting).
    """

    structure: CosymplecticStructure
    hamiltonian: ScalarField
    integrals: tuple[ScalarField, ...]
    r: int
    enforce_completeness: bool = True

    def __post_init__(self):
        object.__setattr__(self, "integrals", tuple(self.integrals))
        m = len(self.integrals)
        if not 0 <= self.r <= m:
            raise ValueError(f"need 0 <= r <= m, got r={self.r}, m={m}")
        if self.enforce_completeness and m + self.r != self.structure.chart.dim - 1:
            raise ValueError(
                f"m + r = {m + self.r} but dim - 1 = {self.structure.chart.dim - 1};"
                " pass enforce_completeness=False to allow"
            )

    @property
    def m(self) -> int:
        return len(self.integrals)

    def commuting_fields(self) -> list[StructureVectorField]:
        """X_{f_1}..X_{f_r} followed by the Reeb field."""
        S = self.structure
        return [S.hamiltonian_vf(f) for f in self.integrals[: self.r]] + [S.reeb_vf()]

    def symmetry_fields(self) -> list[StructureVectorField]:
        """Y_H followed by X_{f_1}..X_{f_r}."""
        S = self.structure
        return [S.evaluation_vf(self.hamiltonian)] + [
            S.hamiltonian_vf(f) for f in self.integrals[: self.r]
        ]

    def integral_values(self, x: Point) -> np.ndarray:
        return np.array([f.value(x) for f in self.integrals])


@dataclass
class CheckReport:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    witness: dict | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "check": self.name,
            "pass": self.passed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
        }
        if self.witness:
            out["witness"] = self.witness
        out.update(self.extra)
        return out


def svd_rank(matrix: np.ndarray, rel_tol: float) -> int:
    """Rank by singular values above ``rel_tol * s_max``."""
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(s > rel_tol * float(s[0])))


def _stack(sys: IntegralSystem, points) -> np.ndarray:
    return np.asarray(points, dtype=float).reshape(-1, sys.structure.chart.dim)


def _columns(cols: list, n: int) -> np.ndarray:
    """Per-row residuals (n,) side by side, (n, len(cols))."""
    return np.stack(cols, axis=1) if cols else np.zeros((n, 0))


def _point(X: np.ndarray, k: int) -> dict:
    """The witness entries naming row ``k`` of the stack ``X``."""
    return {"point_index": k, "point": list(map(float, X[k]))}


def _worst(resid: np.ndarray) -> tuple[float, tuple | None]:
    """The largest residual and its index: the first maximum in C order, as a
    loop that keeps a residual only when it beats the one kept (from 0)."""
    resid = np.where(np.isnan(resid), 0.0, resid)
    if not resid.size:
        return 0.0, None
    at = np.unravel_index(int(np.argmax(resid)), resid.shape)
    worst = float(resid[at])
    return (worst, tuple(int(i) for i in at)) if worst > 0.0 else (0.0, None)


def _ranks(M: np.ndarray, rel_tol: float) -> np.ndarray:
    """``svd_rank(M[k], rel_tol)`` for every matrix of the stack ``M``."""
    ranks = np.zeros(len(M), dtype=int)
    finite = np.isfinite(M).all(axis=(1, 2))
    # the SVD of a non-finite matrix may fail; it fails as that point's would
    for k in np.flatnonzero(~finite):
        try:
            ranks[k] = svd_rank(M[k], rel_tol)
        except np.linalg.LinAlgError as err:
            raise _at_row(err, int(k))
    s = np.linalg.svd(M[finite], compute_uv=False)
    ranks[finite] = np.sum(s > rel_tol * s[:, :1], axis=1)
    return ranks


def _report(name: str, tol: float, resid: np.ndarray, describe) -> CheckReport:
    """The report of a residual check: it passes when the worst residual is
    below ``tol``, and its witness is ``describe(*index)`` of the worst entry
    followed by that residual."""
    worst, at = _worst(resid)
    witness = {**describe(*at), "residual": worst} if at is not None else None
    return CheckReport(name, worst < tol, worst, tol, witness)


def check_first_integrals(sys: IntegralSystem, points) -> CheckReport:
    """Residuals |Z(f_i) + {f_i, H}| at each point."""
    tol = sys.structure.tol.first_integral

    def rows(X):
        frame = sys.structure.frame(X)
        dH = frame.differential(sys.hamiltonian)
        Z = frame.reeb
        cols = []
        for f in sys.integrals:
            df = frame.differential(f)
            cols.append(np.abs(np.vecdot(df, Z) + frame.bracket(df, dH)))
        return _columns(cols, len(X))

    X = _stack(sys, points)
    return _report(
        "first_integrals", tol, map_blocks(rows, X),
        lambda k, i: {"integral": sys.integrals[i].name, **_point(X, k)},
    )


def check_commuting_prefix(sys: IntegralSystem, points) -> CheckReport:
    """max |{f_i, f_j}| over i <= r, j <= m at the sampled points."""
    tol = sys.structure.tol.commuting
    pairs = [(i, j) for i in range(sys.r) for j in range(sys.m) if j != i]

    def rows(X):
        frame = sys.structure.frame(X)
        grads = [frame.differential(f) for f in sys.integrals]
        return _columns(
            [np.abs(frame.bracket(grads[i], grads[j])) for i, j in pairs], len(X)
        )

    X = _stack(sys, points)
    return _report(
        "commuting_prefix", tol, map_blocks(rows, X),
        lambda k, p: {"pair": [sys.integrals[i].name for i in pairs[p]], **_point(X, k)},
    )


def check_independence(sys: IntegralSystem, points) -> CheckReport:
    """SVD ranks of the integral differentials and of the symmetry fields.

    A point where the differentials df_1..df_m drop rank is singular: it is
    excluded from the regular set and reported, never extrapolated across.
    At every regular point the symmetry fields (Y_H, X_{f_1}..X_{f_r}) must
    have rank r+1; a drop there is a defect and fails the check.  With m = 0
    and no defects the check passes vacuously.  The symmetry fields are
    evaluated at the regular points only.
    """
    tol = sys.structure.tol.rank_rel

    def rows(X):
        regular = np.ones(len(X), dtype=bool)
        if sys.m:
            G = np.stack([f.gradient_stack(X) for f in sys.integrals], axis=1)
            regular = _ranks(G, tol) == sys.m
        at = np.flatnonzero(regular)
        try:
            frame = sys.structure.frame(X[at])
            V = np.stack([vf.on(frame) for vf in sys.symmetry_fields()], axis=1)
        except _ROW_ERRORS as err:
            if getattr(err, "row", None) is not None:
                err.row = int(at[err.row])
            raise
        rank = np.zeros(len(X), dtype=int)
        rank[at] = _ranks(V, tol)
        return regular, rank

    X = _stack(sys, points)
    regular, rank = map_blocks(rows, X)
    excluded = [_point(X, int(k)) for k in np.flatnonzero(~regular)]
    defects = [
        {**_point(X, int(k)), "rank": int(rank[k])}
        for k in np.flatnonzero(regular & (rank != sys.r + 1))
    ]
    return CheckReport(
        "independence",
        not defects,
        float(len(defects)),
        0.0,
        defects[0] if defects else None,
        extra={
            "regular_points": int(np.sum(regular)),
            "excluded_points": excluded,
            "expected_ranks": [sys.m, sys.r + 1],
        },
    )


def check_symmetry_algebra(sys: IntegralSystem, points) -> CheckReport:
    """Pairwise Lie brackets of (Y_H, X_{f_1}..X_{f_r}) vanish numerically."""
    tol = sys.structure.tol.commuting
    fields_ = sys.symmetry_fields()
    pairs = [(i, j) for i in range(len(fields_)) for j in range(i + 1, len(fields_))]

    def rows(X):
        frame = sys.structure.frame(X)
        J, V = {}, {}
        for i, j in pairs:  # J_i, J_j, V_i, V_j: the order lie_bracket needs them in
            J.update({k: fields_[k].jacobian_on(frame) for k in (i, j) if k not in J})
            V.update({k: fields_[k].on(frame) for k in (i, j) if k not in V})
        return _columns(
            [np.max(np.abs(commutator(J[i], V[i], J[j], V[j])), axis=1) for i, j in pairs], len(X)
        )

    X = _stack(sys, points)
    return _report(
        "symmetry_algebra", tol, map_blocks(rows, X) if pairs else np.zeros((len(X), 0)),
        lambda k, p: {"pair": [fields_[i].label for i in pairs[p]], **_point(X, k)},
    )


def check_fiber_tangency(sys: IntegralSystem, points) -> CheckReport:
    """Every symmetry field annihilates every integral: <df_j, V> ~ 0."""
    tol = sys.structure.tol.first_integral
    fields_ = sys.symmetry_fields()

    def rows(X):
        frame = sys.structure.frame(X)
        vals = [vf.on(frame) for vf in fields_]
        cols = []
        for f in sys.integrals:
            df = f.gradient_stack(X)
            cols += [np.abs(np.vecdot(df, v)) for v in vals]
        return _columns(cols, len(X))

    return _report(
        "fiber_tangency", tol, map_blocks(rows, _stack(sys, points)),
        lambda k, c: {
            "integral": sys.integrals[c // len(fields_)].name,
            "field": fields_[c % len(fields_)].label,
            "point_index": k,
        },
    )


@dataclass
class InducedBracket:
    """Coranks and closure spread of the sampled bracket matrices a_ij, by fiber."""

    fibers: int
    coranks: list
    regular_flags: list
    closure_spread: float
    ddim: int
    dind: int
    dim: int
    casimir_residual: float | None = None
    closure_tol: float = 1e-7

    @property
    def closure_ok(self) -> bool:
        return self.closure_spread < self.closure_tol

    @property
    def completeness_ok(self) -> bool:
        return self.ddim + self.dind == self.dim - 1

    def corank_ok(self) -> bool:
        return all(
            c == self.dind
            for c, reg in zip(self.coranks, self.regular_flags)
            if reg
        )

    def parity_ok(self) -> bool:
        return all((self.ddim - c) % 2 == 0 for c in self.coranks)

    def to_dict(self) -> dict:
        out = {
            "ddim": self.ddim,
            "dind": self.dind,
            "completeness": self.completeness_ok,
            "closure_spread": self.closure_spread,
            "closure_ok": self.closure_ok,
            "corank_ok": self.corank_ok(),
            "parity_ok": self.parity_ok(),
            "fibers": self.fibers,
            "regular_points": int(sum(self.regular_flags)),
        }
        if self.casimir_residual is not None:
            out["casimir_residual"] = self.casimir_residual
        return out


def bracket_closure_and_corank(
    sys: IntegralSystem, fiber_samples, casimirs=()
) -> InducedBracket:
    """Closure and corank of the induced bracket on fibers.

    ``fiber_samples`` is a list of groups of points; each group must lie on a
    single fiber (integral values within the fiber-match tolerance).  Groups
    need at least two points for the constancy test to mean anything.
    Optional ``casimirs`` are scalar fields expected to commute with all
    integrals.  Each group is evaluated as one stack; the corank of a is the
    number of its singular values at most ``max(1e-10, 1e-8 s_0)``.
    """
    S = sys.structure
    groups = [_stack(sys, g) for g in fiber_samples]
    if any(len(g) < 2 for g in groups):
        raise ValueError("each fiber group needs at least two points")
    m = sys.m
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]

    def rows(X):
        frame = S.frame(X)
        grads = [frame.differential(f) for f in sys.integrals]
        a = np.zeros((len(X), m, m))
        for i, j in pairs:
            a[:, i, j] = frame.bracket(grads[i], grads[j])
            a[:, j, i] = -a[:, i, j]
        regular = np.ones(len(X), dtype=bool)
        if m:
            regular = _ranks(np.stack(grads, axis=1), S.tol.rank_rel) == m
        cols = []
        for g in casimirs:
            dg = frame.differential(g)
            cols += [np.abs(frame.bracket(dg, df)) for df in grads]
        return a, regular, _columns(cols, len(X))

    coranks, flags = [], []
    spread = casimir = 0.0
    for X in groups:
        fvals = [sys.integral_values(x) for x in X]
        for fv in fvals[1:]:
            if np.max(np.abs(fv - fvals[0])) > S.tol.fiber_match:
                raise ValueError(
                    "fiber group mixes distinct fibers: "
                    f"{fvals[0].tolist()} vs {fv.tolist()}"
                )
        a, regular, resid = map_blocks(rows, X)
        s = np.linalg.svd(a, compute_uv=False)
        coranks += np.sum(s <= np.maximum(1e-10, 1e-8 * s[:, :1]), axis=1).tolist()
        flags += regular.tolist()
        spread = max(spread, float(np.max(np.abs(a[1:] - a[0]), initial=0.0)))
        casimir = max(casimir, float(np.max(resid, initial=0.0)))
    return InducedBracket(
        fibers=len(groups),
        coranks=coranks,
        regular_flags=flags,
        closure_spread=spread,
        ddim=m,
        dind=sys.r,
        dim=S.chart.dim,
        casimir_residual=casimir if casimirs else None,
        closure_tol=S.tol.closure_fiber,
    )


def check_bracket_of_integrals(sys: IntegralSystem, pairs, points) -> CheckReport:
    """{f_i, f_j} must itself be a first integral, for the given index pairs.

    Refuses when either member of a pair fails the first-integral condition
    at the sampled points (the statement has nothing to say then); their
    residuals come from each block's frame, ahead of the brackets'.  The
    bracket function's gradient is exact (``bracket_scalar``) on every
    structure, so the residual is held to the ``first_integral`` tolerance.
    """
    S = sys.structure
    members = tuple(sys.integrals[i] for i in sorted({i for pair in pairs for i in pair}))
    brackets = [S.bracket_scalar(sys.integrals[i], sys.integrals[j]) for i, j in pairs]

    def rows(X):
        frame = S.frame(X)
        dH, Z = frame.differential(sys.hamiltonian), frame.reeb

        def residual(df):
            return np.abs(np.vecdot(df, Z) + frame.bracket(df, dH))

        return (
            _columns([residual(frame.differential(f)) for f in members], len(X)),
            _columns([residual(g.gradient_on(frame)) for g in brackets], len(X)),
        )

    X = _stack(sys, points)
    member_resid, resid = map_blocks(rows, X)
    worst, at = _worst(member_resid)
    if not worst < S.tol.first_integral:
        raise ValueError(
            f"precondition unmet: {members[at[1]].name} is not a first "
            f"integral (residual {worst:.3e})"
        )
    return _report(
        "bracket_of_integrals", S.tol.first_integral, resid.T,
        lambda p, k: {"pair": [sys.integrals[i].name for i in pairs[p]], "point_index": k},
    )


def sample_fiber(
    sys: IntegralSystem,
    x0: Point,
    count: int,
    rng: np.random.Generator,
) -> list:
    """Points on the fiber (connected component) of ``x0``, by symmetry flows.

    Flowing the tangent symmetry fields keeps the integral values fixed up to
    integrator error, and stays on the same connected component, which fiber
    grouping by integral values alone cannot guarantee.  Each point after
    ``x0`` flows every field from ``x0`` in turn, for a time drawn uniformly
    from [0.3, 4.0), at tolerance 1e-12.
    """
    fields_ = sys.symmetry_fields()
    out = [np.asarray(x0, dtype=float)]
    for _ in range(count - 1):
        x = out[0]
        for vf in fields_:
            tau = float(rng.uniform(0.3, 4.0))
            x = integrate(vf, x, tau, 1e-12).final_state
        out.append(x)
    return out
