"""Cosymplectic structures: Reeb, Hamiltonian and evaluation fields, bracket.

A structure is a chart together with a closed two-form ``omega`` and a closed
one-form ``eta`` whose combination is a volume form.  Everything derived from
it reduces to one well-posed linear solve per point:

    A(x) = Omega(x) + eta(x) eta(x)^T

is invertible exactly where the structure is non-degenerate (the kernel of
Omega is spanned by the Reeb vector, which eta pairs to 1).  With the
contraction convention ``(i_X w)_j = sum_i X_i Omega[i, j]`` the defining
conditions become

    Z:               A^T Z = eta
    X_f (eta(X)=0):  A^T X = df - Z(f) eta

since ``Omega^T v`` is the contraction of ``v`` and the eta-term vanishes on
the solution.  docs/CONVENTIONS.md carries the derivation and the worked
canonical-coordinate example.

``Frame`` holds that solve at one point; ``FrameStack`` holds it at every
row of a point stack (N, d) and gives each row Frame's bits and Frame's
errors.  ``CosymplecticStructure.frame`` picks one by the shape of its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dc_fields, replace
from functools import cached_property

import numpy as np

from . import exprlang
from .exprlang import Const, Expr, Neg
from .fields import (
    ChartSpec,
    NumericScalarField,
    OneFormField,
    Point,
    ScalarField,
    TwoFormField,
    sample_box,
)

__all__ = [
    "ToleranceConfig",
    "DegenerateStructureError",
    "StructureEvalError",
    "FieldConditionError",
    "ValidationReport",
    "CosymplecticStructure",
    "StructureVectorField",
    "Frame",
    "FrameStack",
    "BLOCK_ROWS",
    "map_blocks",
    "make_canonical",
    "make_poincare_cartan",
    "twist",
    "bracket_expr",
    "canonical_chart",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Central numeric thresholds; scenarios may override individual fields."""

    closedness: float = 1e-8          # max |d omega|, |d eta| for validity
    volume_min_det: float = 1e-10     # hard floor for |det A|
    reeb_check: float = 1e-9          # defining conditions of Z
    field_check: float = 1e-8         # defining conditions of X_f / grad f
    bracket_agreement: float = 1e-9   # two bracket formulas must agree
    first_integral: float = 1e-8      # |Z(f) + {f, H}|
    commuting: float = 1e-8           # |{f_i, f_j}| on the commuting prefix
    rank_rel: float = 1e-10           # SVD rank threshold (relative to s_max)
    lie_residual: float = 1e-5        # finite-difference Lie brackets
    closure_fiber: float = 1e-7       # spread of a_ij within one fiber
    fiber_match: float = 1e-9         # two points share a fiber
    bracket_integral_residual: float = 1e-5  # brackets of integrals stay integrals
    lattice_return: float = 1e-6      # period-lattice closure residual
    primitive_check: float = 1e-8     # |-d lambda - omega|
    frequency_match: float = 1e-3     # solved vs. empirical frequencies

    @classmethod
    def from_dict(cls, overrides: dict | None) -> "ToleranceConfig":
        if not overrides:
            return cls()
        known = {f.name for f in dc_fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in overrides.items()})


class DegenerateStructureError(Exception):
    """|det A| fell below the volume floor; derived fields are meaningless."""

    def __init__(self, point, det):
        super().__init__(
            f"structure degenerate at {np.asarray(point).tolist()}: |det A| = {abs(det):.3e}"
        )
        self.point = np.asarray(point, dtype=float)
        self.det = det


class StructureEvalError(Exception):
    """A field failed to evaluate at a sample point."""

    def __init__(self, point, cause):
        super().__init__(f"evaluation failed at {np.asarray(point).tolist()}: {cause}")
        self.point = np.asarray(point, dtype=float)
        self.cause = cause


class FieldConditionError(Exception):
    """A solved field violated its defining conditions beyond tolerance."""


# Frame and FrameStack build their errors here, so a stacked row fails with
# the message of the point.

def _condition_error(what: str, x, detail: str = "") -> FieldConditionError:
    return FieldConditionError(f"{what} at {np.asarray(x).tolist()}{detail}")


def _not_finite(x, what: str) -> StructureEvalError:
    return StructureEvalError(x, ValueError(f"{what} is not finite"))


def _at_row(err: Exception, row: int) -> Exception:
    """``err`` marked as raised by row ``row`` of a stack."""
    err.row = row
    return err


class Frame:
    """Per-point solve context: Omega, eta and A^T, or the inverse of A^T
    shared by every point of a constant structure.

    Reused by every derived quantity at the same point so the structure
    matrices are evaluated once.
    """

    __slots__ = ("structure", "x", "Omega", "eta", "_A_T", "_inv", "det", "_Z")

    def __init__(self, structure: "CosymplecticStructure", x: Point):
        self.structure = structure
        self.x = np.asarray(x, dtype=float)
        const = structure._constant_data
        if const is not None:
            # constant structures keep one inverse of A^T: a 3x3 matvec costs
            # about 1 us, against a np.linalg.solve at every point; bracket_expr
            # also assembles its symbolic bracket from the same inverse
            self.Omega, self.eta, self._inv, self.det = const
            self._A_T = None
        else:
            try:
                self.Omega = structure.omega.at(self.x)
                self.eta = structure.eta.at(self.x)
            except exprlang.ExprError as err:
                raise StructureEvalError(self.x, err) from err
            self._A_T, self.det = _solve_matrix(self.x, self.Omega, self.eta)
            self._inv = None
        if abs(self.det) < structure.tol.volume_min_det:
            raise DegenerateStructureError(self.x, self.det)
        self._Z = None

    @property
    def matrix(self) -> np.ndarray:
        """The solve matrix A = Omega + eta eta^T."""
        return self.Omega + self.eta[:, None] * self.eta

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A^T u = rhs."""
        if self._inv is not None:
            return self._inv @ rhs
        return np.linalg.solve(self._A_T, rhs)

    @property
    def reeb(self) -> np.ndarray:
        if self._Z is None:
            if self._A_T is None:
                Z, ok = self.structure._constant_reeb
            else:
                Z = self.solve(self.eta)
                ok = _reeb_ok(Z, self.Omega, self.eta, self.structure.tol.reeb_check)
            if not ok:
                raise _condition_error("Reeb conditions violated", self.x)
            self._Z = Z
        return self._Z

    def hamiltonian(self, df: np.ndarray) -> np.ndarray:
        """X_f from the gradient covector of f."""
        Z = self.reeb
        zf = df @ Z
        if not math.isfinite(zf):
            # Z is finite, so an inf or NaN in df shows here
            raise _not_finite(self.x, f"df(Z) = {zf}")
        rhs = df - zf * self.eta
        X = self.solve(rhs)
        tol = self.structure.tol
        if not (abs(self.eta @ X) <= tol.reeb_check):
            raise _condition_error("eta(X_f) != 0", self.x)
        if not (np.abs(X @ self.Omega - rhs).max() <= tol.field_check):
            raise _condition_error("i_X omega != df - Z(f) eta", self.x)
        return X

    def evaluation(self, df: np.ndarray) -> np.ndarray:
        Y = self.reeb + self.hamiltonian(df)
        if not (abs(self.eta @ Y - 1.0) <= self.structure.tol.reeb_check):
            raise _condition_error("eta(Y_f) != 1", self.x)
        return Y

    def gradient(self, df: np.ndarray) -> np.ndarray:
        Z = self.reeb
        zf = df @ Z
        G = self.hamiltonian(df) + zf * Z
        tol = self.structure.tol.field_check
        rhs = df - zf * self.eta
        if not (np.abs(G @ self.Omega - rhs).max() <= tol and abs(self.eta @ G - zf) <= tol):
            raise _condition_error("gradient conditions violated", self.x)
        return G

    def bracket(self, df: np.ndarray, dg: np.ndarray) -> float:
        """Poisson bracket from gradient covectors, cross-checked both ways."""
        Xf = self.hamiltonian(df)
        Xg = self.hamiltonian(dg)
        via_fields = float(Xf @ self.Omega @ Xg)
        Z = self.reeb
        Gf = Xf + (df @ Z) * Z
        Gg = Xg + (dg @ Z) * Z
        via_gradients = float(Gf @ self.Omega @ Gg)
        if not (abs(via_fields - via_gradients) <= self.structure.tol.bracket_agreement):
            raise _condition_error(
                "bracket formulas disagree", self.x, f": {via_fields} vs {via_gradients}"
            )
        return via_fields

    def differential(self, f) -> np.ndarray:
        """The gradient covector of ``f`` at the frame's point."""
        return f.gradient(self.x)


def _reeb_ok(Z, Omega, eta, tol: float) -> bool:
    """The Reeb conditions i_Z omega = 0 and eta(Z) = 1 at one point."""
    return bool(np.abs(Z @ Omega).max() <= tol and abs(eta @ Z - 1.0) <= tol)


def _solve_matrix(x, Omega, eta):
    """A^T = Omega^T + eta eta^T at ``x`` and its determinant.

    A non-finite entry is an evaluation failure, raised before the
    determinant or any solve could carry it on as NaN.
    """
    A_T = eta[:, None] * eta - Omega
    if not np.isfinite(A_T).all():
        raise _not_finite(x, _A_NAME)
    return A_T, float(np.linalg.det(A_T))


_A_NAME = "A = Omega + eta eta^T"


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` row by row over leading axes, with the bits of one-point
    products (numpy's matmul runs the same kernel on every stacked pair)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _vecmat(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``v @ M`` row by row over leading axes."""
    return (v[..., None, :] @ M)[..., 0, :]


class FrameStack:
    """The frames at every row of a point stack ``X`` (N, d), solved at once.

    Each quantity is computed with Frame's operations over a leading point
    axis: one ``np.linalg.solve`` over the stacked ``A^T`` (or products with
    the shared inverse of a constant structure) and matrix products per row,
    so every row has the bits Frame has at that point.  A stage that fails at
    some rows raises the error Frame raises at the first of them, marked with
    its ``row``; :func:`map_blocks` makes that the first failing row in point
    order.
    """

    __slots__ = ("structure", "X", "Omega", "eta", "_A_T", "_inv", "det", "_Z")

    def __init__(self, structure: "CosymplecticStructure", X):
        self.structure = structure
        self.X = X = np.asarray(X, dtype=float)
        const = structure._constant_data
        if const is not None:
            self.Omega, self.eta, self._inv, self.det = const
            self._A_T = None
            if self._inv is None:  # degenerate: any row raises below
                self._inv = np.full(self.Omega.shape, math.nan)
        else:
            try:
                self.Omega = structure.omega.at_stack(X)
                self.eta = structure.eta.at_stack(X)
            except exprlang.ExprError as err:
                k = err.row or 0  # an error of no row fails every row
                raise _at_row(StructureEvalError(X[k], err), k) from err
            A_T = self.eta[:, :, None] * self.eta[:, None, :] - self.Omega
            self._first(
                ~np.isfinite(A_T).all(axis=(1, 2)), lambda k: _not_finite(X[k], _A_NAME)
            )
            self._A_T, self.det, self._inv = A_T, np.linalg.det(A_T), None
        det = np.broadcast_to(self.det, X.shape[:1])
        self._first(
            np.abs(det) < structure.tol.volume_min_det,
            lambda k: DegenerateStructureError(X[k], float(det[k])),
        )
        self._Z = None

    def _first(self, bad, error) -> None:
        """Raise ``error(k)`` for the first row ``k`` flagged in ``bad``."""
        bad = np.broadcast_to(bad, self.X.shape[:1])
        if bad.any():
            k = int(np.argmax(bad))
            raise _at_row(error(k), k)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A^T u = rhs at every row; ``rhs`` is (N, d), or (d,) when it
        is shared by every row of a constant structure."""
        if self._A_T is None:
            return (self._inv @ rhs[..., None])[..., 0]
        return np.linalg.solve(self._A_T, rhs[..., None])[..., 0]

    @property
    def reeb(self) -> np.ndarray:
        if self._Z is None:
            if self._A_T is None:
                Z, ok = self.structure._constant_reeb
            else:
                Z = self.solve(self.eta)
                tol = self.structure.tol.reeb_check
                ok = (np.abs(_vecmat(Z, self.Omega)).max(axis=-1) <= tol) & (
                    np.abs(_dot(self.eta, Z) - 1.0) <= tol
                )
            self._first(
                np.logical_not(ok),
                lambda k: _condition_error("Reeb conditions violated", self.X[k]),
            )
            self._Z = np.broadcast_to(Z, self.X.shape)
        return self._Z

    def hamiltonian(self, df: np.ndarray) -> np.ndarray:
        Z = self.reeb
        zf = _dot(df, Z)
        self._first(~np.isfinite(zf), lambda k: _not_finite(self.X[k], f"df(Z) = {zf[k]}"))
        rhs = df - zf[:, None] * self.eta
        Xf = self.solve(rhs)
        tol = self.structure.tol
        self._first(
            ~(np.abs(_dot(self.eta, Xf)) <= tol.reeb_check),
            lambda k: _condition_error("eta(X_f) != 0", self.X[k]),
        )
        self._first(
            ~(np.abs(_vecmat(Xf, self.Omega) - rhs).max(axis=-1) <= tol.field_check),
            lambda k: _condition_error("i_X omega != df - Z(f) eta", self.X[k]),
        )
        return Xf

    def evaluation(self, df: np.ndarray) -> np.ndarray:
        Y = self.reeb + self.hamiltonian(df)
        self._first(
            ~(np.abs(_dot(self.eta, Y) - 1.0) <= self.structure.tol.reeb_check),
            lambda k: _condition_error("eta(Y_f) != 1", self.X[k]),
        )
        return Y

    def gradient(self, df: np.ndarray) -> np.ndarray:
        Z = self.reeb
        zf = _dot(df, Z)
        G = self.hamiltonian(df) + zf[:, None] * Z
        tol = self.structure.tol.field_check
        rhs = df - zf[:, None] * self.eta
        ok = (np.abs(_vecmat(G, self.Omega) - rhs).max(axis=-1) <= tol) & (
            np.abs(_dot(self.eta, G) - zf) <= tol
        )
        self._first(~ok, lambda k: _condition_error("gradient conditions violated", self.X[k]))
        return G

    def bracket(self, df: np.ndarray, dg: np.ndarray) -> np.ndarray:
        """Poisson brackets (N,) from gradient covectors, cross-checked both
        ways."""
        Xf = self.hamiltonian(df)
        Xg = self.hamiltonian(dg)
        via_fields = _dot(_vecmat(Xf, self.Omega), Xg)
        Z = self.reeb
        Gf = Xf + _dot(df, Z)[:, None] * Z
        Gg = Xg + _dot(dg, Z)[:, None] * Z
        via_gradients = _dot(_vecmat(Gf, self.Omega), Gg)
        self._first(
            ~(np.abs(via_fields - via_gradients) <= self.structure.tol.bracket_agreement),
            lambda k: _condition_error(
                "bracket formulas disagree",
                self.X[k],
                f": {float(via_fields[k])} vs {float(via_gradients[k])}",
            ),
        )
        return via_fields

    def differential(self, f) -> np.ndarray:
        """The gradient covectors (N, d) of ``f`` at the rows."""
        return f.gradient_stack(self.X)


#: Rows per block of a stacked evaluation; bounds the stacks alive at once.
BLOCK_ROWS = 512

_ROW_ERRORS = (
    exprlang.ExprError,
    DegenerateStructureError,
    StructureEvalError,
    FieldConditionError,
    np.linalg.LinAlgError,
)


def map_blocks(compute, X):
    """``compute`` over the rows of ``X`` in blocks of at most ``BLOCK_ROWS``.

    ``compute`` maps a stack to an array, or a tuple of arrays, with one entry
    per row along the first axis, and computes each row on its own.  The
    blocks' outputs are concatenated.  A failing block raises what a loop
    over its points would: the error of the first failing row.  A stage of
    ``compute`` raises at its own first failing row, so the rows before that
    one are computed again until none of them fails.
    """
    X = np.asarray(X, dtype=float)
    parts = [
        _first_failure(compute, X[i : i + BLOCK_ROWS])
        for i in range(0, max(len(X), 1), BLOCK_ROWS)
    ]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _first_failure(compute, X):
    try:
        return compute(X)
    except _ROW_ERRORS as err:
        first = err
    while getattr(first, "row", None):
        try:
            compute(X[: first.row])
        except _ROW_ERRORS as err:
            first = err
        else:
            break
    raise first


def _max_seen(values: np.ndarray) -> float:
    """The running maximum of a loop that starts at 0 and skips NaN."""
    return float(np.max(np.where(np.isnan(values), 0.0, values), initial=0.0))


@dataclass(frozen=True)
class ValidationReport:
    samples: int
    max_d_omega: float
    max_d_eta: float
    min_abs_det: float
    tol: ToleranceConfig
    worst_point: np.ndarray

    @property
    def passed(self) -> bool:
        return (
            self.max_d_omega < self.tol.closedness
            and self.max_d_eta < self.tol.closedness
            and self.min_abs_det > self.tol.volume_min_det
        )

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "max_d_omega": self.max_d_omega,
            "max_d_eta": self.max_d_eta,
            "min_abs_det": self.min_abs_det,
            "closedness_tolerance": self.tol.closedness,
            "volume_floor": self.tol.volume_min_det,
            "pass": self.passed,
        }


class StructureVectorField:
    """Point-evaluable derived vector field (Jacobians via finite differences).

    Called with one point (d,) it solves a ``Frame``; called with a stack
    (N, d) it solves a ``FrameStack`` and returns (N, d), so the stencils of
    ``fields`` evaluate it once per shift on a whole stack.
    """

    def __init__(self, structure, kind: str, scalar=None):
        if kind not in ("reeb", "hamiltonian", "evaluation", "gradient"):
            raise ValueError(f"unknown field kind '{kind}'")
        if kind != "reeb" and scalar is None:
            raise ValueError(f"field kind '{kind}' needs a scalar field")
        self.structure = structure
        self.kind = kind
        self.scalar = scalar

    @property
    def label(self) -> str:
        if self.kind == "reeb":
            return "reeb"
        return f"{self.kind}({getattr(self.scalar, 'name', 'f')})"

    def __call__(self, x: Point) -> np.ndarray:
        frame = self.structure.frame(x)
        if self.kind == "reeb":
            return frame.reeb
        df = frame.differential(self.scalar)
        if self.kind == "hamiltonian":
            return frame.hamiltonian(df)
        if self.kind == "evaluation":
            return frame.evaluation(df)
        return frame.gradient(df)


@dataclass(frozen=True)
class CosymplecticStructure:
    """Chart plus (omega, eta) pair and the sampling box of the model.

    Immutable; all operations are pure.
    """

    chart: ChartSpec
    omega: TwoFormField
    eta: OneFormField
    domain_box: tuple
    primitive: OneFormField | None = None
    tol: ToleranceConfig = field(default_factory=ToleranceConfig)

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.domain_box)
        if len(box) != self.chart.dim:
            raise ValueError("domain box must have one interval per coordinate")
        object.__setattr__(self, "domain_box", box)

    @cached_property
    def _constant_data(self):
        """Shared (Omega, eta, inverse of A^T, det) for constant structures."""
        if self.omega.is_constant() and self.eta.is_constant():
            x0 = np.array([lo for lo, _ in self.domain_box])
            Omega, eta = self.omega.at(x0), self.eta.at(x0)
            A_T, det = _solve_matrix(x0, Omega, eta)
            if abs(det) < self.tol.volume_min_det:
                return Omega, eta, None, det
            return Omega, eta, np.linalg.inv(A_T), det
        return None

    @cached_property
    def _constant_reeb(self):
        """(Z, whether Z meets the Reeb conditions) of a nondegenerate
        constant structure, shared by all its frames.  Z is read-only."""
        Omega, eta, inv, _ = self._constant_data
        Z = inv @ eta
        Z.flags.writeable = False
        return Z, _reeb_ok(Z, Omega, eta, self.tol.reeb_check)

    # -- derived quantities ------------------------------------------------

    def frame(self, x: Point) -> "Frame | FrameStack":
        """The solve context at one point (d,), or at every row of (N, d)."""
        x = np.asarray(x, dtype=float)
        return FrameStack(self, x) if x.ndim == 2 else Frame(self, x)

    def reeb(self, x: Point) -> np.ndarray:
        return self.frame(x).reeb

    def hamiltonian_field(self, f, x: Point) -> np.ndarray:
        frame = self.frame(x)
        return frame.hamiltonian(frame.differential(f))

    def evaluation_field(self, f, x: Point) -> np.ndarray:
        frame = self.frame(x)
        return frame.evaluation(frame.differential(f))

    def gradient_field(self, f, x: Point) -> np.ndarray:
        frame = self.frame(x)
        return frame.gradient(frame.differential(f))

    def poisson_bracket(self, f, g, x: Point) -> float:
        """{f, g} at one point, or (N,) at the rows of a stack."""
        frame = self.frame(x)
        return frame.bracket(frame.differential(f), frame.differential(g))

    def reeb_derivative(self, f, x: Point) -> float:
        """Z(f) = <df, Z>."""
        return float(f.gradient(x) @ self.frame(x).reeb)

    # -- vector-field factories ---------------------------------------------

    def reeb_vf(self) -> StructureVectorField:
        return StructureVectorField(self, "reeb")

    def hamiltonian_vf(self, f) -> StructureVectorField:
        return StructureVectorField(self, "hamiltonian", f)

    def evaluation_vf(self, f) -> StructureVectorField:
        return StructureVectorField(self, "evaluation", f)

    def bracket_scalar(
        self, f, g, name: str | None = None
    ) -> ScalarField | NumericScalarField:
        """{f, g} as a point-evaluable scalar field: the expression of
        ``bracket_expr`` on constant structures, whose gradient is exact,
        else a numeric field of point brackets."""
        label = name or f"{{{getattr(f, 'name', 'f')},{getattr(g, 'name', 'g')}}}"
        expr = bracket_expr(self, f, g)
        if expr is not None:
            return ScalarField(self.chart, expr, label)
        return NumericScalarField(
            lambda x: self.poisson_bracket(f, g, x), name=label
        )

    # -- validation ----------------------------------------------------------

    def validate(self, samples: int = 100, seed: int = 0) -> ValidationReport:
        """Check closedness of omega and eta and the volume condition.

        Draws ``samples`` uniform points from the domain box with a seeded
        generator, so reports are reproducible.
        """
        if samples <= 0:
            raise ValueError("samples must be positive")
        rng = np.random.default_rng(seed)
        pts = sample_box(self.domain_box, samples, rng)

        def rows(X):
            try:
                dw = self.omega.exterior_derivative_stack(X)
                de = self.eta.exterior_derivative_stack(X)
                W = self.omega.at_stack(X)
                ev = self.eta.at_stack(X)
            except exprlang.ExprError as err:
                k = err.row or 0
                raise _at_row(StructureEvalError(X[k], err), k) from err
            det = np.abs(np.linalg.det(W + ev[:, :, None] * ev[:, None, :]))
            return _abs_max_per_row(dw), _abs_max_per_row(de), det

        dw, de, det = map_blocks(rows, pts)
        # the first minimum below inf; a NaN determinant never is one
        det = np.where(np.isnan(det), math.inf, det)
        k = int(np.argmin(det))
        return ValidationReport(
            samples, _max_seen(dw), _max_seen(de), float(det[k]), self.tol, pts[k]
        )

    def check_primitive(self, points, lam: OneFormField | None = None) -> float:
        """Max of |-d lambda - omega| over the given points."""
        lam = lam if lam is not None else self.primitive
        if lam is None:
            raise ValueError("structure carries no primitive one-form")

        def rows(X):
            dlam = lam.exterior_derivative_stack(X)
            return _abs_max_per_row(-dlam - self.omega.at_stack(X))

        X = np.asarray(points, dtype=float).reshape(-1, self.chart.dim)
        return _max_seen(map_blocks(rows, X))


def _abs_max_per_row(T: np.ndarray) -> np.ndarray:
    """max |T| over all but the first axis; NaN where a row holds NaN."""
    return np.abs(T).max(axis=tuple(range(1, T.ndim)), initial=0.0)


# --- constructors -----------------------------------------------------------

def canonical_chart(n: int, t_periodic: bool = True) -> ChartSpec:
    """Chart (t, q_1..q_n, p_1..p_n); single-oscillator charts use (t, q, p)."""
    if n == 1:
        names = ("t", "q", "p")
    else:
        names = ("t",) + tuple(f"q{i}" for i in range(1, n + 1)) + tuple(
            f"p{i}" for i in range(1, n + 1)
        )
    periodic = (t_periodic,) + (False,) * (2 * n)
    return ChartSpec(names, periodic)


def _default_box(chart: ChartSpec, spread: float = 2.0):
    box = []
    for per in chart.periodic:
        box.append((0.0, 2 * math.pi) if per else (-spread, spread))
    return tuple(box)


def _flat_structure(chart: ChartSpec, box, tol) -> CosymplecticStructure:
    """sum(dq_i ^ dp_i) with eta = dt and primitive p dq on a (t, q..., p...) chart."""
    n = (chart.dim - 1) // 2
    upper = {(1 + i, 1 + n + i): Const(1.0) for i in range(n)}
    omega = TwoFormField(chart, upper)
    eta = OneFormField(chart, (Const(1.0),) + (Const(0.0),) * (2 * n))
    lam_comps = [Const(0.0)] * chart.dim
    for i in range(n):
        lam_comps[1 + i] = exprlang.Var(chart.names[1 + n + i], 1 + n + i)  # p_i dq_i
    lam = OneFormField(chart, tuple(lam_comps))
    return CosymplecticStructure(
        chart, omega, eta, box or _default_box(chart), lam, tol or ToleranceConfig()
    )


def make_canonical(
    n: int,
    box=None,
    t_periodic: bool = True,
    tol: ToleranceConfig | None = None,
) -> CosymplecticStructure:
    """Flat structure sum(dq_i ^ dp_i) with eta = dt and primitive p dq."""
    return _flat_structure(canonical_chart(n, t_periodic), box, tol)


def twist(
    S: CosymplecticStructure, H: ScalarField, check_samples: int = 20
) -> CosymplecticStructure:
    """Structure (omega + dH ^ eta, eta), assembled symbolically.

    The result is validated on a small seeded sample; pass ``check_samples=0``
    to skip.
    """
    chart = S.chart
    dH = [exprlang.differentiate(H.expr, i) for i in range(chart.dim)]
    upper = {}
    for i in range(chart.dim):
        for j in range(i + 1, chart.dim):
            term = exprlang.sub(
                exprlang.mul(dH[i], S.eta.components[j]),
                exprlang.mul(dH[j], S.eta.components[i]),
            )
            base = S.omega.upper.get((i, j))
            if base is not None:
                term = exprlang.add(base, term)
            if not (isinstance(term, Const) and term.val == 0.0):
                upper[(i, j)] = term
    twisted = CosymplecticStructure(
        chart, TwoFormField(chart, upper), S.eta, S.domain_box, None, S.tol
    )
    if check_samples:
        report = twisted.validate(check_samples, seed=0)
        if not report.passed:
            raise FieldConditionError(
                f"twisted structure failed validation: {report.to_dict()}"
            )
    return twisted


def make_poincare_cartan(
    H: ScalarField, box=None, tol: ToleranceConfig | None = None
) -> CosymplecticStructure:
    """Twisted flat structure (dq^dp + dH^dt, dt) with primitive p dq - H dt.

    The structure lives on the chart of ``H``, names and periodic mask
    included; that chart must follow the canonical layout (t, q..., p...).
    The stored primitive satisfies -d(p dq - H dt) = dq^dp + dH^dt; this is
    verified numerically on a seeded sample.
    """
    chart = H.chart
    n = (chart.dim - 1) // 2
    twisted = twist(_flat_structure(chart, box, tol), H, check_samples=0)
    alpha_comps = [Neg(H.expr)] + [
        exprlang.Var(chart.names[1 + n + i], 1 + n + i) for i in range(n)
    ] + [Const(0.0)] * n
    alpha = OneFormField(chart, tuple(alpha_comps))
    result = replace(twisted, primitive=alpha)
    rng = np.random.default_rng(0)
    pts = sample_box(result.domain_box, 20, rng)
    worst = result.check_primitive(pts)
    if worst > 1e-9:
        raise FieldConditionError(f"-d alpha differs from omega by {worst:.3e}")
    report = result.validate(20, seed=0)
    if not report.passed:
        raise FieldConditionError(f"structure failed validation: {report.to_dict()}")
    return result


# --- symbolic bracket on constant-coefficient structures ---------------------

def bracket_expr(S: CosymplecticStructure, f: ScalarField, g: ScalarField) -> Expr | None:
    """{f, g} as an expression when omega and eta have constant coefficients.

    In that case X_f = C df with a constant matrix C, so the bracket is the
    constant quadratic form ``df^T (C^T Omega C) dg`` assembled symbolically.
    Returns None for structures with varying coefficients; callers fall back
    to a numeric bracket field.
    """
    if S._constant_data is None:
        return None
    Omega, eta, M, _ = S._constant_data  # M = (A^T)^{-1}
    if M is None:
        raise DegenerateStructureError(np.zeros(S.chart.dim), S._constant_data[3])
    d = S.chart.dim
    Z = M @ eta
    C = M @ (np.eye(d) - np.outer(eta, Z))
    P = C.T @ Omega @ C
    P[np.abs(P) < 1e-14] = 0.0
    df = [exprlang.differentiate(f.expr, i) for i in range(d)]
    dg = [exprlang.differentiate(g.expr, i) for i in range(d)]
    total: Expr = Const(0.0)
    for a in range(d):
        for b in range(d):
            if P[a, b] == 0.0:
                continue
            term = exprlang.mul(Const(float(P[a, b])), exprlang.mul(df[a], dg[b]))
            total = exprlang.add(total, term)
    return total
