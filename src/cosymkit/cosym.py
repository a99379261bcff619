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
    action_independence: float = 1e-5 # base-point independence of actions
    primitive_check: float = 1e-8     # |-d lambda - omega|
    frequency_match: float = 1e-3     # solved vs. empirical frequencies
    angle_fit: float = 1e-3           # linear-flow fit residual

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
        return self.Omega + np.outer(self.eta, self.eta)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A^T u = rhs."""
        if self._inv is not None:
            return self._inv @ rhs
        return np.linalg.solve(self._A_T, rhs)

    @property
    def reeb(self) -> np.ndarray:
        if self._Z is None:
            Z = self.solve(self.eta)
            tol = self.structure.tol.reeb_check
            if np.max(np.abs(Z @ self.Omega)) > tol or abs(self.eta @ Z - 1.0) > tol:
                raise FieldConditionError(
                    f"Reeb conditions violated at {self.x.tolist()}"
                )
            self._Z = Z
        return self._Z

    def hamiltonian(self, df: np.ndarray) -> np.ndarray:
        """X_f from the gradient covector of f."""
        Z = self.reeb
        rhs = df - (df @ Z) * self.eta
        X = self.solve(rhs)
        tol = self.structure.tol
        if abs(self.eta @ X) > tol.reeb_check:
            raise FieldConditionError(f"eta(X_f) != 0 at {self.x.tolist()}")
        if np.max(np.abs(X @ self.Omega - rhs)) > tol.field_check:
            raise FieldConditionError(f"i_X omega != df - Z(f) eta at {self.x.tolist()}")
        return X

    def evaluation(self, df: np.ndarray) -> np.ndarray:
        Y = self.reeb + self.hamiltonian(df)
        if abs(self.eta @ Y - 1.0) > self.structure.tol.reeb_check:
            raise FieldConditionError(f"eta(Y_f) != 1 at {self.x.tolist()}")
        return Y

    def gradient(self, df: np.ndarray) -> np.ndarray:
        Z = self.reeb
        zf = df @ Z
        G = self.hamiltonian(df) + zf * Z
        tol = self.structure.tol.field_check
        rhs = df - zf * self.eta
        if np.max(np.abs(G @ self.Omega - rhs)) > tol or abs(self.eta @ G - zf) > tol:
            raise FieldConditionError(f"gradient conditions violated at {self.x.tolist()}")
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
        if abs(via_fields - via_gradients) > self.structure.tol.bracket_agreement:
            raise FieldConditionError(
                "bracket formulas disagree at "
                f"{self.x.tolist()}: {via_fields} vs {via_gradients}"
            )
        return via_fields


def _solve_matrix(x, Omega, eta):
    """A^T = Omega^T + eta eta^T at ``x`` and its determinant.

    A non-finite entry is an evaluation failure, raised before the
    determinant or any solve could carry it on as NaN.
    """
    A_T = np.outer(eta, eta) - Omega
    if not np.isfinite(A_T).all():
        raise StructureEvalError(x, ValueError("A = Omega + eta eta^T is not finite"))
    return A_T, float(np.linalg.det(A_T))


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
    """Point-evaluable derived vector field (Jacobians via finite differences)."""

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
        df = self.scalar.gradient(x)
        if self.kind == "hamiltonian":
            return frame.hamiltonian(df)
        if self.kind == "evaluation":
            return frame.evaluation(df)
        return frame.gradient(df)


@dataclass(frozen=True)
class CosymplecticStructure:
    """Chart plus (omega, eta) pair and the sampling box of the model.

    Immutable; all operations are pure and safe to call from parallel workers.
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

    # -- derived quantities ------------------------------------------------

    def frame(self, x: Point) -> Frame:
        return Frame(self, x)

    def reeb(self, x: Point) -> np.ndarray:
        return self.frame(x).reeb

    def hamiltonian_field(self, f, x: Point) -> np.ndarray:
        return self.frame(x).hamiltonian(f.gradient(x))

    def evaluation_field(self, f, x: Point) -> np.ndarray:
        return self.frame(x).evaluation(f.gradient(x))

    def gradient_field(self, f, x: Point) -> np.ndarray:
        return self.frame(x).gradient(f.gradient(x))

    def poisson_bracket(self, f, g, x: Point) -> float:
        return self.frame(x).bracket(f.gradient(x), g.gradient(x))

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

    def bracket_scalar(self, f, g, name: str | None = None) -> NumericScalarField:
        """{f, g} as a point-evaluable scalar field."""
        label = name or f"{{{getattr(f, 'name', 'f')},{getattr(g, 'name', 'g')}}}"
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
        max_dw = 0.0
        max_de = 0.0
        min_det = math.inf
        worst = pts[0]
        for x in pts:
            try:
                dw = float(np.max(np.abs(self.omega.exterior_derivative(x))))
                de = float(np.max(np.abs(self.eta.exterior_derivative(x))))
                W = self.omega.at(x)
                ev = self.eta.at(x)
            except exprlang.ExprError as err:
                raise StructureEvalError(x, err) from err
            det = abs(float(np.linalg.det(W + np.outer(ev, ev))))
            max_dw = max(max_dw, dw)
            max_de = max(max_de, de)
            if det < min_det:
                min_det = det
                worst = x
        return ValidationReport(samples, max_dw, max_de, min_det, self.tol, worst)

    def check_primitive(self, points, lam: OneFormField | None = None) -> float:
        """Max of |-d lambda - omega| over the given points."""
        lam = lam if lam is not None else self.primitive
        if lam is None:
            raise ValueError("structure carries no primitive one-form")
        worst = 0.0
        for x in points:
            resid = np.max(np.abs(-lam.exterior_derivative(x) - self.omega.at(x)))
            worst = max(worst, float(resid))
        return worst


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


def make_canonical(
    n: int,
    box=None,
    t_periodic: bool = True,
    tol: ToleranceConfig | None = None,
) -> CosymplecticStructure:
    """Flat structure sum(dq_i ^ dp_i) with eta = dt and primitive p dq."""
    chart = canonical_chart(n, t_periodic)
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

    The chart of ``H`` must follow the canonical layout (t, q..., p...).
    The stored primitive satisfies -d(p dq - H dt) = dq^dp + dH^dt; this is
    verified numerically on a seeded sample.
    """
    chart = H.chart
    n = (chart.dim - 1) // 2
    base = make_canonical(n, box=box, t_periodic=chart.periodic[0], tol=tol)
    if base.chart.names != chart.names:
        base_chart = chart
        upper = {(1 + i, 1 + n + i): Const(1.0) for i in range(n)}
        omega = TwoFormField(base_chart, upper)
        eta = OneFormField(base_chart, (Const(1.0),) + (Const(0.0),) * (2 * n))
        base = CosymplecticStructure(
            base_chart, omega, eta, box or _default_box(base_chart), None,
            tol or ToleranceConfig(),
        )
    twisted = twist(base, H, check_samples=0)
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
