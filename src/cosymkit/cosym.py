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

``Frame`` holds that solve at every row of a point stack (N, d), with one
stacked solve; the stacked checks build one per block of points.  When omega
and eta have constant coefficients the solve is done once per structure:
``X_f = C df`` with one matrix C, and the defining conditions become
identities of C checked once, with limits on ``||df||`` that cover the
rounding at each point (docs/CONVENTIONS.md, "Constant structures").

Flows evaluate a field at one point per stage, and build no ``Frame``.  The
Reeb, Hamiltonian and evaluation fields run straight-line code from d floats
to d floats, with a frame row's errors: on a varying structure one function
per structure and field kind, generated from omega's and eta's expressions
(:func:`_one_point_function`); on a constant one, one function per
structure, kind and scalar over the structure's shared data, with the
scalar's jet inlined (:func:`_constant_point_function`).  They have a frame
row's bits wherever the row's array code runs no ``np.exp``, ``np.log`` or
``np.power``, as on every builtin: the one-point code calls ``math.exp``,
``math.log`` and ``math.pow`` there, which can differ from numpy's in the
last place (``exprlang``, "compilation").  The other one-point calls (the
gradient field, the bracket, Jacobians) solve a one-row ``Frame``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dc_fields, replace
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg as _lapack

from . import exprlang
from .exprlang import Const, Neg
from .fields import (
    ChartSpec,
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
    "BLOCK_ROWS",
    "map_blocks",
    "make_canonical",
    "make_poincare_cartan",
    "twist",
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
    closure_fiber: float = 1e-7       # spread of a_ij within one fiber
    fiber_match: float = 1e-9         # two points share a fiber
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

    def __post_init__(self):
        # A NaN threshold fails every check and an inf one passes every check.
        # Negative ones stay, to force a check to fail, except the floor: it
        # is what keeps a singular A away from every solve.
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if f.name == "volume_min_det" and not value > 0.0:
                raise ValueError(f"volume_min_det must be positive, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")


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


# Frame and the one-point fields build their errors here, so a stacked row
# fails with the message of the point.

def _condition_error(what: str, x, detail: str = "") -> FieldConditionError:
    return FieldConditionError(f"{what} at {np.asarray(x).tolist()}{detail}")


#: The defining conditions of Z, X_f and Y_f, in the order they are checked.
_REEB_CONDITIONS = "Reeb conditions violated"
_X_CONDITIONS = ("eta(X_f) != 0", "i_X omega != df - Z(f) eta")
_Y_CONDITION = "eta(Y_f) != 1"


def _not_finite(x, what: str) -> StructureEvalError:
    return StructureEvalError(x, ValueError(f"{what} is not finite"))


def _at_row(err: Exception, row: int) -> Exception:
    """``err`` marked as raised by row ``row`` of a stack."""
    err.row = row
    return err


def _row_error(X: np.ndarray, err: exprlang.ExprError) -> StructureEvalError:
    """An expression error of a stacked structure evaluation as the
    ``StructureEvalError`` of its row; an error of no row fails every row."""
    k = err.row or 0
    return _at_row(StructureEvalError(X[k], err), k)


def _first_row(bad: np.ndarray, error) -> None:
    """Raise ``error(k)``, marked with its row, for the first row ``k``
    flagged in ``bad``."""
    if bad.any():
        k = int(np.argmax(bad))
        raise _at_row(error(k), k)


def _first_not_finite(X: np.ndarray, named) -> None:
    """Raise ``StructureEvalError`` as ``Frame`` words it at the first row of
    ``X`` where one of the ``(name, stack)`` pairs in ``named``, tried in
    order, is not finite."""
    for what, T in named:
        _first_row(
            ~np.isfinite(T).all(axis=tuple(range(1, T.ndim))),
            lambda k: _not_finite(X[k], what),
        )


class Frame:
    """The solve context at every row of a point stack ``x`` (N, d): Omega,
    eta and A^T at each row, solved at once.

    Reused by every derived quantity at the same rows, so the structure
    matrices are evaluated once.  Each quantity is computed over the leading
    point axis: one ``np.linalg.solve`` over the stacked ``A^T`` and numpy's
    row-wise products (``np.vecdot``, ``np.vecmat``).  On a constant
    structure every frame reads what its structure derived once
    (``_constant_data``): ``X_f = C df`` with no solve, summed left to right
    over the columns of ``C`` (:func:`_column_sum`) as the one-point
    functions sum it, and the defining conditions of ``X_f`` and ``Y_f`` are
    limits on ``||df||_inf`` (``_field_limits``) in place of residuals at
    each row.

    A stage that fails at some rows raises the error of the first of them,
    worded for its point and marked with its ``row``; :func:`map_blocks`
    makes that the first failing row in point order.  No flow stage builds a
    frame: the flowed fields run :func:`_one_point_function` or
    :func:`_constant_point_function`, which the tests hold to a frame's rows.
    A one-point call that needs a frame solves a one-row frame
    (:func:`_on_rows`).
    """

    __slots__ = (
        "structure", "x", "Omega", "eta", "_A_T", "det", "_Z", "_const", "_d", "_df_size",
    )

    def __init__(self, structure: "CosymplecticStructure", x):
        self.structure = structure
        self.x = x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"a frame takes a point stack (N, d), got shape {x.shape}")
        self._const = const = structure._constant_data
        if const is not None:
            self.Omega, self.eta, self._A_T, self.det = const[:4]
        else:
            try:
                self.Omega = structure.omega.at_stack(x)
                self.eta = structure.eta.at_stack(x)
            except exprlang.ExprError as err:
                raise _row_error(x, err) from err
            A_T = self.eta[:, :, None] * self.eta[:, None, :] - self.Omega
            _first_not_finite(x, [(_A_NAME, A_T)])
            self._A_T, self.det = A_T, np.linalg.det(A_T)
        det = np.broadcast_to(self.det, x.shape[:1])
        self._first(
            np.abs(det) < structure.tol.volume_min_det,
            lambda k: DegenerateStructureError(x[k], float(det[k])),
        )
        self._Z = self._d = None

    def _first(self, bad, error) -> None:
        """Raise ``error(k)`` for the first row ``k`` flagged in ``bad``."""
        _first_row(np.broadcast_to(bad, self.x.shape[:1]), error)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A^T u = rhs at every row; ``rhs`` is (N, d)."""
        return np.linalg.solve(self._A_T, rhs[..., None])[..., 0]

    @property
    def reeb(self) -> np.ndarray:
        if self._Z is None:
            if self._const is not None:
                Z, ok = self._const.Z, self._const.reeb_ok
            else:
                Z = self.solve(self.eta)
                tol = self.structure.tol.reeb_check
                ok = (np.abs(np.vecmat(Z, self.Omega)).max(axis=-1) <= tol) & (
                    np.abs(np.vecdot(self.eta, Z) - 1.0) <= tol
                )
            self._first(
                np.logical_not(ok),
                lambda k: _condition_error(_REEB_CONDITIONS, self.x[k]),
            )
            self._Z = np.broadcast_to(Z, self.x.shape)
        return self._Z

    def hamiltonian(self, df: np.ndarray) -> np.ndarray:
        """X_f at the rows from the gradient covectors (N, d) of f."""
        Z = self.reeb
        with np.errstate(invalid="ignore"):  # an inf in df times a 0 in Z
            zf = np.vecdot(df, Z)
        self._first(~np.isfinite(zf), lambda k: _not_finite(self.x[k], f"df(Z) = {zf[k]}"))
        const = self._const
        if const is not None:
            # kept for evaluation(df), whose Y_f condition is a third limit on it
            self._df_size = size = np.abs(df).max(axis=-1)
            ok = [size < limit for limit in const.limits[:2]]
        else:
            rhs = df - zf[:, None] * self.eta
            Xf = self.solve(rhs)
            tol = self.structure.tol
            ok = [
                np.abs(np.vecdot(self.eta, Xf)) <= tol.reeb_check,
                np.abs(np.vecmat(Xf, self.Omega) - rhs).max(axis=-1) <= tol.field_check,
            ]
        for ok_c, what in zip(ok, _X_CONDITIONS):
            self._first(~ok_c, lambda k: _condition_error(what, self.x[k]))
        return Xf if const is None else _column_sum(const.C, df)

    def evaluation(self, df: np.ndarray) -> np.ndarray:
        Y = self.reeb + self.hamiltonian(df)
        if self._const is not None:
            ok = self._df_size < self._const.limits[2]
        else:
            ok = np.abs(np.vecdot(self.eta, Y) - 1.0) <= self.structure.tol.reeb_check
        self._first(~ok, lambda k: _condition_error(_Y_CONDITION, self.x[k]))
        return Y

    def gradient(self, df: np.ndarray) -> np.ndarray:
        Z = self.reeb
        with np.errstate(invalid="ignore"):  # hamiltonian(df) raises for it
            zf = np.vecdot(df, Z)
        G = self.hamiltonian(df) + zf[..., None] * Z
        tol = self.structure.tol.field_check
        rhs = df - zf[..., None] * self.eta
        ok = (np.abs(np.vecmat(G, self.Omega) - rhs).max(axis=-1) <= tol) & (
            np.abs(np.vecdot(self.eta, G) - zf) <= tol
        )
        self._first(~ok, lambda k: _condition_error("gradient conditions violated", self.x[k]))
        return G

    def bracket(self, df: np.ndarray, dg: np.ndarray) -> np.ndarray:
        """Poisson brackets (N,) from gradient covectors, cross-checked both
        ways."""
        Xf = self.hamiltonian(df)
        Xg = self.hamiltonian(dg)
        via_fields = np.vecdot(np.vecmat(Xf, self.Omega), Xg)
        Z = self.reeb
        Gf = Xf + np.vecdot(df, Z)[..., None] * Z
        Gg = Xg + np.vecdot(dg, Z)[..., None] * Z
        via_gradients = np.vecdot(np.vecmat(Gf, self.Omega), Gg)
        self._first(
            ~(np.abs(via_fields - via_gradients) <= self.structure.tol.bracket_agreement),
            lambda k: _condition_error(
                "bracket formulas disagree",
                self.x[k],
                f": {float(via_fields[k])} vs {float(via_gradients[k])}",
            ),
        )
        return via_fields

    def differential(self, f) -> np.ndarray:
        """The gradient covectors (N, d) of ``f`` at the rows."""
        return f.gradient_stack(self.x)

    # -- exact Jacobians J[:, i, k] = d_k V_i (docs/CONVENTIONS.md, "Jacobians")

    def _derivatives(self):
        """``d Omega``, ``d eta``, ``d A^T`` and ``J(Z)`` at the rows, derived
        once per frame; a constant structure has zero gradient tensors."""
        if self._d is None:
            try:
                dW = self.structure.omega.gradient_stack(self.x)
                de = self.structure.eta.gradient_stack(self.x)
            except exprlang.ExprError as err:
                raise _row_error(self.x, err) from err
            e = np.broadcast_to(self.eta, self.x.shape)
            dA = de[:, :, None, :] * e[:, None, :, None] + e[:, :, None, None] * de[:, None] - dW
            self._d = dW, de, dA, self._implicit(dA, de, self.reeb, "J(Z)")
        return self._d

    def _implicit(self, dA, db, V, what: str) -> np.ndarray:
        """``J(V)`` of the solution of ``A^T V = b``, ``db[:, :, k] = d_k b``:
        ``d_k V = A^-T (d_k b - d_k A^T V)``, one solve over the d columns."""
        dAV = (np.moveaxis(dA, 3, 1) @ V[:, None, :, None])[..., 0]  # [:, k, i]
        J = np.linalg.solve(self._A_T, db - np.swapaxes(dAV, 1, 2))
        _first_not_finite(self.x, [(what, J)])
        return J

    def _hamiltonian_jacobian(self, f):
        """``X_f``, ``J(X_f)``, ``Z(f)`` and ``d(Z(f))`` at the rows."""
        df = self.differential(f)
        Xf = self.hamiltonian(df)
        _, de, dA, JZ = self._derivatives()
        Z = self.reeb
        zf = np.vecdot(df, Z)
        Hf = f.hessian_stack(self.x)
        dzf = np.vecmat(Z, Hf) + np.vecmat(df, JZ)
        e = np.broadcast_to(self.eta, self.x.shape)
        db = Hf - e[:, :, None] * dzf[:, None, :] - zf[:, None, None] * de
        return Xf, self._implicit(dA, db, Xf, "J(X_f)"), zf, dzf


def _column_sum(C, df) -> np.ndarray:
    """``C df`` at the rows of ``df`` (N, d): ``C[:, 0] df_0 + C[:, 1] df_1
    + ...`` left to right over every column, each row with the bits of the
    constant one-point functions' sums (numpy's ``matvec`` sums in an order
    of its own, which differs where ``C`` is inexact)."""
    X = df[:, :1] * C[:, 0]
    for j in range(1, C.shape[1]):
        X = X + df[:, j : j + 1] * C[:, j]
    return X


def _on_rows(compute, x):
    """``compute`` at the rows of a point stack ``x`` (N, d); at one point
    (d,), row 0 of ``compute`` on the one-row stack."""
    x = np.asarray(x, dtype=float)
    return compute(x) if x.ndim == 2 else compute(x[None])[0]


def _reeb_ok(Z, Omega, eta, tol: float) -> bool:
    """The Reeb conditions i_Z omega = 0 and eta(Z) = 1 at one point; a NaN
    residual fails them."""
    return all([abs(c) <= tol for c in (Z @ Omega).tolist()]) and bool(abs(eta @ Z - 1.0) <= tol)


def _solve_matrix(x, Omega, eta):
    """A^T = Omega^T + eta eta^T at ``x`` and its determinant.

    A non-finite entry is an evaluation failure, raised before the
    determinant or any solve could carry it on as NaN.
    """
    A_T = eta[:, None] * eta - Omega
    if not all(map(math.isfinite, A_T.ravel().tolist())):
        raise _not_finite(x, _A_NAME)
    return A_T, float(_lapack.det(A_T))


_A_NAME = "A = Omega + eta eta^T"


class _Constant(NamedTuple):
    """What every frame of a constant structure shares."""

    Omega: np.ndarray
    eta: np.ndarray
    A_T: np.ndarray
    det: float
    Z: np.ndarray
    reeb_ok: bool
    C: np.ndarray
    limits: tuple  # on ||df||_inf: eta(X_f), i_X omega, eta(Y_f)


_U = 2.0**-53  # unit roundoff of a double
_TINY = np.finfo(float).tiny  # the smallest normal double


def _gamma(n: int) -> float:
    return n * _U / (1 - n * _U)


def _field_limits(Omega, eta, M, Z, C, tol: ToleranceConfig) -> tuple:
    """Limits on ``s = ||df||_inf`` under which X_f and Y_f of a constant
    structure meet their defining conditions, one per condition in the order
    they are checked: ``eta(X_f) = 0`` (``tol.reeb_check``),
    ``i_X omega = df - Z(f) eta`` (``tol.field_check``) and
    ``eta(Y_f) = 1`` (``tol.reeb_check``).

    With the exact matrix ``C* = M - (M eta) Z^T`` (``M`` the inverse of
    ``A^T``; ``C`` is ``C*`` rounded) the conditions are the identities
    ``eta^T C* = 0`` and ``Omega^T C* = I - eta Z^T``, and ``eta.Z = 1``.
    Their residuals, and ``C - C*``, are computed exactly, in rational
    arithmetic on the stored doubles.

    For each condition ``B_c(s) = e_c + K_c s`` bounds the residual that the
    per-point check computes in floating point -- the one varying structures
    run -- at every finite df with ``||df||_inf <= s``, whichever X it checks:
    the solve's ``fl(M fl(df - fl(df.Z) eta))`` or ``fl(C df)``, the
    left-to-right sum over the columns of ``C`` that constant structures
    compute (:func:`_column_sum`).  A point
    passes when ``s < (tol_c - e_c) / K_c``, so it passes only where the
    per-point check would; a tolerance at or below ``e_c`` fails every point.

    Derivation (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 3): each operation rounds with unit roundoff ``u``; a dot product of
    length n errs by at most ``gamma_n |x|.|y|``, ``gamma_n = n u/(1 - n u)``,
    in any summation order.  ``|.|`` is entrywise, ``1`` the ones vector,
    ``a = ||Z||_1``, ``E = |eta|``, ``g = gamma_d``.

    * ``zf = fl(df.Z) = df.Z + dz`` with ``|dz| <= g a s``.
    * ``r = fl(df - fl(zf eta)) = df - zf eta + dr`` with
      ``|dr| <= s dr_ = s gamma_2 (1 + (1 + g) a E)``; ``|r| <= s rho``,
      ``rho = (1 + gamma_2)(1 + (1 + g) a E)``.
    * Either X is ``C* df + xi`` with ``|xi| <= s xi_``.  The solve gives
      ``xi = -dz M eta + M dr + fl-error(M r)``:
      ``g a |M| E + |M| dr_ + g |M| rho``.  ``fl(C df)`` gives
      ``xi = (C - C*) df + fl-error(C df)``: ``|C - C*| 1 + g |C| 1``.
      ``xi_`` is their entrywise maximum, and ``|X| <= s x_``,
      ``x_ = |C*| 1 + xi_``.
    * ``eta(X_f)``: ``eta.X = eta^T C* df + eta.xi``, and ``fl`` adds
      ``g E.|X|``: ``K_1 = ||eta^T C*||_1 + E.xi_ + g E.x_``.
    * ``i_X omega``: ``Omega^T X - r = R df + dz eta + Omega^T xi - dr`` with
      ``R = Omega^T C* - (I - eta Z^T)``; the product adds
      ``g |Omega|^T |X|`` and the difference a factor ``1 + u``:
      ``K_2 = (1 + u) max(|R| 1 + g a E + |Omega|^T xi_ + dr_ + g |Omega|^T x_)``.
    * ``eta(Y_f)``: ``fl(fl(eta.fl(Z + X)) - 1)``; with ``h = u + g (1 + u)``,
      ``e_3 = (1 + u)(|eta.Z - 1| + h E.|Z|)`` and
      ``K_3 = (1 + u)(||eta^T C*||_1 + E.xi_ + h E.x_)``.

    Gradual underflow adds at most ``2^-1074`` to a product, which the
    matrices above amplify by less than ``(1 + ||eta||_1)^2 (1 + ||M||_inf)
    (1 + ||Omega||_1)``; every ``e_c`` carries ``4 d 2^-1074`` times that.
    ``K_c`` and ``e_c`` are sums of nonnegative terms evaluated in fewer than
    2^12 roundings, so a factor ``1 + 2^-40`` covers them, and each limit is
    rounded down.  Below a limit no intermediate of the check can overflow:
    limits are capped at ``2^1000`` over the largest coefficient of ``s`` in
    an intermediate's size, and a limit below the smallest normal number is
    0.
    """
    d = len(eta)
    exact = np.vectorize(Fraction, otypes=[object])
    W_, e_, M_, Z_ = (exact(v) for v in (Omega, eta, M, Z))
    C_ex = M_ - np.outer(M_ @ e_, Z_)
    I_ = np.eye(d, dtype=int).astype(object)
    r1 = float(np.abs(e_ @ C_ex).sum())
    R = np.abs(W_.T @ C_ex - (I_ - np.outer(e_, Z_))).astype(float).sum(axis=1)
    dC = np.abs(exact(C) - C_ex).astype(float).sum(axis=1)
    absC_ex = np.abs(C_ex).astype(float).sum(axis=1)
    ez = float(abs(e_ @ Z_ - 1))

    u, g, g2 = _U, _gamma(d), _gamma(2)
    E, AM, AW = np.abs(eta), np.abs(M), np.abs(Omega)
    a = float(np.abs(Z).sum())
    dr = g2 * (1 + (1 + g) * a * E)
    rho = (1 + g2) * (1 + (1 + g) * a * E)
    rowsC = np.abs(C).sum(axis=1)
    xi = np.maximum(g * a * (AM @ E) + AM @ dr + g * (AM @ rho), dC + g * rowsC)
    xb = absC_ex + xi
    h = u + g * (1 + u)
    K = (
        r1 + float(E @ xi + g * (E @ xb)),
        (1 + u) * float(np.max(R + g * a * E + AW.T @ xi + dr + g * (AW.T @ xb))),
        (1 + u) * (r1 + float(E @ xi + h * (E @ xb))),
    )
    norm_e = float(E.sum())
    underflow = 4 * d * 2.0**-1074 * (1 + norm_e) ** 2 * (
        1 + float(AM.sum(axis=1).max())
    ) * (1 + float(AW.sum(axis=0).max()))
    e = (underflow, underflow, (1 + u) * (ez + h * float(E @ np.abs(Z))) + underflow)
    sizes = (a, rho, AM @ rho, rowsC, xb, AW.T @ xb + rho, E @ xb)
    cap = 2.0**1000 / max(1.0, *(float(np.max(v)) for v in sizes))
    limits = []
    for e_c, K_c, t in zip(e, K, (tol.reeb_check, tol.field_check, tol.reeb_check)):
        e_c, K_c = e_c * (1 + 2.0**-40), K_c * (1 + 2.0**-40)
        limit = (t - e_c) / K_c * (1 - 2.0**-50) if t > e_c else 0.0
        limits.append(min(limit, cap) if limit >= _TINY else 0.0)
    return tuple(limits)


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


def _vector(names) -> str:
    """The tuple display ``(a, b, ..., )`` of ``names``."""
    return f"({''.join(n + ', ' for n in names)})"


def _dot(u, v) -> str:
    """``u_0 * v_0 + u_1 * v_1 + ...``, summed left to right."""
    return " + ".join(f"{p} * {q}" for p, q in zip(u, v))


def _one_point_function(S: "CosymplecticStructure", kind: str):
    """``make(scalar)``: the ``reeb``, ``hamiltonian`` or ``evaluation``
    field of the varying structure ``S`` for ``scalar`` (ignored by
    ``reeb``), as a straight-line function ``field(x)`` from the d floats of
    a point to the d floats of the field there.

    It runs a ``Frame`` row's stages in their order on Python floats, with
    the row's errors: omega's and eta's components in one body, the entries
    ``eta_i eta_j - W_ij`` of ``A^T`` and their finiteness, the volume floor
    on ``det A^T``, the scalar's differential, ``Z`` and the Reeb
    conditions, then ``X_f`` and ``Y_f`` with their conditions.  The
    determinant, the two solves and ``df(Z)`` stay numpy calls, so the
    outputs have the row's bits wherever the row's array code runs no
    ``np.exp``, ``np.log`` or ``np.power`` (the module docstring).  The
    residuals are Python sums, which can differ from numpy's in the last
    bits; a check can then come out differently only where those bits reach
    its tolerance, a check that rounding decides either way (a gradient of
    size 1e12 against ``field_check`` 1e-8).  Every term of a contraction is
    written, structural zeros included, so a non-finite ``Z`` or ``X`` fails
    its check as under numpy.

    Flow stages call it, so it skips what costs more than a small kernel.
    It calls the LAPACK gufuncs that ``np.linalg.det`` and
    ``np.linalg.solve`` dispatch to (``_lapack.det``, ``_lapack.solve1``),
    with the public API's bits without its wrappers: on a 3x3 system 1.1
    against 5.7 us per solve and 1.6 against 3.0 us per determinant
    (``timeit`` minimum, numpy 2.4.6, one Xeon core).  The wrappers' type
    checks have nothing to do on float arrays, and their singular-matrix
    ``errstate`` has nothing to catch: ``volume_min_det``, which
    ``ToleranceConfig`` keeps positive, rejects the point before any solve.
    At the base point an evaluation field costs 10-29 us this way, against
    160-265 us through a one-row ``Frame`` (pc-oscillator-1d and
    pc-oscillator-2d-super, ``timeit`` minimum, shared 2-vCPU machine).
    """
    d = S.chart.dim
    upper = list(S.omega.upper.items())
    lines, values, env = exprlang.value_code(
        [e for _, e in upper] + list(S.eta.components)
    )
    e = values[len(upper):]
    W = [["0.0"] * d for _ in range(d)]
    body = ["try:", *(f"    {line}" for line in lines)]
    body += ["except expr_error as err:", "    raise eval_error(x, err) from err"]
    for ((i, j), _), v in zip(upper, values):
        W[i][j], W[j][i] = v, f"n{j}_{i}"
        body.append(f"n{j}_{i} = -{v}")
    a = [f"a{i}_{j}" for i in range(d) for j in range(d)]
    body += [f"a{i}_{j} = {e[i]} * {e[j]} - {W[i][j]}" for i in range(d) for j in range(d)]
    body.append(f"if not ({' and '.join(f'{n} - {n} == 0.0' for n in a)}):")
    body.append("    raise not_finite(x, A_NAME)")

    def contraction(v, j: int) -> str:
        """Entry ``j`` of ``i_V omega``, ``sum_i V_i W[i, j]``."""
        return _dot(v, [W[i][j] for i in range(d)])

    rows = ", ".join(_vector(a[i * d : (i + 1) * d]) for i in range(d))
    body += [
        f"A = array(({rows}))",
        "det = float(lapack_det(A))",
        "if abs(det) < volume_min:",
        "    raise degenerate(x, det)",
    ]
    if kind != "reeb":
        body.append("df = scalar.gradient(x)")
    z = [f"z{i}" for i in range(d)]
    reeb_ok = [f"abs({contraction(z, j)}) <= reeb_tol" for j in range(d)]
    reeb_ok.append(f"abs({_dot(e, z)} - 1.0) <= reeb_tol")
    body += [
        f"Z = lapack_solve1(A, array({_vector(e)}))",
        f"{_vector(z)} = Z.tolist()",
        f"if not ({' and '.join(reeb_ok)}):",
        "    raise condition(REEB, x)",
    ]
    if kind == "reeb":
        body.append(f"return {_vector(z)}")
    else:
        g, r, u = ([f"{c}{i}" for i in range(d)] for c in "gru")
        body += [
            "zf = float(df.dot(Z))",
            "if not isfinite(zf):",
            '    raise not_finite(x, f"df(Z) = {zf}")',
            f"{_vector(g)} = df.tolist()",
            *(f"r{i} = g{i} - zf * {e[i]}" for i in range(d)),
            f"X = lapack_solve1(A, array({_vector(r)}))",
            f"{_vector(u)} = X.tolist()",
            f"if not abs({_dot(e, u)}) <= reeb_tol:",
            "    raise condition(X_ETA, x)",
            "if not ("
            + " and ".join(f"abs({contraction(u, j)} - r{j}) <= field_tol" for j in range(d))
            + "):",
            "    raise condition(X_OMEGA, x)",
        ]
        if kind == "hamiltonian":
            body.append(f"return {_vector(u)}")
        else:
            y = [f"y{i}" for i in range(d)]
            body += [
                *(f"y{i} = z{i} + u{i}" for i in range(d)),
                f"if not abs({_dot(e, y)} - 1.0) <= reeb_tol:",
                "    raise condition(Y_ETA, x)",
                f"return {_vector(y)}",
            ]
    env.update(
        expr_error=exprlang.ExprError, eval_error=StructureEvalError, not_finite=_not_finite,
        degenerate=DegenerateStructureError, condition=_condition_error, isfinite=math.isfinite,
        array=np.array, lapack_det=_lapack.det, lapack_solve1=_lapack.solve1,
        volume_min=S.tol.volume_min_det, reeb_tol=S.tol.reeb_check, field_tol=S.tol.field_check,
        A_NAME=_A_NAME, REEB=_REEB_CONDITIONS, X_ETA=_X_CONDITIONS[0], X_OMEGA=_X_CONDITIONS[1],
        Y_ETA=_Y_CONDITION,
    )
    src = "def make(scalar):\n    def field(x):\n"
    src += "".join(f"        {line}\n" for line in body) + "    return field\n"
    exec(exprlang.compiled(src, f"<one-point {kind}>"), env)
    return env["make"]


def _constant_point_function(S: "CosymplecticStructure", kind: str, scalar):
    """``field(x)``: the ``reeb``, ``hamiltonian`` or ``evaluation`` field of
    the constant structure ``S`` for ``scalar`` (ignored by ``reeb``), as a
    straight-line function from the d floats of a point to the d floats of
    the field there, over what the structure derived once
    (``_constant_data``).

    It runs a ``Frame`` row's stages in their order, with the row's errors,
    and its bits where the scalar's array code runs no ``np.exp``,
    ``np.log`` or ``np.power`` (the module docstring): the volume floor, the
    scalar's differential, the Reeb check, ``df(Z)`` and its finiteness, the
    limits on ``||df||_inf`` in the order of the conditions, then
    ``X_f = C df`` and ``Y_f = Z + C df``.  A
    ``ScalarField``'s jet is inlined (``exprlang.jet_code``); any other
    scalar (a ``BracketField``) is asked for its ``gradient``.  ``df(Z)``
    and ``C df`` are sums over every column, left to right, the order
    ``Frame`` sums ``C df`` in (:func:`_column_sum`).  ``df(Z)`` is not
    finite exactly where an entry of ``df`` is not, or where it overflows,
    so its one check also covers a non-finite ``df``.

    ``C``, ``Z``, the limits and the determinant are bound by name, so the
    code depends only on the dimension, the kind and the scalar's
    expression, and a scenario loaded again compiles nothing.  A structure
    that fails to derive ``_constant_data`` gets a function that derives it
    at each call, so it raises there, as a ``Frame`` does.
    """
    try:
        const = S._constant_data
    except Exception:
        return lambda x: S._constant_data
    d = S.chart.dim
    z = [f"z{i}" for i in range(d)]
    env = {}
    body = ["if abs(det) < volume_min:", "    raise degenerate(x, det)"]
    if kind != "reeb":
        g = [f"g{i}" for i in range(d)]
        if isinstance(scalar, ScalarField):
            lines, grad, env = exprlang.jet_code(scalar.expr, d)
            body += lines + [f"g{i} = {v}" for i, v in enumerate(grad)]
        else:
            body.append(f"{_vector(g)} = scalar.gradient(x).tolist()")
    body += ["if not reeb_ok:", "    raise condition(REEB, x)"]
    if kind == "reeb":
        body.append(f"return {_vector(z)}")
    else:
        body += [
            f"zf = {_dot(g, z)}",
            "if not isfinite(zf):",
            '    raise not_finite(x, f"df(Z) = {zf}")',
            f"size = max({_vector(f'abs({n})' for n in g)})",
            "if not size < limit0:",
            "    raise condition(X_ETA, x)",
            "if not size < limit1:",
            "    raise condition(X_OMEGA, x)",
            *(f"u{i} = {_dot([f'c{i}_{j}' for j in range(d)], g)}" for i in range(d)),
        ]
        u = [f"u{i}" for i in range(d)]
        if kind == "hamiltonian":
            body.append(f"return {_vector(u)}")
        else:
            body += [
                "if not size < limit2:",
                "    raise condition(Y_ETA, x)",
                f"return {_vector(f'z{i} + u{i}' for i in range(d))}",
            ]
    env.update(
        scalar=scalar, degenerate=DegenerateStructureError, condition=_condition_error,
        not_finite=_not_finite, isfinite=math.isfinite, det=const.det,
        volume_min=S.tol.volume_min_det, reeb_ok=const.reeb_ok,
        REEB=_REEB_CONDITIONS, X_ETA=_X_CONDITIONS[0], X_OMEGA=_X_CONDITIONS[1],
        Y_ETA=_Y_CONDITION,
    )
    env.update(zip(z, const.Z.tolist()))
    env.update(zip(("limit0", "limit1", "limit2"), const.limits))
    for i, row in enumerate(const.C.tolist()):
        env.update((f"c{i}_{j}", c) for j, c in enumerate(row))
    src = "def field(x):\n" + "".join(f"    {line}\n" for line in body)
    exec(exprlang.compiled(src, f"<constant one-point {kind}>"), env)
    return env["field"]


class StructureVectorField:
    """Point-evaluable derived vector field with exact Jacobians.

    Called with a stack (N, d) it solves a ``Frame`` and returns (N, d).
    Called with one point (d,), the ``reeb``, ``hamiltonian`` and
    ``evaluation`` kinds run their one-point function, from d floats to d
    floats, with a frame row's errors (and its bits where no ``np.exp``,
    ``np.log`` or ``np.power`` runs; the module docstring) and no ``Frame``
    (``CosymplecticStructure._one_point``), and wrap its value in an array;
    flows call that function on floats directly.  The ``gradient`` kind
    solves a one-row ``Frame``.  ``jacobian`` differentiates the frame's
    solve implicitly, on a one-row frame at one point.  ``on`` and
    ``jacobian_on`` read a frame the caller built, so several fields share
    one solve.
    """

    def __init__(self, structure, kind: str, scalar=None):
        if kind not in ("reeb", "hamiltonian", "evaluation", "gradient"):
            raise ValueError(f"unknown field kind '{kind}'")
        if kind != "reeb" and scalar is None:
            raise ValueError(f"field kind '{kind}' needs a scalar field")
        self.structure = structure
        self.kind = kind
        self.scalar = scalar
        self._at_point = None if kind == "gradient" else structure._one_point(kind, scalar)

    @property
    def label(self) -> str:
        if self.kind == "reeb":
            return "reeb"
        return f"{self.kind}({getattr(self.scalar, 'name', 'f')})"

    def __call__(self, x: Point) -> np.ndarray:
        at_point = self._at_point
        if at_point is not None:
            x = np.asarray(x, dtype=float)
            if x.ndim == 1:
                return np.array(at_point(x))
        return _on_rows(lambda X: self.on(Frame(self.structure, X)), x)

    def on(self, frame: Frame) -> np.ndarray:
        """The field (N, d) at the frame's rows."""
        if self.kind == "reeb":
            return frame.reeb
        # hamiltonian, evaluation or gradient
        return getattr(frame, self.kind)(frame.differential(self.scalar))

    def jacobian(self, x: Point) -> np.ndarray:
        """``J[..., i, k] = d_k V_i`` at one point (d,) or the rows of (N, d)."""
        return _on_rows(lambda X: self.jacobian_on(Frame(self.structure, X)), x)

    def jacobian_on(self, frame: Frame) -> np.ndarray:
        """The Jacobians (N, d, d) at the rows of ``frame``."""
        J = frame._derivatives()[3]
        if self.kind != "reeb":
            _, JX, zf, dzf = frame._hamiltonian_jacobian(self.scalar)
            if self.kind == "gradient":  # grad f = X_f + Z(f) Z
                J = JX + frame.reeb[:, :, None] * dzf[:, None, :] + zf[:, None, None] * J
            else:
                J = JX + J if self.kind == "evaluation" else JX
        return J


@dataclass(frozen=True)
class BracketField:
    """The Poisson bracket ``{f, g} = X_f . Omega X_g`` as a scalar field:
    values from the frames' cross-checked brackets, gradients from the exact
    Jacobians of ``X_f`` and ``X_g``."""

    structure: CosymplecticStructure
    f: ScalarField
    g: ScalarField
    name: str

    def value(self, x: Point) -> float:
        return self.structure.poisson_bracket(self.f, self.g, x)

    def gradient_stack(self, X) -> np.ndarray:
        """Gradients (N, d) at the rows of ``X``."""
        return self.gradient_on(Frame(self.structure, X))

    def gradient_on(self, frame: Frame) -> np.ndarray:
        """Gradients (N, d) at the rows of ``frame``."""
        Xf, JXf, _, _ = frame._hamiltonian_jacobian(self.f)
        Xg, JXg, _, _ = frame._hamiltonian_jacobian(self.g)
        n, d = frame.x.shape
        XfdW = np.vecmat(Xf, frame._derivatives()[0].reshape(n, d, d * d)).reshape(n, d, d)
        WXg = np.matvec(frame.Omega, Xg)
        return (
            np.vecmat(WXg, JXf) + np.vecmat(Xg, XfdW) + np.vecmat(np.vecmat(Xf, frame.Omega), JXg)
        )

    def gradient(self, x: Point) -> np.ndarray:
        return _on_rows(self.gradient_stack, x)


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
    def _constant_data(self) -> "_Constant | None":
        """What every frame of a constant structure shares, derived once;
        None when omega or eta varies.

        ``Z = M eta`` and ``C = M (I - eta Z^T)``, with ``M`` the inverse of
        ``A^T``, so ``X_f = C df`` and ``Y_f = Z + C df``; ``limits`` bound
        ``||df||_inf`` for the defining conditions of X_f and Y_f
        (:func:`_field_limits`).  Z and C are read-only.  Frames of a
        degenerate structure raise before reading Z, C or the limits, which
        are NaN and 0 there.
        """
        if not self._coefficients_constant:
            return None
        x0 = np.array([lo for lo, _ in self.domain_box])
        Omega, eta = self.omega.at(x0), self.eta.at(x0)
        A_T, det = _solve_matrix(x0, Omega, eta)
        d = len(eta)
        if abs(det) < self.tol.volume_min_det:
            nan = np.full((d, d), math.nan)
            return _Constant(Omega, eta, A_T, det, nan[0], False, nan, (0.0, 0.0, 0.0))
        M = np.linalg.inv(A_T)
        Z = M @ eta
        C = M @ (np.eye(d) - np.outer(eta, Z))
        Z.flags.writeable = C.flags.writeable = False
        return _Constant(
            Omega, eta, A_T, det, Z, _reeb_ok(Z, Omega, eta, self.tol.reeb_check), C,
            _field_limits(Omega, eta, M, Z, C, self.tol),
        )

    @cached_property
    def _coefficients_constant(self) -> bool:
        return self.omega.is_constant() and self.eta.is_constant()

    @cached_property
    def _one_point_fields(self) -> dict:
        """The generated one-point functions, filled by ``_one_point``: field
        kind -> :func:`_one_point_function` on a varying structure; (kind,
        id of the scalar) -> (:func:`_constant_point_function`, the scalar)
        on a constant one, where keeping the scalar keeps its id unique."""
        return {}

    def _one_point(self, kind: str, scalar):
        """The function from d floats to the d floats of field ``kind`` for
        ``scalar`` at one point, built on the first request: once per kind
        on a varying structure, once per kind and scalar on a constant
        one."""
        fns = self._one_point_fields
        if not self._coefficients_constant:
            make = fns.get(kind)
            if make is None:
                make = fns[kind] = _one_point_function(self, kind)
            return make(scalar)
        key = kind, id(scalar)
        if key not in fns:
            fns[key] = _constant_point_function(self, kind, scalar), scalar
        return fns[key][0]

    # -- derived quantities ------------------------------------------------

    def frame(self, X) -> Frame:
        """The solve context at every row of the point stack ``X`` (N, d)."""
        return Frame(self, X)

    def reeb(self, x: Point) -> np.ndarray:
        return self.reeb_vf()(x)

    def hamiltonian_field(self, f, x: Point) -> np.ndarray:
        return StructureVectorField(self, "hamiltonian", f)(x)

    def evaluation_field(self, f, x: Point) -> np.ndarray:
        return StructureVectorField(self, "evaluation", f)(x)

    def gradient_field(self, f, x: Point) -> np.ndarray:
        return StructureVectorField(self, "gradient", f)(x)

    def poisson_bracket(self, f, g, x: Point) -> float:
        """{f, g} at one point, or (N,) at the rows of a stack."""

        def at_rows(X):
            frame = Frame(self, X)
            return frame.bracket(frame.differential(f), frame.differential(g))

        return _on_rows(at_rows, x)

    # -- vector-field factories ---------------------------------------------

    def reeb_vf(self) -> StructureVectorField:
        return StructureVectorField(self, "reeb")

    def hamiltonian_vf(self, f) -> StructureVectorField:
        return StructureVectorField(self, "hamiltonian", f)

    def evaluation_vf(self, f) -> StructureVectorField:
        return StructureVectorField(self, "evaluation", f)

    def bracket_scalar(self, f, g) -> BracketField:
        """{f, g} as a scalar field with exact gradients."""
        return BracketField(
            self, f, g, f"{{{getattr(f, 'name', 'f')},{getattr(g, 'name', 'g')}}}"
        )

    # -- validation ----------------------------------------------------------

    def validate(self, samples: int = 100, seed: int = 0) -> ValidationReport:
        """Check closedness of omega and eta and the volume condition.

        Draws ``samples`` uniform points from the domain box with a seeded
        generator, so reports are reproducible.  A sample where ``A``,
        ``d omega`` or ``d eta`` is not finite raises ``StructureEvalError``,
        the first such sample in draw order.
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
                raise _row_error(X, err) from err
            A = W + ev[:, :, None] * ev[:, None, :]
            _first_not_finite(X, [(_A_NAME, A), ("d omega", dw), ("d eta", de)])
            return _abs_max_per_row(dw), _abs_max_per_row(de), np.abs(np.linalg.det(A))

        dw, de, det = map_blocks(rows, pts)
        k = int(np.argmin(det))
        return ValidationReport(
            samples, float(dw.max()), float(de.max()), float(det[k]), self.tol, pts[k]
        )

    def check_primitive(self, points) -> float:
        """Max of |-d lambda - omega| over the given points, for the
        structure's ``primitive`` lambda; the first point where it fails to
        evaluate or is not finite raises ``StructureEvalError``, and a
        structure without a primitive raises ValueError."""
        lam = self.primitive
        if lam is None:
            raise ValueError("structure carries no primitive one-form")

        def rows(X):
            try:
                resid = -lam.exterior_derivative_stack(X) - self.omega.at_stack(X)
            except exprlang.ExprError as err:
                raise _row_error(X, err) from err
            _first_not_finite(X, [("-d lambda - omega", resid)])
            return _abs_max_per_row(resid)

        X = np.asarray(points, dtype=float).reshape(-1, self.chart.dim)
        return float(np.max(map_blocks(rows, X), initial=0.0))


def _abs_max_per_row(T: np.ndarray) -> np.ndarray:
    """max |T| over all but the first axis."""
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


def twist(S: CosymplecticStructure, H: ScalarField) -> CosymplecticStructure:
    """Structure (omega + dH ^ eta, eta), assembled symbolically.

    The result is validated on 20 points drawn with seed 0, and raises
    FieldConditionError when that fails.
    """
    chart = S.chart
    dH = H._derivatives
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
    report = twisted.validate(20, seed=0)
    if not report.passed:
        raise FieldConditionError(f"twisted structure failed validation: {report.to_dict()}")
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
    twisted = twist(_flat_structure(chart, box, tol), H)
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
    return result

