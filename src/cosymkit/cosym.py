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

Every solve with A^T, and its determinant, come from one LU factorization
with partial pivoting, generated as code in one operation order
(:func:`_lu_code`; docs/CONVENTIONS.md, "The solve matrix"): straight-line
float code at one point, and the same lines over one array per matrix entry
for a stack (:func:`_factor`), which ``Frame``, ``validate`` and the
constant data share, so the volume floor is decided on one determinant
everywhere.  ``Frame`` holds that factorization at every row of a point
stack (N, d); the stacked checks read one frame per block of points
(``FrameBlocks``), built once and shared by every check given the same
blocks.  When omega and eta have constant coefficients the factorization
and the solves are done once per structure: ``X_f = C df`` with one matrix
C, and the defining conditions become identities of C checked once, with
limits on ``||df||`` that cover the rounding at each point
(docs/CONVENTIONS.md, "Constant structures").

Flows evaluate a field at one point per stage, and build no ``Frame``.  The
Reeb, Hamiltonian and evaluation fields run straight-line code from d floats
to d floats, one function per structure, field kind and scalar, with the
scalar's jet inlined and a frame row's stages and errors, all written by one
generator (:func:`_point_function`).  Only ``Z``, ``X_f`` and how their
conditions are decided differ between the kinds of structure: a varying one
solves them with the LU code and checks the residual sums of a frame row on
floats, generated from omega's and eta's expressions; a constant one reads
the structure's shared data and its limits on ``||df||``.  They have a frame row's bits
wherever the row's array code runs no ``np.exp``, ``np.log`` or
``np.power``, as on every builtin: the one-point code calls ``math.exp``,
``math.log`` and ``math.pow`` there, which can differ from numpy's in the
last place (``exprlang``, "compilation").  The other one-point calls (the
gradient field, the bracket, Jacobians) solve a one-row ``Frame``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields as dc_fields, replace
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

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
    "FrameBlocks",
    "make_canonical",
    "make_poincare_cartan",
    "twist",
    "canonical_chart",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Central numeric thresholds; scenarios may override individual fields."""

    closedness: float = 1e-8          # max |d omega|, |d eta| for validity
    volume_min_det: float = 1e-10     # |det A| >= floor passes everywhere
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
        # Negative ones stay, to force a check to fail, except the floor: a
        # point is solved only where |det A| >= volume_min_det, and a positive
        # floor keeps every pivot of the factors nonzero there, so no
        # substitution divides by zero (_lu_code).
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
    eta and the factors of A^T at each row.

    Reused by every derived quantity at the same rows, so the structure
    matrices are evaluated and factored once.  Each quantity is computed
    over the leading point axis.  On a varying structure the frame factors
    the stacked ``A^T`` once (:func:`_factor`) and reads ``det``, every
    ``solve`` and the ``d`` columns of each Jacobian (``_implicit``) off
    those factors; the Reeb, ``X_f`` and ``Y_f`` residuals are summed left
    to right with every term written (:func:`_vecmat`), as the one-point
    functions sum them, so each row has their bits and their verdicts.  On
    a constant structure every frame reads what its structure derived once
    (``_constant_data``): the factors, which only the Jacobians use,
    ``X_f = C df`` with no solve, summed as :func:`_vecmat` sums, and the
    defining conditions of ``X_f`` and ``Y_f`` as limits on ``||df||_inf``
    (``_field_limits``) in place of residuals at each row.

    A stage that fails at some rows raises the error of the first of them,
    worded for its point and marked with its ``row``; :func:`map_blocks`
    makes that the first failing row in point order.  No flow stage builds a
    frame: the flowed fields run the one-point functions of
    :func:`_point_function`, which the tests hold to a frame's rows.
    A one-point call that needs a frame solves a one-row frame
    (:func:`_on_rows`).

    A frame derives each quantity once.  Per scalar it keeps the differential
    that ``differential`` returned, the ``X_f`` that ``hamiltonian`` solved
    from exactly that array (both read-only, so neither can change under the
    memo) and the Jacobians of ``X_f``, keyed by the scalar object and
    holding a reference to it.  ``evaluation``, ``gradient``, ``bracket`` and
    the fields' ``on`` and ``jacobian_on`` read them; a covector the frame
    did not return is solved each time.  A stage that raises keeps nothing.
    """

    __slots__ = (
        "structure", "x", "Omega", "eta", "_lu", "det", "_Z", "_const", "_d", "_memo"
    )

    def __init__(self, structure: "CosymplecticStructure", x):
        self.structure = structure
        self.x = x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"a frame takes a point stack (N, d), got shape {x.shape}")
        self._const = const = structure._constant_data
        if const is not None:
            self.Omega, self.eta, self._lu, self.det = const[:4]
        else:
            try:
                self.Omega = structure.omega.at_stack(x)
                self.eta = structure.eta.at_stack(x)
            except exprlang.ExprError as err:
                raise _row_error(x, err) from err
            self.det, self._lu = _factor(x, self.Omega, self.eta)
        det = np.broadcast_to(self.det, x.shape[:1])
        self._first(
            ~(np.abs(det) >= structure.tol.volume_min_det),
            lambda k: DegenerateStructureError(x[k], float(det[k])),
        )
        self._Z = self._d = None
        self._memo = {}  # id(scalar) -> _ScalarMemo

    def _first(self, bad, error) -> None:
        """Raise ``error(k)`` for the first row ``k`` flagged in ``bad``."""
        _first_row(np.broadcast_to(bad, self.x.shape[:1]), error)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A^T u = rhs at every row; ``rhs`` is (N, d)."""
        return self._solve(rhs[..., None])[..., 0]

    def _solve(self, B: np.ndarray) -> np.ndarray:
        """Solve A^T U = B at every row for the columns of ``B`` (N, d, m),
        on the frame's factors of A^T."""
        return _lu(self.x.shape[1])[1](self._lu, B)

    @property
    def reeb(self) -> np.ndarray:
        if self._Z is None:
            if self._const is not None:
                Z, ok = self._const.Z, self._const.reeb_ok
            else:
                Z = self.solve(self.eta)
                ok = _reeb_rows_ok(Z, self.Omega, self.eta, self.structure.tol.reeb_check)
            self._first(
                np.logical_not(ok),
                lambda k: _condition_error(_REEB_CONDITIONS, self.x[k]),
            )
            self._Z = np.broadcast_to(Z, self.x.shape)
        return self._Z

    def hamiltonian(self, df: np.ndarray) -> np.ndarray:
        """X_f at the rows from the gradient covectors (N, d) of f."""
        memo = self._memo_holding(df)
        if memo is None:
            return self._solve_hamiltonian(df)
        if memo.X is None:
            memo.X = self._solve_hamiltonian(df)
            memo.X.flags.writeable = False
        return memo.X

    def _solve_hamiltonian(self, df: np.ndarray) -> np.ndarray:
        Z = self.reeb
        with np.errstate(over="ignore", invalid="ignore"):  # an inf in df times a 0 in Z
            zf = _row_dot(df, Z)
        self._first(~np.isfinite(zf), lambda k: _not_finite(self.x[k], f"df(Z) = {zf[k]}"))
        const = self._const
        if const is not None:
            size = np.abs(df).max(axis=-1)
            ok = [size < limit for limit in const.limits[:2]]
        else:
            rhs = df - zf[:, None] * self.eta
            Xf = self.solve(rhs)
            tol = self.structure.tol
            ok = [
                np.abs(_row_dot(self.eta, Xf)) <= tol.reeb_check,
                np.abs(_vecmat(Xf, self.Omega) - rhs).max(axis=-1) <= tol.field_check,
            ]
        for ok_c, what in zip(ok, _X_CONDITIONS):
            self._first(~ok_c, lambda k: _condition_error(what, self.x[k]))
        return Xf if const is None else _vecmat(df, const.C.T)

    def evaluation(self, df: np.ndarray) -> np.ndarray:
        Y = self.reeb + self.hamiltonian(df)
        if self._const is not None:
            ok = np.abs(df).max(axis=-1) < self._const.limits[2]
        else:
            ok = np.abs(_row_dot(self.eta, Y) - 1.0) <= self.structure.tol.reeb_check
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
        """The gradient covectors (N, d) of ``f`` at the rows, read-only and
        computed once per frame."""
        return self._memo_for(f).df

    def _memo_for(self, f) -> "_ScalarMemo":
        memo = self._memo.get(id(f))
        if memo is None:
            df = f.gradient_stack(self.x)
            df.flags.writeable = False
            memo = self._memo[id(f)] = _ScalarMemo(f, df)
        return memo

    def _memo_holding(self, df: np.ndarray) -> "_ScalarMemo | None":
        """The memo of the scalar whose differential is the array ``df``."""
        return next((m for m in self._memo.values() if m.df is df), None)

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
        J = self._solve(db - np.swapaxes(dAV, 1, 2))
        _first_not_finite(self.x, [(what, J)])
        return J

    def _hamiltonian_jacobian(self, f):
        """``X_f``, ``J(X_f)``, ``Z(f)`` and ``d(Z(f))`` at the rows, computed
        once per frame and scalar."""
        memo = self._memo_for(f)
        if memo.jacobian is None:
            memo.jacobian = self._solve_jacobian(f, memo.df)
        return memo.jacobian

    def _solve_jacobian(self, f, df):
        Xf = self.hamiltonian(df)
        _, de, dA, JZ = self._derivatives()
        Z = self.reeb
        zf = np.vecdot(df, Z)
        Hf = f.hessian_stack(self.x)
        dzf = np.vecmat(Z, Hf) + np.vecmat(df, JZ)
        e = np.broadcast_to(self.eta, self.x.shape)
        db = Hf - e[:, :, None] * dzf[:, None, :] - zf[:, None, None] * de
        return Xf, self._implicit(dA, db, Xf, "J(X_f)"), zf, dzf


class _ScalarMemo:
    """What one frame derived for one scalar: its differential, then X_f and
    the Jacobian tuple of ``_hamiltonian_jacobian`` once they are asked for.
    It holds the scalar, so the scalar's ``id`` keys it for the frame's
    life."""

    __slots__ = ("scalar", "df", "X", "jacobian")

    def __init__(self, scalar, df):
        self.scalar, self.df, self.X, self.jacobian = scalar, df, None, None


def _vecmat(v, M) -> np.ndarray:
    """``v M`` at the rows of ``v`` (N, d), for a matrix ``M`` (d, k) or a
    stack of them (N, d, k): ``v_0 M[0] + v_1 M[1] + ...``, left to right
    over every row of ``M``, zeros included.  Each row has the bits of the
    one-point functions' sums (numpy's ``vecmat`` and ``matvec`` sum in an
    order of their own, which differs where the terms round)."""
    out = v[:, :1] * M[..., 0, :]
    for i in range(1, v.shape[1]):
        out = out + v[:, i : i + 1] * M[..., i, :]
    return out


def _row_dot(u, v) -> np.ndarray:
    """``u . v`` at the rows of ``u`` and ``v`` (N, d), summed as
    :func:`_vecmat` sums."""
    return _vecmat(u, v[..., None])[:, 0]


def _on_rows(compute, x):
    """``compute`` at the rows of a point stack ``x`` (N, d); at one point
    (d,), row 0 of ``compute`` on the one-row stack."""
    x = np.asarray(x, dtype=float)
    return compute(x) if x.ndim == 2 else compute(x[None])[0]


def _reeb_rows_ok(Z, Omega, eta, tol: float) -> np.ndarray:
    """The Reeb conditions i_Z omega = 0 and eta(Z) = 1 at the rows of ``Z``
    and ``eta`` (N, d), for Omega (N, d, d) or (d, d), summed as
    :func:`_vecmat` sums; a NaN residual fails them."""
    return (np.abs(_vecmat(Z, Omega)).max(axis=-1) <= tol) & (
        np.abs(_row_dot(eta, Z) - 1.0) <= tol
    )


def _lu_code(d: int, stack: bool = False):
    """Gaussian elimination with partial pivoting of ``A^T`` (d x d), as
    code: ``(factor, solve)``.

    ``factor`` is the lines that overwrite the entries ``a{i}_{j}`` of
    ``A^T`` with its factors and set ``det``; ``solve(b, u)`` gives the
    lines that then set the names ``u`` to the solution of ``A^T u = b``
    for the names ``b``.  Column ``k`` takes as pivot the first of the
    entries ``a{i}_{k}``, ``i >= k``, of largest absolute value (LAPACK's
    ``idamax``; a NaN is never chosen over an earlier entry), swaps that row
    into row ``k`` from column ``k`` on and records the swap in ``p{k}``.
    The multipliers ``a{i}_{k} / a{k}_{k}`` overwrite column ``k`` below the
    pivot, and every later entry becomes ``a{i}_{j} - a{i}_{k} * a{k}_{j}``.
    A zero pivot leaves its column unscaled, as LAPACK's ``getrf`` does:
    every candidate is then zero, so the entries are divided by 1.0.
    ``det`` is the sign of the swaps times the pivots, multiplied left to
    right.  ``solve`` runs the swaps and the multipliers on ``b`` column by
    column, then substitutes backwards, each row's terms summed left to
    right.  Only a nonzero pivot is divided by: a caller solves only where
    ``|det| >= volume_min_det``, which ``ToleranceConfig`` keeps positive,
    and where it solves no pivot is zero.

    With ``stack`` every name holds one value per row of a point stack, the
    branches become ``where`` and the arithmetic lines are the same, so each
    row has the bits of the one-point code (numpy's elementwise ``+``,
    ``-``, ``*``, ``/`` and ``abs`` round as Python's float operations do).
    """
    dims = range(d)

    def pick(k: int, i: int, row) -> list[str]:
        """Swap the names ``row(k)`` with ``row(i)`` where ``p{k} == i``."""
        a, b = row(k), row(i)
        if stack:
            swaps = [f"{x}, {y} = where(c, {y}, {x}), where(c, {x}, {y})" for x, y in zip(a, b)]
            return [f"c = p{k} == {i}", *swaps]
        test = f"{'if' if i == k + 1 else 'elif'} p{k} == {i}:"
        return [test, f"    {', '.join(a + b)} = {', '.join(b + a)}"]

    factor = ["s = 1.0"]
    for k in dims[:-1]:
        below = range(k + 1, d)
        factor += [f"m = abs(a{k}_{k})", f"p{k} = {k}"]
        for i in below:
            if stack:
                factor += [f"w = abs(a{i}_{k})", "c = w > m", f"p{k} = where(c, {i}, p{k})"]
                factor += ["m = where(c, w, m)"] if i < d - 1 else []
            else:
                factor += [f"w = abs(a{i}_{k})", f"if w > m: m, p{k} = w, {i}"]
        for i in below:
            factor += pick(k, i, lambda r: [f"a{r}_{j}" for j in range(k, d)])
            if not stack:
                factor.append("    s = -s")
        if stack:
            factor.append(f"s = where(p{k} == {k}, s, -s)")
            factor.append(f"v = where(a{k}_{k} == 0.0, 1.0, a{k}_{k})")
        else:
            factor.append(f"v = a{k}_{k} or 1.0")
        factor += [f"a{i}_{k} = a{i}_{k} / v" for i in below]
        factor += [f"a{i}_{j} = a{i}_{j} - a{i}_{k} * a{k}_{j}" for i in below for j in below]
    factor.append("det = s * " + " * ".join(f"a{i}_{i}" for i in dims))

    def solve(b, u) -> list[str]:
        lines = [f"{_vector(u)} = {_vector(b)}"]
        for k in dims[:-1]:
            for i in range(k + 1, d):
                lines += pick(k, i, lambda r: [u[r]])
            lines += [f"{u[i]} = {u[i]} - a{i}_{k} * {u[k]}" for i in range(k + 1, d)]
        for i in reversed(dims):
            terms = "".join(f" - a{i}_{j} * {u[j]}" for j in range(i + 1, d))
            lines.append(f"{u[i]} = ({u[i]}{terms}) / a{i}_{i}")
        return lines

    return factor, solve


@functools.cache
def _lu(d: int):
    """``(factor, solve)`` for stacks, compiled from ``_lu_code(d, stack=True)``
    on the first request for ``d``.

    ``factor(A)`` takes ``A^T`` (N, d, d) and returns the determinants (N,)
    and the factors; ``solve(F, B)`` solves ``A^T U = B`` at every row for
    right-hand sides ``B`` (N, d, m) and returns ``U`` (N, d, m).  Factors of
    one matrix (N = 1) serve right-hand sides of any N.  Overflow and NaN
    propagate silently, as in the one-point code.
    """
    factor, solve = _lu_code(d, stack=True)
    dims = range(d)
    names = _vector([f"a{i}_{j}" for i in dims for j in dims] + [f"p{k}" for k in dims[:-1]])
    u = [f"u{i}" for i in dims]

    def function(signature: str, lines) -> str:
        quiet = "    with errstate(over='ignore', invalid='ignore'):\n"
        return f"def {signature}:\n" + quiet + "".join(f"        {line}\n" for line in lines)

    src = function("factor(A)", [
        *(f"a{i}_{j} = A[:, {i}, {j}, None]" for i in dims for j in dims),
        *factor,
        f"return det[:, 0], {names}",
    ])
    src += function("solve(F, B)", [
        f"{names} = F",
        *solve([f"B[:, {i}]" for i in dims], u),
        f"return stack({_vector(u)}, axis=1)",
    ])
    env = {"where": np.where, "stack": np.stack, "errstate": np.errstate}
    exec(exprlang.compiled(src, f"<LU of A^T, d={d}>"), env)
    return env["factor"], env["solve"]


def _factor(x, Omega, eta):
    """The determinants (N,) and the factors (:func:`_lu`) of
    ``A^T = eta eta^T - Omega`` at the rows of a point stack ``x`` (N, d),
    for Omega (N, d, d) and eta (N, d) there.

    A row whose A is not finite raises ``StructureEvalError``, the first such
    row, before the factorization could carry it on as NaN.
    """
    A_T = eta[:, :, None] * eta[:, None, :] - Omega
    _first_not_finite(x, [(_A_NAME, A_T)])
    return _lu(x.shape[1])[0](A_T)


_A_NAME = "A = Omega + eta eta^T"


class _Constant(NamedTuple):
    """What every frame of a constant structure shares."""

    Omega: np.ndarray
    eta: np.ndarray
    lu: tuple  # the factors of A^T (:func:`_lu`)
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

    With the exact matrix ``C* = M - (M eta) Z^T`` (``M`` the stored inverse
    of ``A^T``; ``C`` is ``C*`` rounded) the conditions are the identities
    ``eta^T C* = 0`` and ``Omega^T C* = I - eta Z^T``, and ``eta.Z = 1``.
    Their residuals, and ``C - C*``, are computed exactly, in rational
    arithmetic on the stored doubles.

    For each condition ``B_c(s) = e_c + K_c s`` bounds the residual that the
    per-point check computes in floating point -- the one varying structures
    run -- at every finite df with ``||df||_inf <= s``, whichever X it checks:
    the inverse applied to the right-hand side, ``fl(M fl(df - fl(df.Z)
    eta))``, or ``fl(C df)``, the left-to-right sum over the columns of ``C``
    that constant structures compute (:func:`_vecmat`).  A point
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
    return _over_blocks(len(X), lambda i, k: compute(X[i : i + k]))


class FrameBlocks:
    """A point stack ``x`` (N, d) of one structure in blocks of at most
    ``BLOCK_ROWS`` rows, with each block's ``Frame`` built on first use and
    kept, so that every computation mapped over the blocks shares the frames
    and what they derived.

    ``map`` is :func:`map_blocks` over the block frames: ``compute`` takes a
    frame, and a failing block raises the error of its first failing row.
    The rows before that row are computed again on new frames of their own;
    the block's frame keeps only what it derived without error.
    """

    def __init__(self, structure: "CosymplecticStructure", x):
        self.structure = structure
        self.x = np.asarray(x, dtype=float).reshape(-1, structure.chart.dim)
        self._frames = {}

    def _frame(self, i: int) -> Frame:
        frame = self._frames.get(i)
        if frame is None:
            frame = self._frames[i] = Frame(self.structure, self.x[i : i + BLOCK_ROWS])
        return frame

    def map(self, compute):
        def run(i, k):
            if k == len(self.x[i : i + BLOCK_ROWS]):
                return compute(self._frame(i))
            return compute(Frame(self.structure, self.x[i : i + k]))

        return _over_blocks(len(self.x), run)


def _over_blocks(n: int, run):
    """``run(i, k)``, a computation on the first ``k`` rows of the block that
    starts at row ``i`` of a stack of ``n`` rows, run on all rows of every
    block of ``BLOCK_ROWS`` and concatenated; a failing block raises the error of its first failing row
    (:func:`_first_failure`), with ``row`` counted from the start of the stack."""
    parts = []
    for i in range(0, max(n, 1), BLOCK_ROWS):
        try:
            parts.append(_first_failure(lambda k: run(i, k), min(BLOCK_ROWS, n - i)))
        except _ROW_ERRORS as err:
            if getattr(err, "row", None) is not None:
                err.row += i
            raise
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _first_failure(run, n: int):
    """``run(n)``, a computation on all ``n`` rows of a block.  If it fails,
    the error of the first failing row: ``run(k)`` computes on the first
    ``k`` rows, again and again before the row that failed."""
    try:
        return run(n)
    except _ROW_ERRORS as err:
        first = err
    while getattr(first, "row", None):
        try:
            run(first.row)
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
            and self.min_abs_det >= self.tol.volume_min_det
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


def _one_point_code(kind: str, scalar, d: int, values=()):
    """``exprlang.point_code`` for a one-point function: the lines computing
    the values of the expressions ``values`` at ``x``, their names, the lines
    setting ``g0..g{d-1}`` to the differential of ``scalar`` (none for the
    ``reeb`` kind), and the namespace, which holds ``scalar``.  A
    ``ScalarField``'s jet is inlined; any other scalar (a ``BracketField``)
    is asked for its ``gradient``."""
    jet = scalar.expr if kind != "reeb" and isinstance(scalar, ScalarField) else None
    lines, names, jet_lines, gradient, env = exprlang.point_code(values, jet, d)
    g = [f"g{i}" for i in range(d)]
    if kind == "reeb":
        jet_lines = []
    elif jet is None:
        jet_lines = [f"{_vector(g)} = scalar.gradient(x).tolist()"]
    else:
        jet_lines += [f"{n} = {v}" for n, v in zip(g, gradient)]
    env["scalar"] = scalar
    return lines, names, jet_lines, env


def _point_function(S: "CosymplecticStructure", kind: str, scalar):
    """``field(x)``: the ``reeb``, ``hamiltonian`` or ``evaluation`` field of
    the structure ``S`` for ``scalar`` (ignored by ``reeb``), as a
    straight-line function from the d floats of a point to the d floats of
    the field there.

    It runs a ``Frame`` row's stages in their order on Python floats, with
    the row's errors: the volume floor on ``det``, the scalar's differential
    (:func:`_one_point_code`), ``Z`` and the Reeb conditions, then ``df(Z)``
    and its finiteness, ``X_f`` and its two conditions, and
    ``Y_f = Z + X_f`` and its condition.  Only how ``Z`` and ``X_f`` are
    obtained and how their conditions and ``Y_f``'s are decided depend on
    the kind of structure:

    * varying: omega's and eta's components (at least one varies, so the
      ``try`` around their lines is never empty), the entries
      ``eta_i eta_j - W_ij`` of ``A^T`` and their finiteness and the factors
      of ``A^T`` (:func:`_lu_code`) come first, generated from the
      expressions; ``Z`` and ``X_f`` are the frame's solves on floats, and
      every condition is decided on its residual;
    * constant: ``Z``, its Reeb verdict, ``C``, the determinant and the
      limits on ``||df||_inf`` are what the structure derived once
      (``_constant_data``), bound by name, so the code depends only on the
      dimension, the kind and the scalar's expression, and a scenario loaded
      again compiles nothing.  The limits of ``X_f``'s two conditions are
      checked before ``X_f = C df`` is formed.  A structure that fails
      to derive ``_constant_data`` gets a function that derives it at each
      call, so it raises there, as a ``Frame`` does.

    Every sum -- ``df(Z)``, ``C df``, the contractions and pairings of the
    residuals -- runs left to right over every term, structural zeros
    included, as ``Frame`` sums it (:func:`_vecmat`).  So a check decides as
    the frame row's does, even where rounding decides it, and the outputs
    have the row's bits wherever the row's array code runs no ``np.exp``,
    ``np.log`` or ``np.power`` (the module docstring).  A non-finite ``Z``
    or ``X`` fails its check as under numpy.  ``df(Z)`` is not finite
    exactly where an entry of ``df`` is not, or where it overflows, so its
    one check also covers a non-finite ``df``.

    Flow stages call it, and for an expression scalar it calls no numpy
    function.
    """
    d = S.chart.dim
    z, g, r, u, y = ([f"{c}{i}" for i in range(d)] for c in "zgruy")
    if S._coefficients_constant:
        try:
            const = S._constant_data
        except Exception:
            return lambda x: S._constant_data
        lines, _, gradient, env = _one_point_code(kind, scalar, d)
        head, gradient, z_lines, z_ok = [], lines + gradient, [], "reeb_ok"
        x_lines = [f"size = max({_vector(f'abs({n})' for n in g)})"]
        x_ok, y_ok = ("size < limit0", "size < limit1"), "size < limit2"
        x_after = [f"u{i} = {_dot([f'c{i}_{j}' for j in range(d)], g)}" for i in range(d)]
        env.update(det=const.det, reeb_ok=const.reeb_ok)
        env.update(zip(z, const.Z.tolist()))
        env.update(zip(("limit0", "limit1", "limit2"), const.limits))
        for i, row in enumerate(const.C.tolist()):
            env.update((f"c{i}_{j}", c) for j, c in enumerate(row))
    else:
        upper = list(S.omega.upper.items())
        lines, values, gradient, env = _one_point_code(
            kind, scalar, d, [e for _, e in upper] + list(S.eta.components)
        )
        e = values[len(upper):]
        W = [["0.0"] * d for _ in range(d)]
        head = ["try:", *(f"    {line}" for line in lines)]
        head += ["except expr_error as err:", "    raise eval_error(x, err) from err"]
        for ((i, j), _), v in zip(upper, values):
            W[i][j], W[j][i] = v, f"n{j}_{i}"
            head.append(f"n{j}_{i} = -{v}")
        a = [f"a{i}_{j}" for i in range(d) for j in range(d)]
        head += [f"a{i}_{j} = {e[i]} * {e[j]} - {W[i][j]}" for i in range(d) for j in range(d)]
        head.append(f"if not ({' and '.join(f'{n} - {n} == 0.0' for n in a)}):")
        head.append("    raise not_finite(x, A_NAME)")
        factor, solve = _lu_code(d)
        head += factor

        def contraction(v, j: int) -> str:
            """Entry ``j`` of ``i_V omega``, ``sum_i V_i W[i, j]``."""
            return _dot(v, [W[i][j] for i in range(d)])

        reeb_ok = [f"abs({contraction(z, j)}) <= reeb_tol" for j in range(d)]
        reeb_ok.append(f"abs({_dot(e, z)} - 1.0) <= reeb_tol")
        z_lines, z_ok = solve(e, z), f"({' and '.join(reeb_ok)})"
        x_lines = [*(f"r{i} = g{i} - zf * {e[i]}" for i in range(d)), *solve(r, u)]
        x_ok = (
            f"abs({_dot(e, u)}) <= reeb_tol",
            f"({' and '.join(f'abs({contraction(u, j)} - r{j}) <= field_tol' for j in range(d))})",
        )
        x_after, y_ok = [], f"abs({_dot(e, y)} - 1.0) <= reeb_tol"
    body = [*head, "if not abs(det) >= volume_min:", "    raise degenerate(x, det)", *gradient]
    body += [*z_lines, f"if not {z_ok}:", "    raise condition(REEB, x)"]
    if kind == "reeb":
        body.append(f"return {_vector(z)}")
    else:
        body += [
            f"zf = {_dot(g, z)}",
            "if not isfinite(zf):",
            '    raise not_finite(x, f"df(Z) = {zf}")',
            *x_lines,
            f"if not {x_ok[0]}:",
            "    raise condition(X_ETA, x)",
            f"if not {x_ok[1]}:",
            "    raise condition(X_OMEGA, x)",
            *x_after,
        ]
        if kind == "hamiltonian":
            body.append(f"return {_vector(u)}")
        else:
            body += [
                *(f"y{i} = z{i} + u{i}" for i in range(d)),
                f"if not {y_ok}:",
                "    raise condition(Y_ETA, x)",
                f"return {_vector(y)}",
            ]
    env.update(
        expr_error=exprlang.ExprError, eval_error=StructureEvalError, not_finite=_not_finite,
        degenerate=DegenerateStructureError, condition=_condition_error, isfinite=math.isfinite,
        volume_min=S.tol.volume_min_det, reeb_tol=S.tol.reeb_check, field_tol=S.tol.field_check,
        A_NAME=_A_NAME, REEB=_REEB_CONDITIONS, X_ETA=_X_CONDITIONS[0], X_OMEGA=_X_CONDITIONS[1],
        Y_ETA=_Y_CONDITION,
    )
    src = "def field(x):\n" + "".join(f"    {line}\n" for line in body)
    exec(exprlang.compiled(src, f"<one-point {kind}>"), env)
    return env["field"]


class StructureVectorField:
    """Point-evaluable derived vector field with exact Jacobians.

    Called with a stack (N, d) it solves a ``Frame`` and returns (N, d).
    Called with one point (d,), the ``reeb``, ``hamiltonian`` and
    ``evaluation`` kinds run their one-point function, from d floats to d
    floats, with a frame row's errors (and its bits where no ``np.exp``,
    ``np.log`` or ``np.power`` runs; the module docstring) and no ``Frame``
    (:func:`_point_function`, one generator for varying and constant
    structures, through ``CosymplecticStructure._one_point``), and wrap its
    value in an array;
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

        On a frame's factors of ``A^T`` (:func:`_factor`): ``Z`` and its Reeb
        verdict as a varying frame's ``reeb`` solves and checks them, and
        ``C = M (I - eta Z^T)`` with ``M`` solved from the identity, so
        ``X_f = C df`` and ``Y_f = Z + C df``; ``limits`` bound ``||df||_inf``
        for the defining conditions of X_f and Y_f (:func:`_field_limits`).
        Z and C are read-only.  Frames of a degenerate structure raise before
        reading Z, C or the limits, which are NaN and 0 there.
        """
        if not self._coefficients_constant:
            return None
        x0 = np.array([[lo for lo, _ in self.domain_box]])
        Omega, eta = self.omega.at(x0[0]), self.eta.at(x0[0])
        det, lu = _factor(x0, Omega[None], eta[None])
        det, d = float(det[0]), len(eta)
        if not abs(det) >= self.tol.volume_min_det:
            nan = np.full((d, d), math.nan)
            return _Constant(Omega, eta, lu, det, nan[0], False, nan, (0.0, 0.0, 0.0))
        Z = _lu(d)[1](lu, eta[None, :, None])[0, :, 0]
        M = _lu(d)[1](lu, np.eye(d)[None])[0]
        C = M @ (np.eye(d) - np.outer(eta, Z))
        Z.flags.writeable = C.flags.writeable = False
        reeb_ok = bool(_reeb_rows_ok(Z[None], Omega, eta[None], self.tol.reeb_check)[0])
        return _Constant(
            Omega, eta, lu, det, Z, reeb_ok, C, _field_limits(Omega, eta, M, Z, C, self.tol)
        )

    @cached_property
    def _coefficients_constant(self) -> bool:
        return self.omega.is_constant() and self.eta.is_constant()

    @cached_property
    def _one_point_fields(self) -> dict:
        """The generated one-point functions, filled by ``_one_point``: (kind,
        id of the scalar) -> (the function, the scalar), where keeping the
        scalar keeps its id unique."""
        return {}

    def _one_point(self, kind: str, scalar):
        """The function from d floats to the d floats of field ``kind`` for
        ``scalar`` at one point (:func:`_point_function`), built on the first
        request for the kind and scalar (the ``reeb`` kind reads none)."""
        if kind == "reeb":
            scalar = None
        fns = self._one_point_fields
        key = kind, id(scalar)
        if key not in fns:
            fns[key] = _point_function(self, kind, scalar), scalar
        return fns[key][0]

    # -- derived quantities ------------------------------------------------

    def frame(self, X) -> Frame:
        """The solve context at every row of the point stack ``X`` (N, d)."""
        return Frame(self, X)

    def reeb(self, x: Point) -> np.ndarray:
        return self.reeb_vf()(x)

    def hamiltonian_field(self, f, x: Point) -> np.ndarray:
        return StructureVectorField(self, "hamiltonian", f)(x)

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
        the first such sample in draw order.  The determinants are a frame's
        (:func:`_factor`), so a sample passes the floor where a frame does.
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
            det = _factor(X, W, ev)[0]
            _first_not_finite(X, [("d omega", dw), ("d eta", de)])
            return _abs_max_per_row(dw), _abs_max_per_row(de), np.abs(det)

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


def _default_box(chart: ChartSpec):
    return tuple((0.0, 2 * math.pi) if per else (-2.0, 2.0) for per in chart.periodic)


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

