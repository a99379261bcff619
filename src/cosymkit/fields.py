"""Charts and coordinate fields: scalars, one-forms, two-forms, vector fields.

A single global chart covers each model; circle factors are emulated with a
periodic flag per coordinate (period 2*pi).  Raw fields carry expression
components and therefore exact derivatives; derived fields (anything produced
by a linear solve) get theirs from the implicit derivative of that solve
(``cosym.StructureVectorField.jacobian``).  :func:`lie_bracket` takes exact
Jacobians only.  The five-point stencils in :func:`fd_jacobian` and
:func:`scalar_fd_gradient` differentiate plain point-evaluable callables; they
are references for the exact derivatives, and no other function of the
package calls them.

Fields also evaluate on point stacks ``X`` of shape (N, d): the ``*_stack``
methods of expression fields run their expressions' array code, and the
stencils broadcast their one formula and step rule over a leading point axis,
so a callable is called once per shift on the whole stack.  Scalar fields
give each row the bits of the one-point call wherever no ``np.exp``,
``np.log`` or ``np.power`` runs, which can differ from ``math.*`` in the last
place.  Forms evaluate one way: their one-point methods return row 0 of the
``*_stack`` form on a one-row stack.  Gradient tensors put the derivative
index last: ``[..., k]`` is ``d_k``.

Index conventions, fixed once for the whole package (see docs/CONVENTIONS.md):

* a two-form evaluates to the matrix ``W[i, j] = w(d_i, d_j)``;
* the contraction of a vector ``X`` with ``w`` is ``(i_X w)_j = sum_i X_i W[i, j]``;
* ``(d theta)[i, j] = d_i theta_j - d_j theta_i`` for a one-form ``theta``;
* ``(d W)[i, j, k] = d_i W[j, k] + d_j W[k, i] + d_k W[i, j]`` for a two-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from . import exprlang
from .exprlang import Expr, parse

__all__ = [
    "TWO_PI",
    "ChartSpec",
    "Point",
    "ScalarField",
    "OneFormField",
    "TwoFormField",
    "sample_box",
    "fd_jacobian",
    "scalar_fd_gradient",
    "lie_bracket",
]

TWO_PI = 2.0 * math.pi

#: Points are plain float arrays in chart coordinates.
Point = np.ndarray

_RESERVED = set(exprlang.FUNCTIONS) | {"pi"}


@dataclass(frozen=True)
class ChartSpec:
    """A single global chart: ordered coordinate names plus periodicity mask.

    The dimension must be odd (2n+1).  Periodic coordinates live on a circle
    of circumference 2*pi; :meth:`normalize` folds them into [0, 2*pi).
    """

    names: tuple[str, ...]
    periodic: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "periodic", tuple(bool(b) for b in self.periodic))
        if len(self.names) != len(self.periodic):
            raise ValueError("names and periodic mask must have equal length")
        if len(self.names) % 2 == 0 or len(self.names) == 0:
            raise ValueError(f"chart dimension must be odd, got {len(self.names)}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("coordinate names must be unique")
        for name in self.names:
            if name in _RESERVED:
                raise ValueError(f"coordinate name '{name}' is reserved")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def normalize(self, x: Point) -> Point:
        """Fold periodic coordinates into [0, 2*pi); other coordinates pass.
        Takes one point (d,) or a stack (N, d)."""
        out = np.array(x, dtype=float)
        for i, per in enumerate(self.periodic):
            if per:
                out[..., i] = np.mod(out[..., i], TWO_PI)
        return out

    def wrap_difference(self, a: Point, b: Point) -> Point:
        """Componentwise a - b using the shortest periodic image."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        for i, per in enumerate(self.periodic):
            if per:
                d[i] = (d[i] + math.pi) % TWO_PI - math.pi
        return d

    def distance(self, a: Point, b: Point) -> float:
        return float(np.linalg.norm(self.wrap_difference(a, b)))


def sample_box(box, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` uniform points from a per-coordinate interval box, one per row."""
    box = np.asarray(box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    if np.any(hi < lo):
        raise ValueError("box intervals must satisfy lo <= hi")
    return lo + rng.random((n, len(lo))) * (hi - lo)


@dataclass(frozen=True)
class ScalarField:
    """A named scalar function on a chart, backed by a parsed expression."""

    chart: ChartSpec
    expr: Expr
    name: str = "f"

    @classmethod
    def from_source(cls, src: str, chart: ChartSpec, name: str = "f") -> "ScalarField":
        return cls(chart, parse(src, chart), name)

    def value(self, x: Point) -> float:
        return self.expr.value(x)

    def jet1(self, x: Point) -> tuple[float, np.ndarray]:
        return self.expr.jet1(x)

    def gradient(self, x: Point) -> np.ndarray:
        return self.expr.gradient(x)

    def gradient_stack(self, X) -> np.ndarray:
        """Gradients (N, d) at the rows of ``X``."""
        return self.expr.jet1_stack(X)[1]

    @cached_property
    def _derivatives(self) -> tuple[Expr, ...]:
        """The symbolic first derivatives, built (and compiled) once."""
        return tuple(exprlang.differentiate(self.expr, i) for i in range(self.chart.dim))

    def hessian_stack(self, X) -> np.ndarray:
        """Hessians (N, d, d) at the rows of ``X``, ``[n, i, k] = d_k d_i f``:
        the gradients of the symbolic first derivatives."""
        return np.stack([e.jet1_stack(X)[1] for e in self._derivatives], axis=1)

    def __call__(self, x: Point) -> float:
        return self.expr.value(x)


@dataclass(frozen=True)
class OneFormField:
    """Covector field with one expression component per coordinate."""

    chart: ChartSpec
    components: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.chart.dim:
            raise ValueError("component count must equal chart dimension")

    @classmethod
    def from_sources(cls, sources, chart: ChartSpec) -> "OneFormField":
        return cls(chart, tuple(parse(s, chart) for s in sources))

    def at(self, x: Point) -> np.ndarray:
        """Components (d,) at one point: row 0 of ``at_stack``."""
        return self.at_stack(np.asarray(x, dtype=float)[None])[0]

    def at_stack(self, X) -> np.ndarray:
        """Components (N, d) at the rows of ``X``."""
        return np.stack([c.value_stack(X) for c in self.components], axis=-1)

    def exterior_derivative(self, x: Point) -> np.ndarray:
        """Matrix ``(d theta)[i, j] = d_i theta_j - d_j theta_i`` (exact) at
        one point: row 0 of ``exterior_derivative_stack``."""
        return self.exterior_derivative_stack(np.asarray(x, dtype=float)[None])[0]

    def gradient_stack(self, X) -> np.ndarray:
        """Component gradients (N, d, d) at the rows of ``X``,
        ``[n, j, k] = d_k theta_j``."""
        return np.stack([c.jet1_stack(X)[1] for c in self.components], axis=1)

    def exterior_derivative_stack(self, X) -> np.ndarray:
        """``(d theta)[n, i, j]`` at the rows of ``X``, shape (N, d, d)."""
        grads = self.gradient_stack(X)
        return np.swapaxes(grads, 1, 2) - grads

    def is_constant(self) -> bool:
        return all(exprlang.is_constant(c) for c in self.components)


@dataclass(frozen=True)
class TwoFormField:
    """Antisymmetric two-form stored as upper-triangle expression components.

    ``upper`` maps index pairs (i, j) with i < j to expressions; missing pairs
    are zero and the lower triangle is filled by antisymmetry.
    """

    chart: ChartSpec
    upper: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (i, j), e in self.upper.items():
            if not (0 <= i < j < self.chart.dim):
                raise ValueError(f"upper-triangle index pair ({i}, {j}) out of range")
            clean[(int(i), int(j))] = e
        object.__setattr__(self, "upper", clean)

    @classmethod
    def from_upper_sources(cls, sources: dict, chart: ChartSpec) -> "TwoFormField":
        """Build from a mapping of '<name_i>,<name_j>' keys to expression text."""
        upper = {}
        for key, src in sources.items():
            a, b = (part.strip() for part in key.split(","))
            i, j = chart.index(a), chart.index(b)
            if i >= j:
                raise ValueError(f"component key '{key}' must be upper-triangle")
            upper[(i, j)] = parse(src, chart)
        return cls(chart, upper)

    def at(self, x: Point) -> np.ndarray:
        """Matrix (d, d) at one point: row 0 of ``at_stack``."""
        return self.at_stack(np.asarray(x, dtype=float)[None])[0]

    def at_stack(self, X) -> np.ndarray:
        """Matrices (N, d, d) at the rows of ``X``."""
        d = self.chart.dim
        W = np.zeros((len(X), d, d))
        for (i, j), e in self.upper.items():
            v = e.value_stack(X)
            W[:, i, j] = v
            W[:, j, i] = -v
        return W

    def gradient_stack(self, X) -> np.ndarray:
        """Component gradients (N, d, d, d) at the rows of ``X``,
        ``[n, i, j, k] = d_k W[i, j]``, antisymmetric in ``i, j``."""
        d = self.chart.dim
        T = np.zeros((len(X), d, d, d))
        for (i, j), e in self.upper.items():
            g = e.jet1_stack(X)[1]
            T[:, i, j] = g
            T[:, j, i] = -g
        return T

    def component_gradient(self, i: int, j: int, x: Point) -> np.ndarray:
        """Exact gradient of the (i, j) component at one point: a view of
        ``gradient_stack``."""
        return self.gradient_stack(np.asarray(x, dtype=float)[None])[0, i, j]

    def exterior_derivative(self, x: Point) -> np.ndarray:
        """Fully antisymmetric tensor ``(dW)[i,j,k]`` (exact derivatives) at
        one point: row 0 of ``exterior_derivative_stack``."""
        return self.exterior_derivative_stack(np.asarray(x, dtype=float)[None])[0]

    def exterior_derivative_stack(self, X) -> np.ndarray:
        """``(dW)[n, i, j, k]`` at the rows of ``X``, shape (N, d, d, d):
        the cyclic sum of ``gradient_stack`` for each ``i < j < k``."""
        G = self.gradient_stack(X)
        T = np.zeros_like(G)
        for i, j, k in combinations(range(self.chart.dim), 3):
            v = G[:, j, k, i] + G[:, k, i, j] + G[:, i, j, k]
            T[:, i, j, k] = T[:, j, k, i] = T[:, k, i, j] = v
            T[:, j, i, k] = T[:, i, k, j] = T[:, k, j, i] = -v
        return T

    def is_constant(self) -> bool:
        return all(exprlang.is_constant(e) for e in self.upper.values())


# --- finite differences for plain callables ---------------------------------
#
# Each formula takes one point (d,) or a stack (N, d): steps, shifts and
# quotients broadcast over the leading axis, and the field is called once per
# shift with every row, in the one-point order of shifts.

#: The relative (and smallest absolute) stencil step.
_BASE_STEP = 1e-4


def fd_jacobian(field, x: Point) -> np.ndarray:
    """Five-point central-difference Jacobian of a point-evaluable field.

    Fourth-order accurate; a reference for exact Jacobians.
    ``J[..., i, j] = d_j F_i``, with the steps ``h_j = max(base, base |x_j|)``.
    """
    x = np.asarray(x, dtype=float)
    h = np.maximum(_BASE_STEP, _BASE_STEP * np.abs(x))
    cols = []
    for j in range(x.shape[-1]):
        e = np.zeros_like(x)
        e[..., j] = h[..., j]
        fm2 = np.asarray(field(x - 2 * e))
        fm1 = np.asarray(field(x - e))
        fp1 = np.asarray(field(x + e))
        fp2 = np.asarray(field(x + 2 * e))
        cols.append((fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h[..., j, None]))
    return np.stack(cols, axis=-1)


def scalar_fd_gradient(func, x: Point) -> np.ndarray:
    """Five-point central-difference gradient of a scalar callable: the
    stencil Jacobian of ``func`` as a one-component field."""
    return fd_jacobian(lambda y: np.asarray(func(y))[..., None], x)[..., 0, :]


def lie_bracket(X, Y, x: Point) -> np.ndarray:
    """Commutator ``[X, Y]`` at ``x``: ``J_Y X - J_X Y``.

    Both fields must carry an exact ``jacobian`` method (expression and
    structure fields do); a plain callable is refused with TypeError.  The
    result is exactly antisymmetric under swapping X and Y because both
    orders reuse the same two Jacobian evaluations.
    """
    for F in (X, Y):
        if not hasattr(F, "jacobian"):
            raise TypeError(f"lie_bracket needs fields with an exact jacobian, got {F!r}")
    x = np.asarray(x, dtype=float)
    JX, JY = X.jacobian(x), Y.jacobian(x)
    return commutator(JX, np.asarray(X(x)), JY, np.asarray(Y(x)))


def commutator(JX, X, JY, Y) -> np.ndarray:
    """``J_Y X - J_X Y`` at one point or row by row, with the bits of ``JY @ X``."""
    return (JY @ X[..., None])[..., 0] - (JX @ Y[..., None])[..., 0]
