import math

import numpy as np
import pytest

from cosymkit.exprlang import (
    Add,
    Call,
    Const,
    Div,
    EvalDomainError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    UnknownIdentifierError,
    Var,
    differentiate,
    parse,
    to_source,
)
from cosymkit.fields import sample_box
from cosymkit.scenarios import builtin, builtin_names

NAMES = ("t", "q", "p")


def test_parse_polynomial_eval():
    e = parse("q^2 + p^2", NAMES)
    assert e.value(np.array([0.0, 1.0, 2.0])) == 5.0


def test_sin_gradient_at_zero():
    e = parse("sin(q)", NAMES)
    g = e.gradient(np.array([0.0, 0.0, 0.0]))
    assert g[1] == 1.0
    assert g[0] == g[2] == 0.0


def test_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse("q +", NAMES)
    assert err.value.offset == 3


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("q + z", NAMES)
    assert err.value.name == "z"
    assert err.value.offset == 4


def test_empty_source_rejected():
    with pytest.raises(ParseError):
        parse("   ", NAMES)


def test_unexpected_character_offset_and_trailing_whitespace():
    with pytest.raises(ParseError, match="unexpected character '\\$'") as err:
        parse("q $ p", ["q", "p"])
    assert err.value.offset == 2
    assert parse("q + p   ", ["q", "p"]).value([2.0, 3.0]) == 5.0


def _hessian(e, x) -> np.ndarray:
    """Hessian at ``x``: the gradients of the symbolic first derivatives."""
    return np.array([differentiate(e, i).jet1(x)[1] for i in range(len(x))])


def _jet2(e, x):
    """Second-order jet (value, gradient, Hessian) at ``x``."""
    value, gradient = e.jet1(x)
    return value, gradient, _hessian(e, x)


def test_jet2_bilinear():
    e = parse("q*p", NAMES)
    value, gradient, hessian = _jet2(e, np.array([0.0, 2.0, 3.0]))
    assert value == 6.0
    assert np.array_equal(gradient, [0.0, 3.0, 2.0])
    assert hessian[1, 2] == 1.0 and hessian[2, 1] == 1.0
    assert hessian[1, 1] == 0.0


def test_jet2_square():
    e = parse("q^2", NAMES)
    value, _, hessian = _jet2(e, np.array([0.0, 3.0, 0.0]))
    assert value == 9.0
    assert hessian[1, 1] == 2.0


def test_jet2_exp():
    e = parse("exp(q)", NAMES)
    value, gradient, hessian = _jet2(e, np.array([0.0, 0.0, 0.0]))
    assert value == 1.0
    assert gradient[1] == 1.0
    assert hessian[1, 1] == 1.0


def test_precedence_and_associativity():
    e = parse("1 - 2 - 3", NAMES)
    assert e.value(np.zeros(3)) == -4.0
    e = parse("2 + 3*2^2", NAMES)
    assert e.value(np.zeros(3)) == 14.0
    # '^' binds tighter than unary minus
    e = parse("-q^2", NAMES)
    assert e.value(np.array([0.0, 3.0, 0.0])) == -9.0
    # negative constant exponents fold at parse time
    e = parse("q^-2", NAMES)
    assert e.value(np.array([0.0, 2.0, 0.0])) == 0.25


def test_non_constant_exponent_rejected():
    with pytest.raises(ParseError):
        parse("q^p", NAMES)


@pytest.mark.parametrize("src", ["q^1e999", "q^(1e999-1e999)"])
def test_non_finite_exponent_rejected(src):
    # the folded exponent is inf or NaN: no evaluation mode can use it, and
    # to_source would print the unparseable 'q^inf'
    with pytest.raises(ParseError, match="exponent must be finite") as err:
        parse(src, NAMES)
    assert err.value.offset == 2


def test_pi_constant():
    e = parse("cos(pi)", NAMES)
    assert e.value(np.zeros(3)) == -1.0


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2 q", NAMES)


def test_coordinate_is_not_a_function():
    with pytest.raises(ParseError):
        parse("q(1)", NAMES)


def test_domain_errors_name_subexpression():
    e = parse("log(q - 1)", NAMES)
    with pytest.raises(EvalDomainError) as err:
        e.value(np.array([0.0, 0.5, 0.0]))
    assert "q - 1" in str(err.value)

    e = parse("sqrt(p)", NAMES)
    with pytest.raises(EvalDomainError):
        e.value(np.array([0.0, 0.0, -1.0]))

    e = parse("1/(q - q)", NAMES)
    with pytest.raises(EvalDomainError):
        e.value(np.array([0.0, 1.0, 0.0]))


def _random_polynomial(rng, names, degree=4):
    """Random polynomial AST of total degree <= ``degree``."""
    d = len(names)
    expr = Const(float(rng.uniform(-1, 1)))
    for _ in range(rng.integers(2, 6)):
        term = Const(float(rng.uniform(-1, 1)))
        total = 0
        for i in rng.permutation(d):
            if total >= degree:
                break
            k = int(rng.integers(0, min(3, degree - total) + 1))
            total += k
            if k == 1:
                term = Mul(term, Var(names[i], int(i)))
            elif k > 1:
                term = Mul(term, Pow(Var(names[i], int(i)), float(k)))
        expr = Add(expr, term)
    return expr


def test_jets_match_finite_differences():
    rng = np.random.default_rng(7)
    names = ("a", "b", "c", "u", "v")
    d = len(names)
    h = 1e-5
    for _ in range(25):
        e = _random_polynomial(rng, names)
        x = rng.uniform(-1.5, 1.5, size=d)
        value, gradient, hessian = _jet2(e, x)
        assert np.array_equal(hessian, hessian.T)
        scale = max(1.0, abs(value))
        for i in range(d):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (e.value(xp) - e.value(xm)) / (2 * h)
            assert abs(fd - gradient[i]) <= 1e-6 * max(scale, abs(fd))
        for i in range(d):
            for j in range(d):
                xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
                if i == j:
                    xpp[i] += 2 * h
                    xmm[i] -= 2 * h
                    fd = (e.value(xpp) - 2 * e.value(x) + e.value(xmm)) / (4 * h * h)
                else:
                    xpp[i] += h
                    xpp[j] += h
                    xmm[i] -= h
                    xmm[j] -= h
                    xpm[i] += h
                    xpm[j] -= h
                    xmp[i] -= h
                    xmp[j] += h
                    fd = (
                        e.value(xpp) - e.value(xpm) - e.value(xmp) + e.value(xmm)
                    ) / (4 * h * h)
                assert abs(fd - hessian[i, j]) <= 1e-4 * max(scale, abs(fd))


def _random_ast(rng, names, depth):
    d = len(names)
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Const(float(np.round(rng.uniform(-3, 3), 3)))
        i = int(rng.integers(0, d))
        return Var(names[i], i)
    kind = rng.integers(0, 6)
    if kind == 0:
        return Neg(_random_ast(rng, names, depth - 1))
    if kind == 1:
        return Add(_random_ast(rng, names, depth - 1), _random_ast(rng, names, depth - 1))
    if kind == 2:
        return Sub(_random_ast(rng, names, depth - 1), _random_ast(rng, names, depth - 1))
    if kind == 3:
        return Mul(_random_ast(rng, names, depth - 1), _random_ast(rng, names, depth - 1))
    if kind == 4:
        return Div(_random_ast(rng, names, depth - 1), _random_ast(rng, names, depth - 1))
    fn = ("sin", "cos", "exp", "log", "sqrt")[rng.integers(0, 5)]
    return Call(fn, _random_ast(rng, names, depth - 1))


def test_print_parse_roundtrip_50_expressions():
    rng = np.random.default_rng(11)
    names = ("t", "q", "p")
    count = 0
    while count < 50:
        ast = _random_ast(rng, names, depth=4)
        src = to_source(ast)
        reparsed = parse(src, names)
        assert to_source(reparsed) == src
        assert parse(to_source(reparsed), names) == reparsed
        count += 1


def test_roundtrip_handwritten_corpus():
    cases = [
        "q^2 + p^2",
        "(q + p)^3",
        "sin(q)*cos(p) - exp(t/2)",
        "1/(1 + q^2)",
        "sqrt(q^2 + 1)",
        "-q - -p",
        "q^-1",
        "2*pi*q",
        "log(exp(q))",
        "q/p/t",
        "q - (p - t)",
    ]
    for src in cases:
        ast = parse(src, NAMES)
        assert parse(to_source(ast), NAMES) == ast


def test_differentiate_matches_jets():
    rng = np.random.default_rng(3)
    names = ("t", "q", "p")
    for src in ["q^2*p", "sin(q*p)", "exp(t)*cos(q)", "q/(1 + p^2)", "sqrt(1 + q^2)"]:
        e = parse(src, names)
        for _ in range(5):
            x = rng.uniform(0.2, 1.5, size=3)
            g = e.gradient(x)
            for i in range(3):
                de = differentiate(e, i)
                assert de.value(x) == pytest.approx(g[i], rel=1e-12, abs=1e-12)


def test_evaluation_deterministic():
    e = parse("sin(q)*exp(p) + q^3/7", NAMES)
    x = np.array([0.3, 1.1, -0.4])
    assert e.value(x) == e.value(x.copy())
    v1, g1, h1 = _jet2(e, x)
    v2, g2, h2 = _jet2(e, x.copy())
    assert v1 == v2
    assert np.array_equal(g1, g2)
    assert np.array_equal(h1, h2)


def test_pretty_print_of_pi():
    e = parse("pi", NAMES)
    assert to_source(e) == "pi"
    assert e.value(np.zeros(3)) == math.pi


# --- compiled value and gradient against the tree walk ---------------------

def _tree_value(e, x):
    """Post-order tree walk of the value alone, the reference for ``value``."""
    if isinstance(e, Const):
        return e.val
    if isinstance(e, Var):
        return float(x[e.index])
    if isinstance(e, Neg):
        return -_tree_value(e.arg, x)
    if isinstance(e, (Pow, Call)):
        return _node_value(e, _tree_value(e.base if isinstance(e, Pow) else e.arg, x))
    a, b = _tree_value(e.lhs, x), _tree_value(e.rhs, x)
    if isinstance(e, Add):
        return a + b
    if isinstance(e, Sub):
        return a - b
    return _product(e, a, b)


def _product(e, a, b):
    """``a * b`` or ``a / b`` for a Mul or Div node, raising on division by
    zero and where finite operands overflow."""
    if isinstance(e, Div) and b == 0.0:
        raise EvalDomainError("division by zero", e)
    v = a * b if isinstance(e, Mul) else a / b
    if math.isinf(v) and math.isfinite(a) and math.isfinite(b):
        raise EvalDomainError("overflow", e)
    return v


def _squaring_pow(u, n):
    """u^n by repeated squaring: the products of integer exponents >= 2."""
    result = 1.0
    while n:
        if n & 1:
            result = result * u
        n >>= 1
        if n:
            u = u * u
    return result


# The reference's own rules for Pow and Call nodes, written apart from the
# code generator so that the compiled code is checked against an
# independent statement of each value, first derivative and domain check.

def _pow_check(e, u):
    """The domain of ``u^c`` shared by value and jet1."""
    c = e.exponent
    if c != round(c) and u < 0.0:
        raise EvalDomainError("negative base with non-integer exponent", e)
    if c < 0.0 and u == 0.0:
        raise EvalDomainError("zero base with negative exponent", e)


def _node_value(e, u):
    """Value of a Pow or Call node at ``u``, raising as value does."""
    if isinstance(e, Pow):
        _pow_check(e, u)
        c = e.exponent
        if c >= 2.0 and c.is_integer():
            v = _squaring_pow(u, int(c))
            if math.isinf(v) and math.isfinite(u):
                raise EvalDomainError("overflow", e)
            return v
    elif e.fn == "sqrt" and u < 0.0:
        raise EvalDomainError("sqrt of negative value", e)
    elif e.fn == "log" and u <= 0.0:
        raise EvalDomainError("log of non-positive value", e)
    try:
        if isinstance(e, Pow):
            return math.pow(u, e.exponent)
        return getattr(math, e.fn)(u)
    except OverflowError:
        raise EvalDomainError("overflow", e) from None
    except ValueError:
        raise EvalDomainError(f"{e.fn} of infinite value", e) from None


def _derivs(e, u):
    """Value and first derivative of a Pow or Call node at ``u``, raising as
    jet1 does: where value raises, then where only the derivative is
    singular or overflows."""
    v = _node_value(e, u)
    if isinstance(e, Pow):
        c = e.exponent
        if c >= 2.0 and c.is_integer():
            return v, c * _squaring_pow(u, int(c) - 1)
        if c == 0.0 or c == 1.0:
            return v, c
        if u == 0.0 and c < 1.0:
            raise EvalDomainError("derivative singular at zero base", e)
        try:
            return v, c * math.pow(u, c - 1.0)
        except OverflowError:
            raise EvalDomainError("overflow", e) from None
    if e.fn == "sin":
        return v, math.cos(u)
    if e.fn == "cos":
        return v, -math.sin(u)
    if e.fn == "exp":
        return v, v
    if e.fn == "log":
        return v, 1.0 / u
    if u == 0.0:
        raise EvalDomainError("sqrt derivative singular at zero", e)
    return v, 0.5 / v


def _tree_jet1(e, x):
    """Post-order tree walk of the value and gradient, the reference for
    ``jet1``."""
    if isinstance(e, Const):
        return e.val, np.zeros(len(x))
    if isinstance(e, Var):
        g = np.zeros(len(x))
        g[e.index] = 1.0
        return float(x[e.index]), g
    if isinstance(e, Neg):
        v, g = _tree_jet1(e.arg, x)
        return -v, -g
    if isinstance(e, (Pow, Call)):
        u, gu = _tree_jet1(e.base if isinstance(e, Pow) else e.arg, x)
        v, d1 = _derivs(e, u)
        return v, d1 * gu
    va, ga = _tree_jet1(e.lhs, x)
    vb, gb = _tree_jet1(e.rhs, x)
    if isinstance(e, Add):
        return va + vb, ga + gb
    if isinstance(e, Sub):
        return va - vb, ga - gb
    v = _product(e, va, vb)
    if isinstance(e, Mul):
        return v, va * gb + vb * ga
    return v, (ga - v * gb) / vb


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as err:  # the type and message are compared
        return ("raise", type(err), str(err))


def _assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    # a NaN's sign bit depends on the operand order inside numpy's vector
    # loops, so signs are compared everywhere else (zeros above all)
    nan = np.isnan(a)
    assert np.array_equal(np.signbit(a) & ~nan, np.signbit(b) & ~nan)


def _check_against_tree_walk(e, x) -> bool:
    """Compiled value, jet1 and gradient match the tree walks at ``x``; True
    when the gradient raised."""
    ref1 = _outcome(lambda: _tree_jet1(e, x))
    compiled = _outcome(lambda: e.jet1(x))
    if ref1[0] == "ok":
        assert compiled[0] == "ok", compiled
        _assert_same_bits(compiled[1][0], ref1[1][0])
        _assert_same_bits(compiled[1][1], ref1[1][1])
        _assert_same_bits(e.gradient(x), ref1[1][1])
    else:
        assert compiled == ref1
        assert _outcome(lambda: e.gradient(x)) == ref1
    ref = _outcome(lambda: _tree_value(e, x))
    value = _outcome(lambda: e.value(x))
    if ref[0] == "ok":
        assert value[0] == "ok", value
        _assert_same_bits(value[1], ref[1])
        if ref1[0] == "ok":
            _assert_same_bits(value[1], ref1[1][0])
    else:
        assert value == ref
    return ref1[0] != "ok"


def _test_points(rng, n, d):
    """Seeded points with exact zeros of both signs and a few huge entries."""
    pts = rng.uniform(-3.0, 3.0, size=(n, d))
    for x in pts:
        if rng.random() < 0.3:
            x[rng.integers(0, d)] = rng.choice([0.0, -0.0])
        if rng.random() < 0.1:
            x[rng.integers(0, d)] = rng.choice([1e300, -1e300, 1e-300])
    return pts


def _non_finite_points(rng, n, d):
    """Seeded points with one or two coordinates set to +inf, -inf or NaN."""
    pts = rng.uniform(-3.0, 3.0, size=(n, d))
    for x in pts:
        for i in rng.choice(d, size=int(rng.integers(1, 3)), replace=False):
            x[i] = rng.choice([math.inf, -math.inf, math.nan])
    return pts


def _ulps(a, b) -> np.ndarray:
    """Distance in units in the last place; 0 between two NaNs."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ia, ib = a.view(np.int64), b.view(np.int64)
    # map the sign-magnitude bit patterns onto one monotone integer line
    ia = np.where(ia < 0, np.iinfo(np.int64).min - ia, ia)
    ib = np.where(ib < 0, np.iinfo(np.int64).min - ib, ib)
    dist = np.abs(ia.astype(float) - ib.astype(float))
    return np.where(np.isnan(a) & np.isnan(b), 0.0, dist)


def _is_exact_in_arrays(e) -> bool:
    """No exp, log or power other than an integer exponent >= 0: the array
    code then performs the scalar code's IEEE operations."""
    if isinstance(e, Pow):
        c = e.exponent
        return c >= 0.0 and c.is_integer() and _is_exact_in_arrays(e.base)
    if isinstance(e, Call):
        return e.fn not in ("exp", "log") and _is_exact_in_arrays(e.arg)
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, Neg):
        return _is_exact_in_arrays(e.arg)
    return _is_exact_in_arrays(e.lhs) and _is_exact_in_arrays(e.rhs)


def _check_stack_against_scalar(e, X):
    """value_stack and jet1_stack agree with value and jet1 row by row, on the
    whole stack and on each row alone (where the array code runs unless that
    row trips a flag): exactly for IEEE operations, else to 4 ulps.  A stack
    raises the error of its first raising row, with that row's index."""
    limit = 0.0 if _is_exact_in_arrays(e) else 4.0
    for stacked, scalar in ((e.value_stack, e.value), (e.jet1_stack, e.jet1)):
        for stack in [X] + [X[k : k + 1] for k in range(len(X))]:
            rows = [_outcome(lambda x=x: scalar(x)) for x in stack]
            failing = [k for k, row in enumerate(rows) if row[0] == "raise"]
            if failing:
                with pytest.raises(EvalDomainError) as err:
                    stacked(stack)
                assert (type(err.value), str(err.value)) == rows[failing[0]][1:]
                assert err.value.row == failing[0]
                continue
            got = stacked(stack)
            if stacked == e.value_stack:
                want = np.array([row[1] for row in rows])
                assert got.shape == want.shape
                assert _ulps(got, want).max() <= limit
            else:
                for k, (value, grad) in enumerate(row[1] for row in rows):
                    assert _ulps(got[0][k], value) <= limit
                    assert _ulps(got[1][k], grad).max() <= limit


def test_compiled_matches_tree_walk_on_random_asts():
    rng = np.random.default_rng(17)
    # a generator of its own keeps the ASTs and finite points of rng
    special = np.random.default_rng(19)
    names = ("t", "q", "p")
    exponents = [2.0, 3.0, 0.5, -1.0, -2.0, 1.0, 0.0, 1.5, 2.5, -0.5]
    raised = total = 0
    for k in range(300):
        e = _random_ast(rng, names, depth=4)
        if k % 3 == 0:
            e = Mul(Pow(e, float(rng.choice(exponents))), Pow(Var("q", 1), 2.0))
        pts = _test_points(rng, 6, len(names))
        for x in [*pts, *_non_finite_points(special, 4, len(names))]:
            with np.errstate(all="ignore"):  # the reference's inf and NaN
                raised += _check_against_tree_walk(e, x)
            total += 1
        _check_stack_against_scalar(e, pts)
    # both outcomes are exercised
    assert 0 < raised < total


def test_compiled_matches_tree_walk_on_builtin_expressions():
    rng = np.random.default_rng(23)
    for name in builtin_names():
        sc = builtin(name)
        S = sc.structure
        exprs = list(S.omega.upper.values()) + list(S.eta.components)
        exprs += [sc.system.hamiltonian.expr] + [f.expr for f in sc.system.integrals]
        exprs += [f.expr for f in sc.casimirs]
        if S.primitive is not None:
            exprs += list(S.primitive.components)
        for amap in sc.angle_maps:
            exprs += list(amap.plane or ())
        pts = sample_box(S.domain_box, 200, rng)
        for e in exprs:
            for x in pts:
                assert not _check_against_tree_walk(e, x)
            # the Hessians are defined and finite too, on the stack as at
            # each point
            de = [differentiate(e, i) for i in range(pts.shape[1])]
            H = np.stack([di.jet1_stack(pts)[1] for di in de], axis=1)
            assert np.isfinite(H).all()
            per_point = [[di.jet1(x)[1] for di in de] for x in pts]
            assert _ulps(H, per_point).max() <= 4.0


def test_compiled_domain_errors_match_tree_walk():
    names = ("t", "q", "p")
    x = np.array([0.5, 0.0, -0.0])
    cases = {
        # value defined, derivative singular: only the gradient raises
        "sqrt(q)": "sqrt derivative singular at zero in 'sqrt(q)'",
        "q^0.5": "derivative singular at zero base in 'q^0.5'",
        "q^-1": "zero base with negative exponent in 'q^-1.0'",
        "sqrt(t - 1)": "sqrt of negative value in 'sqrt(t - 1.0)'",
        "log(p)": "log of non-positive value in 'log(p)'",
        "t/(q*p)": "division by zero in 't/(q*p)'",
        # post-order: the numerator's error comes first
        "log(q)/sqrt(t - 1)": "log of non-positive value in 'log(q)'",
        "(t - 1)^0.5/q": "negative base with non-integer exponent in '(t - 1.0)^0.5'",
    }
    for src, message in cases.items():
        e = parse(src, names)
        assert _check_against_tree_walk(e, x)
        with pytest.raises(EvalDomainError) as err:
            e.gradient(x)
        assert str(err.value) == message
    for src in ("sqrt(q)", "q^0.5", "p^1.5 + 1"):
        assert parse(src, names).value(x) in (0.0, 1.0)
    # the first derivative of p^1.5 is 0 at p = 0; only the second is
    # singular, and its route raises at the symbolic derivative's p^0.5
    e = parse("p^1.5 + 1", names)
    assert not _check_against_tree_walk(e, x)
    assert e.gradient(x).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(EvalDomainError) as err:
        _hessian(e, x)
    assert str(err.value) == "derivative singular at zero base in 'p^0.5'"


def test_compiled_gradient_keyed_by_point_dimension():
    e = parse("q*p + sin(q)/2 - t", ("t", "q", "p"))
    x3 = np.array([0.3, -1.2, -0.0])
    x5 = np.array([0.3, -1.2, -0.0, 4.0, 5.0])
    for x in (x3, x5, x3):
        v, g = e.jet1(x)
        assert g.shape == (len(x),)
        _assert_same_bits(v, _tree_jet1(e, x)[0])
        _assert_same_bits(g, _tree_jet1(e, x)[1])
        assert e.value(x) == v


def test_overflow_is_domain_error():
    names = ("t", "q", "p")
    cases = [
        ("exp(1000*q) + p", [0.0, 1.0, 0.0], "exp(1000*q)"),
        ("2*q^400", [0.0, 10.0, 0.0], "q^400"),
    ]
    for src, x, sub in cases:
        e = parse(src, names)
        x = np.array(x)
        message = f"overflow in '{to_source(parse(sub, names))}'"
        for call in (e.value, e.gradient):
            with pytest.raises(EvalDomainError) as err:
                call(x)
            assert str(err.value) == message


def test_product_and_quotient_overflow_is_domain_error():
    # finite operands whose product or quotient overflows raise as q^2 does,
    # in value, jet1 and on a stack at the failing row; an infinite operand
    # passes through
    names = ("t", "q", "p")
    for src, x in (("q*q", [0.0, 1e200, 1.0]), ("q/p", [0.0, 1.0, 1e-320])):
        e = parse(src, names)
        x = np.array(x)
        message = f"overflow in '{src}'"
        for call in (e.value, e.jet1):
            with pytest.raises(EvalDomainError) as err:
                call(x)
            assert str(err.value) == message
        for call in (e.value_stack, e.jet1_stack):
            with pytest.raises(EvalDomainError) as err:
                call(np.array([[0.0, 1.0, 1.0], x, x]))
            assert str(err.value) == message and err.value.row == 1
    assert parse("q*p", names).value(np.array([0.0, math.inf, 2.0])) == math.inf
    with pytest.raises(EvalDomainError, match="overflow in 'q\\^2.0'"):
        parse("q^2", names).value(np.array([0.0, 1e200, 1.0]))


def test_arithmetic_on_numbers_alone_raises_on_a_stack_as_at_a_point():
    # a subtree of plain numbers that overflows or divides by zero raises the
    # scalar code's EvalDomainError on a stack too, at row 0
    X = np.array([[0.0, 1.0, 2.0], [3.0, -4.0, 5.0]])
    for src in ("1e308*10", "q + 1e308*10", "q + 1/0", "p*(2/0)"):
        _check_stack_against_scalar(parse(src, ("t", "q", "p")), X)


def test_tiny_log_and_sqrt_arguments_have_finite_gradients():
    # the second derivatives -1/u^2, -1/(4 u^(3/2)) and -u^(-3/2)/4 overflow
    # here; value and gradient do not need them and stay finite.  The Hessian
    # route evaluates the symbolic first derivatives' gradients: 1/q and
    # 1/(2 sqrt(q)) divide to -inf, and q^-0.5 raises a typed overflow naming
    # its node, so a caller must check the Hessian for finite entries
    names = ("t", "q", "p")
    for src, q, slope, hessian in (
        ("log(q) + p", 1e-200, 1e200, -math.inf),
        ("2*sqrt(q)", 1e-300, 2 * 0.5 / math.sqrt(1e-300), -math.inf),
        ("q^0.5", 1e-300, 0.5 * 1e-300**-0.5, "overflow in 'q^-0.5'"),
    ):
        e = parse(src, names)
        x = np.array([0.0, q, 0.0])
        assert math.isfinite(e.value(x))
        assert e.gradient(x).tolist() == [0.0, slope, 1.0 if "p" in src else 0.0]
        if isinstance(hessian, str):
            with pytest.raises(EvalDomainError) as err:
                _hessian(e, x)
            assert str(err.value) == hessian
        else:
            expected = np.zeros((3, 3))
            expected[1, 1] = hessian
            assert np.array_equal(_hessian(e, x), expected)


@pytest.mark.parametrize("fn", ["sin", "cos"])
@pytest.mark.parametrize("q", [math.inf, -math.inf])
def test_trig_of_infinity_is_domain_error(fn, q):
    e = parse(f"1 + {fn}(2*q)", ("t", "q", "p"))
    x = np.array([0.0, q, 0.0])
    message = f"{fn} of infinite value in '{fn}(2.0*q)'"
    for call in (e.value, e.gradient):
        with pytest.raises(EvalDomainError) as err, np.errstate(invalid="ignore"):
            call(x)
        assert str(err.value) == message


@pytest.mark.parametrize("val", [2.5, -0.0, 1e300, math.inf, -math.inf, math.nan])
def test_plain_numbers_evaluate_like_generated_code(val):
    # a Const compiles like any other expression: the number itself, float
    # zeros, filled columns, and no array code for a non-finite number
    c = Const(val)
    X = np.array([[0.0, 1.0, 2.0], [3.0, -4.0, 5.0]])

    def same(got, want) -> bool:
        got, want = np.asarray(got), np.asarray(want)
        return (
            got.dtype == np.float64 and got.shape == want.shape
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want))
        )

    assert c.value(X[0]) is val
    value, gradient = c.jet1(X[0])
    assert value is val and same(gradient, [0.0, 0.0, 0.0])
    assert (c._stack_fn(None) is None) == (not math.isfinite(val))
    assert same(c.value_stack(X), [val, val])
    values, gradients = c.jet1_stack(X)
    assert same(values, [val, val]) and same(gradients, np.zeros((2, 3)))
