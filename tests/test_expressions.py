import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tridtn.errors import ExpressionError
from tridtn.expressions import MAX_DEPTH, expression_trace, parse_expression


def ev(text, s=0.0, l=1.0):
    return parse_expression(text)(s, l)


def test_reference_values():
    assert abs(ev("sin(2*pi*s/l)", s=0.25, l=1.0) - 1.0) < 1e-15
    assert abs(ev("s^2 - 3", s=2.0) - 1.0) < 1e-15
    _, d = parse_expression("exp(s)*cos(s)").d(0.0, 1.0)
    assert abs(d - 1.0) < 1e-15


def test_precedence_and_associativity():
    assert ev("-s^2", s=3.0) == -9.0          # unary minus binds looser than ^
    assert ev("2^3^2") == 512.0               # right-associative power
    assert ev("2+3*4") == 14.0
    assert ev("(2+3)*4") == 20.0
    assert ev("2-3-4") == -5.0                # left-associative subtraction
    assert ev("8/4/2") == 1.0


def test_symbols_and_functions():
    assert abs(ev("pi") - math.pi) < 1e-15
    assert ev("l", l=2.5) == 2.5
    assert abs(ev("cosh(s)^2 - sinh(s)^2", s=0.7) - 1.0) < 1e-12


def test_errors_carry_offsets():
    with pytest.raises(ExpressionError) as err:
        parse_expression("sin(s")
    assert err.value.offset == 5
    with pytest.raises(ExpressionError) as err:
        parse_expression("s + @")
    assert err.value.offset == 4
    with pytest.raises(ExpressionError):
        parse_expression("notafunc(s)")
    with pytest.raises(ExpressionError):
        parse_expression("")
    with pytest.raises(ExpressionError):
        parse_expression("1 2")


#: (text, message, offset) of malformed inputs, as the recursive-descent
#: parser over ``Token`` records reported them; a bad character anywhere is
#: reported before any syntax error
_GOLDEN_ERRORS = [
    ("(s", "expected ')'", 2),
    ("s)", "unexpected token ')'", 1),
    ("((s)", "expected ')'", 4),
    ("sin(s", "expected ')'", 5),
    (")", "expected a value, got ')'", 0),
    ("sin s", "expected '('", 4),
    ("2**3", "expected a value, got '*'", 2),
    ("3 4", "unexpected token '4'", 2),
    ("foo", "unknown identifier 'foo'", 0),
    ("foo(s)", "unknown identifier 'foo'", 0),
    ("inf", "unknown identifier 'inf'", 0),
    ("1e", "unexpected token 'e'", 1),
    (".", "unexpected character '.'", 0),
    ("$", "unexpected character '$'", 0),
    ("s) $", "unexpected character '$'", 3),
    ("", "unexpected end of input", 0),
    ("   ", "unexpected end of input", 3),
    ("s+", "unexpected end of input", 2),
    ("s^", "unexpected end of input", 2),
    ("-", "unexpected end of input", 1),
    ("2 ^ -", "unexpected end of input", 5),
    ("é", "unexpected character 'é'", 0),
    ("s + é", "unexpected character 'é'", 4),
    ("s\n@", "unexpected character '@'", 2),
    ("\u0663*s", "unexpected character '\u0663'", 0),
    ("\u3000s)", "unexpected character '\\u3000'", 0),
    ("1.5.2", "unexpected token '.2'", 3),
    ("sin()", "expected a value, got ')'", 4),
    ("()", "expected a value, got ')'", 1),
    ("s+*s", "expected a value, got '*'", 2),
    ("pi pi", "unexpected token 'pi'", 3),
    ("exp(s))", "unexpected token ')'", 6),
    ("cos", "expected '('", 3),
    ("l(s)", "unexpected token '('", 1),
]


@pytest.mark.parametrize("text, message, offset", _GOLDEN_ERRORS)
def test_error_messages_and_offsets(text, message, offset):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} (at offset {offset})"


#: each nesting kind at n levels, with the offset at which n = MAX_DEPTH fails
_NESTINGS = [
    (lambda n: "(" * n + "s" + ")" * n, lambda n: n),
    (lambda n: "-" * n + "s", lambda n: n),
    (lambda n: "sin(" * n + "s" + ")" * n, lambda n: 4 * n),
    (lambda n: "s" + "^s" * n, lambda n: 2 * n),
    (lambda n: "s" + "+s" * n, lambda n: 2 * n - 1),
]


@pytest.mark.parametrize("nest, offset", _NESTINGS)
def test_depth_boundary_of_each_nesting_kind(nest, offset):
    # the leaf is one level, so n nestings make a tree n + 1 deep
    assert parse_expression(nest(MAX_DEPTH - 1)) is not None
    with pytest.raises(ExpressionError) as err:
        parse_expression(nest(MAX_DEPTH))
    assert err.value.offset == offset(MAX_DEPTH)
    assert str(err.value).startswith(f"expression nested deeper than {MAX_DEPTH} levels")


def test_power_derivative_needs_constant_exponent():
    _, d = parse_expression("s^3").d(2.0, 1.0)
    assert abs(d - 12.0) < 1e-12
    with pytest.raises(ExpressionError):
        parse_expression("2^s").d(0.0, 1.0)


@pytest.mark.parametrize("text", ["s^-1", "(s+2)^(1/2)", "s^(l/2)"])
def test_power_derivative_takes_any_exponent_free_of_s(text):
    # d/ds a^c = c a^(c-1) a' for every exponent c that does not read s
    trace = expression_trace(text, 1, 1.5)
    s, h = np.array([0.2, 0.35, 0.5]), 1e-5
    central = (trace.value(s + h) - trace.value(s - h)) / (2.0 * h)
    assert np.allclose(trace.derivative(s), central, rtol=1e-7, atol=0.0)


def test_power_derivative_error_points_at_its_power():
    with pytest.raises(ExpressionError) as err:
        parse_expression("2^s").d(0.0, 1.0)
    assert err.value.offset == 1
    with pytest.raises(ExpressionError) as err:
        parse_expression("s + cos(s)^(l*s)").d(0.0, 1.0)
    assert err.value.offset == 10


def test_constant_division_by_zero_follows_numpy():
    # numbers, pi and l are numpy floats, so 1/0 is inf and 0/0 is NaN, as
    # for s-dependent data, instead of a ZeroDivisionError
    s = np.array([-0.2, 0.0, 0.3])
    for text, want in [("1/0", np.inf), ("1/(l-l)", np.inf), ("-1/(pi-pi)", -np.inf),
                       ("0/0", np.nan)]:
        trace = expression_trace(text, 1, 1.0)
        assert np.array_equal(trace(s), np.full(3, want), equal_nan=True)
        assert np.array_equal(trace(0.1), want, equal_nan=True)
    assert np.array_equal(expression_trace("1/(pi-pi)*s", 1, 1.0)(s), [-np.inf, np.nan, np.inf],
                          equal_nan=True)



def test_tree_call_follows_numpy_at_a_python_float():
    # a tree called at a Python float evaluates at a numpy float, as
    # expression_trace does at its arrays: 0/0 is NaN and 1/0 is inf
    got = parse_expression("s/s")(0.0, 1.0)
    assert isinstance(got, np.float64) and np.isnan(got)
    assert parse_expression("1/(s-s)")(0.3, 1.0) == np.inf
    assert np.isnan(expression_trace("s/s", 1, 1.0)(0.0))
    assert type(parse_expression("s")(0.3, 1.0)) is np.float64


@given(
    s=st.floats(-0.5, 0.5),
    text=st.sampled_from(
        [
            "sin(2*pi*s/l)",
            "cos(s)^2",
            "exp(s) * sinh(s)",
            "s^3 - 2*s + 1",
            "cosh(2*s) / (1 + s^2)",
            "-sin(s) + pi*s",
        ]
    ),
)
def test_symbolic_derivative_matches_central_difference(s, text):
    node = parse_expression(text)
    h = 1e-6
    fd = (node(s + h, 1.0) - node(s - h, 1.0)) / (2.0 * h)
    assert abs(node.d(s, 1.0)[1] - fd) < 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize(
    "text",
    [
        "sin(2*s + 0.3)", "cos(2*s + 0.3)", "exp(-1.5*s)", "sinh(3*s - 0.2)", "cosh(3*s - 0.2)",
        "s^2 + sin(s)", "s^2 - sin(s)", "(s + 1)*exp(s)", "sin(s)/(s + 2)", "-cos(s)",
        "(s + 1.5)^3", "(s + 1.5)^(l/2)", "2^(pi/l)*s",
    ],
)
def test_forward_mode_derivative_matches_mpmath(text):
    # each function and operator against 30-digit numerical d/ds; the value
    # of the same walk is the plain call's, bit for bit
    names = {name: getattr(mpmath, name) for name in ("sin", "cos", "exp", "sinh", "cosh")}
    node, l = parse_expression(text), 1.3
    for s in (-0.41, 0.13, 0.37):
        value, d = node.d(s, l)
        with mpmath.workdps(30):
            want = float(mpmath.diff(lambda x: eval(
                text.replace("^", "**"), {"__builtins__": {}},
                {**names, "s": x, "l": mpmath.mpf(l), "pi": mpmath.pi}), s))
        assert abs(d - want) <= 1e-12 * abs(want), (text, s, d, want)
        assert value == node(s, l)
    grid = np.array([-0.41, 0.13])
    assert np.array_equal(node.d(grid, l)[0], node(grid, l))


def test_derivative_of_s_over_s_is_nan_at_zero():
    value, d = parse_expression("s/s").d(0.0, 1.0)
    assert np.isnan(value) and np.isnan(d)
    assert parse_expression("s/s").d(0.5, 1.0) == (1.0, 0.0)


#: well-formed expressions of the grammar.  Literals are floats, so that
#: Python's evaluation of the same text does no integer arithmetic.
_grammar = st.recursive(
    st.sampled_from(["s", "pi", "l", "0.5", "1.5", "2.0", ".25", "3e-1"]),
    lambda inner: st.one_of(
        # a chain a op b op c ..., where precedence and associativity matter
        st.lists(st.sampled_from("+-*/^"), min_size=1, max_size=3).flatmap(
            lambda ops: st.lists(inner, min_size=len(ops) + 1, max_size=len(ops) + 1).map(
                lambda args: " ".join(x for pair in zip(args, ops) for x in pair) + f" {args[-1]}"
            )
        ),
        inner.map("-{}".format),
        inner.map("({})".format),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sinh", "cosh"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_grammar, s=st.floats(-0.5, 0.5), l=st.floats(0.5, 2.0))
def test_parse_matches_python_evaluation(text, s, l):
    # Python gives unary minus and ** the precedence and associativity the
    # grammar gives unary minus and ^, so the same text must agree
    s, l = np.float64(s), np.float64(l)
    names = {name: getattr(np, name) for name in ("sin", "cos", "exp", "sinh", "cosh")}
    names.update(s=s, l=l, pi=np.float64(np.pi))
    with np.errstate(all="ignore"):
        try:
            want = eval(text.replace("^", "**"), {"__builtins__": {}}, names)
        except (ZeroDivisionError, OverflowError):
            want = None
        got = parse_expression(text)(s, l)
    assume(isinstance(want, float) and math.isfinite(want) and math.isfinite(got))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (text, got, want)


def test_depth_limit():
    # a tree at the limit parses, differentiates and evaluates inside
    # Python's default recursion limit; its derivative is the deepest kind
    # (each '/' adds three levels to d/ds)
    at_limit = "s" + "/1.5" * (MAX_DEPTH - 1)
    trace = expression_trace(at_limit, 1, 1.0)
    assert trace(0.3) == pytest.approx(0.3 / 1.5 ** (MAX_DEPTH - 1))
    assert trace.d(0.3) == pytest.approx(1.5 ** -(MAX_DEPTH - 1))
    assert parse_expression("(" * (MAX_DEPTH - 1) + "s" + ")" * (MAX_DEPTH - 1))(0.3, 1.0) == 0.3
    # one level past it is refused at the token that goes past
    for text, offset in [
        ("(" * MAX_DEPTH + "s" + ")" * MAX_DEPTH, MAX_DEPTH),
        ("(" * 250 + "s" + ")" * 250, MAX_DEPTH),
        ("s" + "+s" * MAX_DEPTH, 2 * MAX_DEPTH - 1),
        ("s" + "+s" * 2999, 2 * MAX_DEPTH - 1),
        ("-" * 5000 + "s", MAX_DEPTH),
        ("(" + "s+" * (MAX_DEPTH - 1) + "s)", 0),
    ]:
        with pytest.raises(ExpressionError) as err:
            parse_expression(text)
        assert err.value.offset == offset
        message = f"expression nested deeper than {MAX_DEPTH} levels (at offset {offset})"
        assert str(err.value) == message


def test_derivative_is_built_on_first_use():
    # d/ds of 2^s fails, but only when something reads the derivative
    trace = expression_trace("2^s", 1, 1.0)
    assert trace(1.0) == 2.0
    with pytest.raises(ExpressionError) as err:
        trace.d(0.0)
    assert err.value.offset == 1


def test_expression_trace_vectorised():
    trace = expression_trace("cos(2*pi*s/l)", 1, 1.0)
    s = np.linspace(-0.5, 0.5, 11)
    vals = trace(s)
    assert vals.shape == s.shape
    assert np.max(np.abs(vals - np.cos(2 * np.pi * s))) < 1e-14
    d = trace.d(s)
    assert np.max(np.abs(d + 2 * np.pi * np.sin(2 * np.pi * s))) < 1e-12
    # a constant expression is shaped like s too, and a float for scalar s
    const = expression_trace("2.5", 1, 1.0)
    grid = s[:10].reshape(2, 5)
    assert const(grid).shape == grid.shape and np.all(const(grid) == 2.5)
    assert const.d(grid).shape == grid.shape and np.all(const.d(grid) == 0.0)
    assert const(0.1) == 2.5 and isinstance(const(0.1), float)


def test_long_atom_sum_matches_numpy():
    # data like the CLI traces of manufactured fields: a sum of 80 atoms
    # c*cos(a + b*s)*exp(d*s), over a thousand nodes, against direct numpy
    c, a, b, d = np.random.default_rng(3).uniform([-3, -np.pi, -20, -5], [3, np.pi, 20, 5],
                                                 size=(80, 4)).T
    text = " + ".join(f"{ci:.17g}*cos({ai:.17g} + {bi:.17g}*s)*exp({di:.17g}*s)"
                      for ci, ai, bi, di in zip(c, a, b, d))

    def count(node):
        return 1 + sum(count(arg) for arg in node.args)

    assert count(parse_expression(text)) > 1000
    trace = expression_trace(text, 1, 1.0)
    for s in (np.linspace(-0.5, 0.5, 101), 0.123):
        col = np.asarray(s)[..., None]
        phase, env = a + b * col, c * np.exp(d * col)
        terms = (env * np.cos(phase), env * (d * np.cos(phase) - b * np.sin(phase)))
        for got, term in zip((trace(s), trace.d(s)), terms):
            assert type(got) is type(s) and np.shape(got) == np.shape(s)
            scale = np.sum(np.abs(term), axis=-1)
            assert np.max(np.abs(got - np.sum(term, axis=-1)) / scale) < 1e-14
