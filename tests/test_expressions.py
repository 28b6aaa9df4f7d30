import re

import numpy as np
import pytest

from popctrl.errors import ConfigurationError
from popctrl.expressions import compile_expression
from popctrl.model import RateFunction


def test_arithmetic_and_functions():
    fn = compile_expression("exp(-2 * a) + step(a - 0.5) * a**2", ["a"])
    a = np.array([0.0, 0.25, 0.5, 1.0])
    expected = np.exp(-2 * a) + (a >= 0.5) * a**2
    assert np.allclose(fn(a=a), expected)


def test_two_variable_expression():
    fn = compile_expression("step(a - 0.1) * p / (1 + p)", ["a", "p"])
    assert fn(a=0.5, p=1.0) == pytest.approx(0.5)
    assert fn(a=0.05, p=1.0) == 0.0


def test_unknown_variable_rejected():
    with pytest.raises(ConfigurationError, match="unknown variable"):
        compile_expression("a + q", ["a"])


def test_call_without_a_declared_variable_rejected():
    fn = compile_expression("a * p", ["a", "p"])
    with pytest.raises(ConfigurationError, match=re.escape("missing variables ['p']")):
        fn(a=1.0)


def test_unknown_function_rejected():
    with pytest.raises(ConfigurationError, match="unknown function"):
        compile_expression("__import__('os')", ["a"])


def test_attribute_access_rejected():
    with pytest.raises(ConfigurationError, match="unsupported syntax"):
        compile_expression("a.real", ["a"])


def test_empty_expression_rejected():
    with pytest.raises(ConfigurationError):
        compile_expression("   ", ["a"])


def test_bool_constant_rejected():
    # ast reads True as the int 1: "True * a" used to compile to a
    with pytest.raises(ConfigurationError,
                       match=re.escape("constant True in expression 'True * a': "
                                       "expected a number")):
        RateFunction.expression("True * a", "a")


@pytest.mark.parametrize("literal", ["1" + "0" * 400, "1e400"])
def test_constant_beyond_the_float_range_rejected(literal):
    # the int used to end in an uncaught OverflowError; 1e400 reads as inf
    with pytest.raises(ConfigurationError, match="must be finite$"):
        compile_expression(f"{literal} * a", ["a"])


AGES = np.linspace(0.0, 1.0, 81)


@pytest.mark.parametrize("text, numpy_form", [
    ("a + 0.5", lambda a: np.add(a, 0.5)),
    ("a - 0.5", lambda a: np.subtract(a, 0.5)),
    ("3 * a", lambda a: np.multiply(3.0, a)),
    ("a / 0.7", lambda a: np.divide(a, 0.7)),
    ("1 / a", lambda a: np.divide(1.0, a)),
    ("a ** 2.5", lambda a: np.power(a, 2.5)),
    ("-a", lambda a: -a),
    ("+a", lambda a: +a),
    ("-(a - 0.5) ** 2", lambda a: -np.power(np.subtract(a, 0.5), 2.0)),
    ("exp(-2 * a)", lambda a: np.exp(np.multiply(-2.0, a))),
    ("log(a)", np.log),
    ("sqrt(a)", np.sqrt),
    ("sin(3 * a)", lambda a: np.sin(np.multiply(3.0, a))),
    ("cos(a)", np.cos),
    ("tan(a)", np.tan),
    ("abs(a - 0.5)", lambda a: np.abs(np.subtract(a, 0.5))),
    ("step(a - 0.15)", lambda a: np.where(np.subtract(a, 0.15) >= 0.0, 1.0, 0.0)),
    ("min(a, 0.3)", lambda a: np.minimum(a, 0.3)),
    ("max(a, 0.3)", lambda a: np.maximum(a, 0.3)),
    ("1.3 * step(a - 0.15) * sqrt(abs(sin(a) - max(a, cos(2 * a))))",
     lambda a: np.multiply(np.multiply(1.3, np.where(np.subtract(a, 0.15) >= 0.0, 1.0, 0.0)),
                           np.sqrt(np.abs(np.subtract(
                               np.sin(a), np.maximum(a, np.cos(np.multiply(2.0, a)))))))),
])
def test_each_node_gives_the_bits_of_its_numpy_form(text, numpy_form):
    with np.errstate(all="ignore"):
        expected = np.asarray(numpy_form(AGES), dtype=float)
    got = compile_expression(text, ["a"])(a=AGES)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_scalar_arguments_stay_scalar():
    fn = compile_expression("p / (1 + p)", ["p"])
    assert fn(p=3.0) == np.divide(3.0, np.add(1.0, 3.0)) == 0.75
    assert np.ndim(fn(p=3.0)) == 0


@pytest.mark.parametrize("text, message", [
    ("exp(a.real)", "unsupported syntax 'Attribute'"),
    ("max(a, q)", "unknown variable 'q'"),
    ("sqrt(exp(a) % 2)", "unsupported syntax 'BinOp'"),
    ("step(not a)", "unsupported syntax 'UnaryOp'"),
    ("exp(open(a))", "unknown function call"),
    ("min(a, max(a, 'x'))", "unsupported syntax 'Constant'"),
    ("exp(sin(a), base=2)", "keyword arguments not allowed"),
    # numpy would take the second argument as the output array and overwrite
    # the caller's ages with exp(a)
    ("exp(a, a)", "wrong number of arguments to exp()"),
    ("max(a, min(a))", "wrong number of arguments to min()"),
    ("step(a, 1)", "wrong number of arguments to step()"),
])
def test_a_bad_node_inside_a_call_is_rejected_before_any_evaluation(text, message):
    # compiling takes no variable values: the walk that compiles a node checks it
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        compile_expression(text, ["a"])
