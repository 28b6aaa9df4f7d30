"""Tiny arithmetic expression grammar for scenario-supplied rate functions.

Supported: numbers, named variables, + - * / ** and unary minus, and the
functions exp, log, sqrt, sin, cos, tan, abs, step, min, max.  step(x) is
1 for x >= 0 and 0 otherwise, which is how age cutoffs are written, e.g.
"step(a - 0.15) * p / (1 + p)".  Everything evaluates vectorized over
numpy arrays.
"""

import ast
import operator

import numpy as np

from .errors import ConfigurationError, checked

_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "abs": np.abs,
    "step": lambda x: np.where(np.asarray(x) >= 0.0, 1.0, 0.0),
    "min": np.minimum,
    "max": np.maximum,
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}

_UNARYOPS = {ast.USub: operator.neg, ast.UAdd: operator.pos}


def compile_expression(text, variables):
    """Compile ``text`` into a callable taking keyword args named in ``variables``.

    One walk raises ConfigurationError on any syntax outside the grammar above
    or a wrong number of function arguments, and compiles each node into a
    closure over its children, so a call does no dispatch on node types.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigurationError("expression must be a non-empty string")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigurationError(f"cannot parse expression {text!r}: {exc}") from exc
    allowed = set(variables)

    def compiled(node):
        # env -> value of ``node``; children compile in evaluation order
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op, left, right = _BINOPS[type(node.op)], compiled(node.left), compiled(node.right)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARYOPS:
            op, operand = _UNARYOPS[type(node.op)], compiled(node.operand)
            return lambda env: op(operand(env))
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            # ast reads True as an int, and an int literal may lie beyond the float range
            value = checked(f"constant {node.value!r:.40} in expression {text!r}", node.value)
            return lambda env: value
        if isinstance(node, ast.Name):
            if node.id not in allowed:
                raise ConfigurationError(
                    f"unknown variable {node.id!r} in expression {text!r} "
                    f"(allowed: {sorted(allowed)})"
                )
            return operator.itemgetter(node.id)
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ConfigurationError(f"unknown function call in expression {text!r}")
            if node.keywords:
                raise ConfigurationError(f"keyword arguments not allowed in {text!r}")
            # a ufunc takes ``nin`` inputs, and would write into an extra one
            if len(node.args) != getattr(_FUNCTIONS[node.func.id], "nin", 1):
                raise ConfigurationError(
                    f"wrong number of arguments to {node.func.id}() in expression {text!r}")
            function, args = _FUNCTIONS[node.func.id], [compiled(arg) for arg in node.args]
            return lambda env: function(*[arg(env) for arg in args])
        raise ConfigurationError(
            f"unsupported syntax {type(node).__name__!r} in expression {text!r}"
        )

    body = compiled(tree.body)

    def fn(**env):
        missing = allowed - set(env)
        if missing:
            raise ConfigurationError(f"expression {text!r} missing variables {sorted(missing)}")
        with np.errstate(all="ignore"):
            return body(env)

    return fn
