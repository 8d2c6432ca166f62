"""Tiny constant-expression parser for CLI arguments.

Accepts +, -, *, /, sqrt(...), the imaginary unit i, parentheses, and
numeric literals; e.g. "sqrt(2+sqrt(5))", "(sqrt(6)-sqrt(2))/2", "2+i".
"""

from __future__ import annotations

import ast
import cmath
import operator


class ExpressionError(ValueError):
    pass


def parse_constant(text: str) -> complex:
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse constant {text!r}") from exc
    return _eval(tree.body, text)


_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv}


def _eval(node: ast.AST, text: str) -> complex:
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):  # not a bool
        try:
            return complex(node.value)
        except OverflowError:
            raise ExpressionError(f"a number beyond float64 in constant {text!r}") from None
    if isinstance(node, ast.Name) and node.id == "i":
        return 1j
    # the operands first: an error in one is reported before an unsupported operator
    if isinstance(node, ast.UnaryOp):
        value = _eval(node.operand, text)
        if type(node.op) in _UNARY:
            return _UNARY[type(node.op)](value)
    if isinstance(node, ast.BinOp):
        left = _eval(node.left, text)
        right = _eval(node.right, text)
        if type(node.op) in _BINARY:
            try:
                return _BINARY[type(node.op)](left, right)
            except ZeroDivisionError:
                raise ExpressionError(f"division by zero in {text!r}") from None
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sqrt"
        and len(node.args) == 1
        and not node.keywords
    ):
        return cmath.sqrt(_eval(node.args[0], text))
    raise ExpressionError(f"unsupported syntax in constant {text!r}")
