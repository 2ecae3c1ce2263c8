"""The MCPL child table: ``repro.mcl.mcpl.ast`` enumerates every sub-tree.

The completeness test reflects over the dataclass fields of every
expression and statement class, so adding a node field that holds an
expression or statement without listing it in the child table fails here.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import List

import pytest

from repro.mcl.mcpl import ast, parse_kernel

NODE_CLASSES = sorted(
    (obj for obj in vars(ast).values()
     if isinstance(obj, type) and issubclass(obj, (ast.Expr, ast.Stmt))
     and obj not in (ast.Expr, ast.Stmt)),
    key=lambda cls: cls.__name__)


def _classes_in(hint) -> List[type]:
    """Every class named anywhere in a (possibly nested) type hint."""
    if isinstance(hint, type) and typing.get_origin(hint) is None:
        return [hint]
    return [c for arg in typing.get_args(hint) for c in _classes_in(arg)]


def _sentinel_value(hint, made: list):
    """A field value of fresh sentinel nodes, or None for a leaf field."""
    classes = _classes_in(hint)
    nodes = [c for c in classes if issubclass(c, (ast.Expr, ast.Stmt))]
    if ast.Type in classes:
        dims = [ast.IntLit(value=1), ast.IntLit(value=2)]
        made.extend(dims)
        return ast.Type("int", dims=dims)
    if not nodes:
        return None
    if typing.get_origin(hint) is list:
        value = [nodes[0](), nodes[0]()]
        made.extend(value)
        return value
    node = nodes[0]()
    made.append(node)
    return node


def test_every_node_class_is_checked():
    names = {cls.__name__ for cls in NODE_CLASSES}
    assert {"Index", "Binary", "Unary", "Call", "Block", "VarDecl", "Assign",
            "Foreach", "For", "If", "While", "Return", "ExprStmt"} <= names


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_child_table_covers_every_subtree_field(cls):
    hints = typing.get_type_hints(cls, vars(ast))
    node = cls()
    made: list = []
    for f in dataclasses.fields(cls):
        value = _sentinel_value(hints[f.name], made)
        if value is not None:
            setattr(node, f.name, value)
    exprs = [n for n in made if isinstance(n, ast.Expr)]
    stmts = [n for n in made if isinstance(n, ast.Stmt)]
    got_exprs = ast.child_exprs(node)
    assert len(got_exprs) == len(exprs)
    assert all(a is b for a, b in zip(got_exprs, exprs))
    if isinstance(node, ast.Stmt):
        got_stmts = ast.child_stmts(node)
        assert len(got_stmts) == len(stmts)
        assert all(a is b for a, b in zip(got_stmts, stmts))
    else:
        assert not stmts


KERNEL = """
perfect void f(int n, float[n] a, float[n] b) {
    float[n] t;
    foreach (int i in n threads) {
        for (int k = a[0]; k < n; k = k + b[1]) {
            if (a[i] > 0.0) { t[i] = sqrt(a[k]); } else { return; }
        }
    }
}
"""


def test_walks_are_preorder_and_enter_for_headers():
    kernel = parse_kernel(KERNEL)
    stmts = [type(s).__name__ for s in ast.walk_stmts(kernel.body)]
    assert stmts == ["Block", "VarDecl", "Foreach", "Block", "For", "VarDecl",
                     "Assign", "Block", "If", "Block", "Assign", "Block",
                     "Return"]
    exprs = [str(e) for e in ast.walk_exprs(kernel.body)]
    assert exprs == [
        "n",                                            # declaration dim
        "n",                                            # foreach count
        "a[0]", "0",                                    # for init
        "(k < n)", "k", "n",                            # for cond
        "k", "(k + b[1])", "k", "b[1]", "1",            # for step
        "(a[i] > 0.0)", "a[i]", "i", "0.0",             # if cond
        "t[i]", "i", "sqrt(a[k])", "a[k]", "k",         # assignment
    ]
    assert ast.mentioned_names(kernel.body) == {"n", "a", "b", "k", "i", "t"}
    assert ast.mentioned_names(kernel.body.stmts[0]) == {"n"}
    assert list(ast.walk_exprs(None)) == []
    assert list(ast.walk_stmts(None)) == []
