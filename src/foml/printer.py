"""Deterministic s-expression printing of core expressions and obligations.

Only core forms are printed (no resugaring), so parse(print_expr(e)) always
reconstructs an alpha-equal AST.
"""
from __future__ import annotations

from .syntax import (
    DefApp,
    DefinitionEnvironment,
    Eq,
    Expression,
    FalseExpr,
    FlexVar,
    Forall,
    Implies,
    InternalError,
    Nabla,
    Obligation,
    OpApp,
    Prime,
    RigidVar,
)


def print_expr(e: Expression) -> str:
    """The s-expression of e, built on an explicit stack, so at any
    depth."""
    out: list[str] = []
    put = out.append
    todo: list = [e]  # nodes to print and text to emit, next on top
    while todo:
        e = todo.pop()
        t = type(e)
        if t is str:
            put(e)
        elif t is Implies or t is Eq:
            put("(=> " if t is Implies else "(= ")
            todo += (")", e.rhs, " ", e.lhs)
        elif t is OpApp or t is DefApp:
            if e.args:
                put("(" + e.op)
                todo.append(")")
                for a in reversed(e.args):
                    todo += (a, " ")
            else:
                put(e.op)
        elif t is RigidVar or t is FlexVar:
            put(e.name)
        elif t is FalseExpr:
            put("false")
        elif t is Forall or t is Nabla or t is Prime:
            put(f"(forall {e.var} " if t is Forall
                else "(nabla " if t is Nabla else "(prime ")
            todo += (")", e.body)
        else:
            raise InternalError(f"unknown expression node {e!r}")
    return "".join(out)


def print_env(env: DefinitionEnvironment) -> str:
    lines = []
    for name, arity in env.ops.items():
        lines.append(f"(declare-op {name} {arity})")
    for x in env.rigid_vars:
        lines.append(f"(declare-rigid {x})")
    for v in env.flex_vars:
        lines.append(f"(declare-flex {v})")
    for d in env.definitions:
        params = "".join(f" {p}" for p in d.params)
        lines.append(f"(define ({d.name}{params}) {print_expr(d.body)})")
    return "\n".join(lines)


def print_problem(ob: Obligation) -> str:
    """Render an obligation as a complete, re-parseable problem file."""
    lines = [print_env(ob.env)] if ob.env.all_names() else []
    for h in ob.hypotheses:
        lines.append(f"(assume {print_expr(h)})")
    lines.append(f"(goal {print_expr(ob.goal)})")
    if ob.mode != "fol":
        lines.append(f"(mode {ob.mode})")
    return "\n".join(lines) + "\n"
