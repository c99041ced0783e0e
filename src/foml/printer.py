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
    t = type(e)
    if t is Implies:
        return f"(=> {print_expr(e.lhs)} {print_expr(e.rhs)})"
    if t is OpApp or t is DefApp:
        if not e.args:
            return e.op
        return f"({e.op} {' '.join([print_expr(a) for a in e.args])})"
    if t is RigidVar or t is FlexVar:
        return e.name
    if t is FalseExpr:
        return "false"
    if t is Eq:
        return f"(= {print_expr(e.lhs)} {print_expr(e.rhs)})"
    if t is Forall:
        return f"(forall {e.var} {print_expr(e.body)})"
    if t is Nabla:
        return f"(nabla {print_expr(e.body)})"
    if t is Prime:
        return f"(prime {print_expr(e.body)})"
    raise InternalError(f"unknown expression node {e!r}")


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
