"""The syntax walkers foml had when they dispatched by class-pattern
`match`: `children`, `map_children`, `free_rigid_vars`, `substitute`,
`alpha_key`, `expand_definitions`, `is_rigid` and `print_expr`.  Kept here
unchanged, each calling only the others of this module, as the oracle the
differential tests hold the exact-type dispatchers of `foml.syntax` and
`foml.printer` to.

Also `walk`, the tests' pre-order node iterator, and `needs_prime`, the
prime scan that `syntax.signature(...).prime` replaced.  Both keep their
own stack, so they reach any depth.
"""
from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping

from foml.syntax import (
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
    OpApp,
    Prime,
    RigidVar,
    fresh_name,
)


def children(e: Expression) -> tuple[Expression, ...]:
    match e:
        case RigidVar() | FlexVar() | FalseExpr():
            return ()
        case OpApp(_, args) | DefApp(_, args):
            return args
        case Eq(lhs, rhs) | Implies(lhs, rhs):
            return (lhs, rhs)
        case Forall(_, body) | Nabla(body) | Prime(body):
            return (body,)
    raise InternalError(f"unknown expression node {e!r}")


def map_children(
    e: Expression, f: Callable[..., Expression], *args: Any
) -> Expression:
    match e:
        case Implies(lhs, rhs):
            return Implies(f(lhs, *args), f(rhs, *args))
        case Eq(lhs, rhs):
            return Eq(f(lhs, *args), f(rhs, *args))
        case RigidVar() | FlexVar() | FalseExpr():
            return e
        case OpApp(op, a):
            return OpApp(op, tuple([f(x, *args) for x in a]))
        case DefApp(op, a):
            return DefApp(op, tuple([f(x, *args) for x in a]))
        case Forall(var, body):
            return Forall(var, f(body, *args))
        case Nabla(body):
            return Nabla(f(body, *args))
        case Prime(body):
            return Prime(f(body, *args))
    raise InternalError(f"unknown expression node {e!r}")


def walk(e: Expression) -> Iterator[Expression]:
    """Yield e and all its subexpressions, depth-first, left to right."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(children(e)))


def needs_prime(env: DefinitionEnvironment, *exprs: Expression) -> bool:
    """Whether a prime occurs in `exprs` or in any definition body; by
    occurrence, since an argument the body drops is still evaluated.  One
    walk over all of them, which stops at the first prime."""
    stack = [*exprs, *(d.body for d in env.definitions)]
    while stack:
        e = stack.pop()
        if type(e) is Prime:
            return True
        stack.extend(children(e))
    return False


def free_rigid_vars(e: Expression) -> tuple[str, ...]:
    out: list[str] = []
    seen: set[str] = set()

    def go(e: Expression, bound: frozenset[str]) -> None:
        match e:
            case RigidVar(name):
                if name not in bound and name not in seen:
                    seen.add(name)
                    out.append(name)
            case Forall(var, body):
                go(body, bound | {var})
            case _:
                for c in children(e):
                    go(c, bound)

    go(e, frozenset())
    return tuple(out)


def substitute(e: Expression, sigma: Mapping[str, Expression]) -> Expression:
    if not sigma:
        return e

    def go(e: Expression, sigma: dict[str, Expression]) -> Expression:
        match e:
            case RigidVar(name):
                return sigma.get(name, e)
            case Forall(var, body):
                body_free = set(free_rigid_vars(body))
                live = {
                    k: v
                    for k, v in sigma.items()
                    if k != var and k in body_free
                }
                if not live:
                    return e
                image_free: set[str] = set()
                for img in live.values():
                    image_free.update(free_rigid_vars(img))
                if var in image_free:
                    var2 = fresh_name(
                        var, body_free | image_free | set(live)
                    )
                    live[var] = RigidVar(var2)
                    return Forall(var2, go(body, live))
                return Forall(var, go(body, live))
        return map_children(e, go, sigma)

    return go(e, dict(sigma))


def alpha_key(e: Expression, binders: tuple[str, ...] = ()) -> tuple:
    match e:
        case RigidVar(name):
            try:
                return ("b", binders.index(name))
            except ValueError:
                return ("x", name)
        case FlexVar(name):
            return ("v", name)
        case OpApp(op, args):
            return ("op", op, *(alpha_key(a, binders) for a in args))
        case DefApp(op, args):
            return ("def", op, *(alpha_key(a, binders) for a in args))
        case Eq(lhs, rhs):
            return ("eq", alpha_key(lhs, binders), alpha_key(rhs, binders))
        case FalseExpr():
            return ("false",)
        case Implies(lhs, rhs):
            return ("imp", alpha_key(lhs, binders), alpha_key(rhs, binders))
        case Forall(var, body):
            return ("all", alpha_key(body, (var,) + binders))
        case Nabla(body):
            return ("nabla", alpha_key(body, binders))
        case Prime(body):
            return ("prime", alpha_key(body, binders))
    raise InternalError(f"unknown expression node {e!r}")


def expand_definitions(
    e: Expression, env: DefinitionEnvironment
) -> Expression:
    match e:
        case DefApp(op, args):
            d = env.definition(op)
            inst = substitute(
                d.body,
                dict(
                    zip(d.params, (expand_definitions(a, env) for a in args))
                ),
            )
            return expand_definitions(inst, env)
    return map_children(e, expand_definitions, env)


def is_rigid(e: Expression, env: DefinitionEnvironment) -> bool:
    def go(e: Expression, param_rigid: Mapping[str, bool]) -> bool:
        match e:
            case RigidVar(name):
                return param_rigid.get(name, True)
            case FlexVar():
                return False
            case Nabla() | Prime():
                return False
            case Forall(var, body):
                if var in param_rigid:
                    inner = {
                        k: v for k, v in param_rigid.items() if k != var
                    }
                    return go(body, inner)
                return go(body, param_rigid)
            case DefApp(op, args):
                d = env.definition(op)
                return go(
                    d.body,
                    {
                        p: go(a, param_rigid)
                        for p, a in zip(d.params, args)
                    },
                )
            case _:
                return all(go(c, param_rigid) for c in children(e))

    return go(e, {})


def print_expr(e: Expression) -> str:
    match e:
        case RigidVar(name) | FlexVar(name):
            return name
        case OpApp(op, args) | DefApp(op, args):
            if not args:
                return op
            return f"({op} {' '.join(print_expr(a) for a in args)})"
        case Eq(lhs, rhs):
            return f"(= {print_expr(lhs)} {print_expr(rhs)})"
        case FalseExpr():
            return "false"
        case Implies(lhs, rhs):
            return f"(=> {print_expr(lhs)} {print_expr(rhs)})"
        case Forall(var, body):
            return f"(forall {var} {print_expr(body)})"
        case Nabla(body):
            return f"(nabla {print_expr(body)})"
        case Prime(body):
            return f"(prime {print_expr(body)})"
    raise InternalError(f"unknown expression node {e!r}")
