"""Core expression language: AST, environments, substitution, alpha-equivalence.

The core grammar has exactly ten node kinds: rigid variables, flexible
variables, primitive operator applications, defined operator applications,
equality, FALSE, implication, universal quantification over rigid variables,
and the two modalities (nabla and prime).  Every surface connective
(true/not/and/or/iff/exists/delta) is desugared to this core at parse time,
so all later passes only ever see these ten constructors.

`children` and `map_children` are the single place that knows the shape of
every node kind.  A pass tests only the kinds it treats specially and hands
every other node to `map_children` (or walks `children`), so a new node kind
is added to those two functions first, then to every dispatcher that renders
or interprets each kind exactly: `alpha_key`, `signature`, the printer,
`semantics._evaluate` and `semantics._lanes`.  Dispatch is on the exact
class, `type(e) is Implies`, never on `isinstance` or a class pattern: an
exact test costs about half as much per node, and a node of a kind a
dispatcher does not know ends in its `InternalError`, not in a silent
fallback.

Fresh symbols of the translations are named by one `Interner`.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
)


class FomlError(Exception):
    """Base class for user-visible errors raised by this package."""


class InternalError(FomlError):
    """An internal invariant was violated (CLI exit code 70)."""


class Expression:
    """Base class for AST nodes.  All nodes are immutable and hashable:
    each kind is a frozen slots dataclass, which hashes by its fields."""

    __slots__ = ()

    def __str__(self) -> str:
        from .printer import print_expr

        return print_expr(self)


@dataclass(frozen=True, slots=True)
class RigidVar(Expression):
    name: str


@dataclass(frozen=True, slots=True)
class FlexVar(Expression):
    name: str


@dataclass(frozen=True, slots=True)
class OpApp(Expression):
    op: str
    args: tuple[Expression, ...] = ()


@dataclass(frozen=True, slots=True)
class DefApp(Expression):
    op: str
    args: tuple[Expression, ...] = ()


@dataclass(frozen=True, slots=True)
class Eq(Expression):
    lhs: Expression
    rhs: Expression


@dataclass(frozen=True, slots=True)
class FalseExpr(Expression):
    pass


@dataclass(frozen=True, slots=True)
class Implies(Expression):
    lhs: Expression
    rhs: Expression


@dataclass(frozen=True, slots=True)
class Forall(Expression):
    var: str
    body: Expression


@dataclass(frozen=True, slots=True)
class Nabla(Expression):
    body: Expression


@dataclass(frozen=True, slots=True)
class Prime(Expression):
    body: Expression


FALSE = FalseExpr()


# Derived connectives.  These exist only as constructors; the AST never
# contains them.

def true_() -> Expression:
    return Implies(FALSE, FALSE)


TRUE = true_()


def not_(e: Expression) -> Expression:
    return Implies(e, FALSE)


def and_(*es: Expression) -> Expression:
    if not es:
        return TRUE
    # a /\ b  ==  ~(a => ~b), nested to the right
    acc = es[-1]
    for e in reversed(es[:-1]):
        acc = not_(Implies(e, not_(acc)))
    return acc


def or_(*es: Expression) -> Expression:
    if not es:
        return FALSE
    # a \/ b  ==  ~a => b, nested to the right
    acc = es[-1]
    for e in reversed(es[:-1]):
        acc = Implies(not_(e), acc)
    return acc


def iff_(a: Expression, b: Expression) -> Expression:
    return and_(Implies(a, b), Implies(b, a))


def exists_(var: str, body: Expression) -> Expression:
    return not_(Forall(var, not_(body)))


def delta_(e: Expression) -> Expression:
    return not_(Nabla(not_(e)))


def children(e: Expression) -> tuple[Expression, ...]:
    t = type(e)
    if t is Implies or t is Eq:
        return (e.lhs, e.rhs)
    if t is OpApp or t is DefApp:
        return e.args
    if t is RigidVar or t is FlexVar or t is FalseExpr:
        return ()
    if t is Forall or t is Nabla or t is Prime:
        return (e.body,)
    raise InternalError(f"unknown expression node {e!r}")


def map_children(
    e: Expression, f: Callable[..., Expression], *args: Any
) -> Expression:
    """e rebuilt with each child c replaced by f(c, *args), children taken
    left to right in the order of `children(e)`.  Leaves come back as is.

    Passes hand their context (binders, a substitution, a table) over as
    `args` rather than closing over it: that saves a closure call per node
    and a stack frame per tree level.
    """
    t = type(e)
    if t is Implies:
        return Implies(f(e.lhs, *args), f(e.rhs, *args))
    if t is OpApp:
        return OpApp(e.op, tuple([f(x, *args) for x in e.args]))
    if t is RigidVar or t is FlexVar or t is FalseExpr:
        return e
    if t is Eq:
        return Eq(f(e.lhs, *args), f(e.rhs, *args))
    if t is Forall:
        return Forall(e.var, f(e.body, *args))
    if t is Nabla:
        return Nabla(f(e.body, *args))
    if t is Prime:
        return Prime(f(e.body, *args))
    if t is DefApp:
        return DefApp(e.op, tuple([f(x, *args) for x in e.args]))
    raise InternalError(f"unknown expression node {e!r}")


def free_rigid_vars(e: Expression) -> tuple[str, ...]:
    """Free rigid variables of e, ordered by first occurrence.

    This is the usual syntactic notion: occurrences inside every argument of
    a defined-operator application count, whether or not the definition body
    uses the corresponding parameter.
    """
    out: list[str] = []
    seen: set[str] = set()

    def go(e: Expression, bound: frozenset[str]) -> None:
        t = type(e)
        if t is RigidVar:
            name = e.name
            if name not in bound and name not in seen:
                seen.add(name)
                out.append(name)
        elif t is Forall:
            go(e.body, bound | {e.var})
        else:
            for c in children(e):
                go(c, bound)

    go(e, frozenset())
    return tuple(out)


def free_flex_vars(e: Expression) -> tuple[str, ...]:
    """Flexible variables occurring in e, ordered by first occurrence."""
    out: dict[str, None] = {}
    stack = [e]
    while stack:
        e = stack.pop()
        if type(e) is FlexVar:
            out[e.name] = None
        else:
            stack.extend(reversed(children(e)))
    return tuple(out)


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    """Smallest numeric-suffixed variant of base not in avoid."""
    taken = set(avoid)
    if base not in taken:
        return base
    k = 1
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def substitute(e: Expression, sigma: Mapping[str, Expression]) -> Expression:
    """Capture-avoiding substitution of expressions for rigid variables.

    Bound variables are renamed (deterministically, via fresh_name) exactly
    when a free variable of a substituted image would otherwise be captured.
    """
    if not sigma:
        return e

    def go(e: Expression, sigma: dict[str, Expression]) -> Expression:
        t = type(e)
        if t is RigidVar:
            return sigma.get(e.name, e)
        if t is Forall:
            var, body = e.var, e.body
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
    """Canonical de Bruijn rendering of e.

    Bound rigid variables become indices (innermost binder is 0); free rigid
    and flexible variables keep their names.  `binders` (innermost first)
    lets callers treat additional variables as abstracted, which is how
    coalescing keys are formed.  Two expressions are alpha-equivalent iff
    their keys are equal.
    """
    t = type(e)
    if t is Implies:
        return ("imp", alpha_key(e.lhs, binders), alpha_key(e.rhs, binders))
    if t is RigidVar:
        name = e.name
        if name in binders:
            return ("b", binders.index(name))
        return ("x", name)
    if t is OpApp:
        return ("op", e.op, *[alpha_key(a, binders) for a in e.args])
    if t is Eq:
        return ("eq", alpha_key(e.lhs, binders), alpha_key(e.rhs, binders))
    if t is FalseExpr:
        return ("false",)
    if t is FlexVar:
        return ("v", e.name)
    if t is Forall:
        return ("all", alpha_key(e.body, (e.var,) + binders))
    if t is Nabla:
        return ("nabla", alpha_key(e.body, binders))
    if t is Prime:
        return ("prime", alpha_key(e.body, binders))
    if t is DefApp:
        return ("def", e.op, *[alpha_key(a, binders) for a in e.args])
    raise InternalError(f"unknown expression node {e!r}")


def alpha_equal(e1: Expression, e2: Expression) -> bool:
    return alpha_key(e1) == alpha_key(e2)


@dataclass(frozen=True)
class Definition:
    """An operator definition d(x1..xn) == body.

    Parameters are pairwise-distinct rigid variable names; the body's free
    rigid variables must all be parameters, and the body may only apply
    operators declared or defined earlier.
    """

    name: str
    params: tuple[str, ...]
    body: Expression


@dataclass(frozen=True)
class DefinitionEnvironment:
    """Declared signature: primitive operators, variables, definitions."""

    ops: Mapping[str, int]
    rigid_vars: tuple[str, ...] = ()
    flex_vars: tuple[str, ...] = ()
    definitions: tuple[Definition, ...] = ()

    @staticmethod
    def build(
        ops: Mapping[str, int] | None = None,
        rigid: Iterable[str] = (),
        flex: Iterable[str] = (),
        definitions: Iterable[Definition] = (),
    ) -> "DefinitionEnvironment":
        env = DefinitionEnvironment(
            ops=dict(ops or {}),
            rigid_vars=tuple(rigid),
            flex_vars=tuple(flex),
            definitions=tuple(definitions),
        )
        env.validate()
        return env

    def validate(self, checked: int = 0) -> None:
        """Reject a name declared twice, and a definition from index
        `checked` on that repeats a parameter, has a free rigid variable
        that is not a parameter, or applies a definition not defined
        earlier.  The definitions before `checked` are taken as validated
        already: they count as defined earlier and are not walked again."""
        seen: set[str] = set()
        for name in (
            list(self.ops)
            + list(self.rigid_vars)
            + list(self.flex_vars)
            + [d.name for d in self.definitions]
        ):
            if name in seen:
                raise FomlError(f"duplicate declaration of {name!r}")
            seen.add(name)
        known_defs = {d.name for d in self.definitions[:checked]}
        for d in self.definitions[checked:]:
            if len(set(d.params)) != len(d.params):
                raise FomlError(
                    f"definition {d.name!r} has repeated parameters"
                )
            stray = [
                x for x in free_rigid_vars(d.body) if x not in d.params
            ]
            if stray:
                raise FomlError(
                    f"definition {d.name!r} body has free rigid variables "
                    f"not among its parameters: {', '.join(stray)}"
                )
            stack = [d.body]
            while stack:
                sub = stack.pop()
                if type(sub) is DefApp and sub.op not in known_defs:
                    raise FomlError(
                        f"definition {d.name!r} refers to {sub.op!r}, "
                        "which is not defined earlier"
                    )
                stack.extend(reversed(children(sub)))
            known_defs.add(d.name)

    def definition(self, name: str) -> Definition:
        for d in self.definitions:
            if d.name == name:
                return d
        raise FomlError(f"no definition named {name!r}")

    def arity(self, name: str) -> int:
        if name in self.ops:
            return self.ops[name]
        return len(self.definition(name).params)

    def kind(self, name: str) -> Optional[str]:
        if name in self.ops:
            return "op"
        if name in self.rigid_vars:
            return "rigid"
        if name in self.flex_vars:
            return "flex"
        if any(d.name == name for d in self.definitions):
            return "def"
        return None

    def all_names(self) -> set[str]:
        names = set(self.ops) | set(self.rigid_vars) | set(self.flex_vars)
        names.update(d.name for d in self.definitions)
        return names

    def extended(
        self,
        ops: Mapping[str, int] | None = None,
        rigid: Iterable[str] = (),
        flex: Iterable[str] = (),
        definitions: Iterable[Definition] = (),
    ) -> "DefinitionEnvironment":
        new_ops = dict(self.ops)
        for op, arity in (ops or {}).items():
            # a dict holds each name once, so `validate` cannot see this
            if op in new_ops:
                raise FomlError(f"duplicate declaration of {op!r}")
            new_ops[op] = arity
        env = DefinitionEnvironment(
            ops=new_ops,
            rigid_vars=tuple(self.rigid_vars) + tuple(rigid),
            flex_vars=tuple(self.flex_vars) + tuple(flex),
            definitions=tuple(self.definitions) + tuple(definitions),
        )
        # this environment's definitions were validated when it was built
        # or parsed; only the names and the added bodies need a check
        env.validate(checked=len(self.definitions))
        return env


@dataclass(frozen=True)
class Obligation:
    """A sequent: hypotheses (holding at all states) entail the goal."""

    hypotheses: tuple[Expression, ...]
    goal: Expression
    env: DefinitionEnvironment
    mode: str = "fol"  # fol | ml | action

    def all_exprs(self) -> tuple[Expression, ...]:
        return self.hypotheses + (self.goal,)


class Interner:
    """Table from keys to entries named by fresh symbols.

    The n-th key interned (from 0) is named `<prefix><n>__<digest>`, the
    digest being a 4-byte blake2b of `repr(key)`.  When the environment
    already declares that name, `_1`, `_2`, ... is appended until it does
    not.  The number keeps the names of one table pairwise distinct.
    """

    def __init__(self, prefix: str, env: DefinitionEnvironment):
        self.prefix = prefix
        self.env = env
        self.entries: dict = {}

    def entry(self, key, make: Callable[[str], Any]) -> Any:
        """The entry under key; on first sight, make(fresh name)."""
        entry = self.entries.get(key)
        if entry is None:
            digest = hashlib.blake2b(repr(key).encode(),
                                     digest_size=4).hexdigest()
            base = f"{self.prefix}{len(self.entries)}__{digest}"
            name = base
            k = 1
            while self.env.kind(name) is not None:
                name = f"{base}_{k}"
                k += 1
            entry = self.entries[key] = make(name)
        return entry

    def in_order(self) -> tuple:
        return tuple(self.entries.values())


def expand_definitions(
    e: Expression, env: DefinitionEnvironment
) -> Expression:
    """Replace every defined-operator application by its instantiated body.

    Arguments are expanded first, then substituted capture-avoidingly into
    the body, and the result is expanded again (bodies may apply earlier
    definitions).  Acyclicity of the environment guarantees termination.
    """
    if type(e) is DefApp:
        d = env.definition(e.op)
        inst = substitute(
            d.body,
            dict(
                zip(d.params, (expand_definitions(a, env) for a in e.args))
            ),
        )
        return expand_definitions(inst, env)
    return map_children(e, expand_definitions, env)


def is_rigid(e: Expression, env: DefinitionEnvironment) -> bool:
    """True iff the full definition expansion of e contains no flexible
    variable and no nabla/prime node.

    Computed without building the expansion: a DefApp is scanned through its
    body with each parameter standing for the rigidity of the corresponding
    argument (substitution preserves every other node of the body).
    """

    def go(e: Expression, param_rigid: Mapping[str, bool]) -> bool:
        t = type(e)
        if t is RigidVar:
            return param_rigid.get(e.name, True)
        if t is FlexVar or t is Nabla or t is Prime:
            return False
        if t is Forall:
            var = e.var
            if var in param_rigid:
                inner = {
                    k: v for k, v in param_rigid.items() if k != var
                }
                return go(e.body, inner)
            return go(e.body, param_rigid)
        if t is DefApp:
            d = env.definition(e.op)
            return go(
                d.body,
                {
                    p: go(a, param_rigid)
                    for p, a in zip(d.params, e.args)
                },
            )
        return all(go(c, param_rigid) for c in children(e))

    return go(e, {})


def contains_node(e: Expression, *kinds: type) -> bool:
    """Whether a node of one of `kinds` (exact classes) occurs in e."""
    stack = [e]
    while stack:
        e = stack.pop()
        if type(e) in kinds:
            return True
        stack.extend(children(e))
    return False


class Signature(NamedTuple):
    """What interpreting some expressions needs: the primitive operators
    with their arities, the free rigid and the flexible variables, each in
    order of first occurrence, and whether a prime occurs."""

    ops: dict[str, int]
    rigid: tuple[str, ...]
    flex: tuple[str, ...]
    prime: bool


def signature(
    exprs: Iterable[Expression], env: DefinitionEnvironment
) -> Signature:
    """The signature of exprs, in one walk that keeps its own stack, then
    a scan of the definition bodies the walk did not reach for a prime.

    The walk is pre-order, left to right, and scans a definition body where
    its first application is met, before that application's arguments:
    the orders it gives fix the enumeration order of bounded search.  The
    free rigid variables are those of exprs themselves (a body's are its
    parameters), arguments of applications included.  A prime counts
    where it occurs in exprs or in any definition body, applied or not,
    since an argument a body drops is still evaluated."""
    ops: dict[str, int] = {}
    rigid: dict[str, None] = {}
    flex: dict[str, None] = {}
    applied: set[str] = set()
    prime = False
    # (node, names bound above it); None inside a definition body
    top: frozenset[str] = frozenset()
    stack: list[tuple[Expression, Optional[frozenset[str]]]] = [
        (e, top) for e in reversed(tuple(exprs))]
    while stack:
        e, bound = stack.pop()
        t = type(e)
        if t is Implies or t is Eq:
            stack.append((e.rhs, bound))
            stack.append((e.lhs, bound))
        elif t is RigidVar:
            if bound is not None and e.name not in bound:
                rigid[e.name] = None
        elif t is FlexVar:
            flex[e.name] = None
        elif t is OpApp:
            if e.op not in ops:
                ops[e.op] = env.ops[e.op]
            stack.extend([(a, bound) for a in reversed(e.args)])
        elif t is Forall:
            stack.append(
                (e.body, None if bound is None else bound | {e.var}))
        elif t is Nabla:
            stack.append((e.body, bound))
        elif t is Prime:
            prime = True
            stack.append((e.body, bound))
        elif t is DefApp:
            stack.extend([(a, bound) for a in reversed(e.args)])
            if e.op not in applied:
                applied.add(e.op)
                stack.append((env.definition(e.op).body, None))
        elif t is not FalseExpr:
            raise InternalError(f"unknown expression node {e!r}")
    if not prime:
        rest = [d.body for d in env.definitions if d.name not in applied]
        while rest and not prime:
            e = rest.pop()
            prime = type(e) is Prime
            rest.extend(children(e))
    return Signature(ops, tuple(rigid), tuple(flex), prime)


def collect_signature(
    exprs: Iterable[Expression], env: DefinitionEnvironment
) -> tuple[dict[str, int], tuple[str, ...], tuple[str, ...]]:
    """Primitive operators, free rigid variables, and flexible variables
    needed to interpret the given expressions, including everything
    reachable through definition bodies: the first three fields of
    `signature`."""
    return signature(exprs, env)[:3]
