"""Core expression language: AST, environments, substitution, alpha-equivalence.

The core grammar has exactly ten node kinds: rigid variables, flexible
variables, primitive operator applications, defined operator applications,
equality, FALSE, implication, universal quantification over rigid variables,
and the two modalities (nabla and prime).  Every surface connective
(true/not/and/or/iff/exists/delta) is desugared to this core at parse time,
so all later passes only ever see these ten constructors.

Nodes, like every record of the package, are slotted classes over
`Record`, which compares and hashes them by their fields.  They are not
frozen, which would double the cost of building one; no code assigns a
node's field outside its constructor and the free-variable cache, which
`tests/test_dispatch.py` checks on the source.  Each node carries two more
fields, outside its equality, hash and repr:
- `kinds`, the bits (`RIGID_VAR` ... `PRIME`) of the kinds of the nodes in
  its subtree, computed by the constructor from its children.  A pass
  returns a subtree unchanged when it holds no kind the pass treats or
  rejects, and `contains_node` and `is_rigid` answer from it.  A node of a
  kind not listed here has every bit, `UNKNOWN` too, so nothing skips it.
- `_free` (on the seven kinds with children), the free rigid variables of
  its subtree, filled the first time `free_rigid_vars` asks, at the node
  asked and at each Forall, Nabla and Prime below it; the nodes between
  them are scanned, not filled, and a filled node is never scanned again.

`children`, `rewrite` and `nodes` are the single place that knows the shape
of every node kind.  A pass tests only the kinds it treats specially:
`rewrite` rebuilds every other node from its children, and `nodes` yields
every node with the names bound above it, both on an explicit stack, so a
pass built on them has no nesting limit of its own.  A new node kind gets
a bit in `KIND` and is added to those three functions first, then to
every dispatcher that renders or interprets each kind exactly:
`alpha_key`, the printer, `semantics._evaluate` and `semantics._lanes`.
The two renderers keep their own stack too.
Dispatch is on the exact class, `type(e) is Implies`, never on
`isinstance` or a class pattern: an exact test costs about half as much
per node, and a node of a kind a dispatcher does not know ends in its
`InternalError`, not in a silent fallback.

Fresh symbols of the translations are named by one `Interner`, keyed by
text: `alpha_key` renders a subterm up to the renaming of its bound
variables, and the digest in a symbol's name is a hash of that text.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import attrgetter, is_not
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
)


class FomlError(Exception):
    """Base class for user-visible errors raised by this package."""


class InternalError(FomlError):
    """An internal invariant was violated (CLI exit code 70)."""


# The bit of each node kind in a node's `kinds`.
(RIGID_VAR, FLEX_VAR, OP_APP, DEF_APP, EQ, FALSE_EXPR, IMPLIES, FORALL,
 NABLA, PRIME, UNKNOWN) = (1 << i for i in range(11))


class Record:
    """Base of the package's records: slotted classes whose `__init__`
    assigns their fields.  `__match_args__` names the fields that make a
    record's value, and the three methods below are those `@dataclass`
    generates, written once instead of compiled for each class at import:
    - equality holds only between records of the same class, and compares
      the field tuples, which test each pair of fields for identity first;
    - the hash is the hash of the field tuple;
    - the repr is `Qualname(field=value!r, ...)`."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # `_values(record)` is the field tuple.  `attrgetter` reads it in
        # C, but it returns a bare value for one name and needs a name.
        names = cls.__match_args__
        if len(names) > 1:
            cls._values = attrgetter(*names)
        elif names:
            get = attrgetter(*names)
            cls._values = staticmethod(lambda r: (get(r),))
        else:
            cls._values = staticmethod(lambda r: ())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        # a loop, not a generator, so a nested record costs one frame
        parts = []
        for name in self.__match_args__:
            parts.append(f"{name}={getattr(self, name)!r}")
        return f"{type(self).__qualname__}({', '.join(parts)})"


class Expression(Record):
    """Base class for AST nodes.  A node is hashable, and its fields do not
    change once it is built, save its free-variable cache, which is filled
    once.  A subclass of a kind this module does not know holds every bit
    of `kinds` and has no cache, so every pass and scan walks into it and
    raises `InternalError`."""

    __slots__ = ()
    kinds = (UNKNOWN << 1) - 1
    _free = None

    def __str__(self) -> str:
        from .printer import print_expr

        return print_expr(self)


class RigidVar(Expression):
    __slots__ = ("name", "kinds")
    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name
        self.kinds = RIGID_VAR


class FlexVar(Expression):
    __slots__ = ("name", "kinds")
    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name
        self.kinds = FLEX_VAR


class OpApp(Expression):
    __slots__ = ("op", "args", "kinds", "_free")
    __match_args__ = ("op", "args")

    def __init__(self, op: str, args: tuple[Expression, ...] = ()) -> None:
        self.op = op
        self.args = args
        k = OP_APP
        for a in args:
            k |= a.kinds
        self.kinds = k
        self._free = None


class DefApp(Expression):
    __slots__ = ("op", "args", "kinds", "_free")
    __match_args__ = ("op", "args")

    def __init__(self, op: str, args: tuple[Expression, ...] = ()) -> None:
        self.op = op
        self.args = args
        k = DEF_APP
        for a in args:
            k |= a.kinds
        self.kinds = k
        self._free = None


class Eq(Expression):
    __slots__ = ("lhs", "rhs", "kinds", "_free")
    __match_args__ = ("lhs", "rhs")

    def __init__(self, lhs: Expression, rhs: Expression) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self.kinds = lhs.kinds | rhs.kinds | EQ
        self._free = None


class FalseExpr(Expression):
    __slots__ = ("kinds",)

    def __init__(self) -> None:
        self.kinds = FALSE_EXPR


class Implies(Expression):
    __slots__ = ("lhs", "rhs", "kinds", "_free")
    __match_args__ = ("lhs", "rhs")

    def __init__(self, lhs: Expression, rhs: Expression) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self.kinds = lhs.kinds | rhs.kinds | IMPLIES
        self._free = None


class Forall(Expression):
    __slots__ = ("var", "body", "kinds", "_free")
    __match_args__ = ("var", "body")

    def __init__(self, var: str, body: Expression) -> None:
        self.var = var
        self.body = body
        self.kinds = body.kinds | FORALL
        self._free = None


class Nabla(Expression):
    __slots__ = ("body", "kinds", "_free")
    __match_args__ = ("body",)

    def __init__(self, body: Expression) -> None:
        self.body = body
        self.kinds = body.kinds | NABLA
        self._free = None


class Prime(Expression):
    __slots__ = ("body", "kinds", "_free")
    __match_args__ = ("body",)

    def __init__(self, body: Expression) -> None:
        self.body = body
        self.kinds = body.kinds | PRIME
        self._free = None


# The bit of each node class, for `contains_node`.
KIND = {RigidVar: RIGID_VAR, FlexVar: FLEX_VAR, OpApp: OP_APP,
        DefApp: DEF_APP, Eq: EQ, FalseExpr: FALSE_EXPR, Implies: IMPLIES,
        Forall: FORALL, Nabla: NABLA, Prime: PRIME}

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


_VISIT = object()  # the post slot of a node `rewrite` has not walked yet


def rewrite(
    root: Expression, pre: Callable[[Expression, Any], Any], ctx: Any
) -> Expression:
    """root rebuilt bottom-up, on an explicit stack, so at any depth.

    `pre(e, c)` is called on every node reached, in pre-order, left to
    right, with the context c of its position (`ctx` at the root), and
    says what becomes of e:
    - None: e is rebuilt from its children, each walked under c;
    - an Expression: it replaces e, and e's children are not walked;
    - a pair (child_ctx, post): e is rebuilt from its children, each
      walked under child_ctx, and then post(rebuilt) replaces it (post
      None: the rebuilt node does).
    A node whose children all come back as they were is kept, not
    rebuilt.  A pass keeps its state in `ctx` (binders, a substitution,
    a table) or in `pre`'s closure.
    """
    done: list[Expression] = []
    out = done.append
    todo: list = [(root, ctx, _VISIT)]
    push = todo.append
    while todo:
        e, c, post = todo.pop()
        t = type(e)
        if post is not _VISIT:  # e's children are rebuilt, last on top
            if t is Implies or t is Eq:
                rhs = done.pop()
                lhs = done.pop()
                if lhs is not e.lhs or rhs is not e.rhs:
                    e = t(lhs, rhs)
            elif t is OpApp or t is DefApp:
                k = len(e.args)
                args = tuple(done[-k:])
                del done[-k:]
                if any(map(is_not, args, e.args)):
                    e = t(e.op, args)
            else:
                body = done.pop()
                if body is not e.body:
                    e = Forall(e.var, body) if t is Forall else t(body)
            out(e if post is None else post(e))
            continue
        r = pre(e, c)
        if r is None:
            post = None
        elif type(r) is tuple:
            c, post = r
        else:
            out(r)
            continue
        if t is Implies or t is Eq:
            push((e, c, post))
            push((e.rhs, c, _VISIT))
            push((e.lhs, c, _VISIT))
        elif t is Forall or t is Nabla or t is Prime:
            push((e, c, post))
            push((e.body, c, _VISIT))
        elif (t is OpApp or t is DefApp) and e.args:
            push((e, c, post))
            todo.extend([(a, c, _VISIT) for a in reversed(e.args)])
        elif (t is RigidVar or t is FlexVar or t is FalseExpr or t is OpApp
              or t is DefApp):
            out(e if post is None else post(e))
        else:
            raise InternalError(f"unknown expression node {e!r}")
    return done[0]


def nodes(e: Expression) -> Iterator[tuple[Expression, frozenset[str]]]:
    """Every node of e with the rigid variables bound above it, in
    pre-order, left to right, on an explicit stack.  A node's children are
    read only when the iteration goes past it."""
    stack: list[tuple[Expression, frozenset[str]]] = [(e, frozenset())]
    push = stack.append
    while stack:
        item = stack.pop()
        yield item
        e, bound = item
        t = type(e)
        if t is RigidVar or t is FlexVar or t is FalseExpr:
            continue
        if t is Implies or t is Eq:
            push((e.rhs, bound))
            push((e.lhs, bound))
        elif t is OpApp or t is DefApp:
            for c in reversed(e.args):
                push((c, bound))
        elif t is Forall:
            push((e.body, bound | {e.var}))
        elif t is Nabla or t is Prime:
            push((e.body, bound))
        else:
            raise InternalError(f"unknown expression node {e!r}")


def free_rigid_vars(e: Expression) -> tuple[str, ...]:
    """Free rigid variables of e, ordered by first occurrence.

    This is the usual syntactic notion: occurrences inside every argument of
    a defined-operator application count, whether or not the definition body
    uses the corresponding parameter.  They are read from e's cache, which
    `_fill_free` fills the first time they are asked for.
    """
    if not e.kinds & RIGID_VAR:
        return ()
    if type(e) is RigidVar:
        return (e.name,)
    free = e._free
    if free is None:
        _fill_free(e)
        free = e._free
    return free


def _fill_free(root: Expression) -> None:
    """Fill the free-variable cache of root and of each Forall, Nabla and
    Prime below it that has none yet, on an explicit stack.  The nodes
    between them keep no cache: each filled node's subtree is scanned in
    first-occurrence order into one ordered dict, which a cached node
    below joins without being walked, and a Forall's dict drops its
    variable before it joins the dict of the node above."""
    free: dict[str, None] = {}
    # nodes to scan, next on top, and under the nodes below each node
    # being filled, (that node, the dict of the node above it)
    todo: list = [(root, free)]
    todo.extend(reversed(children(root)))
    while todo:
        e = todo.pop()
        if type(e) is tuple:
            e, outer = e
            if type(e) is Forall:
                free.pop(e.var, None)
            e._free = tuple(free)
            if outer is not free:
                outer.update(free)
                free = outer
            continue
        if not e.kinds & RIGID_VAR:
            continue
        t = type(e)
        if t is RigidVar:
            free[e.name] = None
        elif e._free is not None:
            free.update(dict.fromkeys(e._free))
        elif t is Forall or t is Nabla or t is Prime:
            todo += ((e, free), e.body)
            free = {}
        else:
            todo.extend(reversed(children(e)))


def free_flex_vars(e: Expression) -> tuple[str, ...]:
    """Flexible variables occurring in e, ordered by first occurrence."""
    return tuple({n.name: None for n, _ in nodes(e) if type(n) is FlexVar})


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
    return rewrite(e, _substitute_pre, dict(sigma)) if sigma else e


def _substitute_pre(e: Expression, sigma: dict[str, Expression]) -> Any:
    t = type(e)
    if t is RigidVar:
        return sigma.get(e.name, e)
    if not e.kinds & RIGID_VAR:
        return e
    if t is not Forall:
        return None
    var = e.var
    body_free = free_rigid_vars(e.body)
    live = {k: v for k, v in sigma.items() if k != var and k in body_free}
    if not live:
        return e
    image_free: set[str] = set()
    for img in live.values():
        image_free.update(free_rigid_vars(img))
    if var not in image_free:
        return live, None
    var2 = fresh_name(var, {*body_free, *image_free, *live})
    live[var] = RigidVar(var2)
    return live, lambda f: Forall(var2, f.body)


def alpha_key(e: Expression, binders: tuple[str, ...] = ()) -> str:
    """Canonical de Bruijn rendering of e, as text, built on an explicit
    stack, so at any depth.

    Bound rigid variables become indices (innermost binder is 0); free rigid
    and flexible variables keep their names.  `binders` (innermost first)
    lets callers treat additional variables as abstracted, which is how
    coalescing keys are formed.  Two expressions are alpha-equivalent iff
    their keys are equal.  The text is the repr of a nested tuple, one per
    node: `('imp', lhs, rhs)`, `('eq', lhs, rhs)`, `('all', body)`,
    `('nabla', body)`, `('prime', body)`, `('op', name, *args)`,
    `('def', name, *args)`, `('b', index)`, `('x', name)`, `('v', name)`
    and `('false',)`; every fresh symbol's name digests it (see
    `Interner`).
    """
    out: list[str] = []
    put = out.append
    # nodes to render and text to emit, next on top, and the binders to
    # restore on leaving a Forall's body
    todo: list = [e]
    while todo:
        e = todo.pop()
        t = type(e)
        if t is str:
            put(e)
        elif t is Implies or t is Eq:
            put("('imp', " if t is Implies else "('eq', ")
            todo += (")", e.rhs, ", ", e.lhs)
        elif t is RigidVar:
            put(f"('b', {binders.index(e.name)})" if e.name in binders
                else f"('x', {e.name!r})")
        elif t is OpApp or t is DefApp:
            put(f"('op', {e.op!r}" if t is OpApp else f"('def', {e.op!r}")
            todo.append(")")
            for a in reversed(e.args):
                todo += (a, ", ")
        elif t is FalseExpr:
            put("('false',)")
        elif t is FlexVar:
            put(f"('v', {e.name!r})")
        elif t is Forall:
            put("('all', ")
            todo += (")", binders, e.body)
            binders = (e.var,) + binders
        elif t is Nabla or t is Prime:
            put("('nabla', " if t is Nabla else "('prime', ")
            todo += (")", e.body)
        elif t is tuple:
            binders = e
        else:
            raise InternalError(f"unknown expression node {e!r}")
    return "".join(out)


def alpha_equal(e1: Expression, e2: Expression) -> bool:
    return alpha_key(e1) == alpha_key(e2)


class Definition(Record):
    """An operator definition d(x1..xn) == body.

    Parameters are pairwise-distinct rigid variable names; the body's free
    rigid variables must all be parameters, and the body may only apply
    operators declared or defined earlier.
    """

    __slots__ = __match_args__ = ("name", "params", "body")

    def __init__(self, name: str, params: tuple[str, ...],
                 body: Expression) -> None:
        self.name = name
        self.params = params
        self.body = body


class DefinitionEnvironment(Record):
    """Declared signature: primitive operators, variables, definitions."""

    __slots__ = __match_args__ = ("ops", "rigid_vars", "flex_vars",
                                  "definitions")

    def __init__(self, ops: Mapping[str, int],
                 rigid_vars: tuple[str, ...] = (),
                 flex_vars: tuple[str, ...] = (),
                 definitions: tuple[Definition, ...] = ()) -> None:
        self.ops = ops
        self.rigid_vars = rigid_vars
        self.flex_vars = flex_vars
        self.definitions = definitions

    @staticmethod
    def build(
        ops: Mapping[str, int] | None = None,
        rigid: Iterable[str] = (),
        flex: Iterable[str] = (),
        definitions: Iterable[Definition] = (),
    ) -> "DefinitionEnvironment":
        return DefinitionEnvironment(ops={}).extended(
            ops, rigid, flex, definitions)

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
            # a body without the DefApp bit applies no definition
            for sub, _ in nodes(d.body) if d.body.kinds & DEF_APP else ():
                if type(sub) is DefApp and sub.op not in known_defs:
                    raise FomlError(
                        f"definition {d.name!r} refers to {sub.op!r}, "
                        "which is not defined earlier"
                    )
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


# A dataclass: bench/checks.py rebuilds one with `dataclasses.replace`.
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

    A key is text (an `alpha_key`, or one built from alpha keys).  The n-th
    key interned (from 0) is named `<prefix><n>__<digest>`, the digest
    being a 4-byte blake2b of the key text.  When the environment
    already declares that name, `_1`, `_2`, ... is appended until it does
    not.  The number keeps the names of one table pairwise distinct.
    """

    def __init__(self, prefix: str, env: DefinitionEnvironment):
        self.prefix = prefix
        self.env = env
        self.entries: dict[str, Any] = {}

    def entry(self, key: str, make: Callable[[str], Any]) -> Any:
        """The entry under key; on first sight, make(fresh name)."""
        entry = self.entries.get(key)
        if entry is None:
            digest = hashlib.blake2b(key.encode(), digest_size=4).hexdigest()
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
    return rewrite(e, _expand_pre, env)


def _expand_pre(e: Expression, env: DefinitionEnvironment) -> Any:
    if type(e) is not DefApp:
        return None if e.kinds & DEF_APP else e
    d = env.definition(e.op)  # before the arguments are expanded
    return env, lambda app: expand_definitions(
        substitute(d.body, dict(zip(d.params, app.args))), env)


_NOT_RIGID = FLEX_VAR | NABLA | PRIME


def is_rigid(e: Expression, env: DefinitionEnvironment) -> bool:
    """True iff the full definition expansion of e contains no flexible
    variable and no nabla/prime node.

    Read from `kinds` where no DefApp lies below.  Otherwise computed
    without building the expansion, on an explicit stack, so at any depth:
    a DefApp is scanned through its body with each parameter standing for
    the rigidity of the corresponding argument (substitution preserves
    every other node of the body).  A body's free rigid variables are its
    parameters, so its verdict depends only on the definition and its
    arguments' rigidity, and each such pair is scanned once per call.
    """
    bodies: dict[tuple[str, tuple[bool, ...]], bool] = {}
    # (node, loose) pairs to check, loose holding the parameters in scope
    # whose argument is not rigid.  Below the pairs of a DefApp's argument
    # or body lies [the DefApp, its loose, its arguments' verdicts, its
    # key once they are all in].  Each argument and each body is a
    # conjunction: `rigid` is the verdict of the last node checked in the
    # innermost one, and once it is False the rest of that conjunction is
    # dropped, so on reaching the marker below it, it is the verdict.
    todo: list = [(e, frozenset())]
    rigid = True
    while todo:
        item = todo.pop()
        if type(item) is list:  # an argument or body of item's DefApp is in
            app, loose, verdicts, key = item
            if key is not None:
                bodies[key] = rigid
            else:
                args = app.args
                if args:  # one of them is in
                    verdicts.append(rigid)
                if len(verdicts) < len(args):
                    todo += (item, (args[len(verdicts)], loose))
                    continue
                item[3] = key = (app.op, tuple(verdicts))
                if key not in bodies:
                    d = env.definition(app.op)
                    todo += (item, (d.body, frozenset(
                        p for p, r in zip(d.params, verdicts) if not r)))
                    continue
                rigid = bodies[key]
        else:
            e, loose = item
            k = e.kinds
            t = type(e)
            if not k & DEF_APP and not (loose and k & RIGID_VAR):
                rigid = not k & _NOT_RIGID
            elif t is RigidVar:
                rigid = e.name not in loose
            elif t is FlexVar or t is Nabla or t is Prime:
                rigid = False
            else:
                if t is Forall:
                    todo.append((e.body, loose - {e.var}))
                elif t is DefApp:
                    todo.append([e, loose, [], None])
                    if e.args:
                        todo.append((e.args[0], loose))
                else:
                    todo.extend([(c, loose) for c in reversed(children(e))])
                continue
        if not rigid:
            while todo and type(todo[-1]) is not list:
                todo.pop()
    return rigid


def contains_node(e: Expression, *kinds: type) -> bool:
    """Whether a node of one of `kinds` (exact classes) occurs in e, read
    from e's `kinds`."""
    if e.kinds & UNKNOWN:
        raise InternalError(
            f"unknown expression node kind in {type(e).__name__}")
    mask = 0
    for kind in kinds:
        mask |= KIND[kind]
    return bool(e.kinds & mask)


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
    """The signature of exprs, in one walk over their `nodes`, then a scan
    of the definition bodies the walk did not reach for a prime.

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
    # paused walks, the one to resume on top, each with whether it counts
    # rigid variables: an expression's walk does, a body's does not.  A
    # first application pauses its walk before `nodes` reads its arguments.
    walks = [(nodes(e), True) for e in reversed(tuple(exprs))]
    while walks:
        walk, outside = walks[-1]
        for e, bound in walk:
            t = type(e)
            if t is RigidVar:
                if outside and e.name not in bound:
                    rigid[e.name] = None
            elif t is FlexVar:
                flex[e.name] = None
            elif t is OpApp:
                if e.op not in ops:
                    ops[e.op] = env.ops[e.op]
            elif t is Prime:
                prime = True
            elif t is DefApp and e.op not in applied:
                applied.add(e.op)
                walks.append((nodes(env.definition(e.op).body), False))
                break
        else:
            walks.pop()
    if not prime:
        prime = any(contains_node(d.body, Prime) for d in env.definitions
                    if d.name not in applied)
    return Signature(ops, tuple(rigid), tuple(flex), prime)
