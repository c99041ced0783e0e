"""Abstraction of modal subexpressions into first-order logic.

Every nabla/prime subterm is replaced by a fresh operator symbol applied to
the enclosing bound rigid variables that occur free in it; applications of
defined operators are replaced by fresh symbols indexed by the operator and
the epsilon-vector of their non-Leibniz, non-rigid arguments.  Symbols are
interned in a table keyed by the alpha-canonical (de Bruijn) rendering of
the abstracted subterm, so subterms identical up to bound-variable renaming
share one symbol.

The output is a pure first-order expression over the extended variable set:
flexible variables stay in place and become free first-order variables.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Any, Optional

from .leibniz import STAR, classify_args, compute_leibniz
from .models import FOLStructure, KripkeModel, Value
from .semantics import eval_expr
from .syntax import (
    DEF_APP,
    FALSE,
    NABLA,
    PRIME,
    DefApp,
    DefinitionEnvironment,
    Expression,
    FomlError,
    Forall,
    Implies,
    Interner,
    Nabla,
    Obligation,
    OpApp,
    Prime,
    Record,
    RigidVar,
    alpha_key,
    free_rigid_vars,
    fresh_name,
    is_rigid,
    not_,
    rewrite,
)


class SymbolEntry(Record):
    """Interned fresh symbol plus a representative of its key, kept for
    witness construction and pretty-printing."""

    __slots__ = __match_args__ = ("name", "arity", "zvars", "node", "op",
                                  "entries")

    def __init__(self, name: str, arity: int, zvars: tuple[str, ...],
                 node: Optional[Expression] = None,
                 op: Optional[str] = None,
                 entries: Optional[tuple] = None) -> None:
        self.name = name
        self.arity = arity
        self.zvars = zvars
        self.node = node  # modal keys: the nabla/prime node
        self.op = op  # def keys: the defined operator
        self.entries = entries  # def keys: the epsilon-vector


class SymbolTable(Interner):
    """Bijection between coalescing keys and fresh operator symbols
    `c<n>__<digest>`.

    Confined to one obligation's translation; freeze conceptually once the
    translation is done.
    """

    def __init__(self, env: DefinitionEnvironment):
        super().__init__("c", env)

    @cached_property
    def leibniz(self) -> dict[str, tuple[bool, ...]]:
        return compute_leibniz(self.env)


def _select_zvars(
    binders: tuple[str, ...],
    free_in_body: tuple[str, ...],
    order: str,
) -> tuple[str, ...]:
    # "binder": abstracted variables keep the binder-stack order
    # (innermost first); "appearance": reordered by first occurrence in the
    # abstracted subterm, which identifies more symbols.
    freeset = set(free_in_body)
    z = tuple(b for b in binders if b in freeset)
    if order == "appearance":
        pos = {name: i for i, name in enumerate(free_in_body)}
        z = tuple(sorted(z, key=lambda b: pos[b]))
    return z


def coalesce_fol(
    e: Expression,
    env: DefinitionEnvironment,
    table: SymbolTable,
    order: str = "binder",
) -> Expression:
    """First-order abstraction of e, interning its fresh symbols in table.
    `order` is "binder" or "appearance": the order of the bound variables
    a fresh symbol is applied to (see `_select_zvars`)."""
    return rewrite(e, _coalesce_pre, ((), env, table, order))


_ABSTRACTED = NABLA | PRIME | DEF_APP


def _coalesce_pre(e: Expression, ctx: tuple) -> Any:
    """`rewrite`'s step of `coalesce_fol`: a symbol is interned where its
    node is met in pre-order, before the symbols of the nodes below it.
    ctx is (binders, env, table, order), binders the rigid variables bound
    above e, innermost first, each once: a name shadowed by an inner binder
    cannot bind anything below it.  A subtree with no nabla, prime or
    DefApp is kept as it is."""
    t = type(e)
    if not e.kinds & _ABSTRACTED:
        return e
    if t is Forall:
        binders, env, table, order = ctx
        inner = (e.var, *[b for b in binders if b != e.var])
        return (inner, env, table, order), None
    if t is Nabla or t is Prime:
        binders, env, table, order = ctx
        kind = "nabla" if t is Nabla else "prime"
        z = _select_zvars(binders, free_rigid_vars(e.body), order)
        # a symbol's name digests its key, so these texts are fixed
        key = (f"ModalKey(kind={kind!r}, nvars={len(z)}, "
               f"body={alpha_key(e, z)})")
        entry = table.entry(key, lambda name: SymbolEntry(
            name, len(z), z, node=e))
        return OpApp(entry.name, tuple(RigidVar(x) for x in z))
    if t is DefApp:
        binders, env, table, order = ctx
        op = e.op
        eps = classify_args(op, e.args, table.leibniz, env)
        concrete_free = dict.fromkeys(
            x for ent in eps if ent is not STAR for x in free_rigid_vars(ent))
        z = _select_zvars(binders, tuple(concrete_free), order)
        canon = ", ".join(["('star',)" if ent is STAR else alpha_key(ent, z)
                           for ent in eps])
        if len(eps) == 1:
            canon += ","  # a 1-tuple's repr
        key = f"DefKey(op={op!r}, nvars={len(z)}, entries=({canon}))"
        entry = table.entry(key, lambda name: SymbolEntry(
            name, len(eps) + len(z), z, op=op, entries=eps))
        zvars = tuple(RigidVar(x) for x in z)
        return ctx, lambda app: OpApp(entry.name, app.args + zvars)
    return None


# A dataclass: bench/test_bench.py rebuilds one with `dataclasses.replace`.
@dataclass(frozen=True)
class CoalescedFol:
    hypotheses: tuple[Expression, ...]
    goal: Expression
    table: SymbolTable
    env: DefinitionEnvironment  # original env extended with fresh symbols


def coalesce_obligation_fol(
    ob: Obligation, order: str = "binder"
) -> CoalescedFol:
    """Translate a whole sequent with one shared symbol table, so recurring
    subexpressions share fresh symbols across hypotheses and goal."""
    if ob.mode == "ml":
        raise FomlError("obligation has mode ml, not fol")
    table = SymbolTable(ob.env)
    hyps = tuple(coalesce_fol(h, ob.env, table, order)
                 for h in ob.hypotheses)
    goal = coalesce_fol(ob.goal, ob.env, table, order)
    env = ob.env.extended(ops={e.name: e.arity for e in table.in_order()})
    return CoalescedFol(hyps, goal, table, env)


def rewrite_rigid_box(
    e: Expression,
    env: DefinitionEnvironment,
    reflexive: bool = False,
) -> Expression:
    """Optional pre-coalescing rewrite: at formula positions, a nabla over a
    rigid body is replaced by `nabla false \\/ body` (just `body` when the
    frame is declared reflexive).  Term positions are left alone, where the
    replacement would change the value rather than just the truth.
    """

    def pre(e: Expression, at_formula: bool) -> Any:
        if not e.kinds & NABLA:
            return e
        t = type(e)
        if at_formula and t is Nabla and is_rigid(e.body, env):
            return e.body if reflexive else Implies(not_(Nabla(FALSE)), e.body)
        # The children of these nodes are formula positions, even when the
        # node itself sits at a term position.
        inner = t is Implies or t is Forall or t is Nabla or t is Prime
        return None if inner is at_formula else (inner, None)

    return rewrite(e, pre, True)


def build_witness_structure(
    m: KripkeModel,
    w: Value,
    table: SymbolTable,
    env: DefinitionEnvironment,
) -> FOLStructure:
    """The structure extracted from a Kripke model at a state: rigid
    variables keep their values, flexible variables take their value at w,
    and every fresh symbol is interpreted by evaluating its abstracted
    subterm at w under the argument valuation, by the point interpreter,
    once for every row of its table."""
    xi = dict(m.xi)
    for v in env.flex_vars:
        if (v, w) in m.zeta:
            xi[v] = m.zeta[(v, w)]

    op_interp = {op: dict(tbl) for op, tbl in m.op_interp.items()}
    for entry in table.in_order():
        source, names, at = _symbol_source(entry, env)
        op_interp[entry.name] = {
            argvals: eval_expr(m, w, source, env,
                               {x: argvals[i] for x, i in zip(names, at)})
            for argvals in product(m.universe, repeat=entry.arity)}

    return FOLStructure(m.universe, m.tt, m.ff, op_interp, xi)


def _symbol_source(
    entry: SymbolEntry,
    env: DefinitionEnvironment,
) -> tuple[Expression, tuple[str, ...], tuple[int, ...]]:
    """A symbol's abstracted subterm, with the variables a row of its
    table binds and the positions of their values in the row."""
    if entry.node is not None:
        return entry.node, entry.zvars, tuple(range(len(entry.zvars)))

    # Defined-operator symbol: d(alpha_1 .. alpha_n) where alpha_i is the
    # concrete epsilon entry, or a fresh variable bound to the argument
    # value at star positions, followed by the bound variables z.  Fresh
    # variables must avoid the free variables of the concrete entries.
    eps = entry.entries
    n = len(eps)
    avoid = set(entry.zvars) | env.all_names()
    for ent in eps:
        if ent is not STAR:
            avoid.update(free_rigid_vars(ent))
    alphas: list[Expression] = []
    names, at = list(entry.zvars), list(range(n, n + len(entry.zvars)))
    for i, ent in enumerate(eps):
        if ent is STAR:
            x = fresh_name(f"p{i}", avoid)
            avoid.add(x)
            alphas.append(RigidVar(x))
            names.append(x)
            at.append(i)
        else:
            alphas.append(ent)
    return DefApp(entry.op, tuple(alphas)), tuple(names), tuple(at)


def pretty_key(entry: SymbolEntry) -> str:
    """Human-readable rendering of a symbol's key for the symbols block."""
    from .printer import print_expr

    zs = " ".join(entry.zvars)
    if entry.node is not None:
        return f"(lambda ({zs}) {print_expr(entry.node)})"
    parts = ["*" if ent is STAR else print_expr(ent)
             for ent in entry.entries]
    inner = " ".join([entry.op] + parts)
    if entry.zvars:
        return f"(lambda ({zs}) ({inner}))"
    return f"({inner})"


def symbols_block(table: SymbolTable) -> str:
    lines = ["(symbols"]
    for entry in table.in_order():
        lines.append(f"  ({entry.name} {entry.arity} {pretty_key(entry)})")
    lines.append(")")
    return "\n".join(lines)
