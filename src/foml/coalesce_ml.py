"""Abstraction of first-order subexpressions into propositional modal logic.

Every maximal first-order subexpression (rigid variable, operator or
defined-operator application, equality, quantified formula) becomes a fresh
propositional atom; flexible variables pass through and the propositional
skeleton (false, implication, modalities) is preserved.  Quantified keys
are compared alpha-canonically, so bound-variable renaming does not split
atoms.

The hypothesis set pairs every atom whose source expression is rigid with
the stability law `atom => nabla atom` (and its prime analogue when the
obligation mentions prime).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .models import KripkeModel, Value
from .syntax import (
    DEF_APP,
    EQ,
    FORALL,
    OP_APP,
    RIGID_VAR,
    DefApp,
    DefinitionEnvironment,
    Eq,
    Expression,
    FlexVar,
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
    contains_node,
    is_rigid,
    rewrite,
)


class AtomEntry(Record):
    __slots__ = __match_args__ = ("name", "source")

    def __init__(self, name: str, source: Expression) -> None:
        self.name = name
        self.source = source  # representative first-order subexpression


class AtomTable(Interner):
    """Alpha-canonical first-order subexpression -> fresh atom name
    `a<n>__<digest>`."""

    def __init__(self, env: DefinitionEnvironment):
        super().__init__("a", env)

    def intern(self, e: Expression) -> AtomEntry:
        return self.entry(alpha_key(e), lambda name: AtomEntry(name, e))


def coalesce_ml(
    e: Expression, env: DefinitionEnvironment, table: AtomTable
) -> Expression:
    """Propositional modal abstraction of e: an atom is interned where its
    subexpression is met, in pre-order."""
    return rewrite(e, _atom_pre, table)


_FIRST_ORDER = OP_APP | EQ | RIGID_VAR | FORALL | DEF_APP


def _atom_pre(e: Expression, table: AtomTable) -> Optional[Expression]:
    t = type(e)
    if t is OpApp or t is Eq or t is RigidVar or t is Forall or t is DefApp:
        return FlexVar(table.intern(e).name)
    return None if e.kinds & _FIRST_ORDER else e


def hypotheses(
    table: AtomTable,
    env: DefinitionEnvironment,
    include_prime: bool = False,
) -> tuple[Expression, ...]:
    """Stability hypotheses, one per atom whose source is rigid."""
    out: list[Expression] = []
    for entry in table.in_order():
        if is_rigid(entry.source, env):
            atom = FlexVar(entry.name)
            out.append(Implies(atom, Nabla(atom)))
            if include_prime:
                out.append(Implies(atom, Prime(atom)))
    return tuple(out)


# A dataclass: bench/test_bench.py rebuilds one with `dataclasses.replace`.
@dataclass(frozen=True)
class CoalescedMl:
    hypotheses: tuple[Expression, ...]  # translated Gamma
    goal: Expression
    stability: tuple[Expression, ...]  # the H set
    table: AtomTable


def coalesce_obligation_ml(ob: Obligation) -> CoalescedMl:
    """Translate a sequent to propositional modal logic with one shared atom
    table, and produce the hypothesis set for all rigid-source atoms of the
    hypotheses and goal together."""
    table = AtomTable(ob.env)
    hyps = tuple(coalesce_ml(h, ob.env, table) for h in ob.hypotheses)
    goal = coalesce_ml(ob.goal, ob.env, table)
    uses_prime = any(contains_node(e, Prime) for e in ob.all_exprs())
    stab = hypotheses(table, ob.env, include_prime=uses_prime)
    return CoalescedMl(hyps, goal, stab, table)


def build_witness_propmodel(
    m: KripkeModel,
    table: AtomTable,
    env: DefinitionEnvironment,
) -> KripkeModel:
    """Propositional model over the same states and relations: an atom is
    true at a state exactly when its source expression evaluates to tt
    there, and an original flexible variable is true exactly when its value
    is tt."""
    from .semantics import eval_expr

    zeta: dict[tuple[str, Value], str] = {}
    for entry in table.in_order():
        for w in m.states:
            val = eval_expr(m, w, entry.source, env)
            zeta[(entry.name, w)] = "tt" if val == m.tt else "ff"
    for v in env.flex_vars:
        for w in m.states:
            if (v, w) in m.zeta:
                zeta[(v, w)] = "tt" if m.zeta[(v, w)] == m.tt else "ff"
    return KripkeModel.propositional(m.states, m.R, zeta, m.primeR)


def atoms_block(table: AtomTable) -> str:
    from .printer import print_expr

    lines = ["(atoms"]
    for entry in table.in_order():
        lines.append(f"  ({entry.name} {print_expr(entry.source)})")
    lines.append(")")
    return "\n".join(lines)
