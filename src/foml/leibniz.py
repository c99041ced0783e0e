"""Leibniz argument positions of defined operators, and the epsilon-vector
classification of application arguments used by the first-order coalescing.

An argument position is Leibniz when substituting equals for equals there
preserves the value.  Every position of a primitive operator or non-modal
connective is Leibniz; the modalities' positions are not.  A position of a
defined operator is Leibniz iff its parameter never occurs within a
non-Leibniz position of the body (computed inductively, in declaration
order, without expanding definitions).

The data is plain: `compute_leibniz` maps each defined operator to one
boolean per argument position, and `classify_args` returns the
epsilon-vector of an application as a tuple whose entries are `STAR` or
the argument itself.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .syntax import (
    DEF_APP,
    NABLA,
    PRIME,
    DefApp,
    DefinitionEnvironment,
    Expression,
    FomlError,
    Nabla,
    Prime,
    free_rigid_vars,
    is_rigid,
    nodes,
)


# The '*' epsilon entry (the argument is hidden behind the fresh symbol);
# no expression is None, so entries are told apart with `is STAR`.
STAR = None


_NON_LEIBNIZ = NABLA | PRIME | DEF_APP


def _vars_in_non_leibniz_positions(
    e: Expression, computed: dict[str, tuple[bool, ...]]
) -> set[str]:
    """Free rigid variables of e having an occurrence inside some
    non-Leibniz argument position: only a nabla, a prime or a DefApp
    makes one."""
    bad: set[str] = set()
    for n, bound in nodes(e) if e.kinds & _NON_LEIBNIZ else ():
        t = type(n)
        if t is Nabla or t is Prime:
            bad |= set(free_rigid_vars(n.body)) - bound
        elif t is DefApp:
            for leib, a in zip(computed[n.op], n.args):
                if not leib:
                    bad |= set(free_rigid_vars(a)) - bound
    return bad


def compute_leibniz(
    env: DefinitionEnvironment,
) -> dict[str, tuple[bool, ...]]:
    """Leibniz vectors for every defined operator, in declaration order:
    one boolean per argument position."""
    computed: dict[str, tuple[bool, ...]] = {}
    for d in env.definitions:
        bad = _vars_in_non_leibniz_positions(d.body, computed)
        computed[d.name] = tuple(p not in bad for p in d.params)
    return computed


def classify_args(
    op: str,
    args: Sequence[Expression],
    table: dict[str, tuple[bool, ...]],
    env: DefinitionEnvironment,
) -> tuple[Optional[Expression], ...]:
    """Epsilon entry per argument: '*' when the position is Leibniz or the
    argument is rigid, the argument itself otherwise."""
    vector = table[op]
    if len(args) != len(vector):
        raise FomlError(
            f"{op!r} applied to {len(args)} argument(s), arity is "
            f"{len(vector)}")
    return tuple(STAR if leib or is_rigid(a, env) else a
                 for leib, a in zip(vector, args))


def format_table(table: dict[str, tuple[bool, ...]]) -> str:
    """One line per defined operator: `d: L N ...`."""
    lines = []
    for op, vector in table.items():
        marks = " ".join("L" if b else "N" for b in vector)
        lines.append(f"{op}: {marks}" if vector else f"{op}:")
    return "\n".join(lines)
