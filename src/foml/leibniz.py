"""Leibniz argument positions of defined operators, and the epsilon-vector
classification of application arguments used by the first-order coalescing.

An argument position is Leibniz when substituting equals for equals there
preserves the value.  Every position of a primitive operator or non-modal
connective is Leibniz; the modalities' positions are not.  A position of a
defined operator is Leibniz iff its parameter never occurs within a
non-Leibniz position of the body (computed inductively, in declaration
order, without expanding definitions).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .syntax import (
    DefApp,
    DefinitionEnvironment,
    Expression,
    FomlError,
    Forall,
    Nabla,
    Prime,
    RigidVar,
    children,
    free_rigid_vars,
    is_rigid,
)


class Star:
    """The '*' epsilon entry: argument hidden behind the fresh symbol."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"


STAR = Star()

EpsilonEntry = Union[Star, Expression]
EpsilonVector = tuple


@dataclass(frozen=True)
class LeibnizTable:
    """Per defined operator, one boolean per argument position."""

    positions: Mapping[str, tuple[bool, ...]]

    def __getitem__(self, op: str) -> tuple[bool, ...]:
        return self.positions[op]


def _vars_in_non_leibniz_positions(
    e: Expression, computed: dict[str, tuple[bool, ...]]
) -> set[str]:
    """Free rigid variables of e having an occurrence inside some
    non-Leibniz argument position."""
    match e:
        case RigidVar():
            return set()
        case Nabla(body) | Prime(body):
            return set(free_rigid_vars(body))
        case Forall(var, body):
            return _vars_in_non_leibniz_positions(body, computed) - {var}
        case DefApp(op, args):
            table = computed[op]
            bad: set[str] = set()
            for leib, a in zip(table, args):
                bad |= _vars_in_non_leibniz_positions(a, computed)
                if not leib:
                    bad |= set(free_rigid_vars(a))
            return bad
        case _:
            bad = set()
            for c in children(e):
                bad |= _vars_in_non_leibniz_positions(c, computed)
            return bad


def compute_leibniz(env: DefinitionEnvironment) -> LeibnizTable:
    """Leibniz vectors for every defined operator, in declaration order."""
    computed: dict[str, tuple[bool, ...]] = {}
    for d in env.definitions:
        bad = _vars_in_non_leibniz_positions(d.body, computed)
        computed[d.name] = tuple(p not in bad for p in d.params)
    return LeibnizTable(computed)


def classify_args(
    op: str,
    args: Sequence[Expression],
    table: LeibnizTable,
    env: DefinitionEnvironment,
) -> EpsilonVector:
    """Epsilon entry per argument: '*' when the position is Leibniz or the
    argument is rigid, the argument itself otherwise."""
    vector = table[op]
    if len(args) != len(vector):
        raise FomlError(
            f"{op!r} applied to {len(args)} argument(s), arity is "
            f"{len(vector)}")
    out: list[EpsilonEntry] = []
    for leib, a in zip(vector, args):
        if leib or is_rigid(a, env):
            out.append(STAR)
        else:
            out.append(a)
    return tuple(out)


def format_table(table: LeibnizTable) -> str:
    """One line per defined operator: `d: L N ...`."""
    lines = []
    for op, vector in table.positions.items():
        marks = " ".join("L" if b else "N" for b in vector)
        lines.append(f"{op}: {marks}" if vector else f"{op}:")
    return "\n".join(lines)
