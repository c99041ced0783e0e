"""Finite models: Kripke models, first-order structures, and the
s-expression model-file format.

Universe elements and states are plain atoms (ints or strings).  The
interpretation of the modality is not stored: it is fixed by its defining
condition (a set of values maps to tt iff it is included in {tt}).

A propositional model is a Kripke model over the universe {tt, ff}
(`KripkeModel.propositional`), printed and parsed as any other.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Optional, Union

from .parser import (
    ProblemError,
    SNode,
    expect_atom,
    expect_list,
    read_sexprs,
)
from .syntax import FomlError

Value = Union[int, str]


def _value(node: SNode, what: str) -> Value:
    text = expect_atom(node, what).text
    try:
        return int(text)
    except ValueError:
        return text


def _fmt(v: Value) -> str:
    return str(v)


@lru_cache(maxsize=1024)
def _successor_table(relation: frozenset) -> dict[Value, tuple[Value, ...]]:
    """Each state's successors under relation, in a fixed order (the pairs
    sorted by their text).  One table per relation, shared by every model
    that has it, so a sweep that runs the point evaluator over many models
    (`enumerate_models` in the tests, `fuzz`) sorts each relation once per
    process rather than once per model; every relation on at most three
    states fits in the bound.  The evaluator's closures read it directly."""
    lists: dict[Value, list[Value]] = {}
    for (s, t) in sorted(relation, key=str):
        lists.setdefault(s, []).append(t)
    return {s: tuple(ts) for s, ts in lists.items()}


@dataclass(frozen=True, eq=True)
class KripkeModel:
    universe: tuple[Value, ...]
    tt: Value
    ff: Value
    op_interp: Mapping[str, Mapping[tuple[Value, ...], Value]]
    xi: Mapping[str, Value]
    states: tuple[Value, ...]
    R: frozenset[tuple[Value, Value]]
    zeta: Mapping[tuple[str, Value], Value]
    primeR: Optional[frozenset[tuple[Value, Value]]] = None

    @staticmethod
    def propositional(states, R, zeta, primeR=None) -> KripkeModel:
        """A propositional model: the universe is {tt, ff}, there are no
        operators or rigid values, and zeta gives each atom a truth value
        at each state."""
        return KripkeModel(universe=("tt", "ff"), tt="tt", ff="ff",
                           op_interp={}, xi={}, states=states, R=R,
                           zeta=zeta, primeR=primeR)

    def validate(self) -> None:
        if self.tt == self.ff:
            raise FomlError("tt and ff must be distinct")
        if self.tt not in self.universe or self.ff not in self.universe:
            raise FomlError("tt and ff must belong to the universe")
        if not self.states:
            raise FomlError("a model needs at least one state")
        # a repeated value would count twice in every loop over the section
        for section, values in (("universe", self.universe),
                                ("states", self.states)):
            seen: set[Value] = set()
            for v in values:
                if v in seen:
                    raise FomlError(f"({section} ...) lists {_fmt(v)} twice")
                seen.add(v)
        udom = set(self.universe)
        for op, table in self.op_interp.items():
            arities = {len(k) for k in table} or {0}
            if len(arities) != 1:
                raise FomlError(f"mixed arities in table for {op!r}")
            (n,) = arities
            if len(table) != len(self.universe) ** n:
                raise FomlError(f"table for {op!r} is not total")
            for args, val in table.items():
                if val not in udom or any(a not in udom for a in args):
                    raise FomlError(f"table for {op!r} leaves the universe")
        sdom = set(self.states)
        for section, named in (
                ("R", {w for pair in self.R for w in pair}),
                ("primeR", {w for pair in self.primeR or () for w in pair}),
                ("zeta", {w for (_, w) in self.zeta})):
            stray = sorted(named - sdom, key=str)
            if stray:
                raise FomlError(
                    f"{section} names undeclared state {stray[0]!r}")
        for x, val in self.xi.items():
            if val not in udom:
                raise FomlError(f"xi gives {x} the value {_fmt(val)}, "
                                "outside the universe")
        for (v, w), val in self.zeta.items():
            if val not in udom:
                raise FomlError(f"zeta gives {v} at state {_fmt(w)} the "
                                f"value {_fmt(val)}, outside the universe")

    def successors(self, w: Value,
                   relation: frozenset) -> tuple[Value, ...]:
        """States t with (w, t) in relation, in the fixed order of
        `_successor_table`.  Models are immutable, so the table of a
        relation serves every model built on it."""
        return _successor_table(relation).get(w, ())

    @cached_property
    def prime_is_function(self) -> bool:
        """True iff primeR is a total function on states (TLA next-state
        reading, under which term-level prime is evaluated directly)."""
        if self.primeR is None:
            return False
        counts = {w: 0 for w in self.states}
        for (s, _) in self.primeR:
            counts[s] += 1
        return all(c == 1 for c in counts.values())

    def prime_successor(self, w: Value) -> Value:
        for t in self.successors(w, self.primeR):
            return t
        raise FomlError(f"state {w!r} has no prime successor")


@dataclass(frozen=True, eq=True)
class FOLStructure:
    """First-order structure over the extended variable set: xi values both
    rigid and flexible variable names."""

    universe: tuple[Value, ...]
    tt: Value
    ff: Value
    op_interp: Mapping[str, Mapping[tuple[Value, ...], Value]]
    xi: Mapping[str, Value]


def serialize_model(m: KripkeModel) -> str:
    parts = [f"(universe {' '.join(_fmt(v) for v in m.universe)})",
             f"(tt {_fmt(m.tt)})",
             f"(ff {_fmt(m.ff)})"]
    for op, table in m.op_interp.items():
        rows = " ".join(
            f"(row {' '.join(_fmt(a) for a in args)}"
            f"{' ' if args else ''}{_fmt(val)})"
            for args, val in sorted(table.items(), key=lambda kv: str(kv[0]))
        )
        parts.append(f"(op {op} {rows})")
    if m.xi:
        rows = " ".join(f"({x} {_fmt(v)})" for x, v in sorted(m.xi.items()))
        parts.append(f"(xi {rows})")
    parts.append(f"(states {' '.join(_fmt(s) for s in m.states)})")
    rel = " ".join(f"({_fmt(s)} {_fmt(t)})"
                   for s, t in sorted(m.R, key=str))
    parts.append(f"(R {rel})" if rel else "(R)")
    if m.zeta:
        rows = " ".join(
            f"({v} {_fmt(w)} {_fmt(val)})"
            for (v, w), val in sorted(m.zeta.items(), key=lambda kv: str(kv))
        )
        parts.append(f"(zeta {rows})")
    if m.primeR is not None:
        rel = " ".join(f"({_fmt(s)} {_fmt(t)})"
                       for s, t in sorted(m.primeR, key=str))
        parts.append(f"(primeR {rel})" if rel else "(primeR)")
    body = "\n  ".join(parts)
    return f"(model\n  {body})\n"


def parse_model(text: str) -> KripkeModel:
    nodes = read_sexprs(text)
    if len(nodes) != 1:
        raise ProblemError("model file must contain exactly one (model ...)")
    top = expect_list(nodes[0], "(model ...)")
    if not top.items or expect_atom(top.items[0], "model").text != "model":
        raise ProblemError("model file must start with (model ...)",
                           top.line, top.col)

    universe: tuple[Value, ...] = ()
    truth: dict[str, Value] = {}  # "tt" and "ff"
    ops: dict[str, dict[tuple[Value, ...], Value]] = {}
    xi: dict[str, Value] = {}
    states: tuple[Value, ...] = ()
    relations: dict[str, frozenset] = {}  # "R" and "primeR"
    zeta: dict[tuple[str, Value], Value] = {}

    def pairs(items) -> frozenset:
        rel = set()
        for it in items:
            lst = expect_list(it, "a state pair")
            if len(lst.items) != 2:
                raise ProblemError("state pair needs two states",
                                   lst.line, lst.col)
            rel.add((_value(lst.items[0], "a state"),
                     _value(lst.items[1], "a state")))
        return frozenset(rel)

    def put(table: dict, key, value, section: str, row: str,
            node: SNode) -> None:
        # a repeated key must not silently replace the first
        if key in table:
            raise ProblemError(f"duplicate ({section} ({row} ...)) row",
                               node.line, node.col)
        table[key] = value

    seen: set[str] = set()
    for section in top.items[1:]:
        lst = expect_list(section, "a model section")
        if not lst.items:
            raise ProblemError("empty model section", lst.line, lst.col)
        head = expect_atom(lst.items[0], "a section name").text
        body = lst.items[1:]
        key = head
        if head == "universe":
            universe = tuple(_value(n, "a value") for n in body)
        elif head in ("tt", "ff"):
            if len(body) != 1:
                raise ProblemError(f"({head} value)", lst.line, lst.col)
            truth[head] = _value(body[0], "a value")
        elif head == "op":
            if not body:
                raise ProblemError("(op name (row args.. value) ...)",
                                   lst.line, lst.col)
            name = expect_atom(body[0], "an operator name").text
            key = f"op {name}"
            table: dict[tuple[Value, ...], Value] = {}
            for row in body[1:]:
                r = expect_list(row, "(row args.. value)")
                if not r.items or expect_atom(r.items[0], "row").text != "row":
                    raise ProblemError("expected (row ...)", r.line, r.col)
                vals = [_value(n, "a value") for n in r.items[1:]]
                if not vals:
                    raise ProblemError("row needs a value", r.line, r.col)
                args = tuple(vals[:-1])
                put(table, args, vals[-1], key,
                    " ".join(["row", *map(_fmt, args)]), r)
            ops[name] = table
        elif head == "xi":
            for row in body:
                r = expect_list(row, "(x value)")
                if len(r.items) != 2:
                    raise ProblemError("(xi (x value) ...)", r.line, r.col)
                x = expect_atom(r.items[0], "a variable").text
                put(xi, x, _value(r.items[1], "a value"), head, x, r)
        elif head == "states":
            states = tuple(_value(n, "a state") for n in body)
        elif head in ("R", "primeR"):
            relations[head] = pairs(body)
        elif head == "zeta":
            for row in body:
                r = expect_list(row, "(v state value)")
                if len(r.items) != 3:
                    raise ProblemError("(zeta (v state value) ...)",
                                       r.line, r.col)
                v = expect_atom(r.items[0], "a flexible variable").text
                w = _value(r.items[1], "a state")
                val = _value(r.items[2], "a value")
                put(zeta, (v, w), val, head, f"{v} {_fmt(w)}", r)
        else:
            raise ProblemError(f"unknown model section {head!r}",
                               lst.line, lst.col)
        if key in seen:
            raise ProblemError(f"duplicate ({key} ...) section",
                               lst.line, lst.col)
        seen.add(key)

    if len(truth) != 2 or not universe or not states or "R" not in relations:
        raise ProblemError(
            "model file needs universe, tt, ff, states and R sections")
    m = KripkeModel(universe=universe, tt=truth["tt"], ff=truth["ff"],
                    op_interp=ops, xi=xi, states=states, R=relations["R"],
                    zeta=zeta, primeR=relations.get("primeR"))
    m.validate()
    return m


def kripke_as_propmodel(m: KripkeModel) -> KripkeModel:
    """The identity: a propositional model is a Kripke model."""
    return m
