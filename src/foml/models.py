"""Finite models: Kripke models, first-order structures, and the
s-expression model-file format, read in the one token pass of
`foml.parser` (positions are computed only for an error) and by its one
error rule: read once; on an error, read again with every list's item
count and raise the first error met (an unbalanced parenthesis, then a
second top-level form, then the first error of the one model form).

Universe elements and states are plain atoms (ints or strings).  The
interpretation of the modality is not stored: it is fixed by its defining
condition (a set of values maps to tt iff it is included in {tt}).

A propositional model is a Kripke model over the universe {tt, ff}
(`KripkeModel.propositional`), printed and parsed as any other.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Mapping, Optional, Union

from .parser import ProblemError, _Counts, _error, _items, _reading, _tokens
from .syntax import FomlError, Record

Value = Union[int, str]


@lru_cache(maxsize=1024)
def _successor_table(relation: frozenset) -> dict[Value, tuple[Value, ...]]:
    """Each state's successors under relation, in a fixed order (the pairs
    sorted by their text).  One table per relation, shared by every model
    that has it, so a sweep that runs the point evaluator over many models
    (`enumerate_models` in the tests, `fuzz`) sorts each relation once per
    process rather than once per model; every relation on at most three
    states fits in the bound.  The point interpreter reads it directly."""
    lists: dict[Value, list[Value]] = {}
    for (s, t) in sorted(relation, key=str):
        lists.setdefault(s, []).append(t)
    return {s: tuple(ts) for s, ts in lists.items()}


# A dataclass: tests/test_{cli,search,semantics}.py `dataclasses.replace` it.
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
                    raise FomlError(f"({section} ...) lists {v} twice")
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
                raise FomlError(f"xi gives {x} the value {val}, "
                                "outside the universe")
        for (v, w), val in self.zeta.items():
            if val not in udom:
                raise FomlError(f"zeta gives {v} at state {w} the "
                                f"value {val}, outside the universe")

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
        for t in _successor_table(self.primeR).get(w, ()):
            return t
        raise FomlError(f"state {w!r} has no prime successor")


class FOLStructure(Record):
    """First-order structure over the extended variable set: xi values both
    rigid and flexible variable names."""

    __slots__ = __match_args__ = ("universe", "tt", "ff", "op_interp", "xi")

    def __init__(self, universe: tuple[Value, ...], tt: Value, ff: Value,
                 op_interp: Mapping[str, Mapping[tuple[Value, ...], Value]],
                 xi: Mapping[str, Value]) -> None:
        self.universe = universe
        self.tt = tt
        self.ff = ff
        self.op_interp = op_interp
        self.xi = xi


def serialize_model(m: KripkeModel) -> str:
    parts = [f"(universe {' '.join(str(v) for v in m.universe)})",
             f"(tt {m.tt})",
             f"(ff {m.ff})"]
    for op, table in m.op_interp.items():
        rows = " ".join(
            f"(row {' '.join(str(a) for a in args)}"
            f"{' ' if args else ''}{val})"
            for args, val in sorted(table.items(), key=lambda kv: str(kv[0]))
        )
        parts.append(f"(op {op} {rows})")
    if m.xi:
        rows = " ".join(f"({x} {v})" for x, v in sorted(m.xi.items()))
        parts.append(f"(xi {rows})")
    parts.append(f"(states {' '.join(str(s) for s in m.states)})")
    rel = " ".join(f"({s} {t})"
                   for s, t in sorted(m.R, key=str))
    parts.append(f"(R {rel})" if rel else "(R)")
    if m.zeta:
        rows = " ".join(
            f"({v} {w} {val})"
            for (v, w), val in sorted(m.zeta.items(), key=lambda kv: str(kv))
        )
        parts.append(f"(zeta {rows})")
    if m.primeR is not None:
        rel = " ".join(f"({s} {t})"
                       for s, t in sorted(m.primeR, key=str))
        parts.append(f"(primeR {rel})" if rel else "(primeR)")
    body = "\n  ".join(parts)
    return f"(model\n  {body})\n"


def parse_model(text: str) -> KripkeModel:
    """The model of a model file, read by the parser's one error rule."""
    toks = _tokens(text)
    return _reading(partial(_model, toks), text, toks)


def _model(toks: list[str], text: Optional[str],
           counts: _Counts) -> KripkeModel:
    """The model whose tokens are toks; a node is the index of its first
    token."""
    message = "model file must contain exactly one (model ...)"
    if counts is not None and counts[-1] != 1:
        raise ProblemError(message)

    def atom(k: int, what: str) -> str:
        if toks[k] == "(":
            raise _error(text, f"expected {what}", k)
        return toks[k]

    def items(k: int, what: str) -> list[int]:
        if toks[k] != "(":
            raise _error(text, f"expected {what}", k)
        return _items(toks, k)[0]

    def value(k: int, what: str) -> Value:
        # An int only where it prints back as the same text, so that the
        # model round-trips: 01, +0, 1_0 and non-ASCII digits stay atoms.
        v = atom(k, what)
        try:
            n = int(v)
        except ValueError:
            return v
        return n if str(n) == v else v

    if toks[0] != "(":
        raise _error(text, "expected (model ...)", 0)
    top, after = _items(toks, 0)
    if after != len(toks):
        # another top-level form or a stray ")": the checked read says which
        raise ProblemError(message)
    if not top or atom(top[0], "model") != "model":
        raise _error(text, "model file must start with (model ...)", 0)

    universe: tuple[Value, ...] = ()
    truth: dict[str, Value] = {}  # "tt" and "ff"
    ops: dict[str, dict[tuple[Value, ...], Value]] = {}
    xi: dict[str, Value] = {}
    states: tuple[Value, ...] = ()
    relations: dict[str, frozenset] = {}  # "R" and "primeR"
    zeta: dict[tuple[str, Value], Value] = {}

    def pairs(body: list[int]) -> frozenset:
        rel = set()
        for k in body:
            pair = items(k, "a state pair")
            if len(pair) != 2:
                raise _error(text, "state pair needs two states", k)
            rel.add((value(pair[0], "a state"), value(pair[1], "a state")))
        return frozenset(rel)

    def put(table: dict, key, val, section: str, row: str, k: int) -> None:
        # a repeated key must not silently replace the first
        if key in table:
            raise _error(text, f"duplicate ({section} ({row} ...)) row", k)
        table[key] = val

    seen: set[str] = set()
    for k in top[1:]:
        section = items(k, "a model section")
        if not section:
            raise _error(text, "empty model section", k)
        head = atom(section[0], "a section name")
        body = section[1:]
        key = head
        if head == "universe":
            universe = tuple(value(n, "a value") for n in body)
        elif head in ("tt", "ff"):
            if len(body) != 1:
                raise _error(text, f"({head} value)", k)
            truth[head] = value(body[0], "a value")
        elif head == "op":
            if not body:
                raise _error(text, "(op name (row args.. value) ...)", k)
            name = atom(body[0], "an operator name")
            key = f"op {name}"
            table: dict[tuple[Value, ...], Value] = {}
            for r in body[1:]:
                row = items(r, "(row args.. value)")
                if not row or atom(row[0], "row") != "row":
                    raise _error(text, "expected (row ...)", r)
                vals = [value(n, "a value") for n in row[1:]]
                if not vals:
                    raise _error(text, "row needs a value", r)
                args = tuple(vals[:-1])
                put(table, args, vals[-1], key,
                    " ".join(["row", *map(str, args)]), r)
            ops[name] = table
        elif head == "xi":
            for r in body:
                row = items(r, "(x value)")
                if len(row) != 2:
                    raise _error(text, "(xi (x value) ...)", r)
                x = atom(row[0], "a variable")
                put(xi, x, value(row[1], "a value"), head, x, r)
        elif head == "states":
            states = tuple(value(n, "a state") for n in body)
        elif head in ("R", "primeR"):
            relations[head] = pairs(body)
        elif head == "zeta":
            for r in body:
                row = items(r, "(v state value)")
                if len(row) != 3:
                    raise _error(text, "(zeta (v state value) ...)", r)
                v = atom(row[0], "a flexible variable")
                w = value(row[1], "a state")
                val = value(row[2], "a value")
                put(zeta, (v, w), val, head, f"{v} {w}", r)
        else:
            raise _error(text, f"unknown model section {head!r}", k)
        if key in seen:
            raise _error(text, f"duplicate ({key} ...) section", k)
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
