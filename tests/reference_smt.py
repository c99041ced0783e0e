"""A reader for the SMT-LIB subset that `foml.emit.emit_smt` prints,
written apart from `foml.emit`: it evaluates a script in a first-order
structure, so a test can hold the text to what the IR says.

The script declares the sort U, the constants tt and ff, one function per
operator of the IR and one constant per free variable, in the IR's order
(`ir.ops`, then `ir.consts`).  A symbol the structure does not interpret
is a definitional one.  Its table is read off its first axiom,
`(forall (...) (=> body (= (q ...) tt)))`: tt where the body holds, ff
elsewhere.  Every assertion is then evaluated as written, the second axiom
of each definitional symbol included.
"""
from __future__ import annotations

import re
from itertools import product
from typing import Sequence, Union

from foml.models import FOLStructure

Sexpr = Union[str, list]


def _read(text: str) -> list[Sexpr]:
    """The top-level forms of text."""
    stack: list[list] = [[]]
    for tok in re.findall(r"[()]|[^\s()]+", text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    assert len(stack) == 1, "unbalanced parentheses"
    return stack[0]


class _Reading:
    def __init__(self, s: FOLStructure, names: Sequence[str]):
        self.s = s
        self.names = list(names)
        self.consts = {"tt": s.tt, "ff": s.ff}
        self.funcs: dict[str, dict] = {}
        self.pending: set[str] = set()  # definitional, table not yet read

    def declare(self, name: str, arity: int) -> None:
        source = self.names.pop(0)
        if arity == 0 and source in self.s.xi:
            self.consts[name] = self.s.xi[source]
        elif source in self.s.op_interp:
            self.funcs[name] = self.s.op_interp[source]
        else:
            self.pending.add(name)

    def term(self, t: Sexpr, env: dict):
        if isinstance(t, str):
            if t in env:
                return env[t]
            if t in self.consts:
                return self.consts[t]
            return self.funcs[t][()]
        return self.funcs[t[0]][tuple(self.term(a, env) for a in t[1:])]

    def holds(self, f: Sexpr, env: dict) -> bool:
        if f == "false":
            return False
        head = f[0]
        if head == "=>":
            return not self.holds(f[1], env) or self.holds(f[2], env)
        if head == "not":
            return not self.holds(f[1], env)
        if head == "=":
            return self.term(f[1], env) == self.term(f[2], env)
        if head == "distinct":
            return self.term(f[1], env) != self.term(f[2], env)
        if head == "forall":
            names = [v for v, sort in f[1]]
            return all(self.holds(f[2], {**env, **dict(zip(names, row))})
                       for row in product(self.s.universe,
                                          repeat=len(names)))
        raise AssertionError(f"not in the subset: {f}")

    def defines(self, f: Sexpr) -> bool:
        """Read a pending symbol's table off f if f is its first axiom."""
        body = f[2] if f[0] == "forall" else f
        if (isinstance(body, str) or body[0] != "=>"
                or body[2][0] != "=" or body[2][2] != "tt"):
            return False
        app = body[2][1]
        name, params = (app, []) if isinstance(app, str) else (app[0],
                                                               app[1:])
        if name not in self.pending:
            return False
        self.pending.discard(name)
        self.funcs[name] = {
            row: self.s.tt if self.holds(body[1], dict(zip(params, row)))
            else self.s.ff
            for row in product(self.s.universe, repeat=len(params))}
        return True


def smt_holds(text: str, s: FOLStructure, names: Sequence[str]) -> bool:
    """Whether every assertion of the script `text` is true in s, where
    the declared symbols after tt and ff stand for `names` in order."""
    reading = _Reading(s, names)
    verdict = True
    for form in _read(text):
        head = form[0]
        if head == "declare-fun":
            reading.declare(form[1], len(form[2]))
        elif head == "declare-const" and form[1] not in ("tt", "ff"):
            reading.declare(form[1], 0)
        elif head == "assert" and not reading.defines(form[1]):
            verdict = verdict and reading.holds(form[1], {})
    assert not reading.names and not reading.pending
    return verdict


def use_order(text: str, names: Sequence[str]) -> list[str]:
    """The names the declared symbols after tt and ff stand for (`names`,
    in order of declaration), in the order the assertions first use them:
    a function symbol before its arguments, left to right."""
    declared: dict[str, str] = {}
    order: dict[str, None] = {}

    def term(t: Sexpr, bound: frozenset) -> None:
        head = t if isinstance(t, str) else t[0]
        if head in declared and head not in bound:
            order.setdefault(declared[head])
        for a in [] if isinstance(t, str) else t[1:]:
            term(a, bound)

    def formula(f: Sexpr, bound: frozenset) -> None:
        if f == "false":
            return
        if f[0] == "forall":
            formula(f[2], bound | {v for v, _ in f[1]})
        elif f[0] in ("=>", "not"):
            for g in f[1:]:
                formula(g, bound)
        else:
            for t in f[1:]:
                term(t, bound)

    rest = iter(names)
    for form in _read(text):
        if form[0] == "declare-fun" or (form[0] == "declare-const"
                                        and form[1] not in ("tt", "ff")):
            declared[form[1]] = next(rest)
        elif form[0] == "assert":
            formula(form[1], frozenset())
    return list(order)
