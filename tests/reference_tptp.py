"""A reader for the TPTP fof subset that `foml.emit.emit_tptp` prints,
written apart from `foml.emit`: it evaluates a problem in a first-order
structure, so a test can hold the TPTP text to the SMT text.

The subset is lines `fof(name, role, formula).`, the role `axiom` or
`conjecture`, and formulas built from `=`, `!=`, `=>`, `~`, `! [X, ...] :`
and `$false` over terms: upper-case variables, each bound by an enclosing
`!`, and applications `f(t, ...)` of lower-case functors, `f` alone when
it has no arguments.  Anything else fails an assertion.  A problem holds
in a structure when every axiom is true there and the conjecture is not.

The problem declares nothing, so each functor other than tt and ff is
named by its place in the order of first use: a functor before its
arguments, left to right, line by line.  That is the order in which the
SMT script of the same IR first uses its declared symbols
(`reference_smt.use_order`).  Formulas are read into the SMT reader's
form and evaluated by it, definitional symbols included.
"""
from __future__ import annotations

import re
from typing import Sequence

from foml.models import FOLStructure
from reference_smt import Sexpr, _Reading

_TOKEN = re.compile(r"\$false|!=|=>|[A-Za-z0-9_]+|[(),.:\[\]=~!]|\S")
_FUNCTOR = re.compile(r"[a-z][a-zA-Z0-9_]*")
_VARIABLE = re.compile(r"[A-Z][a-zA-Z0-9_]*")


class _Parser:
    def __init__(self, text: str):
        self.toks = _TOKEN.findall(text)
        self.at = 0
        # each functor other than tt and ff, in order of first use, with
        # the argument counts it is applied to
        self.uses: dict[str, set[int]] = {}

    def peek(self) -> str:
        return self.toks[self.at] if self.at < len(self.toks) else ""

    def take(self, want: str = "") -> str:
        tok = self.peek()
        assert tok and (not want or tok == want), \
            f"expected {want or 'a token'} at token {self.at}, not {tok!r}"
        self.at += 1
        return tok

    def problem(self) -> list[tuple[str, Sexpr]]:
        """(role, formula) of each line."""
        lines = []
        while self.peek():
            self.take("fof")
            self.take("(")
            self.take()
            self.take(",")
            role = self.take()
            assert role in ("axiom", "conjecture"), role
            self.take(",")
            lines.append((role, self.formula(frozenset())))
            self.take(")")
            self.take(".")
        return lines

    def formula(self, bound: frozenset) -> Sexpr:
        if self.peek() == "!":
            self.take()
            self.take("[")
            names = [self.take()]
            while self.peek() == ",":
                self.take()
                names.append(self.take())
            self.take("]")
            self.take(":")
            assert all(_VARIABLE.fullmatch(v) for v in names), names
            return ["forall", [[v, "U"] for v in names],
                    self.unit(bound | set(names))]
        if self.peek() in ("(", "~", "$false"):
            lhs = self.unit(bound)
            if self.peek() != "=>":
                return lhs
            self.take()
            return ["=>", lhs, self.unit(bound)]
        lhs = self.term(bound)
        op = self.take()
        assert op in ("=", "!="), op
        return ["=" if op == "=" else "distinct", lhs, self.term(bound)]

    def unit(self, bound: frozenset) -> Sexpr:
        tok = self.take()
        if tok == "(":
            f = self.formula(bound)
            self.take(")")
            return f
        if tok == "~":
            return ["not", self.unit(bound)]
        assert tok == "$false", tok
        return "false"

    def term(self, bound: frozenset) -> Sexpr:
        name = self.take()
        if name in bound:
            return name
        assert _FUNCTOR.fullmatch(name), f"unbound or misspelled: {name}"
        arities = self.uses.setdefault(name, set()) \
            if name not in ("tt", "ff") else {0}
        args = []
        if self.peek() == "(":
            self.take()
            args.append(self.term(bound))
            while self.peek() == ",":
                self.take()
                args.append(self.term(bound))
            self.take(")")
        arities.add(len(args))
        assert len(arities) == 1, f"{name} applied to {arities} arguments"
        return [name, *args] if args else name


def tptp_holds(text: str, s: FOLStructure, names: Sequence[str]) -> bool:
    """Whether every axiom of the problem `text` is true in s and its
    conjecture is not, where its functors other than tt and ff stand for
    `names` in order of first use."""
    parser = _Parser(text)
    lines = parser.problem()
    reading = _Reading(s, names)
    for name, (arity,) in parser.uses.items():
        reading.declare(name, arity)
    verdict = True
    for role, f in lines:
        if role == "conjecture":
            verdict = verdict and not reading.holds(f, {})
        elif not reading.defines(f):
            verdict = verdict and reading.holds(f, {})
    assert not reading.names and not reading.pending
    assert [role for role, _ in lines].count("conjecture") == 1
    return verdict
