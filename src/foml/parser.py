"""S-expression reader and problem-file parser.

Problem files are a flat sequence of forms:

    (declare-op name arity)
    (declare-rigid x)
    (declare-flex v)
    (define (d x1 .. xn) body)
    (assume expr)
    (goal expr)
    (mode fol|ml|action)

plus, for transition-system (safety) inputs:

    (init expr) (next expr) (invariant expr) (inductive-invariant expr)
    (vars v1 .. vn)

Expressions use the surface grammar documented in the README; derived
connectives (true, not, and, or, iff, exists, delta) are desugared on the
spot, so parsed ASTs contain only core nodes.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

from .syntax import (
    FALSE,
    DefApp,
    Definition,
    DefinitionEnvironment,
    Eq,
    Expression,
    FlexVar,
    FomlError,
    Forall,
    Implies,
    Nabla,
    Obligation,
    OpApp,
    Prime,
    RigidVar,
    and_,
    delta_,
    exists_,
    free_rigid_vars,
    iff_,
    not_,
    or_,
    true_,
)


class ProblemError(FomlError):
    """Parse or resolution error, with source position when available."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


# Reader nodes are named tuples: immutable and compared by value, and
# cheaper to build than frozen dataclasses, which set each field through
# object.__setattr__.

class SAtom(NamedTuple):
    text: str
    line: int
    col: int


class SList(NamedTuple):
    items: tuple["SNode", ...]
    line: int
    col: int


SNode = Union[SAtom, SList]


# One token per match: a parenthesis, an atom, a comment (skipped) or a
# newline (counted).  Other whitespace is stepped over by the scan itself.
# `\s` is the same set as `str.isspace`, and only "\n" ends a line.
_TOKEN = re.compile(r"[()]|[^\s();]+|;[^\n]*|\n")


def read_sexprs(text: str) -> list[SNode]:
    """Read all top-level s-expressions in text."""
    stack: list[tuple[list[SNode], int, int]] = []
    items: list[SNode] = []
    line, newline = 1, -1  # newline: offset of the last "\n" read
    for m in _TOKEN.finditer(text):
        tok = m.group()
        c = tok[0]
        if c == "\n":
            line += 1
            newline = m.start()
        elif c == "(":
            stack.append((items, line, m.start() - newline))
            items = []
        elif c == ")":
            if not stack:
                raise ProblemError("unmatched ')'", line, m.start() - newline)
            outer, oline, ocol = stack.pop()
            outer.append(SList(tuple(items), oline, ocol))
            items = outer
        elif c != ";":
            items.append(SAtom(tok, line, m.start() - newline))
    if stack:
        _, oline, ocol = stack[-1]
        raise ProblemError("unclosed '('", oline, ocol)
    return items


RESERVED = {
    "declare-op", "declare-rigid", "declare-flex", "define", "assume",
    "goal", "mode", "init", "next", "invariant", "inductive-invariant",
    "vars", "=", "=>", "not", "and", "or", "iff", "forall", "exists",
    "nabla", "delta", "prime", "false", "true", "model", "mlseq",
}


def expect_atom(node: SNode, what: str) -> SAtom:
    if not isinstance(node, SAtom):
        raise ProblemError(f"expected {what}", node.line, node.col)
    return node


def expect_list(node: SNode, what: str) -> SList:
    if not isinstance(node, SList):
        raise ProblemError(f"expected {what}", node.line, node.col)
    return node


def form_head(node: SNode) -> Optional[str]:
    """The head symbol of a (head ...) form, or None for any other node."""
    if isinstance(node, SList) and node.items \
            and isinstance(node.items[0], SAtom):
        return node.items[0].text
    return None


def _check_name(tok: SAtom, what: str) -> str:
    if tok.text in RESERVED:
        raise ProblemError(
            f"{tok.text!r} is reserved and cannot be used as {what}",
            tok.line, tok.col,
        )
    return tok.text


# Connectives that take their arguments as plain subexpressions: the
# argument count (None: any number) and the constructor.
CONNECTIVES: dict[str, tuple[Optional[int], Callable[..., Expression]]] = {
    "=": (2, Eq),
    "=>": (2, Implies),
    "not": (1, not_),
    "iff": (2, iff_),
    "and": (None, and_),
    "or": (None, or_),
    "nabla": (1, Nabla),
    "delta": (1, delta_),
}


def parse_expression(
    node: SNode,
    env: DefinitionEnvironment,
    bound: tuple[str, ...] = (),
    in_prime: bool = False,
) -> Expression:
    """Parse one expression form, resolving names against env.

    `bound` holds rigid variables bound by enclosing binders (quantifiers or
    definition parameters); they shadow global declarations.
    """
    if isinstance(node, SAtom):
        name = node.text
        if name == "false":
            return FALSE
        if name == "true":
            return true_()
        if name in bound or name in env.rigid_vars:
            return RigidVar(name)
        if name in env.flex_vars:
            return FlexVar(name)
        kind = env.kind(name)
        if kind == "op":
            if env.ops[name] != 0:
                raise ProblemError(
                    f"operator {name!r} has arity {env.ops[name]}, "
                    "bare use needs arity 0", node.line, node.col)
            return OpApp(name, ())
        if kind == "def":
            if env.arity(name) != 0:
                raise ProblemError(
                    f"defined operator {name!r} has arity "
                    f"{env.arity(name)}, bare use needs arity 0",
                    node.line, node.col)
            return DefApp(name, ())
        raise ProblemError(f"unknown symbol {name!r}", node.line, node.col)

    if not node.items:
        raise ProblemError("empty expression", node.line, node.col)
    head = node.items[0]
    rest = node.items[1:]
    if isinstance(head, SList):
        raise ProblemError(
            "expression head must be a symbol", head.line, head.col)
    h = head.text

    def sub(n: SNode, prime: bool = in_prime) -> Expression:
        return parse_expression(n, env, bound, prime)

    def need(k: int, form: str) -> None:
        if len(rest) != k:
            raise ProblemError(
                f"({form} ...) takes {k} argument(s), got {len(rest)}",
                node.line, node.col)

    connective = CONNECTIVES.get(h)
    if connective is not None:
        count, make = connective
        if count is not None:
            need(count, h)
        return make(*(sub(n) for n in rest))
    if h in ("forall", "exists"):
        need(2, h)
        var_tok = expect_atom(rest[0], f"a variable name after {h}")
        var = _check_name(var_tok, "a bound variable")
        if env.kind(var) in ("flex",):
            raise ProblemError(
                f"cannot quantify over flexible variable {var!r}",
                var_tok.line, var_tok.col)
        body = parse_expression(rest[1], env, (var,) + bound, in_prime)
        return Forall(var, body) if h == "forall" else exists_(var, body)
    if h == "prime":
        need(1, "prime")
        if in_prime:
            raise ProblemError(
                "prime cannot be nested", node.line, node.col)
        return Prime(sub(rest[0], prime=True))
    if h in ("false", "true"):
        raise ProblemError(
            f"{h} takes no arguments", node.line, node.col)

    kind = env.kind(h)
    if kind in ("op", "def"):
        arity = env.arity(h)
        if len(rest) != arity:
            raise ProblemError(
                f"operator {h!r} has arity {arity}, got {len(rest)} "
                "argument(s)", node.line, node.col)
        args = tuple(sub(n) for n in rest)
        return OpApp(h, args) if kind == "op" else DefApp(h, args)
    if kind in ("rigid", "flex") or h in bound:
        raise ProblemError(
            f"variable {h!r} cannot be applied to arguments",
            node.line, node.col)
    raise ProblemError(f"unknown symbol {h!r}", head.line, head.col)


@dataclass
class ProblemFile:
    """Every form of a problem file, before interpretation as an obligation
    or as a transition-system description."""

    env: DefinitionEnvironment
    assumes: tuple[Expression, ...] = ()
    goal: Optional[Expression] = None
    mode: str = "fol"
    init: Optional[Expression] = None
    next: Optional[Expression] = None
    invariant: Optional[Expression] = None
    inductive_invariant: Optional[Expression] = None
    vars: Optional[tuple[str, ...]] = None

    def obligation(self) -> Obligation:
        """The file as an obligation.  Requires a (goal ...)."""
        if self.goal is None:
            raise ProblemError("problem file has no (goal ...) form")
        return Obligation(hypotheses=self.assumes, goal=self.goal,
                          env=self.env, mode=self.mode)


def parse_file(text: str) -> ProblemFile:
    return parse_forms(read_sexprs(text))


def parse_forms(forms: list[SNode]) -> ProblemFile:
    """Interpret the forms of a problem file, as read by read_sexprs."""
    ops: dict[str, int] = {}
    rigid: list[str] = []
    flex: list[str] = []
    defs: list[Definition] = []
    assumes: list[Expression] = []
    single: dict[str, Expression] = {}
    mode: Optional[str] = None
    vars_: Optional[tuple[str, ...]] = None

    def env_now() -> DefinitionEnvironment:
        return DefinitionEnvironment(
            ops=dict(ops), rigid_vars=tuple(rigid),
            flex_vars=tuple(flex), definitions=tuple(defs))

    def declare(tok: SAtom, what: str) -> str:
        name = _check_name(tok, what)
        if env_now().kind(name) is not None:
            raise ProblemError(
                f"{name!r} is already declared", tok.line, tok.col)
        return name

    for form in forms:
        if isinstance(form, SAtom):
            raise ProblemError(
                f"expected a (...) form, got {form.text!r}",
                form.line, form.col)
        head = form_head(form)
        if head is None:
            raise ProblemError("malformed form", form.line, form.col)
        args = form.items[1:]

        if head == "declare-op":
            if len(args) != 2:
                raise ProblemError("(declare-op name arity)",
                                   form.line, form.col)
            name = declare(expect_atom(args[0], "an operator name"),
                           "an operator name")
            arity_tok = expect_atom(args[1], "an arity")
            try:
                arity = int(arity_tok.text)
            except ValueError:
                arity = -1
            if arity < 0:
                raise ProblemError(
                    f"bad arity {arity_tok.text!r}",
                    arity_tok.line, arity_tok.col)
            ops[name] = arity
        elif head == "declare-rigid":
            if len(args) != 1:
                raise ProblemError("(declare-rigid x)", form.line, form.col)
            rigid.append(declare(expect_atom(args[0], "a variable name"),
                                 "a rigid variable"))
        elif head == "declare-flex":
            if len(args) != 1:
                raise ProblemError("(declare-flex v)", form.line, form.col)
            flex.append(declare(expect_atom(args[0], "a variable name"),
                                "a flexible variable"))
        elif head == "define":
            if len(args) != 2 or not isinstance(args[0], SList):
                raise ProblemError("(define (d x1 .. xn) body)",
                                   form.line, form.col)
            header = args[0]
            if not header.items:
                raise ProblemError("empty definition header",
                                   header.line, header.col)
            name = declare(expect_atom(header.items[0], "an operator name"),
                           "a defined operator")
            params = []
            for p in header.items[1:]:
                pname = _check_name(expect_atom(p, "a parameter name"),
                                    "a parameter")
                if pname in params:
                    raise ProblemError(
                        f"repeated parameter {pname!r}", p.line, p.col)
                params.append(pname)
            body = parse_expression(args[1], env_now(), tuple(params))
            stray = [x for x in free_rigid_vars(body) if x not in params]
            if stray:
                raise ProblemError(
                    f"definition body has free rigid variables not among "
                    f"its parameters: {', '.join(stray)}",
                    form.line, form.col)
            defs.append(Definition(name, tuple(params), body))
        elif head == "assume":
            if len(args) != 1:
                raise ProblemError("(assume expr)", form.line, form.col)
            assumes.append(parse_expression(args[0], env_now()))
        elif head in ("goal", "init", "next", "invariant",
                      "inductive-invariant"):
            if len(args) != 1:
                raise ProblemError(f"({head} expr)", form.line, form.col)
            if head in single:
                raise ProblemError(f"duplicate ({head} ...) form",
                                   form.line, form.col)
            single[head] = parse_expression(args[0], env_now())
        elif head == "mode":
            if len(args) != 1 or not isinstance(args[0], SAtom):
                raise ProblemError("(mode fol|ml|action)",
                                   form.line, form.col)
            if args[0].text not in ("fol", "ml", "action"):
                raise ProblemError(f"unknown mode {args[0].text!r}",
                                   args[0].line, args[0].col)
            if mode is not None:
                raise ProblemError("duplicate (mode ...) form",
                                   form.line, form.col)
            mode = args[0].text
        elif head == "vars":
            if vars_ is not None:
                raise ProblemError("duplicate (vars ...) form",
                                   form.line, form.col)
            names = []
            for a in args:
                tok = expect_atom(a, "a flexible variable name")
                if tok.text not in flex:
                    raise ProblemError(
                        f"{tok.text!r} is not a declared flexible variable",
                        tok.line, tok.col)
                names.append(tok.text)
            vars_ = tuple(names)
        else:
            raise ProblemError(f"unknown form {head!r}",
                               form.line, form.col)

    return ProblemFile(
        env=env_now(),
        assumes=tuple(assumes),
        goal=single.get("goal"),
        mode=mode or "fol",
        init=single.get("init"),
        next=single.get("next"),
        invariant=single.get("invariant"),
        inductive_invariant=single.get("inductive-invariant"),
        vars=vars_,
    )


def parse_problem(text: str) -> Obligation:
    """Parse a problem file into an obligation.  Requires a (goal ...)."""
    return parse_file(text).obligation()


def parse_expr(text: str, env: DefinitionEnvironment) -> Expression:
    """Parse a single expression (convenience entry point for tests)."""
    nodes = read_sexprs(text)
    if len(nodes) != 1:
        raise ProblemError("expected exactly one expression")
    return parse_expression(nodes[0], env)
