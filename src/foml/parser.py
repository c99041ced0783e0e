"""Problem-file parser, and the token reader every input format shares.

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

Every input text (problem files, `parse_expr` text, mlseq sequents in
`foml.emit` and model files in `foml.models`) is read in one token pass:
the text, comments dropped, is split into a flat list of parentheses and
atoms by `str.replace` and `str.split`, and the parser builds its result
straight from that list.  Expressions are built with an explicit stack,
so nesting depth costs no Python recursion.  Tokens carry no position: a
line and a column are computed only for the error an input reports, by
finding each token in turn with `str.find` up to the offending one.

The first error of an input is the one reported: an unbalanced
parenthesis anywhere comes first, and a form's argument count is checked
before its arguments are read.  Every reader keeps that order by one rule
(`_reading`): read once; on an error, read again with every list's item
count and raise the first error met.  Valid input is read once, with no
count checks.  The first read places no error; on the second read each
form checks its count where it opens, so the first error raised is the
input's first, and it is the one error placed.
"""
from __future__ import annotations

import re
from functools import partial
from typing import Callable, Optional

from .syntax import (
    FALSE,
    TRUE,
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
    Record,
    RigidVar,
    and_,
    delta_,
    exists_,
    free_rigid_vars,
    iff_,
    not_,
    or_,
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


# Only "\n" ends a line.  A comment runs from ";" to the end of its line,
# so dropping comments moves no token to another line or column, and no
# ";" is left after it.
_COMMENT = re.compile(r";[^\n]*")


def _uncommented(text: str) -> str:
    return _COMMENT.sub("", text) if ";" in text else text


def _tokens(text: str) -> list[str]:
    """The parentheses and atoms of text, in order, comments dropped:
    one C-level pass that spaces out the parentheses and splits at the
    characters `str.isspace` accepts."""
    return _uncommented(text).replace("(", " ( ").replace(")", " ) ").split()


def _position(text: str, k: int) -> tuple[int, int]:
    """Line and column, both counted from 1, of the k-th token of text.
    Only whitespace lies between two tokens, so each token is the first
    match of its text after the one before it."""
    text = _uncommented(text)
    start = end = 0
    for tok in _tokens(text)[:k + 1]:
        start = text.find(tok, end)
        end = start + len(tok)
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


def _error(text: Optional[str], message: str, at: int) -> ProblemError:
    """A ProblemError at the token with index `at` of text; with no text
    (a read that only tells valid input from invalid), one without a
    position."""
    if text is None:
        return ProblemError(message)
    return ProblemError(message, *_position(text, at))


def _check_parens(text: str, toks: list[str]) -> None:
    """Raise the first unmatched ')' or, failing that, the innermost
    unclosed '('."""
    opens: list[int] = []
    for k, tok in enumerate(toks):
        if tok == "(":
            opens.append(k)
        elif tok == ")":
            if not opens:
                raise _error(text, "unmatched ')'", k)
            opens.pop()
    if opens:
        raise _error(text, "unclosed '('", opens[-1])


def _items(toks: list[str], s: int) -> tuple[list[int], int]:
    """The token indices of the items of the list that opens at toks[s],
    and the index after its ')'.  Raises IndexError when the list is not
    closed."""
    items: list[int] = []
    depth = 0
    k, end = s + 1, len(toks)
    while k < end:
        tok = toks[k]
        if tok == ")":
            if depth == 0:
                return items, k + 1
            depth -= 1
        else:
            if depth == 0:
                items.append(k)
            if tok == "(":
                depth += 1
        k += 1
    raise IndexError(s)


# The item count, head included, of every list of an input by the index
# of its "(", and of the top level at -1; None on a read that checks none.
_Counts = Optional[dict[int, int]]


def _item_counts(toks: list[str]) -> dict[int, int]:
    """The item counts of balanced toks, in one scan."""
    counts = {-1: 0}
    opens = [-1]
    for k, tok in enumerate(toks):
        if tok == ")":
            opens.pop()
        else:
            counts[opens[-1]] += 1
            if tok == "(":
                opens.append(k)
                counts[k] = 0
    return counts


def _reading(read: Callable, text: str, toks: list[str]):
    """read(None, None), the one read valid input takes, which computes no
    error position.  When it fails (an IndexError is a list that runs past
    the last token), the input's first error is raised: an unbalanced
    parenthesis, or else the first error read(text, counts) meets, each
    form checking its count where it opens."""
    try:
        return read(None, None)
    except (ProblemError, IndexError):
        pass
    _check_parens(text, toks)
    return read(text, _item_counts(toks))


RESERVED = {
    "declare-op", "declare-rigid", "declare-flex", "define", "assume",
    "goal", "mode", "init", "next", "invariant", "inductive-invariant",
    "vars", "=", "=>", "not", "and", "or", "iff", "forall", "exists",
    "nabla", "delta", "prime", "false", "true", "model", "mlseq",
}


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
_BINDERS: dict[str, Callable[[str, Expression], Expression]] = {
    "forall": Forall, "exists": exists_}

# What a name means in one environment: its kind ("op", "def", "rigid",
# "flex" or "const"), its arity, and the node a bare use of it parses to
# (None when a bare use is an error).
_Names = dict[str, tuple[str, int, Optional[Expression]]]
_CONSTANTS: _Names = {"false": ("const", 0, FALSE), "true": ("const", 0, TRUE)}


def _env_names(env: DefinitionEnvironment) -> _Names:
    """The names of env, with the kind and arity that
    `DefinitionEnvironment.kind` and `arity` give them.  A bare name reads
    as a rigid variable before a flexible one, and either before an
    operator."""
    names: _Names = {}
    for d in reversed(env.definitions):
        names[d.name] = ("def", len(d.params),
                         None if d.params else DefApp(d.name, ()))
    for v in env.flex_vars:
        names[v] = ("flex", 0, FlexVar(v))
    for x in env.rigid_vars:
        names[x] = ("rigid", 0, RigidVar(x))
    for op, arity in env.ops.items():
        kind, _, bare = names.get(op, ("def", 0, None))
        if kind == "def":
            bare = OpApp(op, ()) if arity == 0 else None
        names[op] = ("op", arity, bare)
    names.update(_CONSTANTS)
    return names


def _check_arguments(text: Optional[str], toks: list[str], names: _Names,
                     s: int, n: int) -> None:
    """Raise when the list at toks[s], which has n arguments, is an
    expression form that takes another number."""
    h = toks[s + 1]
    if h in CONNECTIVES or h in _BINDERS or h == "prime":
        count = 2 if h in _BINDERS else 1 if h == "prime" \
            else CONNECTIVES[h][0]
        if count is not None and n != count:
            raise _error(text, f"({h} ...) takes {count} argument(s), "
                         f"got {n}", s)
        return
    kind, arity, _ = names.get(h, ("", 0, None))
    if (kind == "op" or kind == "def") and n != arity:
        raise _error(text, f"operator {h!r} has arity {arity}, "
                     f"got {n} argument(s)", s)


def _expression(text: Optional[str], toks: list[str], i: int, names: _Names,
                bound: tuple[str, ...] = (),
                counts: _Counts = None) -> tuple[Expression, int]:
    """The expression at toks[i], and the index of the token after it.

    `bound` holds rigid variables bound by enclosing binders (quantifiers
    or definition parameters); they shadow global declarations.  With
    `counts`, each form's argument count is checked where it opens.

    Each open form is a frame on `stack`: its first token, the number of
    arguments it collects (None: any), its constructor and, for an
    operator application, the operator; and the argument list, bound
    variables and prime flag outside it.  `args` holds the arguments of
    the innermost open form so far."""
    stack: list = []
    args: list = []
    in_prime = False
    while True:
        tok = toks[i]
        if tok == "(":
            if counts is not None:
                _check_arguments(text, toks, names, i, counts[i] - 1)
            h = toks[i + 1]
            connective = CONNECTIVES.get(h)
            if connective is not None:
                stack.append((i, connective[0], connective[1], None, args,
                              bound, in_prime))
                args = []
                i += 2
                continue
            binder = _BINDERS.get(h)
            if binder is not None:
                var = toks[i + 2]
                if var == "(" or var == ")":
                    raise _error(text, f"expected a variable name after {h}",
                                 i + 2)
                if var in RESERVED:
                    raise _error(text, f"{var!r} is reserved and cannot be "
                                 "used as a bound variable", i + 2)
                if names.get(var, ("",))[0] == "flex":
                    raise _error(text, "cannot quantify over flexible "
                                 f"variable {var!r}", i + 2)
                stack.append((i, 1, partial(binder, var), None, args,
                              bound, in_prime))
                args = []
                bound = (var,) + bound
                i += 3
                continue
            if h == "prime":
                if in_prime:
                    raise _error(text, "prime cannot be nested", i)
                stack.append((i, 1, Prime, None, args, bound, in_prime))
                args = []
                in_prime = True
                i += 2
                continue
            entry = names.get(h)
            if entry is not None and (entry[0] == "op" or entry[0] == "def"):
                stack.append((i, entry[1],
                              OpApp if entry[0] == "op" else DefApp, h, args,
                              bound, in_prime))
                args = []
                i += 2
                continue
            if h == "false" or h == "true":
                message, at = f"{h} takes no arguments", i
            elif h == ")":
                message, at = "empty expression", i
            elif h == "(":
                message, at = "expression head must be a symbol", i + 1
            elif entry is not None or h in bound:
                message, at = \
                    f"variable {h!r} cannot be applied to arguments", i
            else:
                message, at = f"unknown symbol {h!r}", i + 1
            raise _error(text, message, at)
        if tok == ")":
            if not stack:
                raise _error(text, "expected an expression", i)
            start, count, make, op, outer, bound, in_prime = stack.pop()
            if count is not None and len(args) != count:
                # the second read reports this where the form opens
                raise _error(text, "wrong argument count", start)
            value = make(*args) if op is None else make(op, tuple(args))
            args = outer
        elif bound and tok in bound:
            value = RigidVar(tok)
        else:
            entry = names.get(tok)
            value = None if entry is None else entry[2]
            if value is None:
                if entry is None:
                    message = f"unknown symbol {tok!r}"
                elif entry[0] == "op":
                    message = (f"operator {tok!r} has arity {entry[1]}, "
                               "bare use needs arity 0")
                else:
                    message = (f"defined operator {tok!r} has arity "
                               f"{entry[1]}, bare use needs arity 0")
                raise _error(text, message, i)
        i += 1
        if not stack:
            return value, i
        args.append(value)


class ProblemFile(Record):
    """Every form of a problem file, before interpretation as an obligation
    or as a transition-system description."""

    __slots__ = __match_args__ = ("env", "assumes", "goal", "mode", "init",
                                  "next", "invariant", "inductive_invariant",
                                  "vars")

    def __init__(self, env: DefinitionEnvironment,
                 assumes: tuple[Expression, ...] = (),
                 goal: Optional[Expression] = None, mode: str = "fol",
                 init: Optional[Expression] = None,
                 next: Optional[Expression] = None,
                 invariant: Optional[Expression] = None,
                 inductive_invariant: Optional[Expression] = None,
                 vars: Optional[tuple[str, ...]] = None) -> None:
        self.env = env
        self.assumes = assumes
        self.goal = goal
        self.mode = mode
        self.init = init
        self.next = next
        self.invariant = invariant
        self.inductive_invariant = inductive_invariant
        self.vars = vars

    def obligation(self) -> Obligation:
        """The file as an obligation.  Requires a (goal ...)."""
        if self.goal is None:
            raise ProblemError("problem file has no (goal ...) form")
        return Obligation(hypotheses=self.assumes, goal=self.goal,
                          env=self.env, mode=self.mode)


_ARITY = re.compile(r"[0-9]+")
_SINGLE = ("goal", "init", "next", "invariant", "inductive-invariant")
# The forms with a fixed number of arguments, and the message when the
# count (or, for define and mode, the shape) is wrong.
_FORM_USAGE = {
    "declare-op": (2, "(declare-op name arity)"),
    "declare-rigid": (1, "(declare-rigid x)"),
    "declare-flex": (1, "(declare-flex v)"),
    "define": (2, "(define (d x1 .. xn) body)"),
    "assume": (1, "(assume expr)"),
    "mode": (1, "(mode fol|ml|action)"),
    **{head: (1, f"({head} expr)") for head in _SINGLE},
}


def parse_file(text: str,
               toks: Optional[list[str]] = None) -> ProblemFile:
    """The forms of a problem file; `toks`, when given, are its tokens."""
    if toks is None:
        toks = _tokens(text)
    return _reading(partial(_problem_file, toks), text, toks)


def _declared(text: Optional[str], toks: list[str], names: _Names, k: int,
              what: str) -> str:
    """The new name at toks[k], which must be neither reserved nor
    already declared."""
    name = toks[k]
    if name in RESERVED:
        raise _error(text, f"{name!r} is reserved and cannot be used as "
                     f"{what}", k)
    if name in names:
        raise _error(text, f"{name!r} is already declared", k)
    return name


def _problem_file(toks: list[str], text: Optional[str],
                  counts: _Counts) -> ProblemFile:
    """The problem file whose tokens are toks, read form by form; errors
    are placed in text (see `_error`)."""
    ops: dict[str, int] = {}
    rigid: list[str] = []
    flex: list[str] = []
    defs: list[Definition] = []
    assumes: list[Expression] = []
    single: dict[str, Expression] = {}
    mode: Optional[str] = None
    vars_: Optional[tuple[str, ...]] = None
    names: _Names = dict(_CONSTANTS)

    i, end = 0, len(toks)
    while i < end:
        if toks[i] != "(":
            raise _error(text, f"expected a (...) form, got {toks[i]!r}", i)
        head = toks[i + 1]
        if head == "(" or head == ")":
            raise _error(text, "malformed form", i)
        count, usage = _FORM_USAGE.get(head, (None, ""))
        if counts is not None and count is not None \
                and counts[i] != count + 1:
            raise _error(text, usage, i)

        if head in _SINGLE or head == "assume":
            if head in single:
                raise _error(text, f"duplicate ({head} ...) form", i)
            e, i = _expression(text, toks, i + 2, names, (), counts)
            if toks[i] != ")":
                raise _error(text, usage, i)
            i += 1
            if head == "assume":
                assumes.append(e)
            else:
                single[head] = e
            continue
        if head == "define":
            h = i + 2
            if toks[h] != "(":
                raise _error(text, usage, i)
            if toks[h + 1] == ")":
                raise _error(text, "empty definition header", h)
            if toks[h + 1] == "(":
                raise _error(text, "expected an operator name", h + 1)
            name = _declared(text, toks, names, h + 1, "a defined operator")
            params: list[str] = []
            k = h + 2
            while toks[k] != ")":
                p = toks[k]
                if p == "(":
                    raise _error(text, "expected a parameter name", k)
                if p in RESERVED:
                    raise _error(text, f"{p!r} is reserved and cannot be "
                                 "used as a parameter", k)
                if p in params:
                    raise _error(text, f"repeated parameter {p!r}", k)
                params.append(p)
                k += 1
            body, j = _expression(text, toks, k + 1, names, tuple(params),
                                  counts)
            if toks[j] != ")":
                raise _error(text, usage, i)
            stray = [x for x in free_rigid_vars(body) if x not in params]
            if stray:
                raise _error(text, "definition body has free rigid variables "
                             f"not among its parameters: {', '.join(stray)}",
                             i)
            defs.append(Definition(name, tuple(params), body))
            names[name] = ("def", len(params),
                           None if params else DefApp(name, ()))
            i = j + 1
            continue

        # The remaining forms hold atoms only, and are short.
        args, after = _items(toks, i)
        del args[0]
        if count is not None and len(args) != count:
            raise _error(text, usage, i)
        if head == "declare-op":
            if toks[args[0]] == "(":
                raise _error(text, "expected an operator name", args[0])
            name = _declared(text, toks, names, args[0], "an operator name")
            k = args[1]
            if toks[k] == "(":
                raise _error(text, "expected an arity", k)
            if not _ARITY.fullmatch(toks[k]):
                raise _error(text, f"bad arity {toks[k]!r}", k)
            ops[name] = arity = int(toks[k])
            names[name] = ("op", arity,
                           OpApp(name, ()) if arity == 0 else None)
        elif head == "declare-rigid" or head == "declare-flex":
            if toks[args[0]] == "(":
                raise _error(text, "expected a variable name", args[0])
            if head == "declare-rigid":
                name = _declared(text, toks, names, args[0],
                                 "a rigid variable")
                rigid.append(name)
                names[name] = ("rigid", 0, RigidVar(name))
            else:
                name = _declared(text, toks, names, args[0],
                                 "a flexible variable")
                flex.append(name)
                names[name] = ("flex", 0, FlexVar(name))
        elif head == "mode":
            k = args[0]
            if toks[k] == "(":
                raise _error(text, usage, i)
            if toks[k] not in ("fol", "ml", "action"):
                raise _error(text, f"unknown mode {toks[k]!r}", k)
            if mode is not None:
                raise _error(text, "duplicate (mode ...) form", i)
            mode = toks[k]
        elif head == "vars":
            if vars_ is not None:
                raise _error(text, "duplicate (vars ...) form", i)
            listed: list[str] = []
            for k in args:
                v = toks[k]
                if v == "(":
                    raise _error(text, "expected a flexible variable name", k)
                if v not in flex:
                    raise _error(text,
                                 f"{v!r} is not a declared flexible variable",
                                 k)
                if v in listed:
                    raise _error(text, f"(vars ...) lists {v} twice", k)
                listed.append(v)
            vars_ = tuple(listed)
        else:
            raise _error(text, f"unknown form {head!r}", i)
        i = after

    return ProblemFile(
        env=DefinitionEnvironment(
            ops=ops, rigid_vars=tuple(rigid), flex_vars=tuple(flex),
            definitions=tuple(defs)),
        assumes=tuple(assumes),
        goal=single.get("goal"),
        mode=mode or "fol",
        init=single.get("init"),
        next=single.get("next"),
        invariant=single.get("invariant"),
        inductive_invariant=single.get("inductive-invariant"),
        vars=vars_,
    )


def parse_problem(text: str,
                  toks: Optional[list[str]] = None) -> Obligation:
    """Parse a problem file into an obligation.  Requires a (goal ...)."""
    return parse_file(text, toks).obligation()


def parse_expr(text: str, env: DefinitionEnvironment) -> Expression:
    """Parse a single expression (convenience entry point for tests)."""
    toks = _tokens(text)
    names = _env_names(env)
    message = "expected exactly one expression"

    def read(text: Optional[str], counts: _Counts) -> Expression:
        if not toks or counts is not None and counts[-1] != 1:
            raise ProblemError(message)
        e, i = _expression(text, toks, 0, names, (), counts)
        if i != len(toks):
            raise ProblemError(message)
        return e

    return _reading(read, text, toks)
