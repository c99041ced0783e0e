"""The s-expression front end foml had before it read from one flat token
list: a reader that builds a tree of positioned `SAtom`/`SList` nodes, and
the interpreters of problem, mlseq and model files over that tree.  Kept
here unchanged, less two rules added since, as the oracle the differential
tests hold `foml.parser`, `foml.emit.parse_mlseq` and
`foml.models.parse_model` to; with it, `reference_read`, a reader that
goes one character at a time.

The two rules it lacks: a name listed twice in `(vars ...)`, and an arity
that is not ASCII digits (`int` reads `1_0`, `+0` and U+0663), are both
accepted here.
"""
from __future__ import annotations

import re
from typing import NamedTuple, Optional, Union

from foml.emit import MLSequent
from foml.models import KripkeModel, Value
from foml.parser import CONNECTIVES, RESERVED, ProblemError, ProblemFile
from foml.prover import FRAMES
from foml.syntax import (
    FALSE,
    DefApp,
    Definition,
    DefinitionEnvironment,
    Expression,
    FlexVar,
    Forall,
    Implies,
    Nabla,
    OpApp,
    Prime,
    RigidVar,
    exists_,
    free_rigid_vars,
    true_,
)


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


def parse_expr(text: str, env: DefinitionEnvironment) -> Expression:
    """Parse a single expression (convenience entry point for tests)."""
    nodes = read_sexprs(text)
    if len(nodes) != 1:
        raise ProblemError("expected exactly one expression")
    return parse_expression(nodes[0], env)


def _parse_ml_expr(node: SNode) -> Expression:
    if isinstance(node, SAtom):
        if node.text == "false":
            return FALSE
        if node.text in ("true", "nabla", "prime", "=>"):
            raise ProblemError(f"bad atom {node.text!r}",
                               node.line, node.col)
        return FlexVar(node.text)
    head = form_head(node)
    if head is None:
        raise ProblemError("malformed formula", node.line, node.col)
    rest = node.items[1:]
    if head == "=>" and len(rest) == 2:
        return Implies(_parse_ml_expr(rest[0]), _parse_ml_expr(rest[1]))
    if head == "nabla" and len(rest) == 1:
        return Nabla(_parse_ml_expr(rest[0]))
    if head == "prime" and len(rest) == 1:
        return Prime(_parse_ml_expr(rest[0]))
    raise ProblemError(f"unknown modal form {head!r}", node.line, node.col)


def parse_mlseq(text: str) -> MLSequent:
    return parse_mlseq_forms(read_sexprs(text))


def parse_mlseq_forms(forms: list[SNode]) -> MLSequent:
    """Interpret the forms of an mlseq file, as read by read_sexprs."""
    if len(forms) != 1 or isinstance(forms[0], SAtom):
        raise ProblemError("expected exactly one (mlseq ...) form")
    top = forms[0]
    if form_head(top) != "mlseq":
        raise ProblemError("expected (mlseq ...)", top.line, top.col)
    frames = {"nabla": "k", "prime": "k"}
    hyps: tuple[Expression, ...] = ()
    goal: Optional[Expression] = None
    seen: set[str] = set()
    for section in top.items[1:]:
        head = form_head(section)
        if head is None:
            raise ProblemError("malformed mlseq section",
                               section.line, section.col)
        body = section.items[1:]
        key = head
        if head == "frame":
            if len(body) != 2 or not all(isinstance(b, SAtom) for b in body) \
                    or body[0].text not in frames \
                    or body[1].text not in FRAMES:
                raise ProblemError(
                    f"(frame nabla|prime {'|'.join(FRAMES)})",
                    section.line, section.col)
            mod, cls = body[0].text, body[1].text
            frames[mod] = cls
            key = f"frame {mod}"
        elif head == "global-hypotheses":
            hyps = tuple(_parse_ml_expr(n) for n in body)
        elif head == "goal":
            if len(body) != 1:
                raise ProblemError("(goal formula)",
                                   section.line, section.col)
            goal = _parse_ml_expr(body[0])
        else:
            raise ProblemError(f"unknown mlseq section {head!r}",
                               section.line, section.col)
        if key in seen:
            raise ProblemError(f"duplicate ({key} ...) section",
                               section.line, section.col)
        seen.add(key)
    if goal is None:
        raise ProblemError("mlseq has no goal")
    return MLSequent(hypotheses=hyps, goal=goal,
                     frame_nabla=frames["nabla"],
                     frame_prime=frames["prime"])


def _fmt(v: Value) -> str:
    return str(v)


def _value(node: SNode, what: str) -> Value:
    text = expect_atom(node, what).text
    try:
        n = int(text)
    except ValueError:
        return text
    return n if str(n) == text else text


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


def reference_read(text):
    """Reference reader: one character at a time, counting lines at "\n"
    only and a column for every other character outside a comment."""
    tokens = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
        elif ch.isspace():
            col, i = col + 1, i + 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append((ch, line, col))
            col, i = col + 1, i + 1
        else:
            start, start_col = i, col
            while i < n and not text[i].isspace() and text[i] not in "();":
                i, col = i + 1, col + 1
            tokens.append((text[start:i], line, start_col))
    stack, top = [], []
    for tok, line, col in tokens:
        if tok == "(":
            stack.append(([], line, col))
        elif tok == ")":
            if not stack:
                raise ProblemError("unmatched ')'", line, col)
            items, oline, ocol = stack.pop()
            (stack[-1][0] if stack else top).append(
                SList(tuple(items), oline, ocol))
        else:
            (stack[-1][0] if stack else top).append(SAtom(tok, line, col))
    if stack:
        raise ProblemError("unclosed '('", stack[-1][1], stack[-1][2])
    return top
