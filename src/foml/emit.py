"""Serialization of coalesced first-order sequents to SMT-LIB 2 and TPTP
fof, and of propositional modal sequents to the mlseq exchange format.

Both first-order formats share one encoding: a single uninterpreted sort U
with distinct constants tt and ff, every operator an uninterpreted function
into U, free (rigid and flexible) variables as constants, and formula
positions rendered as equations with tt.  A formula-shaped node sitting in
a term position (an argument, or an equality side) is first lifted out into
a fresh definitional symbol axiomatized by two implications; this is a
conservative extension and keeps both renderings ite-free.  Validity of the
sequent is encoded as unsatisfiability of hypotheses plus negated goal.

`parse_mlseq` reads an mlseq text back in the one token pass `foml.parser`
gives every input: formulas are built from the flat token list with an
explicit stack, and a position is computed only for an error.  It reads
by the parser's one error rule: read once; on an error, read again with
every list's item count and raise the first error met.
"""
from __future__ import annotations

import os
import re
import subprocess
import tempfile
from functools import partial
from itertools import product
from typing import Any, Callable, NamedTuple, Optional

from .models import FOLStructure
from .parser import (
    ProblemError,
    _Counts,
    _error,
    _items,
    _reading,
    _tokens,
)
from .printer import print_expr
from .prover import FRAMES, MLSequent, _closure
from .semantics import eval_fol
from .syntax import (
    DEF_APP,
    EQ,
    FALSE,
    FORALL,
    IMPLIES,
    NABLA,
    PRIME,
    DefApp,
    DefinitionEnvironment,
    Eq,
    Expression,
    FalseExpr,
    FlexVar,
    FomlError,
    Forall,
    Implies,
    InternalError,
    Interner,
    Nabla,
    OpApp,
    Prime,
    Record,
    RigidVar,
    alpha_key,
    free_rigid_vars,
    rewrite,
    signature,
)


class DefSymbol(Record):
    """Fresh symbol naming a formula-shaped subterm, abstracted over its
    free rigid variables."""

    __slots__ = __match_args__ = ("name", "params", "body")

    def __init__(self, name: str, params: tuple[str, ...],
                 body: Expression) -> None:
        self.name = name
        self.params = params
        self.body = body


class FolIR(Record):
    __slots__ = __match_args__ = ("ops", "consts", "defs", "hypotheses",
                                  "goal")

    def __init__(self, ops: dict[str, int], consts: tuple[str, ...],
                 defs: tuple[DefSymbol, ...],
                 hypotheses: tuple[Expression, ...],
                 goal: Expression) -> None:
        self.ops = ops
        self.consts = consts
        self.defs = defs
        self.hypotheses = hypotheses
        self.goal = goal


# The kinds stratify lifts out of a term position or rejects.
_FORMULA = EQ | IMPLIES | FORALL | NABLA | PRIME | DEF_APP


def stratify(
    hypotheses: tuple[Expression, ...],
    goal: Expression,
    env: DefinitionEnvironment,
) -> FolIR:
    """Split the sequent into strictly stratified formulas plus
    definitional symbols for formula-shaped subterms.  A symbol is interned
    after the symbols its body uses, so `FolIR.defs` lists every symbol
    after its dependencies."""
    defs = Interner("q", env)

    # at_formula: e sits at a formula position, else at a term position;
    # the sides of an equality and the arguments of an operator are terms.
    # A term with no node of a formula kind is kept as it is.
    def pre(e: Expression, at_formula: bool) -> Any:
        t = type(e)
        if t is Eq or t is Implies or t is Forall:
            if at_formula:
                if t is not Eq:
                    return None
                sides = e.lhs.kinds | e.rhs.kinds
                return (False, None) if sides & _FORMULA else e
            params = free_rigid_vars(e)
            key = alpha_key(e, params)
            args = tuple(RigidVar(x) for x in params)
            sym = defs.entries.get(key)
            if sym is not None:
                return OpApp(sym.name, args)
            # named after its body, so after the symbols the body uses
            return t is not Eq, lambda body: OpApp(defs.entry(
                key, lambda name: DefSymbol(name, params, body)).name, args)
        if t is Nabla or t is Prime or t is DefApp:
            raise FomlError(f"not a first-order expression: {e}")
        if not e.kinds & _FORMULA:
            return e
        return (False, None) if at_formula else None

    new_hyps = tuple(rewrite(h, pre, True) for h in hypotheses)
    new_goal = rewrite(goal, pre, True)

    ops, rigid, flex, _ = signature(hypotheses + (goal,), env)
    for d in defs.in_order():
        ops[d.name] = len(d.params)
    return FolIR(ops=ops, consts=rigid + flex, defs=defs.in_order(),
                 hypotheses=new_hyps, goal=new_goal)


class SymbolMap:
    """Deterministic source-name to emitted-name mapping, preserving names
    when the target format allows them.  No symbol is given a name of the
    form `<bound_var><digits>`, which the format's binders use: a free
    symbol spelled like a bound variable would be captured by it."""

    def __init__(self, pattern: str, reserved: set[str], fallback: str,
                 bound_var: str):
        self.pattern = re.compile(pattern)
        self.bound = re.compile(re.escape(bound_var) + "[0-9]+")
        self.reserved = set(reserved)
        self.fallback = fallback
        self.map: dict[str, str] = {}
        self.used: set[str] = set(reserved)

    def _taken(self, name: str) -> bool:
        return name in self.used or self.bound.fullmatch(name) is not None

    def __getitem__(self, name: str) -> str:
        out = self.map.get(name)
        if out is not None:
            return out
        if self.pattern.fullmatch(name) and not self._taken(name):
            out = name
        else:
            cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", name).lstrip("_")
            if not cleaned or not cleaned[0].isalpha():
                cleaned = f"{self.fallback}{cleaned}"
            cleaned = cleaned[0].lower() + cleaned[1:]
            out = cleaned
            k = 1
            while self._taken(out):
                out = f"{cleaned}_{k}"
                k += 1
        self.used.add(out)
        self.map[name] = out
        return out


_SMT_RESERVED = {
    # the encoding's own symbols and the core theory's
    "tt", "ff", "U", "not", "and", "or", "xor", "distinct", "ite", "true",
    "false", "=>", "=",
    # SMT-LIB 2.6 reserved words (section 3.1)
    "!", "_", "as", "BINARY", "DECIMAL", "exists", "forall", "HEXADECIMAL",
    "let", "match", "NUMERAL", "par", "STRING",
    # SMT-LIB 2.6 command names
    "assert", "check-sat", "check-sat-assuming", "declare-const",
    "declare-datatype", "declare-datatypes", "declare-fun", "declare-sort",
    "define-fun", "define-fun-rec", "define-funs-rec", "define-sort",
    "echo", "exit", "get-assertions", "get-assignment", "get-info",
    "get-model", "get-option", "get-proof", "get-unsat-assumptions",
    "get-unsat-core", "get-value", "pop", "push", "reset",
    "reset-assertions", "set-info", "set-logic", "set-option",
}

_TPTP_RESERVED = {"tt", "ff", "fof", "axiom", "conjecture"}


class _Spelling(NamedTuple):
    """How one first-order format spells formulas and terms: `implies` and
    `eq` are the texts before, between and after the two sides, `app` the
    format of an application's text before its first argument (the
    operator's name filled in), and every application and quantifier ends
    with ")"."""

    false: str
    var: str  # bound-variable prefix, numbered by binder depth
    implies: tuple[str, str, str]
    eq: tuple[str, str, str]
    neg: str  # a format template
    app: str
    sep: str  # between the arguments of an application
    forall: Callable[[list[str]], str]  # bound variables -> text before body


_SMT = _Spelling(
    "false", "bv", ("(=> ", " ", ")"), ("(= ", " ", ")"), "(not {})",
    "({} ", " ", lambda vs: f"(forall ({' '.join(f'({v} U)' for v in vs)}) ")

_TPTP = _Spelling(
    "$false", "X", ("(", " => ", ")"), ("(", " = ", ")"), "~{}",
    "{}(", ",", lambda vs: f"(! [{','.join(vs)}] : ")


def _render(ir: FolIR, sp: _Spelling,
            sym: SymbolMap) -> tuple[list[str], list[str], str]:
    """The definitional axioms, the hypotheses and the goal of `ir`,
    spelled by `sp`.  Symbols reach `sym` in order of first use, with the
    arguments of a term before its operator."""
    imp_open, imp_mid, imp_close = sp.implies
    eq_open, eq_mid, eq_close = sp.eq
    is_tt = f"{eq_mid}tt{eq_close}"
    end_eq, end_tt = (eq_close,), (is_tt,)
    app, sep = sp.app, sp.sep

    def form(e: Expression, bound: dict[str, str], depth: int) -> str:
        """The formula e, built on an explicit stack, so at any depth."""
        out: list[str] = []
        put = out.append
        # Nodes to spell and text to emit, next on top, with markers: a
        # 1-tuple holds the text that ends a term position (an equality's
        # sides, or a term standing as a formula); an int is the index in
        # out of an application's operator, spelled once its arguments
        # are; (variable, its outer binding, depth) restores the binders
        # on leaving a Forall's body.
        todo: list = [e]
        in_term = False
        while todo:
            e = todo.pop()
            t = type(e)
            if t is str:
                put(e)
                continue
            if not in_term:
                if t is Implies:
                    put(imp_open)
                    todo += (imp_close, e.rhs, imp_mid, e.lhs)
                    continue
                if t is Eq:
                    put(eq_open)
                    todo += (end_eq, e.rhs, eq_mid, e.lhs)
                    in_term = True
                    continue
                if t is FalseExpr:
                    put(sp.false)
                    continue
                if t is Forall:
                    bv = f"{sp.var}{depth}"
                    put(sp.forall([bv]))
                    todo += (")", (e.var, bound.get(e.var), depth), e.body)
                    bound[e.var] = bv
                    depth += 1
                    continue
                if t is tuple:
                    var, outer, depth = e
                    if outer is None:
                        del bound[var]
                    else:
                        bound[var] = outer
                    continue
                # a term standing as a formula: it equals tt
                put(eq_open)
                todo.append(end_tt)
                in_term = True
            if t is RigidVar:
                name = e.name
                put(bound[name] if name in bound else sym[name])
            elif t is OpApp:
                args = e.args
                if args:
                    todo.append(len(out))
                    put(e.op)
                    for i in range(len(args) - 1, 0, -1):
                        todo += (args[i], sep)
                    todo.append(args[0])
                else:
                    put(sym[e.op])
            elif t is FlexVar:
                put(sym[e.name])
            elif t is int:
                out[e] = app.format(sym[out[e]])
                put(")")
            elif t is tuple:
                put(e[0])
                in_term = False
            elif t is FalseExpr:
                put("ff")
            else:
                raise InternalError(
                    f"unstratified node in term position: {e}")
        return "".join(out)

    axioms = []
    for d in ir.defs:
        bound = {p: f"{sp.var}{i}" for i, p in enumerate(d.params)}
        body = form(d.body, bound, len(d.params))
        head = sym[d.name]
        if d.params:
            head = f"{app.format(head)}{sep.join(bound.values())})"
        for ax in (f"{imp_open}{body}{imp_mid}{eq_open}{head}{is_tt}"
                   f"{imp_close}",
                   f"{imp_open}{sp.neg.format(body)}{imp_mid}{eq_open}{head}"
                   f"{eq_mid}ff{eq_close}{imp_close}"):
            axioms.append(f"{sp.forall(list(bound.values()))}{ax})"
                          if d.params else ax)
    return (axioms, [form(h, {}, 0) for h in ir.hypotheses],
            form(ir.goal, {}, 0))


def emit_smt(ir: FolIR) -> str:
    sym = SymbolMap(r"[a-zA-Z~!@$%^&*_+=<>.?/-][0-9a-zA-Z~!@$%^&*_+=<>.?/-]*",
                    _SMT_RESERVED, "s_", _SMT.var)
    lines = [
        "(set-logic UF)",
        "(declare-sort U 0)",
        "(declare-const tt U)",
        "(declare-const ff U)",
        "(assert (distinct tt ff))",
    ]
    for op, arity in ir.ops.items():
        doms = " ".join(["U"] * arity)
        lines.append(f"(declare-fun {sym[op]} ({doms}) U)")
    for c in ir.consts:
        lines.append(f"(declare-const {sym[c]} U)")
    axioms, hyps, goal = _render(ir, _SMT, sym)
    lines += [f"(assert {f})" for f in axioms + hyps]
    lines.append(f"(assert (not {goal}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def emit_tptp(ir: FolIR) -> str:
    sym = SymbolMap(r"[a-z][a-zA-Z0-9_]*", _TPTP_RESERVED, "s_", _TPTP.var)
    axioms, hyps, goal = _render(ir, _TPTP, sym)
    lines = ["fof(tt_not_ff, axiom, tt != ff)."]
    lines += [f"fof(def_{k}, axiom, {ax})." for k, ax in enumerate(axioms)]
    lines += [f"fof(hyp_{i}, axiom, {h})." for i, h in enumerate(hyps)]
    lines.append(f"fof(goal, conjecture, {goal}).")
    return "\n".join(lines) + "\n"


def extend_with_defs(s: FOLStructure, ir: FolIR) -> FOLStructure:
    """Interpret the definitional symbols over a given structure (their
    axioms pin them uniquely), in the dependency order of `ir.defs`."""
    tables = dict(s.op_interp)
    for d in ir.defs:
        base = FOLStructure(s.universe, s.tt, s.ff, dict(tables), s.xi)
        table = {}
        for argvals in product(s.universe, repeat=len(d.params)):
            val = eval_fol(base, d.body, dict(zip(d.params, argvals)))
            table[argvals] = s.tt if val == s.tt else s.ff
        tables[d.name] = table
    return FOLStructure(s.universe, s.tt, s.ff, tables, s.xi)


def encoding_satisfied(s: FOLStructure, ir: FolIR) -> bool:
    """Whether the emitted script is satisfied by (an extension of) s: all
    hypotheses true and the goal not true, with tt and ff distinct.  This
    is the tiny built-in evaluator used to cross-check boolification."""
    if s.tt == s.ff:
        return False
    full = extend_with_defs(s, ir)
    return (
        all(eval_fol(full, h) == full.tt for h in ir.hypotheses)
        and eval_fol(full, ir.goal) != full.tt
    )


def emit_mlseq(seq: MLSequent) -> str:
    _closure(seq)  # raises at the first node outside the fragment
    lines = ["(mlseq"]
    lines.append(f"  (frame nabla {seq.frame_nabla})")
    lines.append(f"  (frame prime {seq.frame_prime})")
    if seq.hypotheses:
        inner = " ".join(print_expr(h) for h in seq.hypotheses)
        lines.append(f"  (global-hypotheses {inner})")
    else:
        lines.append("  (global-hypotheses)")
    lines.append(f"  (goal {print_expr(seq.goal)})")
    lines.append(")")
    return "\n".join(lines) + "\n"


# The modal forms: argument count and constructor.  Any other head, or
# the right head with another count, is an unknown modal form.
_ML_FORMS = {"=>": (2, Implies), "nabla": (1, Nabla), "prime": (1, Prime)}
_ML_BAD_ATOMS = {"true", "nabla", "prime", "=>"}


def _ml_expression(text: Optional[str], toks: list[str], i: int,
                   counts: _Counts) -> tuple[Expression, int]:
    """The modal formula at toks[i], and the index after it; built with an
    explicit stack of (first token, argument count, constructor, outer
    arguments) frames, the innermost form's arguments so far in `args`.
    With `counts`, each form's argument count is checked where it opens."""
    stack: list = []
    args: list = []
    while True:
        tok = toks[i]
        if tok == "(":
            h = toks[i + 1]
            form = _ML_FORMS.get(h)
            if form is None or counts is not None \
                    and counts[i] != form[0] + 1:
                raise _error(text, "malformed formula" if h == "(" or h == ")"
                             else f"unknown modal form {h!r}", i)
            stack.append((i, form[0], form[1], args))
            args = []
            i += 2
            continue
        if tok == ")":
            if not stack:
                raise _error(text, "expected a formula", i)
            start, count, make, outer = stack.pop()
            if len(args) != count:
                raise _error(text, f"unknown modal form {toks[start + 1]!r}",
                             start)
            value = make(*args)
            args = outer
        elif tok == "false":
            value = FALSE
        elif tok in _ML_BAD_ATOMS:
            raise _error(text, f"bad atom {tok!r}", i)
        else:
            value = FlexVar(tok)
        i += 1
        if not stack:
            return value, i
        args.append(value)


def parse_mlseq(text: str,
                toks: Optional[list[str]] = None) -> MLSequent:
    """The sequent of an mlseq text; `toks`, when given, are its tokens."""
    if toks is None:
        toks = _tokens(text)
    return _reading(partial(_mlseq, toks), text, toks)


def _mlseq(toks: list[str], text: Optional[str],
           counts: _Counts) -> MLSequent:
    """The sequent whose tokens are toks, read section by section."""
    message = "expected exactly one (mlseq ...) form"
    if not toks or toks[0] != "(" or counts is not None and counts[-1] != 1:
        raise ProblemError(message)
    if toks[1] != "mlseq":
        raise _error(text, "expected (mlseq ...)", 0)
    frames = {"nabla": "k", "prime": "k"}
    hyps: tuple[Expression, ...] = ()
    goal: Optional[Expression] = None
    seen: set[str] = set()
    i = 2
    while toks[i] != ")":
        s = i
        head = toks[s + 1]
        if toks[s] != "(" or head == "(" or head == ")":
            raise _error(text, "malformed mlseq section", s)
        key = head
        if head == "frame":
            body, i = _items(toks, s)
            del body[0]
            mod, cls = (toks[body[0]], toks[body[1]]) if len(body) == 2 \
                else (None, None)
            if mod not in frames or cls not in FRAMES:
                raise _error(text, f"(frame nabla|prime {'|'.join(FRAMES)})",
                             s)
            frames[mod] = cls
            key = f"frame {mod}"
        elif head == "global-hypotheses":
            found = []
            i = s + 2
            while toks[i] != ")":
                e, i = _ml_expression(text, toks, i, counts)
                found.append(e)
            hyps = tuple(found)
            i += 1
        elif head == "goal":
            if counts is not None and counts[s] != 2:
                raise _error(text, "(goal formula)", s)
            goal, i = _ml_expression(text, toks, s + 2, counts)
            if toks[i] != ")":
                raise _error(text, "(goal formula)", s)
            i += 1
        else:
            raise _error(text, f"unknown mlseq section {head!r}", s)
        if key in seen:
            raise _error(text, f"duplicate ({key} ...) section", s)
        seen.add(key)
    if i + 1 != len(toks):
        raise ProblemError(message)
    if goal is None:
        raise ProblemError("mlseq has no goal")
    return MLSequent(hypotheses=hyps, goal=goal,
                     frame_nabla=frames["nabla"],
                     frame_prime=frames["prime"])


# The SZS status words a TPTP prover answers with, by verdict on the
# conjecture; any other word (GaveUp, Timeout, ...) is "unknown".
_SZS_VERDICTS = {"Theorem": "valid", "Unsatisfiable": "valid",
                 "CounterSatisfiable": "not-valid",
                 "Satisfiable": "not-valid", "CounterTheorem": "not-valid"}


def run_solver(solver: str, text: str, fmt: str,
               timeout: float = 60.0) -> str:
    """Run an external solver on emitted text; returns "valid",
    "not-valid" or "unknown".  Never required by the test suite."""
    suffix = ".smt2" if fmt == "smt" else ".p"
    with tempfile.NamedTemporaryFile(
            "w", suffix=suffix, delete=False) as f:
        f.write(text)
        path = f.name
    try:
        proc = subprocess.run([solver, path], capture_output=True,
                              text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    finally:
        os.unlink(path)
    out = proc.stdout + proc.stderr
    if fmt == "smt":
        for line in out.splitlines():
            line = line.strip()
            if line == "unsat":
                return "valid"
            if line == "sat":
                return "not-valid"
        return "unknown"
    status = re.search(r"SZS status (\S+)", out)
    return _SZS_VERDICTS.get(status.group(1) if status else "", "unknown")
