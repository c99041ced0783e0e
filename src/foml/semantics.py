"""Exact evaluation of expressions in finite models.

One semantics, the Kripke semantics, compiled once per expression.
`_compile` walks an expression once and returns a closure of (model,
state, bindings); evaluating it in another model or at another state runs
only the closures.  `compile_expr` compiles the full language for Kripke
models; `compile_fol` and `compile_ml` compile views restricted to a
fragment, whose closures raise EvalError when evaluation reaches a node
outside the fragment:

  compile_fol : first-order fragment in a first-order structure, read as
                a single state at which every variable takes its xi value
  compile_ml  : propositional modal fragment in a propositional model

`eval_expr`, `eval_fol` and `eval_ml` compile and call once.  Callers that
evaluate one expression in many models or states compile it themselves,
as `obligation_checker` does for an obligation; it is the per-model check
behind `check-model`, `countermodel_state` and the tests' sweeps.

`compile_lanes` compiles the same semantics a second way, for bounded
search: one call gives an expression's value in every model of a lane
block, models that share a universe and a state count but may differ in
everything else, as an int bitset over (model, state) lanes (see the
comment above `Access`).  It substitutes nothing: a definition body is
compiled once per value/truth position into a cache that the caller may
share between compilations, and each application runs it with the
parameters bound to the arguments' lane values.

The AST has no negation, conjunction or disjunction: `not_`, `and_` and
`or_` build them from implications and false.  `_compile` recognises those
shapes and compiles each to one fused closure, which gives the chain's
value, runs its operands in the chain's order and stops where the chain
would.  The nabla and prime closures read a state's successors from
`models._successor_table`, one cached table per relation shared by every
model built on it.

The implication / quantifier / equality clauses treat any value other than
tt as false-like, so no coercion of non-boolean values is performed
anywhere.  Universal quantification ranges over the whole (constant)
universe.  A nabla node maps the set of body values at accessible states to
tt iff that set is included in {tt}, and to ff otherwise.

Prime is evaluated over the model's second accessibility relation.  When
that relation is a total function on states, prime is evaluated in the
next-state reading (the value of the body at the unique successor), which
is the reading under which prime distribution laws are value-preserving;
otherwise it collapses exactly like nabla.  The two readings agree on
truth (being tt) whenever both apply, so in a propositional model, whose
values are all truth values, they give the same value.
"""
from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Union

from .models import (
    FOLStructure,
    KripkeModel,
    Value,
    _successor_table,
)
from .syntax import (
    DefApp,
    DefinitionEnvironment,
    Eq,
    Expression,
    FalseExpr,
    FlexVar,
    FomlError,
    Forall,
    InternalError,
    Implies,
    Nabla,
    Obligation,
    OpApp,
    Prime,
    RigidVar,
    substitute,
)


class EvalError(FomlError):
    pass


# A compiled expression: (model, state, bindings) -> value.  `bindings`
# overlays the model's xi for rigid variables and is never mutated.
Evaluator = Callable[
    [Union[KripkeModel, FOLStructure], Value, Mapping[str, Value]],
    Value]


def eval_expr(
    m: KripkeModel,
    w: Value,
    e: Expression,
    env: DefinitionEnvironment,
    bindings: Optional[Mapping[str, Value]] = None,
) -> Value:
    """Value of e at state w of m.  `bindings` overlays m.xi and is how
    quantifiers (and witness constructions) rebind rigid variables."""
    return compile_expr(e, env)(m, w, bindings or {})


def eval_fol(
    s: FOLStructure,
    e: Expression,
    bindings: Optional[Mapping[str, Value]] = None,
) -> Value:
    """Value of a first-order expression in structure s.  Both rigid and
    flexible variables are looked up in s.xi (the extended variable set);
    modal and defined-operator nodes are rejected."""
    return compile_fol(e)(s, 0, bindings or {})


def eval_ml(k: KripkeModel, w: Value, e: Expression) -> Value:
    """Truth value of a propositional modal formula at state w of k.
    Atoms are flexible variables; anything first-order is rejected."""
    return compile_ml(e)(k, w, {})


def compile_expr(e: Expression, env: DefinitionEnvironment) -> Evaluator:
    """`eval_expr` of e as a function of (m, w, bindings)."""
    return _compile(e, env, True, True)


def compile_fol(e: Expression) -> Evaluator:
    """`eval_fol` of e as a function of (s, state, bindings); the state is
    ignored."""
    return _compile(e, None, True, False)


def compile_ml(e: Expression) -> Evaluator:
    """`eval_ml` of e as a function of (k, w, bindings); the bindings are
    ignored."""
    return _compile(e, None, False, True)


# What each (first_order, modal) view admits, for its error messages.
_FRAGMENT = {
    (True, True): "an expression",
    (True, False): "a first-order expression",
    (False, True): "a propositional modal formula",
}


def _compile(
    e: Expression,
    env: Optional[DefinitionEnvironment],
    first_order: bool,
    modal: bool,
) -> Evaluator:
    """The semantics restricted to a fragment, compiled in one walk over e:
    `first_order` admits rigid variables, operators, equality and
    quantifiers, `modal` admits the modalities, and defined operators need
    both.  Without `modal`, m has no states and flexible variables are read
    from m.xi.

    No evaluation error is raised here: a node outside the fragment, an
    unknown definition or a missing value raises when evaluation reaches
    it, so evaluation short-circuits exactly as a tree walk would."""
    match e:
        case Implies(lhs, rhs):
            # The derived connectives, as the syntax helpers build them,
            # run as one closure each: not_ is (e => F), and_ is
            # ((a => (b => F)) => F) and or_ is ((a => F) => b).
            if type(rhs) is FalseExpr:
                if type(lhs) is Implies and type(lhs.rhs) is Implies \
                        and type(lhs.rhs.rhs) is FalseExpr:
                    return _and(
                        _compile(lhs.lhs, env, first_order, modal),
                        _compile(lhs.rhs.lhs, env, first_order, modal))
                return _not(_compile(lhs, env, first_order, modal))
            if type(lhs) is Implies and type(lhs.rhs) is FalseExpr:
                return _or(_compile(lhs.lhs, env, first_order, modal),
                           _compile(rhs, env, first_order, modal))
            return _implies(_compile(lhs, env, first_order, modal),
                            _compile(rhs, env, first_order, modal))
        case FalseExpr():
            return _false
        case FlexVar(name):
            return _flex(name, modal)
        case Eq(lhs, rhs) if first_order:
            return _eq(_compile(lhs, env, first_order, modal),
                       _compile(rhs, env, first_order, modal))
        case RigidVar(name) if first_order:
            return _rigid(name)
        case OpApp(op, args) if first_order:
            return _opapp(op, tuple([_compile(a, env, first_order, modal)
                                     for a in args]))
        case Nabla(body) if modal:
            return _nabla(_compile(body, env, first_order, modal))
        case Forall(var, body) if first_order:
            return _forall(var, _compile(body, env, first_order, modal))
        case Prime(body) if modal:
            return _prime(_compile(body, env, first_order, modal))
        case DefApp(op, args) if first_order and modal:
            return _defapp(op, args, env)
    return _outside(e, _FRAGMENT[first_order, modal])


# One closure factory per node kind, so that compiling a node allocates
# only the cells its own closure reads.

def _implies(lhs: Evaluator, rhs: Evaluator) -> Evaluator:
    def implies(m, w, bnd):
        if lhs(m, w, bnd) != m.tt or rhs(m, w, bnd) == m.tt:
            return m.tt
        return m.ff
    return implies


# The fused connectives give the values of the Implies chains they replace
# and evaluate the same operands in the same order, stopping where the
# chain would: `and` skips b unless a is tt, `or` skips b when a is tt.

def _not(body: Evaluator) -> Evaluator:
    def not_(m, w, bnd):
        return m.ff if body(m, w, bnd) == m.tt else m.tt
    return not_


def _and(lhs: Evaluator, rhs: Evaluator) -> Evaluator:
    def and_(m, w, bnd):
        if lhs(m, w, bnd) == m.tt and rhs(m, w, bnd) == m.tt:
            return m.tt
        return m.ff
    return and_


def _or(lhs: Evaluator, rhs: Evaluator) -> Evaluator:
    def or_(m, w, bnd):
        # In a model with tt == ff, (a => F) is always tt, so the chain
        # runs b whatever a is.
        if lhs(m, w, bnd) == m.tt and m.tt != m.ff:
            return m.tt
        return m.tt if rhs(m, w, bnd) == m.tt else m.ff
    return or_


def _false(m, w, bnd):
    return m.ff


def _flex(name: str, modal: bool) -> Evaluator:
    def flex(m, w, bnd):
        try:
            return m.zeta[(name, w)] if modal else m.xi[name]
        except KeyError:
            raise EvalError(f"flexible variable {name!r} has no value"
                            + (f" at state {w!r}" if modal else ""))
    return flex


def _eq(lhs: Evaluator, rhs: Evaluator) -> Evaluator:
    def eq(m, w, bnd):
        return m.tt if lhs(m, w, bnd) == rhs(m, w, bnd) else m.ff
    return eq


def _rigid(name: str) -> Evaluator:
    def rigid(m, w, bnd):
        if name in bnd:
            return bnd[name]
        try:
            return m.xi[name]
        except KeyError:
            raise EvalError(f"rigid variable {name!r} has no value")
    return rigid


def _opapp(op: str, args: tuple[Evaluator, ...]) -> Evaluator:
    def opapp(m, w, bnd):
        vals = tuple([a(m, w, bnd) for a in args]) if args else ()
        try:
            return m.op_interp[op][vals]
        except KeyError:
            raise EvalError(f"operator {op!r} not interpreted")
    return opapp


def _nabla(body: Evaluator) -> Evaluator:
    def nabla(m, w, bnd):
        for w2 in _successor_table(m.R).get(w, ()):
            if body(m, w2, bnd) != m.tt:
                return m.ff
        return m.tt
    return nabla


def _forall(var: str, body: Evaluator) -> Evaluator:
    def forall(m, w, bnd):
        # One overlay serves every element: no closure keeps `bnd`.
        inner = dict(bnd)
        for d in m.universe:
            inner[var] = d
            if body(m, w, inner) != m.tt:
                return m.ff
        return m.tt
    return forall


def _prime(body: Evaluator) -> Evaluator:
    def prime(m, w, bnd):
        if m.primeR is None:
            raise EvalError("prime evaluated in a model without primeR")
        succ = _successor_table(m.primeR).get(w, ())
        if m.prime_is_function:
            # prime_successor raises for a w that is not a state
            return body(m, succ[0] if succ else m.prime_successor(w), bnd)
        for w2 in succ:
            if body(m, w2, bnd) != m.tt:
                return m.ff
        return m.tt
    return prime


def _defapp(op: str, args: tuple[Expression, ...],
            env: DefinitionEnvironment) -> Evaluator:
    # The instantiated body depends only on the syntax, never on the
    # model, state or bindings, so it is substituted and compiled on first
    # use and kept.  Binding the parameters to argument values instead
    # would be unsound: a flexible argument under a modality changes value
    # with the state.
    compiled: Optional[Evaluator] = None

    def defapp(m, w, bnd):
        nonlocal compiled
        if compiled is None:
            d = env.definition(op)
            body = substitute(d.body, dict(zip(d.params, args)))
            compiled = _compile(body, env, True, True)
        return compiled(m, w, bnd)
    return defapp


def _outside(e: Expression, fragment: str) -> Evaluator:
    def outside(m, w, bnd):
        raise EvalError(f"not {fragment}: {e}")
    return outside


# Lanes: one evaluation for many models at once.
#
# A bounded search evaluates each expression in many models that share a
# universe and a number of states n.  `compile_lanes` compiles it once
# into a closure of (lanes, bindings) that gives, as one int, its value
# in all the models of a block: bit g * n + w (a lane) stands for state w
# of the block's model g.  This is global model checking (each
# subformula's extension computed bottom-up as a set of states, Clarke,
# Emerson & Sistla, TOPLAS 1986), widened from the states of one model to
# the states of every model of a block.
#
# A formula is compiled to the mask of the lanes where it is tt (it is ff
# elsewhere); a term, whose values are not truth values, to a one-hot
# dict from each value it takes to the mask of the lanes where it takes
# it.  The models of a block may differ in everything but the universe
# and the states: their xi values, operator tables and flexible values
# are one-hot masks too (see `Lanes`), and each model has its own
# relations (see `Access`).  A nabla (or the truth of a prime) is the box
# of its body's mask over the relation.  A rigid variable's binding is a
# one-hot dict too: a quantifier binds each element d as {d: every lane},
# and a definition's application binds each parameter to its argument's
# values, so the body, compiled once, reads the argument at whatever
# lanes it reads the parameter, successor states included, which is the
# value the substituted body would give.  The kernels compute every
# operand, where the point evaluator stops at the first decisive one;
# they give the same values whenever evaluation raises no error, which is
# always the case in a model that interprets every symbol the expression
# uses, as the models of a search do.

class Access:
    """One accessibility relation per model of a block, as the modal
    kernels read it.  `edges` pairs each shift d = w - t with the lanes
    (g, w) whose model g has the edge (w, t), so a box is one mask
    operation per shift; `func` holds the lanes of the models whose
    relation is a total function on the states, and `func_edges` is
    `edges` inside them."""

    __slots__ = ("edges", "func", "func_edges")

    def __init__(self, edges: Mapping[int, int], func: int):
        self.edges = tuple(edges.items())
        self.func = func
        self.func_edges = tuple((d, mask & func) for d, mask in self.edges)

    @classmethod
    def of_pairs(cls, nstates: int, rep: int,
                 pairs: Mapping[tuple[int, int], int]) -> "Access":
        """The relations given by `pairs`, which maps each state pair
        (w, t) to the lanes at column w whose model has the edge (w, t);
        `rep` is the first lane of each model."""
        by_shift: dict[int, int] = {}
        for (w, t), mask in pairs.items():
            if mask:
                by_shift[w - t] = by_shift.get(w - t, 0) | mask
        # The lanes at column w with exactly one successor of w, then the
        # models that have one at every column, spread to their lanes.
        one = 0
        for w in range(nstates):
            seen = twice = 0
            for t in range(nstates):
                mask = pairs.get((w, t), 0)
                twice |= seen & mask
                seen |= mask
            one |= seen & ~twice
        func = one
        for s in range(1, nstates):
            func &= one >> s
        return cls(by_shift, (func & rep) * ((1 << nstates) - 1))


class Lanes:
    """A block of models over one universe and the states 0 .. nstates-1,
    where a lane-compiled closure runs: `full` is every lane and `rep`
    the first lane of each model.  `xi` maps each rigid variable and
    `flex` each flexible variable to its one-hot values, `ops` maps each
    operator to the one-hot values of its result for each tuple of
    arguments, and `access` holds the relations (R, primeR) as
    `Access`es, primeR None when no model has one."""

    __slots__ = ("nstates", "universe", "tt", "ff", "full", "rep", "xi",
                 "ops", "flex", "access")

    def __init__(self, nstates: int, universe: tuple[Value, ...],
                 tt: Value, ff: Value, full: int, rep: int,
                 xi: Mapping[str, Mapping[Value, int]],
                 ops: Mapping[str, Mapping[tuple[Value, ...],
                                           Mapping[Value, int]]],
                 flex: Mapping[str, Mapping[Value, int]],
                 access: tuple[Access, Optional[Access]]):
        self.nstates, self.universe, self.tt, self.ff = (
            nstates, universe, tt, ff)
        self.full, self.rep = full, rep
        self.xi, self.ops, self.flex, self.access = xi, ops, flex, access


# A lane-compiled expression: (lanes, bindings) -> the mask of the lanes
# where a formula is tt, or a term's one-hot {value: mask}.  The bindings
# map rigid variables to one-hot values.
LaneEvaluator = Callable[[Lanes, Mapping[str, Mapping[Value, int]]], Any]


# The compiled definition bodies, keyed by (definition name, boolean).
LaneBodies = dict[tuple[str, bool], LaneEvaluator]


def compile_lanes(e: Expression, env: DefinitionEnvironment,
                  bodies: Optional[LaneBodies] = None) -> LaneEvaluator:
    """The lanes where e is tt, as a function of (lanes, bindings).
    Compilations that share `bodies` compile each definition body once
    per value/truth position."""
    return _lanes(e, env, True, {} if bodies is None else bodies)


def _lanes(e: Expression, env: DefinitionEnvironment, boolean: bool,
           bodies: LaneBodies) -> LaneEvaluator:
    """e compiled over lanes: the mask of the lanes where e is tt when
    `boolean`, else e's one-hot values.  A definition body is compiled
    once into `bodies`, and an application binds its parameters to its
    arguments' one-hot values."""
    match e:
        case Implies(lhs, rhs):
            if type(rhs) is FalseExpr:
                if type(lhs) is Implies and type(lhs.rhs) is Implies \
                        and type(lhs.rhs.rhs) is FalseExpr:
                    fn = _lane_and(_lanes(lhs.lhs, env, True, bodies),
                                   _lanes(lhs.rhs.lhs, env, True, bodies))
                else:
                    fn = _lane_not(_lanes(lhs, env, True, bodies))
            elif type(lhs) is Implies and type(lhs.rhs) is FalseExpr:
                fn = _lane_or(_lanes(lhs.lhs, env, True, bodies),
                              _lanes(rhs, env, True, bodies))
            else:
                fn = _lane_implies(_lanes(lhs, env, True, bodies),
                                   _lanes(rhs, env, True, bodies))
        case FalseExpr():
            fn = _lane_false
        case Eq(lhs, rhs):
            fn = _lane_eq(_lanes(lhs, env, False, bodies),
                          _lanes(rhs, env, False, bodies))
        case Forall(var, body):
            fn = _lane_forall(var, _lanes(body, env, True, bodies))
        case Nabla(body):
            fn = _lane_box(_lanes(body, env, True, bodies), 0)
        case Prime(body) if boolean:
            # Both readings of prime agree on truth: tt iff the body is tt
            # at every primeR-successor.
            return _lane_box(_lanes(body, env, True, bodies), 1)
        case Prime(body):
            return _lane_prime(_lanes(body, env, False, bodies))
        case DefApp(op, args):
            d = env.definition(op)
            body = bodies.get((op, boolean))
            if body is None:
                body = bodies[op, boolean] = _lanes(d.body, env, boolean,
                                                    bodies)
            return _lane_defapp(d.params, tuple([
                _lanes(a, env, False, bodies) for a in args]), body)
        case FlexVar(name):
            return _lane_flex(name, boolean)
        case RigidVar(name):
            return _lane_rigid(name, boolean)
        case OpApp(op, args):
            fn = _lane_opapp(op, tuple([_lanes(a, env, False, bodies)
                                        for a in args]))
            return _lane_truth(fn) if boolean else fn
        case _:
            raise InternalError(f"unknown expression node {e!r}")
    # e is a formula: its values are tt and ff
    return fn if boolean else _lane_values(fn)


def _box(body: int, edges: tuple[tuple[int, int], ...], full: int) -> int:
    """The lanes (g, w) whose every successor t under model g's relation
    has bit (g, t) in body: the ones no edge (w, t) leaves to a lane
    outside it."""
    bad = 0
    for d, mask in edges:
        bad |= mask & ~(body << d if d >= 0 else body >> -d)
    return full & ~bad


def _lane_box(body: LaneEvaluator, rel: int) -> LaneEvaluator:
    """Box over relation `rel` (0: R, 1: primeR) of a formula."""
    def box(k, bnd):
        return _box(body(k, bnd), k.access[rel].edges, k.full)
    return box


def _lane_prime(body: LaneEvaluator) -> LaneEvaluator:
    """Prime of a term, as `_prime` reads it: the body's value at the
    successor in lanes whose primeR is a total function, else tt or ff as
    the body is tt at every successor or not."""
    def prime(k, bnd):
        vals = body(k, bnd)
        p = k.access[1]
        out: dict[Value, int] = {}
        for v, m in vals.items():
            at_next = 0
            for d, mask in p.func_edges:
                at_next |= mask & (m << d if d >= 0 else m >> -d)
            if at_next:
                out[v] = at_next
        rest = k.full & ~p.func
        box = _box(vals.get(k.tt, 0), p.edges, k.full) & rest
        out[k.tt] = out.get(k.tt, 0) | box
        out[k.ff] = out.get(k.ff, 0) | rest & ~box
        return out
    return prime


def _lane_implies(lhs: LaneEvaluator, rhs: LaneEvaluator) -> LaneEvaluator:
    def implies(k, bnd):
        return k.full & ~lhs(k, bnd) | rhs(k, bnd)
    return implies


def _lane_not(body: LaneEvaluator) -> LaneEvaluator:
    def not_(k, bnd):
        return k.full & ~body(k, bnd)
    return not_


def _lane_and(lhs: LaneEvaluator, rhs: LaneEvaluator) -> LaneEvaluator:
    def and_(k, bnd):
        return lhs(k, bnd) & rhs(k, bnd)
    return and_


def _lane_or(lhs: LaneEvaluator, rhs: LaneEvaluator) -> LaneEvaluator:
    def or_(k, bnd):
        return lhs(k, bnd) | rhs(k, bnd)
    return or_


def _lane_false(k, bnd):
    return 0


def _lane_values(fn: LaneEvaluator) -> LaneEvaluator:
    """A formula's mask as one-hot values."""
    def values(k, bnd):
        m = fn(k, bnd)
        return {k.tt: m, k.ff: k.full & ~m}
    return values


def _lane_truth(fn: LaneEvaluator) -> LaneEvaluator:
    """The lanes where a term is tt."""
    def truth(k, bnd):
        return fn(k, bnd).get(k.tt, 0)
    return truth


def _lane_eq(lhs: LaneEvaluator, rhs: LaneEvaluator) -> LaneEvaluator:
    def eq(k, bnd):
        a, b = lhs(k, bnd), rhs(k, bnd)
        acc = 0
        for v, m in a.items():
            other = b.get(v)
            if other:
                acc |= m & other
        return acc
    return eq


def _lane_forall(var: str, body: LaneEvaluator) -> LaneEvaluator:
    def forall(k, bnd):
        inner = dict(bnd)
        acc = k.full
        for d in k.universe:
            inner[var] = {d: k.full}
            acc &= body(k, inner)
            if not acc:
                break
        return acc
    return forall


def _lane_flex(name: str, boolean: bool) -> LaneEvaluator:
    def flex(k, bnd):
        values = k.flex[name]
        return values.get(k.tt, 0) if boolean else values
    return flex


def _lane_rigid(name: str, boolean: bool) -> LaneEvaluator:
    def rigid(k, bnd):
        values = bnd[name] if name in bnd else k.xi[name]
        return values.get(k.tt, 0) if boolean else values
    return rigid


def _lane_defapp(params: tuple[str, ...], args: tuple[LaneEvaluator, ...],
                 body: LaneEvaluator) -> LaneEvaluator:
    """An application of a definition whose compiled body is `body`.  The
    body's free rigid variables are its parameters, so it runs on exactly
    their bindings, and no name the caller binds can be captured."""
    def defapp(k, bnd):
        return body(k, {p: a(k, bnd) for p, a in zip(params, args)})
    return defapp


def _lane_opapp(op: str, args: tuple[LaneEvaluator, ...]) -> LaneEvaluator:
    def opapp(k, bnd):
        table = k.ops[op]
        if not args:
            return table[()]
        # (argument values, the lanes where the arguments take them)
        rows = [((), k.full)]
        for a in args:
            vals = a(k, bnd).items()
            rows = [(key + (v,), m & mv) for key, m in rows
                    for v, mv in vals if m & mv]
        out: dict[Value, int] = {}
        for key, m in rows:
            for v, mv in table[key].items():
                hit = m & mv
                if hit:
                    out[v] = out.get(v, 0) | hit
        return out
    return opapp


def holds(m: KripkeModel, w: Value, e: Expression,
          env: DefinitionEnvironment) -> bool:
    return eval_expr(m, w, e, env) == m.tt


def countermodel_state(m: KripkeModel, ob: Obligation) -> Optional[Value]:
    """State of m at which the obligation's goal fails, provided every
    hypothesis holds at every state; None when m is not a countermodel."""
    return obligation_checker(ob)(m)[1]


def obligation_checker(ob: Obligation) -> Callable[
        [KripkeModel], tuple[Optional[Expression], Optional[Value]]]:
    """The per-model check of an obligation, by the point evaluator, with
    its expressions compiled once, here: for a model m, (the first
    hypothesis that fails at some state of m, None) or, when every
    hypothesis holds everywhere, (None, the first state at which the goal
    fails, or None).  Evaluation stops at the first failure, so a model
    that refutes a hypothesis never runs the goal."""
    hyps = [(h, compile_expr(h, ob.env)) for h in ob.hypotheses]
    goal = compile_expr(ob.goal, ob.env)

    def check(m: KripkeModel
              ) -> tuple[Optional[Expression], Optional[Value]]:
        for h, hyp in hyps:
            for w in m.states:
                if hyp(m, w, {}) != m.tt:
                    return h, None
        for w in m.states:
            if goal(m, w, {}) != m.tt:
                return None, w
        return None, None
    return check
