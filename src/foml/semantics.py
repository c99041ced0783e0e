"""Exact evaluation of expressions in finite models.

One semantics, the Kripke semantics, read two ways.  The point path
interprets: `_evaluate` walks an expression in one model at one state.
`eval_expr` is the full language in Kripke models; `eval_fol` and
`eval_ml` are views restricted to a fragment, which raise EvalError when
evaluation reaches a node outside the fragment:

  eval_fol : first-order fragment in a first-order structure, read as a
             single state at which every variable takes its xi value
  eval_ml  : propositional modal fragment in a propositional model

`obligation_checker` is the per-model check of an obligation behind
`check-model`, `countermodel_state` and the tests' sweeps.

`compile_lanes` is the one compiler, for bounded search: one call gives
an expression's value in every model of a lane block as an int bitset
over (model, state) lanes (see the comment above `Access`).

The AST has no negation, conjunction or disjunction: `not_`, `and_` and
`or_` build them from implications and false.  Both readings take each
of those shapes in one step; the point path runs its operands in the
chain's order and stops where the chain would.  Nabla and prime read a
state's successors from `models._successor_table`, one cached table per
relation shared by every model built on it.

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

from .models import FOLStructure, KripkeModel, Value, _successor_table
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
)


class EvalError(FomlError):
    pass


def eval_expr(
    m: KripkeModel,
    w: Value,
    e: Expression,
    env: DefinitionEnvironment,
    bindings: Optional[Mapping[str, Value]] = None,
) -> Value:
    """Value of e at state w of m.  `bindings` overlays m.xi and is how
    quantifiers (and witness constructions) rebind rigid variables."""
    return _evaluate(e, m, w, bindings or {}, env, True, True)


def eval_fol(
    s: FOLStructure,
    e: Expression,
    bindings: Optional[Mapping[str, Value]] = None,
) -> Value:
    """Value of a first-order expression in structure s.  Both rigid and
    flexible variables are looked up in s.xi (the extended variable set);
    modal and defined-operator nodes are rejected."""
    return _evaluate(e, s, 0, bindings or {}, None, True, False)


def eval_ml(k: KripkeModel, w: Value, e: Expression) -> Value:
    """Truth value of a propositional modal formula at state w of k.
    Atoms are flexible variables; anything first-order is rejected."""
    return _evaluate(e, k, w, {}, None, False, True)


# What each (first_order, modal) view admits, for its error messages.
_FRAGMENT = {
    (True, True): "an expression",
    (True, False): "a first-order expression",
    (False, True): "a propositional modal formula",
}


class _Arg(tuple):
    """A definition's argument, as its parameter is bound in the body: the
    pair of the argument expression and the caller's bindings."""


def _evaluate(
    e: Expression,
    m: Union[KripkeModel, FOLStructure],
    w: Value,
    bnd: Mapping[str, Any],
    env: Optional[DefinitionEnvironment],
    first_order: bool,
    modal: bool,
) -> Value:
    """The value of e at state w of m, under the semantics restricted to a
    fragment: `first_order` admits rigid variables, operators, equality
    and quantifiers, `modal` admits the modalities, and defined operators
    need both.  Without `modal`, m has no states and flexible variables
    are read from m.xi.  A node outside the fragment, an unknown
    definition or a missing value raises when evaluation reaches it.

    An application binds each parameter to its argument with the caller's
    bindings, and the body evaluates the argument where it reads the
    parameter: the value of the substituted body, with no name captured,
    since the body's free rigid variables are its parameters.  Reading a
    parameter, entering a body and following a functional prime go on in
    the same frame."""
    # Dispatch is on the node's exact type: a class-pattern `match` costs
    # about twice as much per node.
    while True:
        t = type(e)
        if t is Implies:
            # The derived connectives, as the syntax helpers build them,
            # take one step each: not_ is (a => F), and_ is
            # ((a => (b => F)) => F) and or_ is ((a => F) => b).  Each runs
            # a, then b only where the chain would.
            lhs, rhs, tt = e.lhs, e.rhs, m.tt
            if type(rhs) is not FalseExpr:
                if type(lhs) is Implies and type(lhs.rhs) is FalseExpr:
                    # or_: with tt == ff, (a => F) is always tt
                    if _evaluate(lhs.lhs, m, w, bnd, env, first_order,
                                 modal) == tt and tt != m.ff:
                        return tt
                elif _evaluate(lhs, m, w, bnd, env, first_order,
                               modal) != tt:
                    return tt
            elif type(lhs) is Implies and type(lhs.rhs) is Implies \
                    and type(lhs.rhs.rhs) is FalseExpr:
                if _evaluate(lhs.lhs, m, w, bnd, env, first_order,
                             modal) != tt:
                    return m.ff
                rhs = lhs.rhs.lhs
            else:
                return m.ff if _evaluate(lhs, m, w, bnd, env, first_order,
                                         modal) == tt else tt
            return tt if _evaluate(rhs, m, w, bnd, env, first_order,
                                   modal) == tt else m.ff
        if t is FalseExpr:
            return m.ff
        if t is FlexVar:
            try:
                return m.zeta[(e.name, w)] if modal else m.xi[e.name]
            except KeyError:
                raise EvalError(f"flexible variable {e.name!r} has no value"
                                + (f" at state {w!r}" if modal else ""))
        if first_order:
            if t is RigidVar:
                if e.name not in bnd:
                    try:
                        return m.xi[e.name]
                    except KeyError:
                        raise EvalError(
                            f"rigid variable {e.name!r} has no value")
                value = bnd[e.name]
                if type(value) is not _Arg:
                    return value
                e, bnd = value
                continue
            if t is OpApp:
                vals = []
                for a in e.args:
                    vals.append(_evaluate(a, m, w, bnd, env, first_order,
                                          modal))
                try:
                    return m.op_interp[e.op][tuple(vals)]
                except KeyError:
                    raise EvalError(f"operator {e.op!r} not interpreted")
            if t is Eq:
                if _evaluate(e.lhs, m, w, bnd, env, first_order, modal) \
                        == _evaluate(e.rhs, m, w, bnd, env, first_order,
                                     modal):
                    return m.tt
                return m.ff
            if t is Forall:
                # One overlay serves every element: an argument bound to
                # it is read only while its element is bound.
                inner, var = dict(bnd), e.var
                for d in m.universe:
                    inner[var] = d
                    if _evaluate(e.body, m, w, inner, env, first_order,
                                 modal) != m.tt:
                        return m.ff
                return m.tt
        if modal:
            if t is Nabla:
                for w2 in _successor_table(m.R).get(w, ()):
                    if _evaluate(e.body, m, w2, bnd, env, first_order,
                                 modal) != m.tt:
                        return m.ff
                return m.tt
            if t is Prime:
                if m.primeR is None:
                    raise EvalError(
                        "prime evaluated in a model without primeR")
                succ = _successor_table(m.primeR).get(w, ())
                if not m.prime_is_function:
                    for w2 in succ:
                        if _evaluate(e.body, m, w2, bnd, env, first_order,
                                     modal) != m.tt:
                            return m.ff
                    return m.tt
                # prime_successor raises for a w that is not a state
                e, w = e.body, succ[0] if succ else m.prime_successor(w)
                continue
            if t is DefApp and first_order:
                d, params = env.definition(e.op), {}
                for p, a in zip(d.params, e.args):
                    params[p] = _Arg((a, bnd))
                e, bnd = d.body, params
                continue
        raise EvalError(f"not {_FRAGMENT[first_order, modal]}: {e}")


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
    relation is a total function on the states."""

    __slots__ = ("edges", "func")

    def __init__(self, edges: Mapping[int, int], func: int):
        self.edges = tuple(edges.items())
        self.func = func

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
                  bodies: LaneBodies) -> LaneEvaluator:
    """The lanes where e is tt, as a function of (lanes, bindings).
    Compilations that share `bodies` compile each definition body once
    per value/truth position."""
    return _lanes(e, env, True, bodies)


def _lanes(e: Expression, env: DefinitionEnvironment, boolean: bool,
           bodies: LaneBodies) -> LaneEvaluator:
    """e compiled over lanes: the mask of the lanes where e is tt when
    `boolean`, else e's one-hot values.  A definition body is compiled
    once into `bodies`, and an application binds its parameters to its
    arguments' one-hot values."""
    t = type(e)
    if t is Implies:
        lhs, rhs = e.lhs, e.rhs
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
    elif t is OpApp:
        fn = _lane_opapp(e.op, tuple([_lanes(a, env, False, bodies)
                                      for a in e.args]))
        return _lane_truth(fn) if boolean else fn
    elif t is RigidVar:
        return _lane_rigid(e.name, boolean)
    elif t is FlexVar:
        return _lane_flex(e.name, boolean)
    elif t is Eq:
        fn = _lane_eq(_lanes(e.lhs, env, False, bodies),
                      _lanes(e.rhs, env, False, bodies))
    elif t is FalseExpr:
        fn = _lane_false
    elif t is Forall:
        fn = _lane_forall(e.var, _lanes(e.body, env, True, bodies))
    elif t is Nabla:
        fn = _lane_box(_lanes(e.body, env, True, bodies), 0)
    elif t is Prime:
        if boolean:
            # Both readings of prime agree on truth: tt iff the body is tt
            # at every primeR-successor.
            return _lane_box(_lanes(e.body, env, True, bodies), 1)
        return _lane_prime(_lanes(e.body, env, False, bodies))
    elif t is DefApp:
        op = e.op
        d = env.definition(op)
        body = bodies.get((op, boolean))
        if body is None:
            body = bodies[op, boolean] = _lanes(d.body, env, boolean,
                                                bodies)
        return _lane_defapp(d.params, tuple([
            _lanes(a, env, False, bodies) for a in e.args]), body)
    else:
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
            for d, mask in p.edges:
                at_next |= mask & (m << d if d >= 0 else m >> -d)
            at_next &= p.func
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


def countermodel_state(m: KripkeModel, ob: Obligation) -> Optional[Value]:
    """State of m at which the obligation's goal fails, provided every
    hypothesis holds at every state; None when m is not a countermodel."""
    return obligation_checker(ob)(m)[1]


def obligation_checker(ob: Obligation) -> Callable[
        [KripkeModel], tuple[Optional[Expression], Optional[Value]]]:
    """The per-model check of an obligation, by the point interpreter:
    for a model m, (the first hypothesis that fails at some state of m,
    None) or, when every hypothesis holds everywhere, (None, the first
    state at which the goal fails, or None).  Evaluation stops at the
    first failure, so a model that refutes a hypothesis never runs the
    goal."""
    env = ob.env

    def check(m: KripkeModel
              ) -> tuple[Optional[Expression], Optional[Value]]:
        for h in ob.hypotheses:
            for w in m.states:
                if _evaluate(h, m, w, {}, env, True, True) != m.tt:
                    return h, None
        for w in m.states:
            if _evaluate(ob.goal, m, w, {}, env, True, True) != m.tt:
                return None, w
        return None, None
    return check
