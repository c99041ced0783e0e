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
as `countermodel_checker` does for an obligation.

The AST has no negation, conjunction or disjunction: `not_`, `and_` and
`or_` build them from implications and false.  `_compile` recognises those
shapes and compiles each to one fused closure, which gives the chain's
value, runs its operands in the chain's order and stops where the chain
would.  The nabla and prime closures read a state's successors from
`models._successor_table`, one cached table per relation shared by every
model built on it, so bounded search sorts each relation once.

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

from typing import Callable, Mapping, Optional, Union

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


def holds(m: KripkeModel, w: Value, e: Expression,
          env: DefinitionEnvironment) -> bool:
    return eval_expr(m, w, e, env) == m.tt


def countermodel_state(m: KripkeModel, ob: Obligation) -> Optional[Value]:
    """State of m at which the obligation's goal fails, provided every
    hypothesis holds at every state; None when m is not a countermodel."""
    return countermodel_checker(ob)(m)


def countermodel_checker(
        ob: Obligation) -> Callable[[KripkeModel], Optional[Value]]:
    """`countermodel_state` for one obligation over many models: its
    expressions are compiled once, here."""
    hyps = [compile_expr(h, ob.env) for h in ob.hypotheses]
    goal = compile_expr(ob.goal, ob.env)

    def state(m: KripkeModel) -> Optional[Value]:
        for h in hyps:
            for w in m.states:
                if h(m, w, {}) != m.tt:
                    return None
        for w in m.states:
            if goal(m, w, {}) != m.tt:
                return w
        return None
    return state
