"""Exact evaluation of expressions in finite models.

One evaluator gives the Kripke semantics.  `eval_expr` applies it to the
full language at a state of a Kripke model; `eval_fol` and `eval_ml` are
views of it restricted to a fragment, and raise EvalError when evaluation
reaches a node outside the fragment:

  eval_fol : first-order fragment in a first-order structure, read as a
             single state at which every variable takes its xi value
  eval_ml  : propositional modal fragment in a propositional model

The implication / quantifier / equality clauses treat any value other than
tt as false-like, so no coercion of non-boolean values is performed
anywhere.  Universal quantification ranges over the whole (constant)
universe.  A nabla node maps the set of body values at accessible states to
tt iff that set is included in {tt}, and to ff otherwise.

Prime is evaluated over the model's second accessibility relation.  When
that relation is a total function on states, eval_expr evaluates prime in
the next-state reading (the value of the body at the unique successor),
which is the reading under which prime distribution laws are
value-preserving; otherwise, and always in eval_ml, it collapses exactly
like nabla.  The two readings agree on truth (being tt) whenever both
apply.
"""
from __future__ import annotations

from typing import Mapping, Optional, Union

from .models import FOLStructure, KripkeModel, PropModel, Value
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


def eval_expr(
    m: KripkeModel,
    w: Value,
    e: Expression,
    env: DefinitionEnvironment,
    bindings: Optional[Mapping[str, Value]] = None,
) -> Value:
    """Value of e at state w of m.  `bindings` overlays m.xi and is how
    quantifiers (and witness constructions) rebind rigid variables."""
    return _evaluate(m, w, e, env, bindings, first_order=True, modal=True)


def eval_fol(
    s: FOLStructure,
    e: Expression,
    bindings: Optional[Mapping[str, Value]] = None,
) -> Value:
    """Value of a first-order expression in structure s.  Both rigid and
    flexible variables are looked up in s.xi (the extended variable set);
    modal and defined-operator nodes are rejected."""
    return _evaluate(s, 0, e, None, bindings, first_order=True, modal=False)


def eval_ml(k: PropModel, w: Value, e: Expression) -> Value:
    """Truth value of a propositional modal formula at state w of k.
    Atoms are flexible variables; anything first-order is rejected."""
    return _evaluate(k, w, e, None, None, first_order=False, modal=True)


# What each (first_order, modal) view admits, for its error messages.
_FRAGMENT = {
    (True, True): "an expression",
    (True, False): "a first-order expression",
    (False, True): "a propositional modal formula",
}


def _evaluate(
    m: Union[KripkeModel, FOLStructure, PropModel],
    w: Value,
    e: Expression,
    env: Optional[DefinitionEnvironment],
    bindings: Optional[Mapping[str, Value]],
    *,
    first_order: bool,
    modal: bool,
) -> Value:
    """The semantics restricted to a fragment: `first_order` admits rigid
    variables, operators, equality and quantifiers, `modal` admits the
    modalities, and defined operators need both.  Without `modal`, m has
    no states and flexible variables are read from m.xi; without
    `first_order`, prime keeps the relational reading."""

    def go(e: Expression, w: Value, bnd: dict[str, Value]) -> Value:
        match e:
            case Implies(lhs, rhs):
                if go(lhs, w, bnd) != m.tt or go(rhs, w, bnd) == m.tt:
                    return m.tt
                return m.ff
            case FalseExpr():
                return m.ff
            case FlexVar(name):
                try:
                    return m.zeta[(name, w)] if modal else m.xi[name]
                except KeyError:
                    raise EvalError(
                        f"flexible variable {name!r} has no value"
                        + (f" at state {w!r}" if modal else ""))
            case Eq(lhs, rhs) if first_order:
                return m.tt if go(lhs, w, bnd) == go(rhs, w, bnd) else m.ff
            case RigidVar(name) if first_order:
                if name in bnd:
                    return bnd[name]
                try:
                    return m.xi[name]
                except KeyError:
                    raise EvalError(f"rigid variable {name!r} has no value")
            case OpApp(op, args) if first_order:
                vals = tuple([go(a, w, bnd) for a in args])
                try:
                    return m.op_interp[op][vals]
                except KeyError:
                    raise EvalError(f"operator {op!r} not interpreted")
            case Nabla(body) if modal:
                for w2 in m.successors(w, m.R):
                    if go(body, w2, bnd) != m.tt:
                        return m.ff
                return m.tt
            case Forall(var, body) if first_order:
                for d_ in m.universe:
                    inner = dict(bnd)
                    inner[var] = d_
                    if go(body, w, inner) != m.tt:
                        return m.ff
                return m.tt
            case Prime(body) if modal:
                if m.primeR is None:
                    raise EvalError(
                        "prime evaluated in a model without primeR")
                # Only eval_ml keeps the relational reading, because a
                # PropModel has no prime_is_function.  Its values are all
                # truth values, on which the two readings agree wherever
                # both apply.
                if first_order and m.prime_is_function():
                    return go(body, m.prime_successor(w), bnd)
                for w2 in m.successors(w, m.primeR):
                    if go(body, w2, bnd) != m.tt:
                        return m.ff
                return m.tt
            case DefApp(op, args) if first_order and modal:
                d = env.definition(op)
                return go(substitute(d.body, dict(zip(d.params, args))),
                          w, bnd)
            case _:
                raise EvalError(f"not {_FRAGMENT[first_order, modal]}: {e}")

    return go(e, w, dict(bindings or {}))


def holds(m: KripkeModel, w: Value, e: Expression,
          env: DefinitionEnvironment) -> bool:
    return eval_expr(m, w, e, env) == m.tt


def holds_globally(m: KripkeModel, e: Expression,
                   env: DefinitionEnvironment) -> bool:
    return all(holds(m, w, e, env) for w in m.states)


def countermodel_state(m: KripkeModel, ob: Obligation) -> Optional[Value]:
    """State of m at which the obligation's goal fails, provided every
    hypothesis holds at every state; None when m is not a countermodel."""
    if not all(holds_globally(m, h, ob.env) for h in ob.hypotheses):
        return None
    for w in m.states:
        if not holds(m, w, ob.goal, ob.env):
            return w
    return None
