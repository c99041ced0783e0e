"""Action-formula pipeline: distribute prime inward until it sits only on
flexible variables, then coalesce primed variables to fresh flexible
constants, yielding pure first-order obligations; plus assembly of the
standard three-part safety proof (init establishes the inductive invariant,
every step preserves it, it implies the target invariant) together with the
propositional-temporal glue sequent tying the parts back to the invariance
assertion.

Prime distribution ((x+y)' = x'+y', dropping primes on rigid leaves,
commuting with quantifiers by the constant-domain law) is value-preserving
exactly when prime is read as a total next-state function, which is how the
evaluator treats functional prime relations.
"""
from __future__ import annotations

from typing import Any, Mapping

from .coalesce_ml import coalesce_obligation_ml
from .prover import MLSequent
from .syntax import (
    DEF_APP,
    FLEX_VAR,
    NABLA,
    PRIME,
    DefApp,
    DefinitionEnvironment,
    Eq,
    Expression,
    FlexVar,
    FomlError,
    Implies,
    Nabla,
    Obligation,
    Prime,
    Record,
    and_,
    contains_node,
    expand_definitions,
    fresh_name,
    or_,
    rewrite,
)


def distribute_prime(
    e: Expression, env: DefinitionEnvironment
) -> Expression:
    """Rewrite so every prime node wraps a flexible variable.

    Expects definitions already expanded and no nabla anywhere (the action
    fragment); violations are reported, they are never silently kept.
    """
    return rewrite(e, _distribute_pre, False)


_ACTION = NABLA | DEF_APP | PRIME  # the kinds both action passes treat


def _distribute_pre(e: Expression, pushing: bool) -> Any:
    # pushing: e is below a prime, and its rewrite is the distributed
    # form of (e)', which primes every flexible variable
    t = type(e)
    if t is Nabla:
        raise FomlError(
            "nabla inside an action formula cannot be distributed")
    if t is DefApp:
        raise FomlError(
            "defined operator in an action formula; expand "
            "definitions first")
    if t is Prime:
        if pushing:
            raise FomlError("prime cannot be nested")
        return True, _unprime
    if pushing and t is FlexVar:
        return Prime(e)
    treated = _ACTION | FLEX_VAR if pushing else _ACTION
    return None if e.kinds & treated else e


def _unprime(e: Prime) -> Expression:
    return e.body


class PrimedVars(Record):
    """Shared mapping from flexible variables to their primed fresh
    flexible constants (v -> v'), with deterministic name choice."""

    __slots__ = __match_args__ = ("env", "mapping")

    def __init__(self, env: DefinitionEnvironment) -> None:
        self.env = env
        self.mapping: dict[str, str] = {}

    def intern(self, v: str) -> str:
        name = self.mapping.get(v)
        if name is None:
            avoid = self.env.all_names() | set(self.mapping.values())
            name = fresh_name(f"{v}'", avoid)
            self.mapping[v] = name
        return name

    def new_flex_names(self) -> tuple[str, ...]:
        return tuple(self.mapping.values())


def coalesce_action(e: Expression, primed: PrimedVars) -> Expression:
    """Replace each prime-on-a-flexible-variable by its fresh flexible
    constant.  The input must be distribute_prime output; the result is
    pure first-order."""
    return rewrite(e, _coalesce_action_pre, primed)


def _coalesce_action_pre(e: Expression, primed: PrimedVars) -> Any:
    t = type(e)
    if t is Prime:
        if type(e.body) is FlexVar:
            return FlexVar(primed.intern(e.body.name))
        raise FomlError(
            f"prime not distributed down to a flexible variable: {e}")
    if t is Nabla or t is DefApp:
        raise FomlError(f"not an action formula: {e}")
    return None if e.kinds & _ACTION else e


class ActionResult(Record):
    __slots__ = __match_args__ = ("hypotheses", "goal", "env", "primed")

    def __init__(self, hypotheses: tuple[Expression, ...], goal: Expression,
                 env: DefinitionEnvironment,
                 primed: Mapping[str, str]) -> None:
        self.hypotheses = hypotheses
        self.goal = goal
        self.env = env  # extended with the primed flexible names
        self.primed = primed


def translate_action(ob: Obligation) -> ActionResult:
    """Full pipeline for one action obligation: expand definitions,
    distribute prime, coalesce primed variables."""
    primed = PrimedVars(ob.env)

    def run(e: Expression) -> Expression:
        e = expand_definitions(e, ob.env)
        if contains_node(e, Nabla):
            raise FomlError("action formulas cannot contain nabla")
        return coalesce_action(distribute_prime(e, ob.env), primed)

    hyps = tuple(run(h) for h in ob.hypotheses)
    goal = run(ob.goal)
    env = ob.env.extended(flex=primed.new_flex_names())
    return ActionResult(hyps, goal, env, dict(primed.mapping))


class SafetySpec(Record):
    __slots__ = __match_args__ = ("init", "next", "invariant",
                                  "inductive_invariant", "vars", "env")

    def __init__(self, init: Expression, next: Expression,
                 invariant: Expression, inductive_invariant: Expression,
                 vars: tuple[str, ...], env: DefinitionEnvironment) -> None:
        self.init = init
        self.next = next
        self.invariant = invariant
        self.inductive_invariant = inductive_invariant
        self.vars = vars
        self.env = env


class SafetyResult(Record):
    __slots__ = __match_args__ = ("obligations", "glue", "primed")

    def __init__(self, obligations: tuple[Obligation, Obligation, Obligation],
                 glue: MLSequent, primed: Mapping[str, str]) -> None:
        self.obligations = obligations
        self.glue = glue
        self.primed = primed


def _check_state_predicate(e: Expression, env: DefinitionEnvironment,
                           what: str) -> Expression:
    x = expand_definitions(e, env)
    if contains_node(x, Nabla, Prime):
        raise FomlError(f"{what} must be a state predicate "
                        "(no modalities after expansion)")
    return x


def boxed_step(next_: Expression, vars_: tuple[str, ...]) -> Expression:
    """`[Next]_v`: either the step relation or every variable unchanged."""
    if not vars_:
        raise FomlError("the flexible-variable tuple cannot be empty")
    unchanged = and_(*[Eq(Prime(FlexVar(v)), FlexVar(v)) for v in vars_])
    return or_(next_, unchanged)


def safety_obligations(spec: SafetySpec) -> SafetyResult:
    """The three obligations of an invariance proof, plus the glue sequent
    (the invariance assertion follows from the three facts by propositional
    temporal reasoning; emitted for external temporal tooling, not decided
    here)."""
    env = spec.env
    init = _check_state_predicate(spec.init, env, "init")
    inv = _check_state_predicate(spec.invariant, env, "invariant")
    iinv = _check_state_predicate(
        spec.inductive_invariant, env, "inductive-invariant")
    next_ = expand_definitions(spec.next, env)
    if contains_node(next_, Nabla):
        raise FomlError("next must be an action formula (no nabla)")

    fact1 = Implies(init, iinv)
    fact2 = Implies(and_(iinv, boxed_step(next_, spec.vars)), Prime(iinv))
    fact3 = Implies(iinv, inv)
    # fact2 is expanded and nabla-free: exactly translate_action's input
    step = translate_action(Obligation((), fact2, env))
    obligations = (Obligation((), fact1, env),
                   Obligation((), step.goal, step.env),
                   Obligation((), fact3, env))

    goal8 = Implies(and_(init, Nabla(boxed_step(next_, spec.vars))),
                    Nabla(inv))
    # fact2 has prime, so the stability laws include the prime ones
    res = coalesce_obligation_ml(Obligation((fact1, fact2, fact3), goal8, env))
    glue = MLSequent(res.hypotheses + res.stability, res.goal)
    return SafetyResult(obligations, glue, step.primed)
