"""Seeded random generation of environments, expressions and models, plus
the replayable property checks behind `foml fuzz` and the acceptance suite.

Every iteration derives its own generator from (seed, index), so a reported
discrepancy replays exactly from the command line, with its check alone or
among others.

A check is an opening, its first draws from the iteration's start state,
and a body that goes on drawing from where the opening left the generator.
Checks share openings: fol-witness and ml-witness draw the same
environment, expression and model; rigid-lemma and leibniz-lemma the same
environment (the witness opening's first draw); distribute-prime and
action-refutation the same expanded action formula and its prime
distribution.  Within one iteration `run_fuzz` draws a shared opening once
and keeps its value with the generator state after it; a later check
restores that state and goes on drawing.  Replay is exact: an opening's
draws depend only on the start state, no body mutates an opening's value,
and the kept state is the one a fresh draw would reach.  A check with an
unshared opening restores the start state; a single-check run snapshots
nothing.
"""
from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate, product
from typing import Callable, NamedTuple, Optional, Sequence

from .actions import PrimedVars, coalesce_action, distribute_prime
from .coalesce import SymbolTable, build_witness_structure, coalesce_fol
from .coalesce_ml import (
    AtomTable,
    build_witness_propmodel,
    coalesce_ml,
    hypotheses,
)
from .leibniz import compute_leibniz
from .models import FOLStructure, KripkeModel, Value
from .prover import MLSequent
from .search import SearchBounds, find_fol_countermodel, fol_signature_of
from .semantics import eval_expr, eval_fol, eval_ml
from .syntax import (
    FALSE,
    DefApp,
    Definition,
    DefinitionEnvironment,
    Eq,
    Expression,
    FlexVar,
    Forall,
    Implies,
    Nabla,
    OpApp,
    Prime,
    RigidVar,
    contains_node,
    expand_definitions,
    free_rigid_vars,
    fresh_name,
    is_rigid,
    signature,
)


def rng_for(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def random_env(
    rng: random.Random,
    with_defs: bool = True,
    modal_defs: bool = True,
) -> DefinitionEnvironment:
    ops: dict[str, int] = {"0": 0}
    if rng.random() < 0.8:
        ops["f"] = 1
    if rng.random() < 0.5:
        ops["g"] = 2
    rigid = tuple(x for x in ("x", "y") if rng.random() < 0.8) or ("x",)
    flex = tuple(v for v in ("u", "v") if rng.random() < 0.8) or ("v",)
    if not with_defs:
        return DefinitionEnvironment.build(ops=ops, rigid=rigid, flex=flex)
    defs: list[Definition] = []
    for k in range(rng.randrange(0, 3)):
        name = f"d{k}"
        params = ("p", "q")[: rng.randrange(0, 3)]
        # the final build validates every definition once
        body_env = DefinitionEnvironment(
            ops=ops, flex_vars=flex, definitions=tuple(defs))
        body = random_expr(
            rng, body_env, depth=2, binders=params,
            allow_nabla=modal_defs, allow_prime=modal_defs,
            rigid_pool=params)
        defs.append(Definition(name, params, body))
    return DefinitionEnvironment.build(
        ops=ops, rigid=rigid, flex=flex, definitions=tuple(defs))


def random_expr(
    rng: random.Random,
    env: DefinitionEnvironment,
    depth: int,
    binders: Sequence[str] = (),
    allow_nabla: bool = True,
    allow_prime: bool = True,
    allow_flex: bool = True,
    allow_defapp: bool = True,
    rigid_pool: Optional[Sequence[str]] = None,
    under_prime: bool = False,
) -> Expression:
    pool = list(rigid_pool if rigid_pool is not None else env.rigid_vars)
    flex = [FlexVar(v) for v in env.flex_vars] if allow_flex else []
    constants = [OpApp(op) for op, n in env.ops.items() if n == 0]
    nary = [op for op, n in env.ops.items() if n > 0]
    definitions = list(env.definitions)
    choice, uniform = rng.choice, rng.random
    # what a node may draw depends only on its frame (binders, allow_prime,
    # allow_defapp, under_prime), so each frame's leaves, binder names and
    # kind table are built once per call
    frames: dict[tuple, tuple] = {}

    def frame(key: tuple) -> tuple:
        binders, allow_prime, allow_defapp, under_prime = key
        rigids = pool + [b for b in binders if b not in pool]
        kinds = ["leaf", "eq", "implies", "forall"]
        weights = [3, 3, 3, 2]
        if nary:
            kinds.append("op")
            weights.append(3)
        if allow_defapp and definitions and not under_prime:
            kinds.append("defapp")
            weights.append(2)
        if allow_nabla and not under_prime:
            kinds.append("nabla")
            weights.append(2)
        if allow_prime and not under_prime:
            kinds.append("prime")
            weights.append(2)
        cum = list(accumulate(weights))
        # a child's frame; a prime's body must stay prime-free, and
        # definition applications are kept out of it so the expansion
        # stays prime-free too
        sub = (binders, allow_prime and not under_prime, allow_defapp,
               under_prime)
        got = frames[key] = (
            [FALSE, *map(RigidVar, rigids), *flex, *constants],
            ["a", "b"] + rigids[:1],
            # kinds[bisect(...)] is exactly what rng.choices(kinds,
            # weights)[0] computes, so the stream is the same
            kinds, cum, cum[-1] + 0.0, len(kinds) - 1,
            sub, (binders, False, False, True))
        return got

    def draw(depth: int, key: tuple) -> Expression:
        leaves, names, kinds, cum, total, hi, sub, prime = \
            frames.get(key) or frame(key)
        if depth <= 0:
            return choice(leaves)
        kind = kinds[bisect(cum, uniform() * total, 0, hi)]
        if kind == "leaf":
            return choice(leaves)
        d = depth - 1
        if kind == "eq":
            return Eq(draw(d, sub), draw(d, sub))
        if kind == "implies":
            return Implies(draw(d, sub), draw(d, sub))
        if kind == "forall":
            var = choice(names)
            return Forall(var, draw(d, (sub[0] + (var,),) + sub[1:]))
        if kind == "op":
            op = choice(nary)
            return OpApp(op, tuple(draw(d, sub)
                                   for _ in range(env.ops[op])))
        if kind == "defapp":
            dfn = choice(definitions)
            return DefApp(dfn.name, tuple(draw(d, sub) for _ in dfn.params))
        if kind == "nabla":
            return Nabla(draw(d, sub))
        return Prime(draw(d, prime))

    return draw(depth, (tuple(binders), allow_prime, allow_defapp,
                        under_prime))


def random_model(
    rng: random.Random,
    env: DefinitionEnvironment,
    max_universe: int = 3,
    max_states: int = 3,
    need_prime: bool = False,
    functional_prime: bool = False,
) -> KripkeModel:
    choice, uniform = rng.choice, rng.random
    universe = tuple(range(rng.randrange(2, max_universe + 1)))
    states = tuple(range(rng.randrange(1, max_states + 1)))
    op_interp = {op: {args: choice(universe)
                      for args in product(universe, repeat=arity)}
                 for op, arity in env.ops.items()}
    xi = {x: choice(universe) for x in env.rigid_vars}
    zeta = {(v, w): choice(universe) for v in env.flex_vars for w in states}
    pairs = [(s, t) for s in states for t in states]
    R = frozenset(p for p in pairs if uniform() < 0.5)
    primeR = None
    if need_prime:
        if functional_prime:
            primeR = frozenset((s, choice(states)) for s in states)
        else:
            primeR = frozenset(p for p in pairs if uniform() < 0.5)
    return KripkeModel(universe, 0, 1, op_interp, xi, states, R, zeta,
                       primeR=primeR)


def random_ml_formula(
    rng: random.Random,
    atoms: Sequence[str],
    depth: int,
    allow_prime: bool = False,
) -> Expression:
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice([FALSE] + [FlexVar(a) for a in atoms])
    kinds = ["implies", "nabla"] + (["prime"] if allow_prime else [])
    kind = rng.choice(kinds)
    if kind == "implies":
        return Implies(random_ml_formula(rng, atoms, depth - 1, allow_prime),
                       random_ml_formula(rng, atoms, depth - 1, allow_prime))
    body = random_ml_formula(rng, atoms, depth - 1, allow_prime)
    return Nabla(body) if kind == "nabla" else Prime(body)


def random_ml_sequent(rng: random.Random,
                      allow_prime: bool = True) -> MLSequent:
    atoms = ["p", "q", "r"][: rng.randrange(1, 4)]
    prime = allow_prime and rng.random() < 0.3
    hyps = tuple(random_ml_formula(rng, atoms, 2, prime)
                 for _ in range(rng.randrange(0, 3)))
    goal = random_ml_formula(rng, atoms, rng.randrange(1, 4), prime)
    return MLSequent(hypotheses=hyps, goal=goal,
                     frame_nabla=rng.choice(("k", "t", "k4", "s4")),
                     frame_prime="k")


def random_action_formula(rng: random.Random,
                          env: DefinitionEnvironment,
                          depth: int = 3) -> Expression:
    return random_expr(rng, env, depth, allow_nabla=False,
                       allow_prime=True)


@dataclass
class FuzzReport:
    iterations: int = 0
    discrepancies: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def _witness_opening(rng: random.Random, sizes: tuple[int, int],
                     env: DefinitionEnvironment) -> tuple:
    """An expression of depth 3 over the environment and a model of at most
    `sizes` = (universe, states) to evaluate it in."""
    e = random_expr(rng, env, depth=3)
    need_prime = signature((e,), env).prime
    m = random_model(rng, env, *sizes, need_prime=need_prime)
    return env, e, need_prime, m


def _action_opening(rng: random.Random, _sizes, _parent) -> tuple:
    """An expanded action formula and its prime distribution."""
    env = random_env(rng, modal_defs=False)
    e = expand_definitions(random_action_formula(rng, env), env)
    return env, e, distribute_prime(e, env)


# opening name -> (parent, draw(rng, sizes, parent's value)): an opening
# first draws its parent opening, if it has one
_OPENINGS: dict[str, tuple[Optional[str], Callable]] = {
    "env": (None, lambda rng, _sizes, _parent: random_env(rng)),
    "witness": ("env", _witness_opening),
    "action": (None, _action_opening),
}


def _fol_witness(rng: random.Random, opening: tuple) -> Optional[str]:
    """One round of the first-order soundness witness: the coalesced
    expression, evaluated in the structure extracted at a state, has
    exactly the value of the original expression at that state."""
    env, e, _need_prime, m = opening
    w = rng.choice(m.states)
    table = SymbolTable(env)
    ce = coalesce_fol(e, env, table)
    if contains_node(ce, Nabla, Prime, DefApp):
        return f"impure coalescing output for {e}"
    s = build_witness_structure(m, w, table, env)
    got = eval_fol(s, ce)
    want = eval_expr(m, w, e, env)
    if got != want:
        return (f"witness mismatch: {e} evaluates to {want} at {w} "
                f"but its coalescing evaluates to {got}")
    return None


def _ml_witness(_rng: random.Random, opening: tuple) -> Optional[str]:
    """One round of the propositional soundness witness, including the
    stability hypotheses holding at every state."""
    env, e, need_prime, m = opening
    table = AtomTable(env)
    me = coalesce_ml(e, env, table)
    if contains_node(me, Eq, Forall, OpApp, DefApp, RigidVar):
        return f"impure propositional output for {e}"
    k = build_witness_propmodel(m, table, env)
    for w in m.states:
        got = eval_ml(k, w, me) == k.tt
        want = eval_expr(m, w, e, env) == m.tt
        if got != want:
            return (f"propositional witness mismatch for {e} at state "
                    f"{w}: original {want}, abstraction {got}")
    for h in hypotheses(table, env, include_prime=need_prime):
        for w in m.states:
            if eval_ml(k, w, h) != k.tt:
                return f"stability hypothesis {h} fails at state {w}"
    return None


def _random_rigid_expr(rng: random.Random,
                       env: DefinitionEnvironment) -> Expression:
    return random_expr(rng, env, depth=2, allow_nabla=False,
                       allow_prime=False, allow_flex=False,
                       allow_defapp=False)


def _rigid_lemma(rng: random.Random,
                 env: DefinitionEnvironment) -> Optional[str]:
    """Replacing a rigid argument of a defined operator by a fresh variable
    valued at the argument's evaluation preserves the value."""
    if not env.definitions:
        env = env.extended(definitions=(
            Definition("d9", ("p",),
                       Nabla(Eq(RigidVar("p"), FlexVar(env.flex_vars[0])))),
        ))
    cands = [d for d in env.definitions if d.params]
    if not cands:
        return None
    d = rng.choice(cands)
    i = rng.randrange(len(d.params))
    args = [random_expr(rng, env, 2) for _ in d.params]
    args[i] = _random_rigid_expr(rng, env)
    if not is_rigid(args[i], env):
        return f"generator produced a non-rigid expression {args[i]}"
    return _argument_lemma_check(rng, env, d.name, tuple(args), i)


def _leibniz_lemma(rng: random.Random,
                   env: DefinitionEnvironment) -> Optional[str]:
    """Same replacement property at a Leibniz position, with an arbitrary
    argument there."""
    table = compute_leibniz(env)
    cands = [(d, i)
             for d in env.definitions
             for i, leib in enumerate(table[d.name]) if leib]
    if not cands:
        env = env.extended(definitions=(
            Definition("d9", ("p",), Eq(RigidVar("p"), OpApp("0"))),
        ))
        cands = [(env.definitions[-1], 0)]
    d, i = rng.choice(cands)
    args = tuple(random_expr(rng, env, 2) for _ in d.params)
    return _argument_lemma_check(rng, env, d.name, args, i)


def _argument_lemma_check(rng, env, dname, args, i) -> Optional[str]:
    free = set()
    for a in args:
        free.update(free_rigid_vars(a))
    fresh = fresh_name("w", free | env.all_names())
    need_prime = signature(args, env).prime
    m = random_model(rng, env, need_prime=need_prime)
    w = rng.choice(m.states)
    val = eval_expr(m, w, args[i], env)
    lhs = eval_expr(m, w, DefApp(dname, args), env)
    swapped = args[:i] + (RigidVar(fresh),) + args[i + 1:]
    rhs = eval_expr(m, w, DefApp(dname, swapped), env, {fresh: val})
    if lhs != rhs:
        return (f"argument lemma fails for {dname} at position {i} "
                f"with arguments {[str(a) for a in args]}: {lhs} != {rhs}")
    return None


def _distribute(rng: random.Random, opening: tuple) -> Optional[str]:
    """Prime distribution preserves values on functional-prime models."""
    env, e, d = opening
    m = random_model(rng, env, need_prime=True, functional_prime=True)
    for sub_w in m.states:
        a = eval_expr(m, sub_w, e, env)
        b = eval_expr(m, sub_w, d, env)
        if a != b:
            return (f"prime distribution changed the value of {e} at "
                    f"state {sub_w}: {a} != {b}")
    return None


def action_witness_structure(
    m: KripkeModel, w: Value, primed: PrimedVars, env: DefinitionEnvironment
) -> FOLStructure:
    """Structure extracted from a functional-prime model at a state: primed
    constants take the flexible variable's value at the successor state."""
    xi = dict(m.xi)
    for v in env.flex_vars:
        if (v, w) in m.zeta:
            xi[v] = m.zeta[(v, w)]
    w2 = m.prime_successor(w)
    for v, pname in primed.mapping.items():
        xi[pname] = m.zeta[(v, w2)]
    return FOLStructure(m.universe, m.tt, m.ff, dict(m.op_interp), xi)


def lift_fol_structure(
    s: FOLStructure, mapping: dict[str, str],
    env: DefinitionEnvironment,
) -> KripkeModel:
    """Two-state functional-prime model from a first-order structure: the
    base state reads the unprimed values, its successor the primed ones."""
    states = (0, 1)
    zeta = {}
    for v in env.flex_vars:
        base = s.xi.get(v, s.ff)
        zeta[(v, 0)] = base
        zeta[(v, 1)] = s.xi.get(mapping.get(v, ""), base)
    xi = {x: s.xi[x] for x in env.rigid_vars if x in s.xi}
    return KripkeModel(
        universe=s.universe, tt=s.tt, ff=s.ff,
        op_interp=dict(s.op_interp), xi=xi, states=states,
        R=frozenset(), zeta=zeta,
        primeR=frozenset(((0, 1), (1, 1))))


def _action_refutation(rng: random.Random, opening: tuple) -> Optional[str]:
    """Both refutation directions of the action-coalescing equivalence:
    a Kripke countermodel of the action formula yields a first-order
    countermodel of its coalescing, and a first-order countermodel lifts
    back to a two-state functional-prime Kripke countermodel."""
    env, _e, c = opening
    primed = PrimedVars(env)
    cf = coalesce_action(c, primed)
    env2 = env.extended(flex=primed.new_flex_names())

    # direction A: sampled Kripke refutations map to structure refutations
    for _ in range(30):
        m = random_model(rng, env, max_universe=2, max_states=2,
                         need_prime=True, functional_prime=True)
        w = rng.choice(m.states)
        if eval_expr(m, w, c, env) == m.tt:
            continue
        s = action_witness_structure(m, w, primed, env)
        if eval_fol(s, cf) == s.tt:
            return (f"Kripke refutation of {c} at {w} did not carry to "
                    f"its coalescing {cf}")
        break

    # direction B: a structure refutation lifts to a Kripke refutation
    ops, variables = fol_signature_of((cf,), env2)
    res = find_fol_countermodel((), cf, ops, variables,
                                SearchBounds(max_universe=2,
                                             max_models=3000))
    if res.found:
        m2 = lift_fol_structure(res.model, primed.mapping, env)
        if eval_expr(m2, 0, c, env) == m2.tt:
            return (f"structure refutation of {cf} did not lift back "
                    f"to a Kripke refutation of {c}")
    return None


class Check(NamedTuple):
    """A property check: the opening it starts from, and a body that takes
    the opening's value, goes on drawing and returns a discrepancy or None."""

    opening: str
    body: Callable[[random.Random, object], Optional[str]]


CHECKS: dict[str, Check] = {
    "fol-witness": Check("witness", _fol_witness),
    "ml-witness": Check("witness", _ml_witness),
    "rigid-lemma": Check("env", _rigid_lemma),
    "leibniz-lemma": Check("env", _leibniz_lemma),
    "distribute-prime": Check("action", _distribute),
    "action-refutation": Check("action", _action_refutation),
}


def _replayed(openings: Sequence[str]) -> set[str]:
    """The openings a later check replays, when checks with these openings
    run in this order: each check draws its opening chain down to the first
    opening an earlier check drew, and replays that one."""
    drawn: set[str] = set()
    replayed: set[str] = set()
    for name in openings:
        while name is not None and name not in drawn:
            drawn.add(name)
            name = _OPENINGS[name][0]
        if name is not None:
            replayed.add(name)
    return replayed


def _open(name: Optional[str], rng: random.Random, sizes: tuple[int, int],
          replayed: set[str], memo: dict) -> object:
    """The value of an opening, drawn from the iteration's start state or
    replayed from `memo` with the generator state after it.  The empty
    opening None is the start state itself."""
    if name in memo:
        value, state = memo[name]
        rng.setstate(state)
        return value
    if name is None:
        return None
    parent, draw = _OPENINGS[name]
    value = draw(rng, sizes, _open(parent, rng, sizes, replayed, memo))
    if name in replayed:
        memo[name] = (value, rng.getstate())
    return value


def run_fuzz(
    seed: int,
    iterations: int,
    checks: Sequence[str] = ("fol-witness", "ml-witness"),
    max_universe: int = 3,
    max_states: int = 3,
) -> FuzzReport:
    report = FuzzReport()
    for name in checks:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}")
    sizes = (max_universe, max_states)
    plan = [(name, *CHECKS[name]) for name in checks]
    replayed = _replayed([opening for _, opening, _ in plan])
    for i in range(iterations):
        report.iterations += 1
        rng = rng_for(seed, i)
        # one iteration's memo, keyed by opening name (the sizes are fixed
        # for the run); None holds the start state every check starts from
        memo = {None: (None, rng.getstate())} if len(plan) > 1 else {}
        for name, opening, body in plan:
            problem = body(rng, _open(opening, rng, sizes, replayed, memo))
            if problem is not None:
                report.discrepancies.append(
                    f"[{name}] seed={seed} iteration={i}: {problem}")
    return report
