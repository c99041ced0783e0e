"""Seeded random generation of environments, expressions and models, plus
the replayable property checks behind `foml fuzz` and the acceptance suite.

Every iteration derives its own child generator from (seed, index), so a
reported discrepancy replays exactly from the command line.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
from .search import (
    SearchBounds,
    find_fol_countermodel,
    fol_signature_of,
    needs_prime,
)
from .semantics import compile_expr, compile_ml, eval_expr, eval_fol
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
    is_rigid,
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
    env = DefinitionEnvironment.build(ops=ops, rigid=rigid, flex=flex)
    if not with_defs:
        return env
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
    rigids = list(rigid_pool if rigid_pool is not None else env.rigid_vars)
    rigids += [b for b in binders if b not in rigids]

    def leaf() -> Expression:
        choices: list[Expression] = [FALSE]
        choices += [RigidVar(x) for x in rigids]
        if allow_flex:
            choices += [FlexVar(v) for v in env.flex_vars]
        choices += [OpApp(op) for op, n in env.ops.items() if n == 0]
        return rng.choice(choices)

    if depth <= 0:
        return leaf()

    def sub(d: int = depth - 1, prime: bool = under_prime,
            defapp: bool = allow_defapp) -> Expression:
        return random_expr(
            rng, env, d, binders, allow_nabla,
            allow_prime and not prime, allow_flex, defapp,
            rigid_pool, prime)

    kinds = ["leaf", "eq", "implies", "forall"]
    weights = [3, 3, 3, 2]
    nary = [op for op, n in env.ops.items() if n > 0]
    if nary:
        kinds.append("op")
        weights.append(3)
    if allow_defapp and env.definitions and not under_prime:
        kinds.append("defapp")
        weights.append(2)
    if allow_nabla and not under_prime:
        kinds.append("nabla")
        weights.append(2)
    if allow_prime and not under_prime:
        kinds.append("prime")
        weights.append(2)

    kind = rng.choices(kinds, weights)[0]
    if kind == "leaf":
        return leaf()
    if kind == "eq":
        return Eq(sub(), sub())
    if kind == "implies":
        return Implies(sub(), sub())
    if kind == "forall":
        var = rng.choice(["a", "b"] + rigids[:1])
        body = random_expr(
            rng, env, depth - 1, tuple(binders) + (var,), allow_nabla,
            allow_prime and not under_prime, allow_flex, allow_defapp,
            rigid_pool, under_prime)
        return Forall(var, body)
    if kind == "op":
        op = rng.choice(nary)
        return OpApp(op, tuple(sub() for _ in range(env.ops[op])))
    if kind == "defapp":
        d = rng.choice(list(env.definitions))
        return DefApp(d.name,
                      tuple(sub() for _ in range(len(d.params))))
    if kind == "nabla":
        return Nabla(sub())
    # prime: its body must stay prime-free, and definition applications are
    # kept out so the expansion stays prime-free too
    return Prime(
        random_expr(rng, env, depth - 1, binders, allow_nabla, False,
                    allow_flex, False, rigid_pool, True))


def random_model(
    rng: random.Random,
    env: DefinitionEnvironment,
    max_universe: int = 3,
    max_states: int = 3,
    need_prime: bool = False,
    functional_prime: bool = False,
) -> KripkeModel:
    usize = rng.randrange(2, max_universe + 1)
    universe = tuple(range(usize))
    nstates = rng.randrange(1, max_states + 1)
    states = tuple(range(nstates))
    op_interp = {}
    for op, arity in env.ops.items():
        table = {}
        from itertools import product

        for args in product(universe, repeat=arity):
            table[args] = rng.choice(universe)
        op_interp[op] = table
    xi = {x: rng.choice(universe) for x in env.rigid_vars}
    zeta = {(v, w): rng.choice(universe)
            for v in env.flex_vars for w in states}
    pairs = [(s, t) for s in states for t in states]
    R = frozenset(p for p in pairs if rng.random() < 0.5)
    primeR = None
    if need_prime:
        if functional_prime:
            primeR = frozenset((s, rng.choice(states)) for s in states)
        else:
            primeR = frozenset(p for p in pairs if rng.random() < 0.5)
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


@dataclass
class FuzzReport:
    iterations: int = 0
    discrepancies: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def fol_witness_check(rng: random.Random,
                      max_universe: int = 3,
                      max_states: int = 3) -> Optional[str]:
    """One round of the first-order soundness witness: the coalesced
    expression, evaluated in the structure extracted at a state, has
    exactly the value of the original expression at that state."""
    env = random_env(rng)
    e = random_expr(rng, env, depth=3)
    need_prime = needs_prime(env, e)
    m = random_model(rng, env, max_universe, max_states,
                     need_prime=need_prime)
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


def ml_witness_check(rng: random.Random,
                     max_universe: int = 3,
                     max_states: int = 3) -> Optional[str]:
    """One round of the propositional soundness witness, including the
    stability hypotheses holding at every state."""
    env = random_env(rng)
    e = random_expr(rng, env, depth=3)
    need_prime = needs_prime(env, e)
    m = random_model(rng, env, max_universe, max_states,
                     need_prime=need_prime)
    table = AtomTable(env)
    me = coalesce_ml(e, env, table)
    if contains_node(me, Eq, Forall, OpApp, DefApp, RigidVar):
        return f"impure propositional output for {e}"
    k = build_witness_propmodel(m, table, env)
    abstraction, original = compile_ml(me), compile_expr(e, env)
    for w in m.states:
        got = abstraction(k, w, {}) == k.tt
        want = original(m, w, {}) == m.tt
        if got != want:
            return (f"propositional witness mismatch for {e} at state "
                    f"{w}: original {want}, abstraction {got}")
    for h in hypotheses(table, env, include_prime=need_prime):
        hyp = compile_ml(h)
        for w in m.states:
            if hyp(k, w, {}) != k.tt:
                return f"stability hypothesis {h} fails at state {w}"
    return None


def _random_rigid_expr(rng: random.Random,
                       env: DefinitionEnvironment) -> Expression:
    return random_expr(rng, env, depth=2, allow_nabla=False,
                       allow_prime=False, allow_flex=False,
                       allow_defapp=False)


def rigid_lemma_check(rng: random.Random) -> Optional[str]:
    """Replacing a rigid argument of a defined operator by a fresh variable
    valued at the argument's evaluation preserves the value."""
    env = random_env(rng)
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


def leibniz_lemma_check(rng: random.Random) -> Optional[str]:
    """Same replacement property at a Leibniz position, with an arbitrary
    argument there."""
    env = random_env(rng)
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
    fresh = "w0"
    k = 0
    while fresh in free or env.kind(fresh) is not None:
        k += 1
        fresh = f"w{k}"
    need_prime = needs_prime(env, *args)
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


def random_action_formula(rng: random.Random,
                          env: DefinitionEnvironment,
                          depth: int = 3) -> Expression:
    return random_expr(rng, env, depth, allow_nabla=False,
                       allow_prime=True)


def distribute_check(rng: random.Random) -> Optional[str]:
    """Prime distribution preserves values on functional-prime models."""
    env = random_env(rng, modal_defs=False)
    e = expand_definitions(random_action_formula(rng, env), env)
    m = random_model(rng, env, need_prime=True, functional_prime=True)
    d = distribute_prime(e, env)
    before, after = compile_expr(e, env), compile_expr(d, env)
    for sub_w in m.states:
        a = before(m, sub_w, {})
        b = after(m, sub_w, {})
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


def action_refutation_check(rng: random.Random) -> Optional[str]:
    """Both refutation directions of the action-coalescing equivalence:
    a Kripke countermodel of the action formula yields a first-order
    countermodel of its coalescing, and a first-order countermodel lifts
    back to a two-state functional-prime Kripke countermodel."""
    env = random_env(rng, modal_defs=False)
    e = expand_definitions(random_action_formula(rng, env), env)
    c = distribute_prime(e, env)
    primed = PrimedVars(env)
    cf = coalesce_action(c, primed)
    env2 = env.extended(flex=primed.new_flex_names())

    action = compile_expr(c, env)
    # direction A: sampled Kripke refutations map to structure refutations
    for _ in range(30):
        m = random_model(rng, env, max_universe=2, max_states=2,
                         need_prime=True, functional_prime=True)
        w = rng.choice(m.states)
        if action(m, w, {}) == m.tt:
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
        if action(m2, 0, {}) == m2.tt:
            return (f"structure refutation of {cf} did not lift back "
                    f"to a Kripke refutation of {c}")
    return None


CHECKS: dict[str, Callable[[random.Random], Optional[str]]] = {
    "fol-witness": fol_witness_check,
    "ml-witness": ml_witness_check,
    "rigid-lemma": rigid_lemma_check,
    "leibniz-lemma": leibniz_lemma_check,
    "distribute-prime": distribute_check,
    "action-refutation": action_refutation_check,
}


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
    sized = {"fol-witness", "ml-witness"}
    for i in range(iterations):
        report.iterations += 1
        for name in checks:
            rng = rng_for(seed, i)
            if name in sized:
                problem = CHECKS[name](rng, max_universe, max_states)
            else:
                problem = CHECKS[name](rng)
            if problem is not None:
                report.discrepancies.append(
                    f"[{name}] seed={seed} iteration={i}: {problem}")
    return report
