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
distribution.  Within one iteration of several checks `run_fuzz` draws
each opening once and keeps its value with the generator state after it;
a later check restores that state and goes on drawing.  Replay is exact:
an opening's draws depend only on the start state, no body mutates an
opening's value, and the kept state is the one a fresh draw would reach.
A check whose opening is not kept yet restores the start state; a
single-check run keeps nothing and snapshots nothing.

Every draw of a bounded choice goes through `_below`, which calls
`rng.getrandbits` by CPython's `Random._randbelow` rule, so each stream
equals the one `Random.choice` and `Random.randrange` would give, with
fewer calls per draw; the pinned digests of `TestRandomDraws` guard this.
The tables of what a `random_expr` node may draw are a pure function of
the signature (rigid pool, flexible variables, operators, whether there
are definitions, `allow_nabla`) and the frame flags, and are cached per
signature; only the binders' part of a frame is built per call.
"""
from __future__ import annotations

import random
from bisect import bisect
from functools import lru_cache
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
    PRIME,
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
    Record,
    RigidVar,
    contains_node,
    expand_definitions,
    free_rigid_vars,
    fresh_name,
    is_rigid,
)


def rng_for(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform index in range(n), drawn by CPython's `Random._randbelow`
    rule: `getrandbits(n.bit_length())`, redrawn while it is n or more.
    So `seq[_below(rng.getrandbits, len(seq))]` consumes the stream that
    `rng.choice(seq)` does, and `a + _below(rng.getrandbits, b - a)` the
    one `rng.randrange(a, b)` does.  An empty range raises, as `randrange`
    does: for n <= 0 the loop would never end."""
    if n <= 0:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_env(
    rng: random.Random,
    with_defs: bool = True,
    modal_defs: bool = True,
) -> DefinitionEnvironment:
    getrandbits = rng.getrandbits
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
    for k in range(_below(getrandbits, 3)):
        name = f"d{k}"
        params = ("p", "q")[: _below(getrandbits, 3)]
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


@lru_cache(maxsize=256)
def _leaves(pool: tuple[str, ...], flex: tuple[str, ...],
            ops: tuple[tuple[str, int], ...]) -> tuple:
    """The part of a `random_expr` signature that names things: (leaves,
    names, head, tail, nary).  `leaves` is `head`, FALSE and the pool's
    rigid variables, then `tail`, the flexible variables and the
    constants; a frame with binders outside the pool puts their rigid
    variables between the two.  A forall binds one of `names`: "a", "b"
    and the frame's first rigid variable (the pool's, else the first
    binder outside the pool).  `nary` is the operators with arguments."""
    head = (FALSE, *map(RigidVar, pool))
    tail = (*map(FlexVar, flex), *(OpApp(op) for op, n in ops if n == 0))
    return (head + tail, ("a", "b", *pool[:1]), head, tail,
            tuple(op for op, n in ops if n > 0))


@lru_cache(maxsize=None)
def _kinds(nary: bool, defs: bool, allow_nabla: bool, allow_prime: bool,
           allow_defapp: bool, under_prime: bool) -> tuple:
    """The node kinds a frame may draw, given whether there are operators
    with arguments and definitions, `allow_nabla` and the frame flags
    (allow_prime, allow_defapp, under_prime): (kinds, cum, total, hi,
    sub).  `kinds[bisect(cum, rng.random() * total, 0, hi)]` is exactly
    what `rng.choices(kinds, weights)[0]` computes, so the stream is the
    same.  `sub` is the flags of a child's frame: a prime's body must stay
    prime-free, and definition applications are kept out of it so the
    expansion stays prime-free too."""
    kinds = ["leaf", "eq", "implies", "forall"]
    weights = [3, 3, 3, 2]
    if nary:
        kinds.append("op")
        weights.append(3)
    if allow_defapp and defs and not under_prime:
        kinds.append("defapp")
        weights.append(2)
    if allow_nabla and not under_prime:
        kinds.append("nabla")
        weights.append(2)
    if allow_prime and not under_prime:
        kinds.append("prime")
        weights.append(2)
    cum = tuple(accumulate(weights))
    return (tuple(kinds), cum, cum[-1] + 0.0, len(kinds) - 1,
            (allow_prime and not under_prime, allow_defapp, under_prime))


_PRIME_BODY = (False, False, True)


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
    pool = tuple(rigid_pool if rigid_pool is not None else env.rigid_vars)
    all_leaves, all_names, head, tail, nary = _leaves(
        pool, tuple(env.flex_vars) if allow_flex else (),
        tuple(env.ops.items()))
    definitions = env.definitions
    given = (bool(nary), bool(definitions), allow_nabla)
    getrandbits, uniform = rng.getrandbits, rng.random
    # what a node may draw depends only on the signature, its binders and
    # its frame flags; the signature's tables are shared by every call,
    # and each (binders, flags) frame is completed once per call
    frames: dict[tuple, tuple] = {}

    def frame(key: tuple) -> tuple:
        binders, flags = key
        kinds, cum, total, hi, sub = _kinds(*given, *flags)
        leaves, names = all_leaves, all_names
        extra = [b for b in binders if b not in pool]
        if extra:
            leaves = (*head, *map(RigidVar, extra), *tail)
            names = names if pool else names + (extra[0],)
        got = frames[key] = (
            leaves, len(leaves), names, kinds, cum, total, hi,
            (binders, sub), (binders, _PRIME_BODY))
        return got

    def draw(depth: int, key: tuple) -> Expression:
        leaves, nleaves, names, kinds, cum, total, hi, sub, prime = \
            frames.get(key) or frame(key)
        if depth <= 0:
            return leaves[_below(getrandbits, nleaves)]
        kind = kinds[bisect(cum, uniform() * total, 0, hi)]
        if kind == "leaf":
            return leaves[_below(getrandbits, nleaves)]
        d = depth - 1
        if kind == "eq":
            return Eq(draw(d, sub), draw(d, sub))
        if kind == "implies":
            return Implies(draw(d, sub), draw(d, sub))
        if kind == "forall":
            var = names[_below(getrandbits, len(names))]
            return Forall(var, draw(d, (sub[0] + (var,), sub[1])))
        if kind == "op":
            op = nary[_below(getrandbits, len(nary))]
            return OpApp(op, tuple(draw(d, sub)
                                   for _ in range(env.ops[op])))
        if kind == "defapp":
            dfn = definitions[_below(getrandbits, len(definitions))]
            return DefApp(dfn.name, tuple(draw(d, sub) for _ in dfn.params))
        if kind == "nabla":
            return Nabla(draw(d, sub))
        return Prime(draw(d, prime))

    return draw(depth, (tuple(binders),
                        (allow_prime, allow_defapp, under_prime)))


def random_model(
    rng: random.Random,
    env: DefinitionEnvironment,
    max_universe: int = 3,
    max_states: int = 3,
    need_prime: bool = False,
    functional_prime: bool = False,
) -> KripkeModel:
    getrandbits, uniform = rng.getrandbits, rng.random
    universe = tuple(range(2 + _below(getrandbits, max_universe - 1)))
    states = tuple(range(1 + _below(getrandbits, max_states)))
    # the universe and the states are range(n): a value is its own index
    u = len(universe)
    op_interp = {op: {args: _below(getrandbits, u)
                      for args in product(universe, repeat=arity)}
                 for op, arity in env.ops.items()}
    xi = {x: _below(getrandbits, u) for x in env.rigid_vars}
    zeta = {(v, w): _below(getrandbits, u)
            for v in env.flex_vars for w in states}
    pairs = [(s, t) for s in states for t in states]
    R = frozenset(p for p in pairs if uniform() < 0.5)
    primeR = None
    if need_prime:
        if functional_prime:
            n = len(states)
            primeR = frozenset((s, _below(getrandbits, n)) for s in states)
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
        return (FALSE, *map(FlexVar, atoms))[
            _below(rng.getrandbits, len(atoms) + 1)]
    kind = ("implies", "nabla", "prime")[
        _below(rng.getrandbits, 3 if allow_prime else 2)]
    if kind == "implies":
        return Implies(random_ml_formula(rng, atoms, depth - 1, allow_prime),
                       random_ml_formula(rng, atoms, depth - 1, allow_prime))
    body = random_ml_formula(rng, atoms, depth - 1, allow_prime)
    return Nabla(body) if kind == "nabla" else Prime(body)


def random_ml_sequent(rng: random.Random,
                      allow_prime: bool = True) -> MLSequent:
    getrandbits = rng.getrandbits
    atoms = ("p", "q", "r")[: 1 + _below(getrandbits, 3)]
    prime = allow_prime and rng.random() < 0.3
    hyps = tuple(random_ml_formula(rng, atoms, 2, prime)
                 for _ in range(_below(getrandbits, 3)))
    goal = random_ml_formula(rng, atoms, 1 + _below(getrandbits, 3), prime)
    return MLSequent(hypotheses=hyps, goal=goal,
                     frame_nabla=("k", "t", "k4", "s4")[
                         _below(getrandbits, 4)],
                     frame_prime="k")


def random_action_formula(rng: random.Random,
                          env: DefinitionEnvironment,
                          depth: int = 3) -> Expression:
    return random_expr(rng, env, depth, allow_nabla=False,
                       allow_prime=True)


class FuzzReport(Record):
    __slots__ = __match_args__ = ("iterations", "discrepancies")

    def __init__(self) -> None:
        self.iterations = 0
        self.discrepancies: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def _needs_prime(exprs: Sequence[Expression],
                 env: DefinitionEnvironment) -> bool:
    """Whether a prime occurs in exprs or in any definition body, as
    `signature(exprs, env).prime` says, read from their `kinds`."""
    return any(e.kinds & PRIME for e in exprs) \
        or any(d.body.kinds & PRIME for d in env.definitions)


def _witness_opening(rng: random.Random, sizes: tuple[int, int],
                     env: DefinitionEnvironment) -> tuple:
    """An expression of depth 3 over the environment and a model of at most
    `sizes` = (universe, states) to evaluate it in."""
    e = random_expr(rng, env, depth=3)
    need_prime = _needs_prime((e,), env)
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
    w = m.states[_below(rng.getrandbits, len(m.states))]
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
    d = cands[_below(rng.getrandbits, len(cands))]
    i = _below(rng.getrandbits, len(d.params))
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
    d, i = cands[_below(rng.getrandbits, len(cands))]
    args = tuple(random_expr(rng, env, 2) for _ in d.params)
    return _argument_lemma_check(rng, env, d.name, args, i)


def _argument_lemma_check(rng, env, dname, args, i) -> Optional[str]:
    free = set()
    for a in args:
        free.update(free_rigid_vars(a))
    fresh = fresh_name("w", free | env.all_names())
    need_prime = _needs_prime(args, env)
    m = random_model(rng, env, need_prime=need_prime)
    w = m.states[_below(rng.getrandbits, len(m.states))]
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
        w = m.states[_below(rng.getrandbits, len(m.states))]
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


def _open(name: Optional[str], rng: random.Random, sizes: tuple[int, int],
          memo: Optional[dict]) -> object:
    """The value of an opening, drawn from the iteration's start state or
    replayed from `memo` with the generator state after it; a drawn
    opening is kept there, unless `memo` is None.  The empty opening None
    is the start state itself."""
    if memo is not None and name in memo:
        value, state = memo[name]
        rng.setstate(state)
        return value
    if name is None:
        return None
    parent, draw = _OPENINGS[name]
    value = draw(rng, sizes, _open(parent, rng, sizes, memo))
    if memo is not None:
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
    for i in range(iterations):
        report.iterations += 1
        rng = rng_for(seed, i)
        # one iteration's memo, keyed by opening name (the sizes are fixed
        # for the run); None holds the start state every check starts from
        memo = {None: (None, rng.getstate())} if len(plan) > 1 else None
        for name, opening, body in plan:
            problem = body(rng, _open(opening, rng, sizes, memo))
            if problem is not None:
                report.discrepancies.append(
                    f"[{name}] seed={seed} iteration={i}: {problem}")
    return report
