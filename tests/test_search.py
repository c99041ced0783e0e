"""The orbit-canonical countermodel search against the full labelled sweep.

`find_countermodel` examines one model per orbit of the state
permutations; `enumerate_models` lists every labelled model.  Since being
a countermodel is invariant under renaming states, the search must return
exactly the first countermodel of the sweep, having examined no more
models than the sweep did.  The representatives themselves are checked
against orbit minima found by renaming the states of every swept model.
"""
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import pytest

from foml.gen import random_env, random_expr, rng_for
from foml.models import serialize_model
from foml.parser import parse_expr, parse_problem
from foml.search import (
    SearchBounds,
    _leader_relations,
    _orbit_leaders,
    enumerate_models,
    find_countermodel,
    needs_prime,
)
from foml.semantics import countermodel_checker
from foml.syntax import Obligation, collect_signature, or_

DEMO = Path(__file__).resolve().parent.parent / "demo"
BOUNDS = ((2, 2), (2, 3), (3, 2))


def _sweep(ob: Obligation, bounds: tuple[int, int], budget: int):
    """(status, state, serialized model, models examined) of the full
    labelled sweep, or None when it is undecided within `budget` models.
    A case the sweep decides costs the search no more."""
    ops, rigid, flex = collect_signature(ob.all_exprs(), ob.env)
    check = countermodel_checker(ob)
    examined = 0
    for m in enumerate_models(ops, rigid, flex, *bounds,
                              prime=needs_prime(ob.env, *ob.all_exprs())):
        examined += 1
        if examined > budget:
            return None
        w = check(m)
        if w is not None:
            return "found", w, serialize_model(m), examined
    return "none", None, None, examined


def _obligation(i: int, prime: bool) -> Obligation:
    rng = rng_for(8080, i)
    env = random_env(rng, with_defs=rng.random() < 0.5)
    hyps = tuple(random_expr(rng, env, 2, allow_prime=prime)
                 for _ in range(rng.randrange(0, 3)))
    goal = random_expr(rng, env, 3, allow_prime=prime)
    if i % 2:
        # Most random goals fail in a one-state model, whose orbit is a
        # single model.  This disjunct holds in every one-state model, so
        # the first countermodel has two or three states.
        v = env.flex_vars[0]
        goal = or_(parse_expr(f"(=> (= {v} 0) (nabla (= {v} 0)))", env),
                   goal)
    return Obligation(hyps, goal, env)


# Valid laws of prime, so that `none` is compared with prime too (random
# obligations with prime are almost never valid).
VALID_PRIME = [
    "(goal (=> (prime (=> (= v 0) (forall a (= v a))))"
    " (=> (prime (= v 0)) (prime (forall a (= v a))))))",
    "(goal (iff (forall a (prime (= v a))) (prime (forall a (= v a)))))",
    "(assume (prime (= v 0))) (goal (prime (=> (= v v) (= v 0))))",
]
CASES = [(_obligation(i, prime), bounds, 600) for i in range(24)
         for prime in (False, True) for bounds in BOUNDS] + [
    (parse_problem("(declare-op 0 0) (declare-flex v) " + text), (2, 2),
     2064) for text in VALID_PRIME]


def test_search_returns_the_sweeps_first_countermodel():
    decided = {"found": 0, "none": 0, "several states": 0, "prime": 0,
               "prime none": 0}
    for ob, bounds, budget in CASES:
        sweep = _sweep(ob, bounds, budget)
        if sweep is None:
            continue
        status, state, model, count = sweep
        res = find_countermodel(ob, SearchBounds(*bounds))
        got = (res.status, res.state,
               None if res.model is None else serialize_model(res.model))
        assert got == (status, state, model), (ob, bounds)
        assert res.examined <= count, (ob, bounds)
        decided[status] += 1
        decided["several states"] += (status == "found"
                                      and len(res.model.states) > 1)
        decided["prime"] += needs_prime(ob.env, *ob.all_exprs())
        decided["prime none"] += (status == "none"
                                  and needs_prime(ob.env, *ob.all_exprs()))
    # The comparison is not vacuous: both verdicts occur, with prime too,
    # and many countermodels have orbits of more than one model.
    assert decided["found"] >= 80 and decided["none"] >= 6
    assert decided["several states"] >= 25
    assert decided["prime"] >= 25 and decided["prime none"] == 3


def test_stability_examines_one_model_per_orbit():
    ob = parse_problem((DEMO / "stability.foml").read_text())
    res = find_countermodel(ob, SearchBounds(3, 3))
    # The labelled sweep examines 6,890 models.
    assert (res.status, res.examined) == ("none", 1508)


@pytest.mark.parametrize("nstates,orbits", [(1, 2), (2, 10), (3, 104)])
def test_leaders_of_all_permutations_are_unlabelled_digraphs(nstates,
                                                             orbits):
    # Digraphs with loops allowed, counted up to isomorphism.
    group = tuple(permutations(range(nstates)))[1:]
    assert len(_leader_relations(nstates, group)) == orbits
    assert len(_leader_relations(nstates, ())) == 2 ** (nstates ** 2)


def _renamed(m, p):
    """m with each state w renamed p[w]."""
    return replace(
        m, R=frozenset((p[s], p[t]) for s, t in m.R),
        primeR=None if m.primeR is None
        else frozenset((p[s], p[t]) for s, t in m.primeR),
        zeta={(v, p[w]): val for (v, w), val in m.zeta.items()})


def _position(m, flex):
    """Where m comes in `enumerate_models` order among the models with its
    universe, states, xi and tables."""
    pairs = [(s, t) for s in m.states for t in m.states]
    return (tuple(m.zeta[v, w] for v in flex for w in m.states),
            tuple(p in m.R for p in pairs),
            tuple(p in (m.primeR or ()) for p in pairs))


@pytest.mark.parametrize("flex,bounds,prime", [
    (("v",), (2, 3), False), (("v",), (2, 2), True)])
def test_orbit_leaders_are_the_orbit_minima(flex, bounds, prime):
    # Checked model by model against the full sweep, renaming states
    # directly rather than through the stabiliser tables.
    ops = {}
    leaders = [
        m for m in enumerate_models(ops, (), flex, *bounds, prime=prime)
        if all(_position(m, flex) <= _position(_renamed(m, p), flex)
               for p in permutations(m.states))]
    assert list(_orbit_leaders(ops, (), flex, *bounds, prime)) == leaders
