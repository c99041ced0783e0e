"""The orbit-canonical countermodel search against the full labelled sweep.

`find_countermodel` examines one model per orbit of the state
permutations; `enumerate_models` lists every labelled model.  Since being
a countermodel is invariant under renaming states, the search must return
exactly the first countermodel of the sweep, having examined no more
models than the sweep did.  The representatives themselves are checked
against orbit minima found by renaming the states of every swept model.

The search evaluates the models of a prefix together, over lanes
(`semantics.compile_lanes`).  `_orbit_sweep` is the same search one model
at a time with the point evaluator; the two must agree exactly, `examined`
and `resource-out` included, and every lane must agree with the point
evaluator in the model of its relation.
"""
import hashlib
import random
import sys
from collections import Counter
from dataclasses import replace
from itertools import permutations, product
from pathlib import Path

import pytest

from foml.gen import random_env, random_expr, random_model, rng_for
from foml.models import parse_model, serialize_model
from foml.parser import parse_expr, parse_problem
from foml.search import (
    _LANE_BUDGET,
    SearchBounds,
    _Block,
    _block_pairs,
    _frame,
    _lane_blocks,
    _lane_model,
    _leader_relations,
    _relation,
    _run,
    _segment_lanes,
    _spans,
    _Tail,
    _tails,
    enumerate_fol_structures,
    enumerate_models,
    enumerate_propmodels,
    find_countermodel,
)
from foml.semantics import (
    Lanes,
    _lanes,
    compile_lanes,
    eval_expr,
    obligation_checker,
)
from foml.syntax import (
    DefApp,
    Obligation,
    Prime,
    contains_node,
    or_,
    signature,
)

sys.path.insert(0, str(Path(__file__).parent))
from reference_search import orbit_leaders, runs  # noqa: E402

DEMO = Path(__file__).resolve().parent.parent / "demo"
BOUNDS = ((2, 2), (2, 3), (3, 2))


def _sweep(ob: Obligation, bounds: tuple[int, int], budget: int):
    """(status, state, serialized model, models examined) of the full
    labelled sweep, or None when it is undecided within `budget` models.
    A case the sweep decides costs the search no more."""
    ops, rigid, flex, prime = signature(ob.all_exprs(), ob.env)
    check = obligation_checker(ob)
    examined = 0
    for m in enumerate_models(ops, rigid, flex, *bounds, prime=prime):
        examined += 1
        if examined > budget:
            return None
        w = check(m)[1]
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
        prime = signature(ob.all_exprs(), ob.env).prime
        decided["prime"] += prime
        decided["prime none"] += status == "none" and prime
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
    assert list(orbit_leaders(ops, (), flex, *bounds, prime)) == leaders


# ---------------------------------------------------------- table product

def _flat(xi, op_interp) -> str:
    """xi and the tables as text, so that key order counts."""
    return repr((xi, op_interp))


def _signatures(count: int):
    """Seeded signatures of 0-3 operators of arity 0-2 and 0-2 variables,
    each with the universe sizes from 2 up whose runs number at most
    3**7."""
    for i in range(count):
        rng = random.Random(f"tables:{i}")
        ops = {f"f{j}": rng.randrange(3) for j in range(rng.randrange(4))}
        variables = tuple(f"x{j}" for j in range(rng.randrange(3)))
        sizes = []
        for u in (2, 3):
            if u ** (len(variables) + sum(u ** a for a in ops.values())) \
                    > 3 ** 7:
                break
            sizes.append(u)
        yield ops, variables, tuple(sizes)


def test_table_product_is_the_plain_product():
    # `_run`, `enumerate_fol_structures` and `enumerate_models` read the
    # runs of xi and tables from the digits of run numbers; each is held,
    # order and content, to the reference's one `itertools.product` over
    # materialized spaces.  `_run` at each run number is compared as
    # text, so that key order counts too.
    seen = Counter()
    for ops, variables, sizes in _signatures(40):
        want = []
        for u in sizes:
            universe = tuple(range(u))
            ref = runs(ops, variables, universe)
            spans, ndigits = _spans(ops, variables, universe)
            assert u ** ndigits == len(ref)
            assert [_flat(*_run(variables, spans, ndigits, universe, r))
                    for r in range(len(ref))] == [_flat(*r) for r in ref]
            want += [(universe, *r) for r in ref]
            seen[u, len(ops), len(variables)] += 1
            seen.update((u, "arity", a) for a in ops.values())
        if not sizes:
            continue
        fol = enumerate_fol_structures(ops, variables, sizes[-1])
        assert [(s.universe, s.xi, s.op_interp) for s in fol] == want
        # One state and no flexible variable: two models per run, R empty
        # and R the loop.
        got = [(m.universe, m.xi, m.op_interp)
               for m in enumerate_models(ops, variables, (), sizes[-1], 1)]
        assert got[::2] == want and got[1::2] == want
    assert all(seen[2, "arity", a] for a in (0, 1, 2)), seen
    assert seen[3, "arity", 0] and seen[3, "arity", 1], seen
    assert all(seen[2, 3, v] for v in (0, 1, 2)), seen
    assert seen[3, 0, 0] and seen[3, 2, 1], seen
    # a binary operator over three values: 3**9 tables
    universe = (0, 1, 2)
    spans, ndigits = _spans({"f": 2}, (), universe)
    assert [_run((), spans, ndigits, universe, r)
            for r in range(3 ** ndigits)] == runs({"f": 2}, (), universe)


def _enumerated(m) -> tuple:
    """A model or structure as a tuple whose repr is fixed: dicts as item
    tuples, relations sorted."""
    def items(d):
        return tuple((k, tuple(v.items()) if isinstance(v, dict) else v)
                     for k, v in d.items())
    rels = () if not hasattr(m, "R") else (
        m.states, tuple(sorted(m.R)), items(m.zeta),
        None if m.primeR is None else tuple(sorted(m.primeR)))
    return (m.universe, m.tt, m.ff, items(m.op_interp), items(m.xi)) + rels


def test_enumerations_are_pinned():
    # SHA-256 of the three enumerations at small bounds, as they were
    # when `enumerate_models` and the search each spelled the table
    # product as a product of factor generators.
    cases = [
        (enumerate_models, {"f": 1, "c": 0}, ("x",), ("v",), 3, 1, False),
        (enumerate_models, {"c": 0}, (), ("v",), 2, 2, True),
        (enumerate_models, {}, ("x", "y"), (), 3, 3, False),
        (enumerate_fol_structures, {"f": 1, "c": 0}, ("x", "y"), 3),
        (enumerate_fol_structures, {"g": 2, "h": 1}, (), 2),
        (enumerate_fol_structures, {}, (), 2),
        (enumerate_propmodels, ("p", "q"), 2, "k", True, "k"),
        (enumerate_propmodels, ("p",), 3, "s4", False, "k"),
        (enumerate_propmodels, ("p",), 2, "t", True, "k4"),
    ]
    digest = hashlib.sha256()
    count = 0
    for fn, *args in cases:
        for m in fn(*args):
            digest.update(repr(_enumerated(m)).encode())
            count += 1
    assert count == 15876
    assert digest.hexdigest() == ("e3375c15f24b651c7a274b3cf035bcf0"
                                  "2d1b3e3f2a89002264ca280d64be2858")


# ------------------------------------------------------------ lane search

def _orbit_sweep(ob: Obligation, bounds: tuple[int, int],
                 max_models: int = 2_000_000):
    """(status, state, serialized model, examined) of the orbit leaders
    checked one model at a time by the point evaluator: the search without
    lanes."""
    ops, rigid, flex, prime = signature(ob.all_exprs(), ob.env)
    check = obligation_checker(ob)
    examined = 0
    for m in orbit_leaders(ops, rigid, flex, *bounds, prime):
        examined += 1
        if examined > max_models:
            return "resource-out", None, None, max_models
        w = check(m)[1]
        if w is not None:
            return "found", w, serialize_model(m), examined
    return "none", None, None, examined


def _searched(ob: Obligation, bounds: tuple[int, int],
              max_models: int = 2_000_000):
    res = find_countermodel(ob, SearchBounds(*bounds, max_models))
    return (res.status, res.state,
            None if res.model is None else serialize_model(res.model),
            res.examined)


def _problem(text: str) -> Obligation:
    return parse_problem("(declare-op 0 0) (declare-op f 1) "
                         "(declare-flex p) (declare-flex v) " + text)


# Shapes the random generator seldom draws: a modality as an equality
# operand or an operator argument, prime of a term, prime whose truth and
# whose value differ, and a rigid hypothesis that fails on whole prefixes.
SHAPES = [
    "(goal (= (nabla p) v))",
    "(goal (not (= (nabla (= v 0)) v)))",
    "(goal (= (f (prime v)) v))",
    "(goal (f (prime v)))",
    "(goal (= (f (nabla p)) (prime (f v))))",
    "(goal (= (f (prime v)) (prime (f v))))",
    "(goal (=> (prime (nabla p)) (nabla (prime p))))",
    "(goal (iff (prime (= v 0)) (= (prime v) 0)))",
    "(goal (forall a (=> (= (prime v) a) (prime (= v a)))))",
    "(declare-rigid x) (assume (= x (f 0))) (assume (nabla (= x v)))"
    " (goal (=> (= v 0) (nabla (= v 0))))",
]


@pytest.mark.parametrize("text", SHAPES)
@pytest.mark.parametrize("bounds", [(3, 2), (2, 3)])
def test_rare_shapes_match_the_sweeps(text, bounds):
    ob = _problem(text)
    got = _searched(ob, bounds, 3000)
    assert got == _orbit_sweep(ob, bounds, 3000)
    sweep = _sweep(ob, bounds, 20_000)
    if sweep is not None:
        assert got[:3] == sweep[:3]


def test_prime_of_a_term_reads_the_successor_only_in_a_function():
    # v is x everywhere, a value other than tt and ff.  Where primeR is a
    # total function, (prime v) is x; elsewhere it is tt or ff, and ff at
    # a state with a successor.
    fixed = ("(declare-rigid x) (assume (not (= x true)))"
             " (assume (not (= x false))) (assume (= v x))")
    at_next = _problem(fixed + " (goal (not (= (prime v) x)))")
    res = find_countermodel(at_next, SearchBounds(3, 2))
    assert res.found and len(res.model.universe) == 3
    assert res.model.prime_is_function
    collapsed = _problem(fixed + " (goal (not (= (prime v) false)))")
    res = find_countermodel(collapsed, SearchBounds(3, 2))
    assert res.found and len(res.model.universe) == 3
    assert not res.model.prime_is_function
    for ob in (at_next, collapsed):
        assert _searched(ob, (3, 2)) == _orbit_sweep(ob, (3, 2))


def test_rigid_hypothesis_false_on_whole_prefixes():
    # Where x is the value of 0, the hypothesis fails at every state of
    # every model of the prefix: those models are examined, and none is a
    # countermodel.
    decl = "(declare-op 0 0) (declare-rigid x) (declare-flex v)"
    goal = " (goal (=> (= v 0) (nabla (= v 0))))"
    ob = parse_problem(decl + " (assume (not (= x 0)))" + goal)
    got = _searched(ob, (2, 3))
    assert got == _orbit_sweep(ob, (2, 3))
    free = _searched(parse_problem(decl + goal), (2, 3))
    assert got[0] == free[0] == "found" and got[3] > free[3]
    assert "(op 0 (row 1))\n  (xi (x 0))" in got[2]


def _blocks(ob: Obligation, bounds: tuple[int, int]):
    """The lane blocks of the search: (universe size, states, block,
    the first lanes of the leaders, lanes)."""
    ops, rigid, flex, prime = signature(ob.all_exprs(), ob.env)
    for block, leaders, k in _lane_blocks(ops, rigid, flex, *bounds,
                                          prime):
        yield len(k.universe), k.nstates, block, leaders, k


def _place_of(ob: Obligation, bounds: tuple[int, int], model):
    """(its block, the index of its segment within the block) of the lane
    of `model`."""
    ops, rigid, flex, _ = signature(ob.all_exprs(), ob.env)
    for _, n, block, leaders, k in _blocks(ob, bounds):
        while leaders:
            lane = (leaders & -leaders).bit_length() - 1
            if _lane_model(block, ops, rigid, flex, k, lane) == model:
                return block, lane // _segment_lanes(n)
            leaders &= leaders - 1
    raise AssertionError("no lane holds the model")


def test_max_models_at_a_countermodel_and_at_the_end():
    box = parse_problem((DEMO / "box.foml").read_text())
    for bounds in ((2, 2), (2, 3)):
        status, state, model, at = _searched(box, bounds)
        assert status == "found" and at > 1
        assert _searched(box, bounds, at) == (status, state, model, at) \
            == _orbit_sweep(box, bounds, at)
        assert _searched(box, bounds, at - 1) == \
            ("resource-out", None, None, at - 1) \
            == _orbit_sweep(box, bounds, at - 1)
    # The countermodel is in the second segment of its block: the block's
    # first segment, and the leaders before it, are counted exactly.
    res = find_countermodel(box, SearchBounds(2, 2))
    assert _place_of(box, (2, 2), res.model)[1] == 1
    stability = parse_problem((DEMO / "stability.foml").read_text())
    assert _searched(stability, (3, 3), 1508) == ("none", None, None, 1508)
    assert _searched(stability, (3, 3), 1507) == \
        ("resource-out", None, None, 1507)
    assert _searched(stability, (3, 3), 0) == \
        ("resource-out", None, None, 0)


@pytest.mark.parametrize("goal", [
    "(or (prime (= q 0)) (not (and (= p 0) (delta (not (= p 0))))))",
    "(and (= q q) (iff (forall a (prime (= p a)))"
    " (prime (forall a (= p a)))))",
])
def test_prime_relations_across_packed_blocks(goal):
    # With two flexible variables the tails of two states do not fit in
    # one block, so a run's tails come in windows: the R leaders of a
    # zeta leader span two blocks.
    ob = parse_problem(f"(declare-op 0 0) (declare-flex p) (declare-flex q)"
                       f" (goal {goal})")
    ends = [((u, n, block.run, block.tails[0].zeta),
             (u, n, block.run + block.runs - 1, block.tails[-1].zeta))
            for u, n, block, _, _ in _blocks(ob, (2, 2))]
    assert any(end == start for (_, end), (start, _) in zip(ends, ends[1:]))
    got = _searched(ob, (2, 2))
    assert got[0] == ("found" if "delta" in goal else "none")
    assert got == _orbit_sweep(ob, (2, 2))


def test_later_runs_lay_out_the_windows_of_the_first():
    # Over two values the four tails of three states overflow a lane
    # block, so each run is laid out in windows.  The countermodel needs
    # three states (w0 -> w1 -> w2, w2 a dead end) and, x being ff by the
    # assumption, v = x at two of them: it is in run 1, in the window of
    # the third and fourth tails, whose zeta values are 011 and 111.
    nested = "(=> (= v x) (nabla (=> (not (= v x)) (nabla (=> (= v x)" \
        " (not (nabla false)))))))"
    ob = parse_problem(f"(declare-rigid x) (declare-flex v)"
                       f" (assume (not x)) (goal {nested})")
    got = _searched(ob, (2, 3))
    assert got[0] == "found" and got == _orbit_sweep(ob, (2, 3))
    block, segment = _place_of(ob, (2, 3), parse_model(got[2]))
    assert (block.run, block.runs, segment) == (1, 1, 0)
    assert [tail.zeta for tail in block.tails] == [(0, 1, 1), (1, 1, 1)]
    # Without the assumption it is in run 0; with no countermodel every
    # window of both runs is counted.
    ob = parse_problem(f"(declare-rigid x) (declare-flex v) (goal {nested})")
    assert _searched(ob, (2, 3)) == _orbit_sweep(ob, (2, 3))
    ob = parse_problem("(declare-rigid x) (declare-flex v)"
                       " (goal (=> (= v x) (= v x)))")
    assert _searched(ob, (2, 3)) == _orbit_sweep(ob, (2, 3)) \
        == ("none", None, None, 1584)


# Two flexible variables with prime over two values: 136 tails of two
# states, which a lane block holds 128 of, so each run's tails come in two
# windows, the first of 128 tails and the second of 8.
TWO_WINDOWS = "(declare-rigid x) (declare-flex p) (declare-flex q) "
_STAY_P = "(=> (= p x) (nabla (= p x)))"


@pytest.mark.parametrize("text,place", [
    # true in every one-state model: a countermodel in run 0's first
    # window, at its 57th tail
    (f"(goal (or {_STAY_P} (prime (= q x))))", (0, 128, 56)),
    # p and q are ff at both states of run 0 (x is tt there), and R must
    # have an edge but no path of two: the second window's first tail
    ("(assume (not (= p x))) (assume (not (= q x)))"
     " (assume (= (prime p) (prime p)))"
     " (goal (or (nabla false) (delta (delta true))))", (0, 8, 0)),
    # x is ff: run 1's first window
    (f"(assume (not (= x true))) (goal (or {_STAY_P} (prime (= q x))))",
     (1, 128, 38)),
])
def test_two_state_windows_match_the_orbit_sweep(text, place):
    ob = parse_problem(TWO_WINDOWS + text)
    got = _searched(ob, (2, 2))
    assert got[0] == "found" and got == _orbit_sweep(ob, (2, 2))
    block, segment = _place_of(ob, (2, 2), parse_model(got[2]))
    assert (block.run, len(block.tails), segment) == place
    assert block.runs == 1
    assert _searched(ob, (2, 2), got[3] - 1) == \
        ("resource-out", None, None, got[3] - 1)


@pytest.mark.parametrize("prime", [False, True])
@pytest.mark.parametrize("nflex", [0, 1, 2])
def test_lane_blocks_partition_the_runs_within_the_budget(nflex, prime):
    # One rigid variable: u runs over u values.  For each universe size
    # and state count, the blocks hold every (run, tail) once, in run-major
    # order, with their leaders, in at most _LANE_BUDGET lanes; where one
    # run's tails fit in a block, every block holds the same u**top runs,
    # top the largest level (at most the one digit) that fits.
    # Two flexible variables with prime have 5,728 tails at three states
    # over two values and 63,528 over three, which take a quarter of a
    # second and seconds.
    flex = ("p", "q")[:nflex]
    max_states = 2 if nflex == 2 and prime else 3
    got: dict[tuple[int, int], list] = {}
    sizes: dict[tuple[int, int], set] = {}
    for block, leaders, k in _lane_blocks({}, ("x",), flex, 3, max_states,
                                          prime):
        u, n = len(k.universe), k.nstates
        stride = _segment_lanes(n)
        tails = list(block.tails) * block.runs
        assert len(tails) * stride <= _LANE_BUDGET or len(tails) == 1
        assert k.full == (1 << len(tails) * stride) - 1
        assert leaders == sum(tail.leaders << i * stride
                              for i, tail in enumerate(tails))
        got.setdefault((u, n), []).extend(
            (block.run + q, tail) for q in range(block.runs)
            for tail in block.tails)
        sizes.setdefault((u, n), set()).add(block.runs)
    assert len(got) == 2 * max_states
    for (u, n), pairs in got.items():
        every = list(_tails(nflex, u, n, prime))
        assert pairs == [(run, tail) for run in range(u)
                         for tail in every], (u, n)
        fits = [level for level in (0, 1) if u ** level * len(every)
                * _segment_lanes(n) <= _LANE_BUDGET]
        if fits:
            assert sizes[u, n] == {u ** max(fits)}, (u, n)


def test_blocks_of_a_layout_hold_as_many_runs():
    # x and the rows of f are three digits over two values and four over
    # three.  Over three values there are 81 runs of six two-state tails,
    # and a block holds 128 such tails: 3**2 runs, in each of 9 blocks.
    # Every other layout holds all its runs in one block.
    blocks = Counter((len(k.universe), k.nstates) for _, _, k in
                     _lane_blocks({"f": 1}, ("x",), ("v",), 3, 2, False))
    assert blocks == {(2, 1): 1, (2, 2): 1, (3, 1): 1, (3, 2): 9}


def test_max_models_zero_evaluates_no_block(monkeypatch):
    # At max_models 0 the first leader passes the bound: the search stops
    # before evaluating any hypothesis or goal.
    calls = []

    def counted(*args):
        closure = compile_lanes(*args)

        def run(k, env):
            calls.append(k)
            return closure(k, env)
        return run
    monkeypatch.setattr("foml.search.compile_lanes", counted)
    ob = _problem("(assume (= v v)) (goal (=> (= v 0) (nabla (= v 0))))")
    res = find_countermodel(ob, SearchBounds(2, 2, 0))
    assert (res.status, res.examined) == ("resource-out", 0)
    assert res.reason == "more than max_models = 0 models (1 reached)"
    assert calls == []
    assert find_countermodel(ob, SearchBounds(2, 2, 1)).examined == 1
    assert calls


# Two rigid variables and a binary operator: 2**6 runs of xi and tables
# over two values and 3**11 over three, many of them to a lane block.
DIGITS = parse_problem("(declare-op g 2) (declare-rigid x) (declare-rigid y)"
                       " (declare-flex v) (goal false)").env
# Every symbol occurs, so every obligation has the same signature.
_EVERY = parse_expr("(=> (= (g x y) v) (= (g x y) v))", DIGITS)
# True in every one-state model: the countermodels have two states.
_STAY = parse_expr("(=> (= v x) (nabla (= v x)))", DIGITS)
# False in every model over two values.  Over three, with x = 0, it first
# holds in run 55, where v is 2, g(2, 2) is 1 and g(1, 2) is 2: two low
# digits of a run number.
_THREE = parse_expr("(and (not (= v x)) (and (not (= (g v v) v))"
                    " (and (not (= (g v v) x)) (= (g (g v v) v) v))))",
                    DIGITS)


def _digit_obligations(count: int):
    """Seeded random obligations over `DIGITS`, each with its bounds:
    every fourth has two states at least, and every fourth three values."""
    for i in range(count):
        rng = rng_for(2626, i)
        prime = i % 3 == 2
        hyps = (_EVERY,) + tuple(random_expr(rng, DIGITS, 2,
                                             allow_prime=prime)
                                 for _ in range(rng.randrange(1, 3)))
        goal = random_expr(rng, DIGITS, 3, allow_prime=prime)
        if i % 4 == 2:
            goal = or_(_STAY, goal)
        if i % 4 == 3:
            hyps += (_THREE,)
        yield Obligation(hyps, goal, DIGITS), \
            ((2, 2), (2, 1), (2, 2), (3, 1))[i % 4]


def test_runs_laid_out_by_digits_match_the_orbit_sweep():
    # A block of many runs takes its xi and tables from the digits of
    # their run numbers: each countermodel must be the orbit sweep's, and
    # a bound just before one inside a block of many runs must stop there.
    seen = Counter()
    for ob, bounds in _digit_obligations(32):
        res = find_countermodel(ob, SearchBounds(*bounds, 700))
        got = (res.status, res.state,
               None if res.model is None else serialize_model(res.model),
               res.examined)
        assert got == _orbit_sweep(ob, bounds, 700), (ob, bounds)
        seen[res.status] += 1
        if not res.found:
            continue
        block, _ = _place_of(ob, bounds, res.model)
        if block.runs > 1:
            seen[len(res.model.universe), len(res.model.states)] += 1
            # The orbit sweep stops after the leaders before the
            # countermodel, at max_models of them.
            assert _searched(ob, bounds, res.examined - 1) == \
                ("resource-out", None, None, res.examined - 1)
    assert seen["found"] >= 12 and seen["none"] >= 2, seen
    assert seen[2, 1] >= 5 and seen[2, 2] >= 2 and seen[3, 1] >= 1, seen


def test_four_states_cross_lane_blocks():
    # The first countermodel is a chain of four states whose edge (0, 3)
    # lies in the pairs enumerated outside a lane block.
    ob = parse_problem("(declare-flex p) (goal (not (and p (delta (and"
                       " (not p) (delta (and p (delta (not p))))))"
                       " (nabla (nabla (nabla (nabla false)))))))")
    res = find_countermodel(ob, SearchBounds(2, 4))
    assert (res.status, res.state, res.examined) == ("found", 0, 17521)
    assert res.model.R == {(0, 3), (1, 2), (3, 1)}
    assert obligation_checker(ob)(res.model) == (None, 0)
    # Pinned from the one-model-at-a-time search, which takes seconds.
    assert _searched(ob, (2, 4), 17520) == \
        ("resource-out", None, None, 17520)


@pytest.mark.parametrize("bounds", [(1,), (1, 2), (2, 0), (2, 2, -1)])
def test_bounds_that_admit_no_model_are_rejected(bounds):
    # A "none" over no model at all would read as a verdict.  The first
    # is find_fol_countermodel's universe bound.
    with pytest.raises(ValueError):
        SearchBounds(*bounds)


def _random_lanes(rng: random.Random, env, prime: bool):
    """A lane block of two to four runs from a random run number, over
    one universe and state count: each run with the xi and tables of its
    number, each of one to three segments shared by every run with its
    own zeta, block of relations and, with prime, fixed R.  (lanes,
    {first lane of a relation: its model})."""
    first = random_model(rng, env, 3, 4, need_prime=prime)
    universe, n = first.universe, len(first.states)
    low = _block_pairs(n)
    segments = []
    for _ in range(rng.randrange(1, 4)):
        zeta = {(v, w): rng.choice(universe)
                for v in env.flex_vars for w in first.states}
        block = rng.randrange(1 << (n * n - low))
        r = rng.randrange(1 << n * n) if prime else None
        segments.append((zeta, _Tail(tuple(zeta.values()), r, block, 0)))
    tails = [tail for _, tail in segments]
    spans, ndigits = _spans(env.ops, env.rigid_vars, universe)
    nruns = min(rng.randrange(2, 5), len(universe) ** ndigits)
    run = rng.randrange(len(universe) ** ndigits - nruns + 1)
    models, at = {}, 0
    xi_lanes: dict = {}
    op_lanes: dict = {}
    for q in range(nruns):
        xi, op_interp = _run(env.rigid_vars, spans, ndigits, universe,
                             run + q)
        start = at
        for zeta, (_, r, block, _) in segments:
            m = replace(first, xi=xi, op_interp=op_interp, zeta=zeta)
            for lane in rng.sample(range(1 << low), 2):
                rel = _relation(n, block << low | lane)
                models[at + lane * n] = \
                    replace(m, R=_relation(n, r), primeR=rel) if prime \
                    else replace(m, R=rel, primeR=None)
            at += _segment_lanes(n)
        # xi and the tables one-hot over this run's lanes
        lanes = (1 << at) - (1 << start)
        for x, val in xi.items():
            values = xi_lanes.setdefault(x, {})
            values[val] = values.get(val, 0) | lanes
        for op, table in op_interp.items():
            for args, val in table.items():
                values = op_lanes.setdefault(op, {}).setdefault(args, {})
                values[val] = values.get(val, 0) | lanes
    frame = _frame(tails * nruns, len(env.flex_vars), len(universe), n)
    k = Lanes(n, universe, 0, 1, frame.full, frame.rep, xi_lanes, op_lanes,
              dict(zip(env.flex_vars, frame.flex)), frame.access)
    block = _Block(run, nruns, tails)
    for lane, m in models.items():
        assert _lane_model(block, env.ops, env.rigid_vars, env.flex_vars, k,
                           lane) == m
    return k, models


# Nested modalities, which the generator keeps out of prime bodies; the
# parser rejects a prime under a prime, which the evaluators still define.
NESTED = [("(prime (nabla p))", False), ("(nabla (prime v))", False),
          ("(prime v)", True), ("(= (f (prime v)) v)", True),
          ("(f (prime (nabla (= v 0))))", False),
          ("(forall a (= (prime (f a)) (prime v)))", True)]


def _lanes_agree(rng: random.Random, env, e, bodies=None) -> int:
    """Check e's value and truth in every drawn lane of a random block
    against the point evaluator in the lane's model; the number of
    (lane, state) pairs checked.  Both compilations share `bodies`."""
    k, models = _random_lanes(rng, env, signature((e,), env).prime)
    bodies = {} if bodies is None else bodies
    values = _lanes(e, env, False, bodies)(k, {})
    holds = _lanes(e, env, True, bodies)(k, {})
    checked = 0
    for lane, m in models.items():
        for w in m.states:
            bit = lane + w
            v = eval_expr(m, w, e, env)
            assert [u for u, mask in values.items()
                    if mask >> bit & 1] == [v], (e, lane, w)
            assert (holds >> bit & 1) == (v == m.tt), (e, lane, w)
            checked += 1
    return checked


def test_every_lane_is_the_point_evaluator_in_its_model():
    rng = rng_for(5150, 0)
    checked = 0
    for i in range(240):
        if i < 2 * len(NESTED):
            env = _problem("(goal false)").env
            text, primed = NESTED[i // 2]
            e = parse_expr(text, env)
            e = Prime(e) if primed else e
        else:
            env = random_env(rng, with_defs=rng.random() < 0.5)
            e = random_expr(rng, env, 3, allow_prime=i % 2 == 1)
        checked += _lanes_agree(rng, env, e)
    assert checked > 3000


# Definitions whose lane bodies, compiled once and run on their
# arguments' lane values, must give what the point evaluator gives on the
# substituted body.
DEFINED = parse_problem(
    "(declare-op 0 0) (declare-op f 1) (declare-flex u) (declare-flex v)"
    " (define (cover x) (forall a (= x a)))"
    " (define (later x) (nabla (= x 0)))"
    " (define (after x) (prime (= x 0)))"
    " (define (nextval x) (= (prime x) (f x)))"
    " (define (both x y) (and (later x) (after (cover y))))"
    " (define (zero) (nabla (= v 0)))"
    " (define (mixed x) (and x (= (f x) x)))"
    " (goal false)").env
DEFINED_CASES = [
    # a body quantifier binds a name free in the argument
    "(forall a (cover (f a)))",
    "(forall a (not (cover (= a u))))",
    # a parameter under nabla and under prime, with a flexible argument
    "(later v)", "(later (f u))", "(after v)", "(= (after u) v)",
    "(nextval v)", "(nextval (f u))", "(f (nextval v))",
    # nested definitions
    "(forall a (both (f a) a))", "(both v (= u v))",
    # no parameter
    "(zero)", "(= (zero) u)",
    # a parameter used as a formula and as a term
    "(mixed v)", "(mixed (= v u))", "(= (mixed (later v)) u)",
    # the caller binds a name a parameter has
    "(forall x (later (f x)))", "(forall x (mixed (= x (f x))))",
]


def test_definition_bodies_on_lanes_are_the_point_evaluator():
    # One cache of bodies for every case, as a search shares one across
    # its hypotheses and goal.
    bodies = {}
    for i, text in enumerate(DEFINED_CASES):
        e = parse_expr(text, DEFINED)
        rng = rng_for(5151, i)
        assert sum(_lanes_agree(rng, DEFINED, e, bodies)
                   for _ in range(6)) >= 24, text
    assert len(bodies) == 2 * len(DEFINED.definitions)


def _mask_tuple_leaders(nstates, group):
    """`_leader_relations` as it was first written: each relation's mask
    tuple permuted by every member of the group and compared as a tuple."""
    pairs = [(s, t) for s in range(nstates) for t in range(nstates)]
    maps = [(p, [p[s] * nstates + p[t] for s, t in pairs]) for p in group]
    leaders = []
    for r, mask in enumerate(product((False, True), repeat=len(pairs))):
        fixers = []
        for p, indices in maps:
            image = tuple(mask[i] for i in indices)
            if image < mask:
                break
            if image == mask:
                fixers.append(p)
        else:
            leaders.append((r, tuple(fixers)))
    return tuple(leaders)


def _zeta_stabilisers(nstates):
    """The groups `prefixes` hands to `_leader_relations`: for each way to
    colour the states (by their zeta values), the permutations that keep
    every state's colour, less the identity, in `permutations` order."""
    group = tuple(permutations(range(nstates)))[1:]
    return sorted({tuple(p for p in group
                         if all(c[p[w]] == c[w] for w in range(nstates)))
                   for c in product(range(nstates), repeat=nstates)})


class TestLeaderRelations:
    @pytest.mark.parametrize("nstates", [1, 2, 3])
    def test_match_the_mask_tuple_reference(self, nstates):
        # also on the R-stabilisers the primeR search hands it
        groups = set(_zeta_stabilisers(nstates))
        for group in list(groups):
            groups.update(f for _, f in _leader_relations(nstates, group))
        for group in groups:
            assert _leader_relations(nstates, group) \
                == _mask_tuple_leaders(nstates, group)

    def test_four_states_are_pinned(self):
        # SHA-256 of the mask-tuple reference's leaders and fixers for all
        # 15 zeta stabilisers at four states; the reference takes seconds.
        digest = hashlib.sha256()
        groups = _zeta_stabilisers(4)
        for group in groups:
            leaders = _leader_relations(4, group)
            digest.update(repr((group, leaders)).encode())
        assert len(groups) == 15
        assert digest.hexdigest() == ("ee19fb32455831db840fd33883c766aa"
                                      "e9300fd6c9cb8a2e4e174c82e86a756e")
        assert len(_leader_relations(4, max(groups, key=len))) == 3044


def _defined_obligations(count: int):
    """The first `count` seeded random obligations whose environment has
    a definition, every other one with prime allowed, each with its
    bounds."""
    i = 0
    while count:
        rng = rng_for(9090, i)
        env = random_env(rng, with_defs=True)
        if env.definitions:
            prime = i % 2 == 0
            hyps = tuple(random_expr(rng, env, 2, allow_prime=prime)
                         for _ in range(rng.randrange(0, 3)))
            goal = random_expr(rng, env, 3, allow_prime=prime)
            yield Obligation(hyps, goal, env), BOUNDS[count % 3]
            count -= 1
        i += 1


def test_searches_with_definitions_are_pinned():
    # SHA-256 of (status, state, examined, serialized model) of each
    # search, as the search that substituted definition bodies gave them.
    digest = hashlib.sha256()
    seen = Counter()
    for ob, bounds in _defined_obligations(120):
        got = _searched(ob, bounds, 20_000)
        digest.update(repr(got).encode())
        seen[got[0]] += 1
        seen["prime"] += signature(ob.all_exprs(), ob.env).prime
        seen["applied"] += any(contains_node(e, DefApp)
                               for e in ob.all_exprs())
    assert seen["found"] >= 80 and seen["none"] >= 8, seen
    assert seen["prime"] >= 40 and seen["applied"] >= 25, seen
    assert digest.hexdigest() == ("6c991aaec3eddbf82715d0610730f43b"
                                  "c8272d73d8cb10dbc385f0de06bc7c4f")
