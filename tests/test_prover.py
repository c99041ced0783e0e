import sys
from collections import Counter
from itertools import compress, product
from pathlib import Path

import time

import pytest

from foml import parse_problem
from foml.coalesce_ml import coalesce_obligation_ml
from foml.emit import emit_mlseq
from foml.gen import random_ml_formula, random_ml_sequent, rng_for
from foml.models import KripkeModel, parse_model, serialize_model
from foml.prover import (
    FRAMES,
    Countermodel,
    MLSequent,
    Proved,
    ProverLimits,
    ResourceOut,
    _closure,
    _extract_model,
    _verify,
    prove_ml,
)
from foml.search import enumerate_propmodels
from foml.semantics import eval_ml
from foml.syntax import (
    FALSE,
    DefApp,
    Eq,
    Expression,
    FalseExpr,
    FlexVar,
    FomlError,
    Forall,
    Implies,
    InternalError,
    Nabla,
    OpApp,
    Prime,
    RigidVar,
    children,
    contains_node,
    free_flex_vars,
)

sys.path.insert(0, str(Path(__file__).parent))
from reference_syntax import map_children  # noqa: E402

p, q = FlexVar("p"), FlexVar("q")


def seq(goal, *hyps, frame="k", prime_frame="k"):
    return MLSequent(tuple(hyps), goal, frame, prime_frame)


def reflexive(rel, states) -> bool:
    return all((w, w) in rel for w in states)


def transitive(rel) -> bool:
    return all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c)


def in_frame_class(rel, states, frame) -> bool:
    return ((frame not in ("t", "s4") or reflexive(rel, states))
            and (frame not in ("k4", "s4") or transitive(rel)))


def chain(n: int, drop: int) -> MLSequent:
    """Hypotheses p_i => nabla p_(i+1) except link `drop`; the goal is
    p_0 => nabla^(n-1) p_(n-1)."""
    ps = [FlexVar(f"p{i}") for i in range(n)]
    goal = ps[-1]
    for _ in range(n - 1):
        goal = Nabla(goal)
    return MLSequent(
        tuple(Implies(ps[i], Nabla(ps[i + 1]))
              for i in range(n - 1) if i != drop),
        Implies(ps[0], goal))


def xor_clash(n: int) -> MLSequent:
    """Proved, with 2n + 4 free bits, and hard for keys that each search
    alone.  A first hypothesis sets the boxes nabla(x_i => x_(i+1)),
    i < n, early in the search order; six XOR hypotheses over them and
    the atoms all end in the last atom, so the three-valued pass cuts
    no branch before it; the goal fails only where a box is false and
    every successor falsifies the first XOR, written in the other
    order, which no successor can."""
    def neg(a):
        return Implies(a, FALSE)

    def xor(a, b):
        return Implies(Implies(a, b), neg(Implies(b, a)))

    xs = [FlexVar(f"x{i}") for i in range(n + 3)]
    boxes = [Nabla(Implies(xs[i], xs[i + 1])) for i in range(n)]
    order = boxes[-1]
    for b in reversed(boxes):
        order = Implies(b, order)
    rng = rng_for(5, n)
    picks = [rng.sample(xs[:-1] + boxes, 6) for _ in range(6)]
    xors = []
    for vs in picks:
        c = xs[-1]
        for v in vs:
            c = xor(v, c)
        xors.append(c)
    first = xs[-1]
    for v in reversed(picks[0]):
        first = xor(v, first)
    all_boxes = boxes[0]
    for b in boxes[1:]:
        all_boxes = neg(Implies(all_boxes, neg(b)))
    return MLSequent((order, *xors),
                     Implies(Nabla(neg(first)), all_boxes))


def oracle_countermodel_exists(s: MLSequent, max_states=3) -> bool:
    atoms = sorted(set(sum(
        (free_flex_vars(e) for e in s.hypotheses + (s.goal,)), ())))
    with_prime = any(contains_node(e, Prime)
                     for e in s.hypotheses + (s.goal,))
    for k in enumerate_propmodels(atoms, max_states, s.frame_nabla,
                                  with_prime, s.frame_prime):
        if all(eval_ml(k, w, h) == k.tt
               for h in s.hypotheses for w in k.states):
            if any(eval_ml(k, w, s.goal) != k.tt for w in k.states):
                return True
    return False


class TestBasicVerdicts:
    def test_tautology(self):
        assert isinstance(prove_ml(seq(Implies(p, p))), Proved)

    def test_k_axiom(self):
        k_ax = Implies(Nabla(Implies(p, q)),
                       Implies(Nabla(p), Nabla(q)))
        assert isinstance(prove_ml(seq(k_ax)), Proved)

    def test_necessitation_through_global_hypotheses(self):
        assert isinstance(prove_ml(seq(Nabla(p), p)), Proved)

    def test_atom_is_not_valid(self):
        v = prove_ml(seq(p))
        assert isinstance(v, Countermodel)

    def test_t_axiom_frame_sensitivity(self):
        t_ax = Implies(Nabla(p), p)
        assert isinstance(prove_ml(seq(t_ax)), Countermodel)
        assert isinstance(prove_ml(seq(t_ax, frame="t")), Proved)
        assert isinstance(prove_ml(seq(t_ax, frame="s4")), Proved)

    def test_four_axiom_frame_sensitivity(self):
        four = Implies(Nabla(p), Nabla(Nabla(p)))
        assert isinstance(prove_ml(seq(four)), Countermodel)
        assert isinstance(prove_ml(seq(four, frame="k4")), Proved)
        assert isinstance(prove_ml(seq(four, frame="s4")), Proved)
        assert isinstance(prove_ml(seq(four, frame="t")), Countermodel)

    def test_false_hypothesis_proves_anything(self):
        assert isinstance(prove_ml(seq(p, FALSE)), Proved)

    def test_unknown_frame_rejected(self):
        with pytest.raises(FomlError):
            prove_ml(MLSequent((), p, "k5", "k"))

    def test_non_ml_formula_rejected(self):
        from foml.syntax import Eq, RigidVar

        with pytest.raises(FomlError):
            prove_ml(seq(Eq(RigidVar("x"), RigidVar("x"))))


class TestMultiModal:
    def test_independent_modalities(self):
        mixed = Implies(Nabla(p), Prime(p))
        assert isinstance(prove_ml(seq(mixed)), Countermodel)

    def test_prime_frame_flag(self):
        t_prime = Implies(Prime(p), p)
        assert isinstance(prove_ml(seq(t_prime)), Countermodel)
        assert isinstance(
            prove_ml(seq(t_prime, prime_frame="t")), Proved)

    def test_countermodel_carries_prime_relation(self):
        v = prove_ml(seq(Prime(p)))
        assert isinstance(v, Countermodel)
        assert v.model.primeR is not None
        assert eval_ml(v.model, v.state, Prime(p)) == v.model.ff


class TestStabilityExample:
    GOAL_TEXT = (
        "(declare-rigid x) (declare-rigid y)"
        "(goal (=> (and (= x y) (nabla (delta true)))"
        "          (nabla (delta (= x y)))))")

    def test_proved_with_stability_hypothesis(self):
        res = coalesce_obligation_ml(parse_problem(self.GOAL_TEXT))
        s = MLSequent(res.hypotheses + res.stability, res.goal)
        assert isinstance(prove_ml(s), Proved)

    def test_countermodel_without_it(self):
        res = coalesce_obligation_ml(parse_problem(self.GOAL_TEXT))
        s = MLSequent(res.hypotheses, res.goal)
        v = prove_ml(s)
        assert isinstance(v, Countermodel)
        assert not oracle_countermodel_exists(
            MLSequent(res.hypotheses + res.stability, res.goal))

    def test_two_state_refutation_by_enumeration(self):
        # brute force over all two-state models: the dropped hypothesis
        # is witnessed by a model where the shared atom flips
        res = coalesce_obligation_ml(parse_problem(self.GOAL_TEXT))
        atom = res.table.in_order()[0].name
        found = None
        for k in enumerate_propmodels((atom,), max_states=2):
            for w in k.states:
                if eval_ml(k, w, res.goal) != k.tt:
                    found = (k, w)
                    break
            if found:
                break
        k, w = found
        assert eval_ml(k, w, res.goal) == k.ff
        vals = {k.zeta[(atom, s)] for s in k.states}
        assert vals == {"tt", "ff"}


class TestAgreementWithEnumeration:
    @pytest.mark.parametrize("frame", ["k", "t", "k4", "s4"])
    def test_random_sequents(self, frame):
        for i in range(120):
            rng = rng_for(71, i)
            s = random_ml_sequent(rng, allow_prime=False)
            s = MLSequent(s.hypotheses, s.goal, frame, "k")
            v = prove_ml(s)
            if isinstance(v, Proved):
                assert not oracle_countermodel_exists(s, 2), s
            else:
                assert isinstance(v, Countermodel)

    def test_countermodels_reverify(self):
        for i in range(200):
            rng = rng_for(72, i)
            s = random_ml_sequent(rng)
            v = prove_ml(s)
            if isinstance(v, Countermodel):
                for h in s.hypotheses:
                    for w in v.model.states:
                        assert eval_ml(v.model, w, h) == v.model.tt
                assert eval_ml(v.model, v.state, s.goal) != v.model.tt

    def test_countermodels_live_in_the_frame_class(self):
        for i in range(300):
            rng = rng_for(73, i)
            s = random_ml_sequent(rng)
            v = prove_ml(s)
            if not isinstance(v, Countermodel):
                continue
            rels = [(s.frame_nabla, v.model.R)]
            if v.model.primeR is not None:
                rels.append((s.frame_prime, v.model.primeR))
            for frame, rel in rels:
                if frame in ("t", "s4"):
                    assert reflexive(rel, v.model.states), (s, frame)
                if frame in ("k4", "s4"):
                    assert transitive(rel), (s, frame)


class TestWitnessCountermodels:
    """Countermodels as the CLI prints them, re-read from text and
    checked with the evaluator alone."""

    @pytest.mark.parametrize("frame", FRAMES)
    def test_printed_countermodels_reread_and_refute(self, frame):
        checked = 0
        for i in range(300):
            base = random_ml_sequent(rng_for(74, i))
            with_prime = any(contains_node(e, Prime)
                             for e in base.hypotheses + (base.goal,))
            for prime_frame in FRAMES if with_prime else ("k",):
                s = MLSequent(base.hypotheses, base.goal, frame, prime_frame)
                v = prove_ml(s)
                if not isinstance(v, Countermodel):
                    continue
                text = serialize_model(v.model)
                k = parse_model(text)
                assert k == v.model, (s, text)
                assert in_frame_class(k.R, k.states, frame), (s, text)
                if k.primeR is not None:
                    assert in_frame_class(k.primeR, k.states,
                                          prime_frame), (s, text)
                for h in s.hypotheses:
                    for w in k.states:
                        assert eval_ml(k, w, h) == k.tt, (s, text)
                assert eval_ml(k, v.state, s.goal) == k.ff, (s, text)
                checked += 1
        assert checked > 150

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_chain_countermodel_has_at_most_n_states(self, n):
        # the canonical model's reachable part had 288, 864 and 5184
        v = prove_ml(chain(n, drop=n // 2))
        assert isinstance(v, Countermodel)
        assert len(v.model.states) <= n

    @pytest.mark.parametrize("frame", FRAMES)
    def test_one_witness_per_falsified_box(self, frame):
        # the goal fails only where nabla p and nabla q are both false:
        # the root gets one successor per box, besides itself on t/s4
        either = Implies(Implies(Nabla(p), FALSE), Nabla(q))
        v = prove_ml(seq(either, frame=frame))
        assert isinstance(v, Countermodel)
        succ = {w for u, w in v.model.R if u == v.state} - {v.state}
        assert len(succ) <= 2


class TestVerifyFrameClass:
    def model(self, R, primeR=None) -> KripkeModel:
        return KripkeModel.propositional(
            (0, 1), frozenset(R), {("p", 0): "ff", ("p", 1): "ff"}, primeR)

    def test_non_reflexive_relation_on_t(self):
        m = self.model({(0, 1), (1, 1)})
        _verify(seq(p), m, 0)
        with pytest.raises(InternalError, match="not reflexive"):
            _verify(seq(p, frame="t"), m, 0)

    def test_non_transitive_relation_on_k4(self):
        m = self.model({(0, 1), (1, 0)})
        _verify(seq(p), m, 0)
        with pytest.raises(InternalError, match="not transitive"):
            _verify(seq(p, frame="k4"), m, 0)
        with pytest.raises(InternalError, match="not reflexive"):
            _verify(seq(p, frame="s4"), m, 0)

    def test_prime_relation_checked_against_its_own_frame(self):
        loops = {(0, 0), (1, 1)}
        m = self.model(loops, primeR=frozenset({(0, 1)}))
        _verify(seq(p, frame="s4"), m, 0)
        with pytest.raises(InternalError, match="primeR is not reflexive"):
            _verify(seq(p, frame="s4", prime_frame="t"), m, 0)


class TestLimits:
    """Each limit at the last value that runs out and the first that
    decides: chain(5) is proved after 938 search steps and 585 types,
    chain(6, drop=3) refuted after 57 steps and 5 types."""

    def test_resource_out(self):
        s = chain(5, drop=None)
        assert prove_ml(s, ProverLimits(max_steps=937)) == ResourceOut(
            "more than 937 search steps (584 types built)")
        assert isinstance(prove_ml(s, ProverLimits(max_steps=938)), Proved)
        s = chain(6, drop=3)
        assert prove_ml(s, ProverLimits(max_steps=56)) == ResourceOut(
            "more than 56 search steps (4 types built)")
        assert isinstance(prove_ml(s, ProverLimits(max_steps=57)),
                          Countermodel)

    def test_too_many_candidate_types(self):
        s = chain(5, drop=None)
        assert prove_ml(s, ProverLimits(max_types=584)) == ResourceOut(
            "more than 584 candidate types (after 938 search steps)")
        assert isinstance(prove_ml(s, ProverLimits(max_types=585)), Proved)
        s = chain(6, drop=3)
        assert prove_ml(s, ProverLimits(max_types=4)) == ResourceOut(
            "more than 4 candidate types (after 57 search steps)")
        assert isinstance(prove_ml(s, ProverLimits(max_types=5)),
                          Countermodel)


def _reference_closure(s: MLSequent) -> list[Expression]:
    """Subformulas of the sequent, children before parents, deduplicated
    by node equality: the recursive closure the prover had before it
    numbered subformulas by their children's numbers."""
    out: list[Expression] = []
    seen: set[Expression] = set()

    def visit(e: Expression) -> None:
        if e in seen:
            return
        for c in children(e):
            visit(c)
        seen.add(e)
        out.append(e)

    for h in s.hypotheses:
        visit(h)
    visit(s.goal)
    return out


def _reference_check_ml_formula(e: Expression) -> None:
    """The fragment check `emit_mlseq` made before `_closure` became its
    guard: a walk over e as a tree, raising at the first node outside the
    propositional modal fragment in pre-order."""
    stack = [e]
    while stack:
        sub = stack.pop()
        t = type(sub)
        if t is Implies:
            stack.append(sub.rhs)
            stack.append(sub.lhs)
        elif t is Nabla or t is Prime:
            stack.append(sub.body)
        elif t is not FlexVar and t is not FalseExpr:
            raise FomlError(
                f"not a propositional modal formula: {sub}")


def _reference_message(s: MLSequent) -> str:
    """The reference check's message over the hypotheses and then the
    goal."""
    with pytest.raises(FomlError) as err:
        for e in (*s.hypotheses, s.goal):
            _reference_check_ml_formula(e)
    return str(err.value)


def _reference_prove(s: MLSequent):
    """The exhaustive procedure: every type over all 2^free assignments,
    then round-by-round elimination of the types with a falsified box
    that no surviving successor witnesses; same witness extraction."""
    closure = _reference_closure(s)
    bit = {e: 1 << i for i, e in enumerate(closure)}
    free = [bit[e] for e in closure
            if isinstance(e, (FlexVar, Nabla, Prime))]
    implies = [(bit[e], bit[e.lhs], bit[e.rhs])
               for e in closure if isinstance(e, Implies)]
    hyps = sum({bit[h] for h in s.hypotheses})
    mods = [([(bit[e], bit[e.body]) for e in closure if isinstance(e, kind)],
             frame in ("k4", "s4"), frame in ("t", "s4"))
            for kind, frame in ((Nabla, s.frame_nabla),
                                (Prime, s.frame_prime))]
    reqs = {}
    for assignment in product((0, 1), repeat=len(free)):
        t = sum(compress(free, assignment))
        for b, lhs, rhs in implies:
            if not t & lhs or t & rhs:
                t |= b
        if t & hyps != hyps:
            continue
        req = []
        for pairs, transitive, reflexive in mods:
            need = want = 0
            for box, body in pairs:
                if t & box:
                    need |= (body | box) if transitive else body
                else:
                    want |= body
            if reflexive and t & need != need:
                break
            req.append((need, want))
        else:
            reqs[t] = req

    def witness(need, b, alive):
        return next((u for u in alive if u & need == need and not u & b),
                    None)

    alive, changed = list(reqs), True
    while changed:
        kept = [t for t in alive if all(
            witness(need, 1 << b, alive) is not None
            for need, want in reqs[t]
            for b in range(want.bit_length()) if want >> b & 1)]
        alive, changed = kept, len(kept) < len(alive)
    root = witness(0, bit[s.goal], alive)
    if root is None:
        return Proved()
    atoms = [(e.name, bit[e]) for e in closure if isinstance(e, FlexVar)]
    model = _extract_model(root, reqs,
                           lambda need, b: witness(need, b, alive),
                           mods, atoms)
    _verify(s, model, 0)
    return Countermodel(model, 0)


def larger_ml_sequent(rng) -> MLSequent:
    """Five to seven atoms, a goal of depth 4-5 and up to three
    hypotheses of depth 2-3: mostly within 18 free bits."""
    atoms = [f"p{i}" for i in range(rng.randrange(5, 8))]
    prime = rng.random() < 0.3
    hyps = tuple(random_ml_formula(rng, atoms, rng.randrange(2, 4), prime)
                 for _ in range(rng.randrange(0, 4)))
    goal = random_ml_formula(rng, atoms, rng.randrange(4, 6), prime)
    return MLSequent(hyps, goal)


def printed(v) -> str:
    if isinstance(v, Countermodel):
        return serialize_model(v.model)
    return repr(v)


class TestAgainstExhaustiveElimination:
    def test_same_verdicts_and_countermodels(self):
        # on every frame pair; the prime frame only matters with a prime
        kinds = set()
        for i in range(400):
            base = random_ml_sequent(rng_for(75, i))
            with_prime = any(contains_node(e, Prime)
                             for e in base.hypotheses + (base.goal,))
            for frame in FRAMES:
                for prime_frame in FRAMES if with_prime else ("k",):
                    s = MLSequent(base.hypotheses, base.goal, frame,
                                  prime_frame)
                    v = prove_ml(s)
                    assert printed(v) == printed(_reference_prove(s)), s
                    kinds.add(v.kind)
        assert kinds == {"proved", "countermodel"}

    def test_larger_sequents(self):
        # the keys share one search tree, whose inner nodes over `free`
        # bits number at most 2^free - 1: so no step-limit resource-out
        # below the old 18-bit limit.  A type-limit one means the
        # exhaustive procedure had more than 8000 types too, since
        # every type built is one of them.
        compared = 0
        for i in range(150):
            base = larger_ml_sequent(rng_for(79, i))
            free = sum(isinstance(e, (FlexVar, Nabla, Prime))
                       for e in _reference_closure(base))
            if free > 18:
                continue
            limits = ProverLimits(max_steps=(1 << free) - 1)
            with_prime = any(contains_node(e, Prime)
                             for e in base.hypotheses + (base.goal,))
            for frame in FRAMES:
                for prime_frame in FRAMES if with_prime else ("k",):
                    s = MLSequent(base.hypotheses, base.goal, frame,
                                  prime_frame)
                    v = prove_ml(s, limits)
                    assert not isinstance(v, ResourceOut) or (
                        v.reason.startswith("more than 8000 candidate")), s
                    if free <= 10:
                        assert printed(v) == printed(_reference_prove(s)), s
                        compared += 1
        assert compared > 500

    def test_keys_share_one_search_tree(self):
        # 12 free bits; with a search per key this took 8127 steps
        s = xor_clash(4)
        v = prove_ml(s, ProverLimits(max_steps=(1 << 12) - 1))
        assert isinstance(v, Proved)
        assert isinstance(_reference_prove(s), Proved)

    def test_wide_implication_is_refuted_by_one_state(self):
        # the shape of the benchmark's `wide` items: 28 free bits
        goal = FlexVar("z")
        for i in range(27):
            goal = Implies(FlexVar(f"w{i}"), goal)
        v = prove_ml(seq(goal))
        assert isinstance(v, Countermodel)
        assert v.model.states == (0,)
        assert v.model.zeta[("z", 0)] == "ff"

    def test_k_chain_of_six_is_proved(self):
        assert isinstance(prove_ml(chain(6, drop=None)), Proved)

    def test_k_chain_of_six_without_its_middle_link(self):
        v = prove_ml(chain(6, drop=2))
        assert isinstance(v, Countermodel)
        assert len(v.model.states) <= 5


def rebuilt(closure: list[tuple]) -> list[Expression]:
    """The subformulas that numbered closure keys stand for."""
    out: list[Expression] = []
    for t, *rest in closure:
        if t is FlexVar:
            out.append(FlexVar(rest[0]))
        elif t is FalseExpr:
            out.append(FALSE)
        elif t is Implies:
            out.append(Implies(out[rest[0]], out[rest[1]]))
        else:
            out.append(t(out[rest[0]]))
    return out


class TestClosureNumbering:
    def test_same_subformulas_in_the_same_order(self):
        for i in range(3000):
            s = random_ml_sequent(rng_for(5, i))
            closure, roots = _closure(s)
            exprs = rebuilt(closure)
            assert exprs == _reference_closure(s), s
            assert [exprs[r] for r in roots] == [*s.hypotheses, s.goal]

    def test_equal_subformulas_get_one_number(self):
        # equal but distinct objects, and one object met twice
        a, b = Implies(p, Nabla(q)), Implies(p, Nabla(q))
        closure, roots = _closure(seq(Implies(a, b), a, Prime(a)))
        assert rebuilt(closure) == [p, q, Nabla(q), a, Prime(a),
                                    Implies(a, a)]
        assert roots == [3, 4, 5]

    def test_the_first_offender_is_named(self):
        # one node outside the fragment in a hypothesis, one in the goal:
        # the hypothesis is walked first, as the reference walks it
        bad_hyp, bad_goal = Eq(RigidVar("x"), RigidVar("y")), RigidVar("z")
        s = seq(Nabla(Implies(p, bad_goal)),
                Implies(q, Implies(Nabla(bad_hyp), RigidVar("w"))))
        for check in (prove_ml, emit_mlseq):
            with pytest.raises(FomlError) as got:
                check(s)
            assert str(got.value) == _reference_message(s) == (
                f"not a propositional modal formula: {bad_hyp}")

    def test_a_self_shared_formula_is_walked_once(self):
        # as a tree it has 2^3000 leaves
        x = p
        for _ in range(3000):
            x = Implies(x, x)
        start = time.perf_counter()
        assert isinstance(prove_ml(seq(x)), Proved)
        assert time.perf_counter() - start < 1.0

    def test_deep_sequents(self):
        # the walk does not recurse; checking a countermodel does, so one
        # past the evaluator's reach is an honest resource-out
        goal = refuted = p
        for _ in range(5000):
            goal, refuted = Implies(p, goal), Implies(q, refuted)
        assert isinstance(prove_ml(seq(goal)), Proved)
        assert prove_ml(seq(refuted)) == ResourceOut(
            "nesting depth 5001 is past the evaluator's reach, so the "
            "countermodel found was not verified")


# Nodes outside the propositional modal fragment, each wrapping the
# subformula it replaces where it has an operand.
PLANTS = {
    "Eq": lambda e: Eq(RigidVar("x"), e),
    "OpApp": lambda e: OpApp("f", (e,)),
    "RigidVar": lambda e: RigidVar("x"),
    "Forall": lambda e: Forall("x", e),
    "DefApp": lambda e: DefApp("d", (e,)),
}


def _size(e: Expression) -> int:
    return 1 + sum(_size(c) for c in children(e))


def _plant(rng, s: MLSequent) -> tuple[MLSequent, str, bool]:
    """s with one node, at a seeded pre-order position of a seeded
    hypothesis or of the goal, replaced by a node outside the fragment;
    with the planted kind and whether it went into the goal."""
    parts = [*s.hypotheses, s.goal]
    i = rng.randrange(len(parts))
    kind = rng.choice(list(PLANTS))
    target, seen = rng.randrange(_size(parts[i])), [-1]

    def go(n):
        seen[0] += 1
        return PLANTS[kind](n) if seen[0] == target \
            else map_children(n, go)

    parts[i] = go(parts[i])
    return (MLSequent(tuple(parts[:-1]), parts[-1], s.frame_nabla,
                      s.frame_prime), kind, i == len(parts) - 1)


class TestGuard:
    """`emit_mlseq` guards with `_closure`: it rejects exactly what the
    tree walk it replaced rejects, naming the same node."""

    def test_planted_offenders_match_the_reference(self):
        planted = Counter()
        for i in range(600):
            rng = rng_for(21, i)
            s, kind, in_goal = _plant(rng, random_ml_sequent(rng))
            want = _reference_message(s)
            for check in (emit_mlseq, prove_ml):
                with pytest.raises(FomlError) as got:
                    check(s)
                assert str(got.value) == want, s
            planted[kind, in_goal] += 1
        assert len(planted) == 2 * len(PLANTS), planted

    def test_a_self_shared_goal_is_checked_once_per_object(self):
        # as a tree the goal has 2^60 leaves before its one bad node,
        # which comes last in pre-order
        x = p
        for _ in range(60):
            x = Implies(x, x)
        start = time.perf_counter()
        with pytest.raises(FomlError) as got:
            emit_mlseq(seq(Implies(x, RigidVar("z"))))
        assert time.perf_counter() - start < 1.0
        assert str(got.value) == "not a propositional modal formula: z"
