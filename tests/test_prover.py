import pytest

from foml import parse_problem
from foml.coalesce_ml import coalesce_obligation_ml, ml_atoms_of
from foml.gen import random_ml_sequent, rng_for
from foml.models import (
    PropModel,
    kripke_as_propmodel,
    parse_model,
    propmodel_as_kripke,
    serialize_model,
)
from foml.prover import (
    FRAMES,
    Countermodel,
    MLSequent,
    Proved,
    ProverLimits,
    ResourceOut,
    _verify,
    prove_ml,
)
from foml.search import enumerate_propmodels
from foml.semantics import eval_ml
from foml.syntax import (
    FALSE,
    FlexVar,
    FomlError,
    Implies,
    InternalError,
    Nabla,
    Prime,
    contains_node,
)

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


def oracle_countermodel_exists(s: MLSequent, max_states=3) -> bool:
    atoms = sorted(set(sum(
        (ml_atoms_of(e) for e in s.hypotheses + (s.goal,)), ())))
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
                text = serialize_model(propmodel_as_kripke(v.model))
                k = kripke_as_propmodel(parse_model(text))
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
    def model(self, R, primeR=None) -> PropModel:
        return PropModel(states=(0, 1), R=frozenset(R),
                         zeta={("p", 0): "ff", ("p", 1): "ff"},
                         primeR=primeR)

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
    def test_resource_out(self):
        goal = p
        for i in range(30):
            goal = Implies(Nabla(FlexVar(f"a{i}")), goal)
        v = prove_ml(seq(goal), ProverLimits(max_free_bits=8))
        assert isinstance(v, ResourceOut)

    def test_too_many_candidate_types(self):
        atoms = [FlexVar(f"a{i}") for i in range(4)]
        goal = FALSE
        for a in atoms:
            goal = Implies(a, goal)
        # four free atoms and no hypothesis: 16 candidate types
        v = prove_ml(seq(goal), ProverLimits(max_types=3))
        assert v == ResourceOut("more than 3 candidate types")
        assert prove_ml(seq(goal), ProverLimits(max_types=15)) == \
            ResourceOut("more than 15 candidate types")
        assert isinstance(prove_ml(seq(goal), ProverLimits(max_types=16)),
                          Countermodel)
        # assignments a hypothesis rules out are not candidates: 8 remain
        assert isinstance(
            prove_ml(seq(goal, atoms[0]), ProverLimits(max_types=8)),
            Countermodel)
        assert prove_ml(seq(goal, atoms[0]), ProverLimits(max_types=7)) == \
            ResourceOut("more than 7 candidate types")
