import hashlib
import sys
from pathlib import Path

import pytest

from foml import (
    DefinitionEnvironment,
    FomlError,
    parse_problem,
)
from foml.actions import (
    PrimedVars,
    SafetySpec,
    boxed_step,
    coalesce_action,
    distribute_prime,
    safety_obligations,
    translate_action,
)
from foml.gen import (
    lift_fol_structure,
    random_env,
    random_action_formula,
    random_expr,
    random_model,
    rng_for,
)
from foml.emit import emit_mlseq
from foml.parser import parse_expr, parse_file
from foml.printer import print_problem
from foml.search import SearchBounds, find_fol_countermodel, fol_signature_of
from foml.semantics import eval_expr
from foml.syntax import (
    Eq,
    FlexVar,
    Forall,
    OpApp,
    Prime,
    RigidVar,
    contains_node,
    expand_definitions,
)

sys.path.insert(0, str(Path(__file__).parent))
from reference_syntax import walk  # noqa: E402

ENV = DefinitionEnvironment.build(
    ops={"0": 0, "plus": 2, "c": 0},
    rigid=("x", "y"),
    flex=("u", "v"))


def dist(text):
    return distribute_prime(parse_expr(text, ENV), ENV)


class TestDistributePrime:
    def test_distributes_over_operators(self):
        out = dist("(prime (plus x v))")
        # prime drops on the rigid leaf and stays on the flexible one
        assert out == OpApp("plus", (RigidVar("x"),
                                     Prime(FlexVar("v"))))

    def test_flexible_variable_unchanged(self):
        assert dist("(prime v)") == Prime(FlexVar("v"))

    def test_rigid_constant_loses_prime(self):
        assert dist("(prime c)") == OpApp("c")

    def test_commutes_with_quantifiers(self):
        out = dist("(prime (forall a (= a v)))")
        assert out == Forall("a", Eq(RigidVar("a"),
                                     Prime(FlexVar("v"))))

    def test_every_prime_ends_on_a_flexible(self):
        for i in range(200):
            rng = rng_for(81, i)
            env = random_env(rng, modal_defs=False)
            e = expand_definitions(random_action_formula(rng, env), env)
            out = distribute_prime(e, env)
            for sub in walk(out):
                if isinstance(sub, Prime):
                    assert isinstance(sub.body, FlexVar)

    def test_rejects_nabla(self):
        with pytest.raises(FomlError, match="nabla"):
            dist("(nabla (prime v))")

    def test_value_preserving_on_functional_prime_models(self):
        for i in range(200):
            rng = rng_for(82, i)
            env = random_env(rng, modal_defs=False)
            e = expand_definitions(random_action_formula(rng, env), env)
            out = distribute_prime(e, env)
            m = random_model(rng, env, need_prime=True,
                             functional_prime=True)
            for w in m.states:
                assert eval_expr(m, w, e, env) == \
                    eval_expr(m, w, out, env)


class TestCoalesceAction:
    def test_sharing(self):
        primed = PrimedVars(ENV)
        e = dist("(and (= (prime v) 0) (= (prime v) (prime u)))")
        out = coalesce_action(e, primed)
        assert not contains_node(out, Prime)
        assert primed.mapping == {"v": "v'", "u": "u'"}

    def test_formula_without_prime_unchanged(self):
        primed = PrimedVars(ENV)
        e = parse_expr("(= u v)", ENV)
        assert coalesce_action(e, primed) == e
        assert primed.mapping == {}

    def test_fresh_names_avoid_declared(self):
        env = DefinitionEnvironment.build(
            ops={}, flex=("v", "v'"))
        primed = PrimedVars(env)
        assert primed.intern("v") == "v'1"

    def test_full_pipeline(self):
        ob = parse_problem(
            "(declare-op 0 0) (declare-flex v)"
            "(define (bump) (= (prime v) 0))"
            "(assume (= v 0))"
            "(goal (bump))"
            "(mode action)")
        res = translate_action(ob)
        assert res.goal == Eq(FlexVar("v'"), OpApp("0"))
        assert res.hypotheses == (Eq(FlexVar("v"), OpApp("0")),)
        assert "v'" in res.env.flex_vars


SWAP = """
(declare-op 0 0)
(declare-flex x) (declare-flex y)
(init (and (= x 0) (= y 0)))
(next (and (= (prime x) y) (= (prime y) x)))
(invariant (= y x))
(inductive-invariant (= x y))
"""


def swap_spec():
    pf = parse_file(SWAP)
    return SafetySpec(pf.init, pf.next, pf.invariant,
                      pf.inductive_invariant, pf.env.flex_vars, pf.env)


class TestSafety:
    def test_three_obligations_with_primed_step(self):
        res = safety_obligations(swap_spec())
        ob1, ob2, ob3 = res.obligations
        assert not contains_node(ob1.goal, Prime)
        assert not contains_node(ob3.goal, Prime)
        assert not contains_node(ob2.goal, Prime)
        assert set(res.primed.values()) == {"x'", "y'"}
        assert "x'" in ob2.env.flex_vars

    def test_obligations_valid_within_bounds(self):
        res = safety_obligations(swap_spec())
        for ob in res.obligations:
            ops, variables = fol_signature_of(ob.all_exprs(), ob.env)
            r = find_fol_countermodel(
                ob.hypotheses, ob.goal, ops, variables,
                SearchBounds(max_universe=3, max_models=500_000))
            assert r.exhausted, ob.goal

    def test_glue_sequent_mentions_prime_modality(self):
        res = safety_obligations(swap_spec())
        assert contains_node(res.glue.hypotheses[1], Prime)
        from foml.syntax import Nabla

        assert contains_node(res.glue.goal, Nabla)

    def test_glue_sequent_is_beyond_the_builtin_prover(self):
        # discharging it needs the temporal induction principle, which
        # couples the two modalities; it is emitted for external temporal
        # tooling, and the K-family prover rightly refutes it
        from foml.prover import Countermodel, prove_ml

        pf = parse_file(
            "(declare-op 0 0) (declare-flex x)"
            "(init (= x 0)) (next (= (prime x) x))"
            "(invariant (= x 0)) (inductive-invariant (= x 0))")
        res = safety_obligations(SafetySpec(
            pf.init, pf.next, pf.invariant, pf.inductive_invariant,
            pf.env.flex_vars, pf.env))
        assert isinstance(prove_ml(res.glue), Countermodel)

    def test_trivial_inductive_invariant(self):
        pf = parse_file(SWAP)
        spec = SafetySpec(pf.init, pf.next, pf.invariant,
                          parse_expr("true", pf.env),
                          pf.env.flex_vars, pf.env)
        res = safety_obligations(spec)
        for ob in res.obligations[:2]:
            ops, variables = fol_signature_of(ob.all_exprs(), ob.env)
            r = find_fol_countermodel(
                ob.hypotheses, ob.goal, ops, variables,
                SearchBounds(max_universe=2, max_models=100_000))
            assert r.exhausted

    def test_rejects_modal_state_predicates(self):
        pf = parse_file(SWAP)
        bad = parse_expr("(nabla (= x 0))", pf.env)
        with pytest.raises(FomlError, match="state predicate"):
            safety_obligations(SafetySpec(
                bad, pf.next, pf.invariant, pf.inductive_invariant,
                pf.env.flex_vars, pf.env))

    def test_boxed_step_shape(self):
        pf = parse_file(SWAP)
        e = boxed_step(pf.next, ("x",))
        # Next \/ (x'=x)
        from foml.syntax import or_

        assert e == or_(pf.next, Eq(Prime(FlexVar("x")), FlexVar("x")))

    def test_printed_output_is_pinned(self):
        # The demo spec plus 40 seeded random specs: state predicates
        # without modalities, a random action formula as the step.  The
        # digest covers the three printed obligations, the emitted glue
        # sequent and the primed-name map, so any change to what
        # `safety` writes changes it.
        demo = Path(__file__).parent.parent / "demo" / "swap.foml"
        pf = parse_file(demo.read_text())
        specs = [SafetySpec(pf.init, pf.next, pf.invariant,
                            pf.inductive_invariant, pf.env.flex_vars,
                            pf.env)]
        for i in range(40):
            rng = rng_for(88, i)
            env = random_env(rng, modal_defs=False)

            def state():
                return random_expr(rng, env, depth=2, allow_nabla=False,
                                   allow_prime=False)

            init, inv, iinv = state(), state(), state()
            specs.append(SafetySpec(init, random_action_formula(rng, env),
                                    inv, iinv, env.flex_vars, env))
        digest = hashlib.sha256()
        for spec in specs:
            res = safety_obligations(spec)
            for ob in res.obligations:
                digest.update(print_problem(ob).encode())
            digest.update(emit_mlseq(res.glue).encode())
            digest.update(repr(sorted(res.primed.items())).encode())
        assert digest.hexdigest()[:16] == "64ccb9088ed9fb13"


class TestRefutationLifting:
    def test_lift_round_trip_manual(self):
        env = DefinitionEnvironment.build(ops={"0": 0}, flex=("v",))
        e = parse_expr("(= (prime v) v)", env)
        c = distribute_prime(e, env)
        primed = PrimedVars(env)
        cf = coalesce_action(c, primed)
        env2 = env.extended(flex=primed.new_flex_names())
        ops, variables = fol_signature_of((cf,), env2)
        r = find_fol_countermodel((), cf, ops, variables,
                                  SearchBounds(max_universe=2))
        assert r.found
        m = lift_fol_structure(r.model, primed.mapping, env)
        assert m.prime_is_function
        assert eval_expr(m, 0, c, env) != m.tt
