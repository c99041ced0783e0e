from foml import (
    AtomTable,
    build_witness_propmodel,
    coalesce_ml,
    coalesce_obligation_ml,
    parse_problem,
)
from foml.coalesce_ml import hypotheses
from foml.gen import random_env, random_expr, random_model, rng_for
from foml.semantics import eval_expr, eval_ml
from foml.syntax import (
    FALSE,
    DefApp,
    Eq,
    FlexVar,
    Forall,
    Implies,
    Nabla,
    OpApp,
    Prime,
    RigidVar,
    contains_node,
    free_flex_vars,
)


def translate(text):
    ob = parse_problem(text)
    return ob, coalesce_obligation_ml(ob)


class TestGoldenShapes:
    def test_box_example(self):
        ob, res = translate(
            "(declare-op 0 0) (declare-flex v)"
            "(goal (=> (= v 0) (nabla (= v 0))))")
        atom = res.table.in_order()[0].name
        assert res.goal == Implies(FlexVar(atom), Nabla(FlexVar(atom)))
        assert len(res.table.entries) == 1
        assert res.stability == ()  # source mentions a flexible variable

    def test_equality_atom_shared_through_modalities(self):
        ob, res = translate(
            "(declare-rigid x) (declare-rigid y)"
            "(goal (=> (and (= x y) (nabla (delta true)))"
            "          (nabla (delta (= x y)))))")
        assert len(res.table.entries) == 1
        entry = res.table.in_order()[0]
        assert entry.source == Eq(RigidVar("x"), RigidVar("y"))
        # rigid source, so exactly one stability hypothesis
        assert res.stability == (
            Implies(FlexVar(entry.name), Nabla(FlexVar(entry.name))),)

    def test_false_maps_to_itself(self):
        ob, res = translate("(goal false)")
        assert res.goal == FALSE
        assert res.table.in_order() == ()

    def test_flexible_variables_pass_through(self):
        ob, res = translate("(declare-flex v) (goal (nabla v))")
        assert res.goal == Nabla(FlexVar("v"))
        assert res.table.in_order() == ()

    def test_quantified_formula_is_one_atom(self):
        ob, res = translate(
            "(declare-flex v)"
            "(goal (=> (forall a (nabla (= v a)))"
            "          (nabla (forall b (= v b)))))")
        entries = res.table.in_order()
        assert len(entries) == 2
        assert isinstance(res.goal.lhs, FlexVar)
        assert isinstance(res.goal.rhs, Nabla)
        assert isinstance(res.goal.rhs.body, FlexVar)

    def test_rigid_variable_atom_gets_hypothesis(self):
        ob, res = translate("(declare-rigid x) (goal (nabla x))")
        entry = res.table.in_order()[0]
        assert entry.source == RigidVar("x")
        assert res.stability == (
            Implies(FlexVar(entry.name), Nabla(FlexVar(entry.name))),)

    def test_prime_variant_hypotheses_when_prime_occurs(self):
        ob, res = translate(
            "(declare-rigid x) (declare-flex v)"
            "(goal (=> (= x x) (prime v)))")
        entry = res.table.in_order()[0]
        atom = FlexVar(entry.name)
        assert res.stability == (
            Implies(atom, Nabla(atom)), Implies(atom, Prime(atom)))


class TestAlphaSharing:
    def test_quantified_keys_identified_modulo_alpha(self):
        ob, res = translate(
            "(declare-flex v)"
            "(goal (=> (forall a (= v a)) (forall b (= v b))))")
        assert len(res.table.entries) == 1

    def test_defapps_shared_only_when_alpha_equal(self, ):
        ob, res = translate(
            "(declare-flex u) (declare-flex v)"
            "(define (cst x) (exists y (nabla (= x y))))"
            "(goal (=> (cst u) (cst v)))")
        assert len(res.table.entries) == 2


class TestContract:
    def test_output_purity(self):
        for i in range(200):
            rng = rng_for(61, i)
            env = random_env(rng)
            e = random_expr(rng, env, depth=3)
            out = coalesce_ml(e, env, AtomTable(env))
            assert not contains_node(
                out, Eq, Forall, OpApp, DefApp, RigidVar)

    def test_structure_above_first_order_leaves_preserved(self, ):
        env = random_env(rng_for(62, 0))
        e = Implies(Nabla(FALSE), FALSE)
        assert coalesce_ml(e, env, AtomTable(env)) == e


class TestWitnessPropmodel:
    def test_zeta_clauses(self):
        ob = parse_problem(
            "(declare-op 0 0) (declare-rigid x) (declare-flex v)"
            "(goal (=> (= v 0) (=> x (forall a (= a v)))))")
        res = coalesce_obligation_ml(ob)
        for i in range(60):
            rng = rng_for(63, i)
            m = random_model(rng, ob.env)
            k = build_witness_propmodel(m, res.table, ob.env)
            for entry in res.table.in_order():
                for w in m.states:
                    want = eval_expr(m, w, entry.source, ob.env) == m.tt
                    assert (k.zeta[(entry.name, w)] == "tt") == want
            for w in m.states:
                assert (k.zeta[("v", w)] == "tt") == \
                    (m.zeta[("v", w)] == m.tt)

    def test_stability_holds_at_every_state(self):
        for i in range(150):
            rng = rng_for(64, i)
            env = random_env(rng)
            e = random_expr(rng, env, depth=3, allow_prime=False)
            table = AtomTable(env)
            coalesce_ml(e, env, table)
            m = random_model(rng, env, need_prime=True)
            k = build_witness_propmodel(m, table, env)
            for h in hypotheses(table, env):
                for w in k.states:
                    assert eval_ml(k, w, h) == k.tt


def test_atom_names_are_atoms_of_the_output():
    ob = parse_problem(
        "(declare-rigid x) (declare-flex v)"
        "(goal (=> (= x v) (nabla (= x v))))")
    res = coalesce_obligation_ml(ob)
    entry = res.table.in_order()[0]
    assert free_flex_vars(res.goal) == (entry.name,)
