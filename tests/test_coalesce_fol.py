import sys
from pathlib import Path

import pytest

from foml import (
    SymbolTable,
    alpha_equal,
    build_witness_structure,
    coalesce_fol,
    coalesce_obligation_fol,
    parse_problem,
    rewrite_rigid_box,
)
from foml.leibniz import STAR
from foml.gen import random_env, random_expr, random_model, rng_for
from foml.models import KripkeModel
from foml.parser import parse_expr
from foml.search import (
    SearchBounds,
    find_fol_countermodel,
    fol_signature_of,
)
from foml.semantics import eval_expr, eval_fol
from foml.syntax import (
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
    free_rigid_vars,
    fresh_name,
    signature,
)

sys.path.insert(0, str(Path(__file__).parent))
from reference_syntax import walk  # noqa: E402


def coalesce_one(text):
    ob = parse_problem(text)
    return ob, coalesce_obligation_fol(ob)


def fresh_symbols(expr, table):
    names = {e.name for e in table.in_order()}
    return [s for s in walk(expr)
            if isinstance(s, OpApp) and s.op in names]


class TestGoldenShapes:
    def test_zero_ary_abstraction(self):
        ob, res = coalesce_one(
            "(declare-op 0 0) (declare-flex v)"
            "(goal (=> (= v 0) (nabla (= v 0))))")
        assert isinstance(res.goal, Implies)
        assert res.goal.lhs == Eq(FlexVar("v"), OpApp("0"))
        assert isinstance(res.goal.rhs, OpApp) and res.goal.rhs.args == ()
        assert len(res.table.entries) == 1

    def test_bound_variable_becomes_argument(self):
        # forall a: nabla(a=1) => a=1  gains an arity-1 symbol applied to a
        ob, res = coalesce_one(
            "(declare-op 1 0)"
            "(goal (forall a (=> (nabla (= a 1)) (= a 1))))")
        goal = res.goal
        assert isinstance(goal, Forall)
        assert goal.body == Implies(
            OpApp(res.table.in_order()[0].name, (RigidVar("a"),)),
            Eq(RigidVar("a"), OpApp("1")))
        assert res.table.in_order()[0].arity == 1

    def test_shared_symbol_across_binder_names(self):
        ob, res = coalesce_one(
            "(declare-flex v)"
            "(goal (iff (exists a (exists b (nabla (= v a))))"
            "           (exists c (nabla (= v c)))))")
        assert len(res.table.entries) == 1
        entry = res.table.in_order()[0]
        assert entry.arity == 1
        apps = fresh_symbols(res.goal, res.table)
        assert {a.args for a in apps} == {(RigidVar("a"),),
                                          (RigidVar("c"),)}

    def test_flexible_cst_arguments_get_distinct_symbols(self):
        ob, res = coalesce_one(
            "(declare-flex u) (declare-flex v)"
            "(define (cst x) (exists y (nabla (= x y))))"
            "(goal (=> (= u v) (iff (cst u) (cst v))))")
        entries = res.table.in_order()
        assert len(entries) == 2
        assert all(e.node is None for e in entries)
        (e1, e2) = entries
        assert e1.entries == (FlexVar("u"),)
        assert e2.entries == (FlexVar("v"),)
        apps = fresh_symbols(res.goal, res.table)
        assert {(a.op, a.args) for a in apps} == {
            (e1.name, (FlexVar("u"),)), (e2.name, (FlexVar("v"),))}

    def test_rigid_cst_arguments_share_the_star_symbol(self):
        ob, res = coalesce_one(
            "(define (cst x) (exists y (nabla (= x y))))"
            "(goal (forall a (forall b"
            "  (=> (= a b) (iff (cst a) (cst b))))))")
        entries = res.table.in_order()
        assert len(entries) == 1
        assert entries[0].arity == 1
        apps = fresh_symbols(res.goal, res.table)
        assert {a.args for a in apps} == {(RigidVar("a"),),
                                          (RigidVar("b"),)}

    def test_shared_key_across_hypotheses_and_goal(self):
        ob = parse_problem(
            "(declare-op P 0) (assume (nabla P)) (goal (nabla P))")
        res = coalesce_obligation_fol(ob)
        assert len(res.table.entries) == 1
        sym = res.table.in_order()[0]
        assert sym.arity == 0
        assert res.hypotheses == (OpApp(sym.name, ()),)
        assert res.goal == OpApp(sym.name, ())

    def test_hypothesis_key_with_free_rigid_variable(self):
        # a nabla whose rigid variable is globally free abstracts to a
        # 0-ary symbol; the variable stays free in the key, so the
        # quantified goal cannot share it
        ob = parse_problem(
            "(declare-rigid x) (declare-flex v)"
            "(assume (nabla (= v x)))"
            "(goal (exists z (nabla (= v z))))")
        res = coalesce_obligation_fol(ob)
        entries = res.table.in_order()
        assert len(entries) == 2
        hyp_entry = entries[0]
        assert hyp_entry.arity == 0
        assert res.hypotheses[0] == OpApp(hyp_entry.name, ())


class TestTranslationContract:
    def test_output_purity(self):
        for i in range(200):
            rng = rng_for(51, i)
            env = random_env(rng)
            e = random_expr(rng, env, depth=3)
            out = coalesce_fol(e, env, SymbolTable(env))
            assert not contains_node(out, Nabla, Prime, DefApp)

    def test_alpha_stability(self, env):
        e1 = parse_expr("(forall a (nabla (= v a)))", env)
        e2 = parse_expr("(forall b (nabla (= v b)))", env)
        table = SymbolTable(env)
        o1 = coalesce_fol(e1, env, table)
        o2 = coalesce_fol(e2, env, table)
        assert alpha_equal(o1, o2)
        assert len(table.entries) == 1

    def test_second_translation_adds_no_symbols(self):
        for i in range(100):
            rng = rng_for(52, i)
            env = random_env(rng)
            e = random_expr(rng, env, depth=3)
            table = SymbolTable(env)
            coalesce_fol(e, env, table)
            n = len(table.entries)
            again = coalesce_fol(e, env, table)
            assert len(table.entries) == n
            assert alpha_equal(again, coalesce_fol(e, env, table))

    def test_shadowed_binders_drop_duplicates(self, env):
        e = parse_expr("(forall a (forall a (nabla (= v a))))", env)
        table = SymbolTable(env)
        out = coalesce_fol(e, env, table)
        entry = table.in_order()[0]
        assert entry.arity == 1
        inner = out.body.body
        assert inner == OpApp(entry.name, (RigidVar("a"),))

    def test_nested_modal_is_one_symbol(self, env):
        e = parse_expr("(nabla (nabla (= v 0)))", env)
        table = SymbolTable(env)
        out = coalesce_fol(e, env, table)
        assert len(table.entries) == 1
        assert out == OpApp(table.in_order()[0].name, ())


class TestBinderOrdering:
    TEXT = ("(declare-op P 2)"
            "(goal (=> (exists b (forall a (nabla (P a b))))"
            "          (forall c (exists d (nabla (P c d))))))")

    def test_binder_order_keeps_symbols_distinct(self):
        ob = parse_problem(self.TEXT)
        res = coalesce_obligation_fol(ob, "binder")
        assert len(res.table.entries) == 2

    def test_appearance_order_merges_them(self):
        ob = parse_problem(self.TEXT)
        res = coalesce_obligation_fol(ob, "appearance")
        assert len(res.table.entries) == 1
        entry = res.table.in_order()[0]
        assert entry.arity == 2
        # argument order follows appearance in the body
        apps = fresh_symbols(res.goal, res.table)
        assert {a.args for a in apps} == {
            (RigidVar("a"), RigidVar("b")),
            (RigidVar("c"), RigidVar("d"))}


class TestEpsilonBinders:
    def test_enclosing_binder_in_concrete_entry_is_abstracted(self):
        ob = parse_problem(
            "(declare-op f 2) (declare-flex v)"
            "(define (cst x) (exists y (nabla (= x y))))"
            "(goal (forall a (cst (f a v))))")
        res = coalesce_obligation_fol(ob)
        entry = res.table.in_order()[0]
        assert entry.node is None
        assert entry.zvars == ("a",)
        assert entry.arity == 2  # original argument plus the binder
        app = fresh_symbols(res.goal, res.table)[0]
        assert app.args[1] == RigidVar("a")

    def test_alpha_equivalent_entries_share_across_binders(self):
        ob = parse_problem(
            "(declare-op f 2) (declare-flex v)"
            "(define (cst x) (exists y (nabla (= x y))))"
            "(goal (=> (forall a (cst (f a v)))"
            "          (forall b (cst (f b v)))))")
        res = coalesce_obligation_fol(ob)
        assert len(res.table.entries) == 1


class TestRigidBoxRewrite:
    def test_reflexive_drops_the_box(self, env):
        e = parse_expr("(nabla (= x y))", env)
        assert rewrite_rigid_box(e, env, reflexive=True) == \
            parse_expr("(= x y)", env)

    def test_general_adds_the_deadlock_disjunct(self, env):
        e = parse_expr("(nabla (= x y))", env)
        out = rewrite_rigid_box(e, env, reflexive=False)
        assert out == parse_expr(
            "(=> (=> (nabla false) false) (= x y))", env)

    def test_non_rigid_untouched(self, env):
        e = parse_expr("(nabla (= v 0))", env)
        assert rewrite_rigid_box(e, env) == e

    def test_term_position_left_alone(self, env):
        e = parse_expr("(= (nabla (= x y)) 0)", env)
        assert rewrite_rigid_box(e, env, reflexive=True) == e

    def test_truth_preserved_on_reflexive_models(self):
        for i in range(150):
            rng = rng_for(53, i)
            env = random_env(rng, modal_defs=False)
            e = random_expr(rng, env, depth=3, allow_prime=False)
            m = random_model(rng, env, need_prime=True)
            refl = frozenset(set(m.R) | {(w, w) for w in m.states})
            m = KripkeModel(m.universe, m.tt, m.ff, m.op_interp, m.xi,
                            m.states, refl, m.zeta, m.primeR)
            out = rewrite_rigid_box(e, env, reflexive=True)
            for w in m.states:
                assert (eval_expr(m, w, e, env) == m.tt) == \
                    (eval_expr(m, w, out, env) == m.tt)

    def test_general_rewrite_preserves_truth_everywhere(self):
        for i in range(150):
            rng = rng_for(54, i)
            env = random_env(rng, modal_defs=False)
            e = random_expr(rng, env, depth=3, allow_prime=False)
            m = random_model(rng, env, need_prime=True)
            out = rewrite_rigid_box(e, env, reflexive=False)
            for w in m.states:
                assert (eval_expr(m, w, e, env) == m.tt) == \
                    (eval_expr(m, w, out, env) == m.tt)


class TestWitnessStructure:
    def test_zero_ary_symbol_is_the_modal_value(self, env):
        e = parse_expr("(=> (= v 0) (nabla (= v 0)))", env)
        table = SymbolTable(env)
        ce = coalesce_fol(e, env, table)
        for i in range(40):
            rng = rng_for(55, i)
            m = random_model(rng, env)
            for w in m.states:
                s = build_witness_structure(m, w, table, env)
                name = table.in_order()[0].name
                assert s.op_interp[name][()] == eval_expr(
                    m, w, parse_expr("(nabla (= v 0))", env), env)
                assert eval_fol(s, ce) == eval_expr(m, w, e, env)

    def test_def_symbol_matches_lemma_form(self, env):
        e = parse_expr("(cst u)", env)
        table = SymbolTable(env)
        ce = coalesce_fol(e, env, table)
        for i in range(40):
            rng = rng_for(56, i)
            m = random_model(rng, env)
            for w in m.states:
                s = build_witness_structure(m, w, table, env)
                assert eval_fol(s, ce) == eval_expr(m, w, e, env)


    def test_tables_match_the_row_by_row_reference(self):
        # Every row of every symbol's table, against the subterm built and
        # evaluated anew for that row, with star arguments and bound
        # variables both in play.
        rows = stars = 0
        for i in range(600):
            rng = rng_for(57, i)
            env = random_env(rng)
            e = random_expr(rng, env, depth=3)
            m = random_model(rng, env, 3, 3,
                             need_prime=signature((e,), env).prime)
            table = SymbolTable(env)
            coalesce_fol(e, env, table)
            for w in m.states:
                s = build_witness_structure(m, w, table, env)
                for entry in table.in_order():
                    for args, value in s.op_interp[entry.name].items():
                        assert value == _row_reference(m, w, entry, args,
                                                       env), (e, entry)
                        rows += 1
                    stars += STAR in (entry.entries or ())
        assert rows > 1200 and stars > 100


def _row_reference(m, w, entry, argvals, env):
    """One row of a symbol's table as `build_witness_structure` first
    computed it: the defined-operator application, with fresh variables
    for the star arguments, rebuilt and evaluated for each row."""
    if entry.node is not None:
        return eval_expr(m, w, entry.node, env, dict(zip(entry.zvars,
                                                         argvals)))
    eps = entry.entries
    n = len(eps)
    avoid = set(entry.zvars) | env.all_names()
    for ent in eps:
        if ent is not STAR:
            avoid.update(free_rigid_vars(ent))
    alphas = []
    bindings = dict(zip(entry.zvars, argvals[n:]))
    for i, ent in enumerate(eps):
        if ent is STAR:
            x = fresh_name(f"p{i}", avoid)
            avoid.add(x)
            alphas.append(RigidVar(x))
            bindings[x] = argvals[i]
        else:
            alphas.append(ent)
    return eval_expr(m, w, DefApp(entry.op, tuple(alphas)), env, bindings)


class TestNonTheoremPreservation:
    def test_coalesced_box_example_has_fol_countermodel(self):
        ob, res = coalesce_one(
            "(declare-op 0 0) (declare-flex v)"
            "(goal (=> (= v 0) (nabla (= v 0))))")
        ops, variables = fol_signature_of(
            res.hypotheses + (res.goal,), res.env)
        r = find_fol_countermodel((), res.goal, ops, variables,
                                  SearchBounds(max_universe=2))
        assert r.found
        assert len(r.model.universe) == 2


@pytest.fixture
def env():
    ob = parse_problem(
        "(declare-op 0 0) (declare-op f 1)"
        "(declare-rigid x) (declare-rigid y)"
        "(declare-flex u) (declare-flex v)"
        "(define (cst p) (exists q (nabla (= p q))))"
        "(goal false)")
    return ob.env
