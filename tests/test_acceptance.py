"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line so the whole gate is
readable from `pytest tests/test_acceptance.py -v -s`.
"""
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from sweep_ml import MlSweep, formula_family  # noqa: E402

from foml import (  # noqa: E402
    MLSequent,
    alpha_equal,
    coalesce_obligation_fol,
    coalesce_obligation_ml,
    compute_leibniz,
    find_countermodel,
    parse_problem,
    prove_ml,
)
from foml.actions import SafetySpec, safety_obligations  # noqa: E402
from foml.gen import rng_for, run_fuzz  # noqa: E402
from foml.parser import parse_expr, parse_file  # noqa: E402
from foml.prover import Countermodel, Proved  # noqa: E402
from foml.search import (  # noqa: E402
    SearchBounds,
    enumerate_models,
    find_fol_countermodel,
    fol_signature_of,
)
from foml.semantics import eval_expr, eval_ml  # noqa: E402
from foml.syntax import (  # noqa: E402
    DefinitionEnvironment,
    Eq,
    Expression,
    FlexVar,
    Forall,
    Implies,
    Nabla,
    OpApp,
)


@contextmanager
def criterion(number, description):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    print(f"PASS  criterion {number}: {description} "
          f"({time.time() - t0:.1f}s)")


def canonical_fresh(expr: Expression, names_in_order) -> Expression:
    """Rename fresh symbols/atoms to ?0, ?1, ... by insertion order, so
    outputs can be compared modulo fresh-name renaming."""
    renaming = {name: f"?{i}" for i, name in enumerate(names_in_order)}

    def go(e):
        match e:
            case OpApp(op, args):
                return OpApp(renaming.get(op, op),
                             tuple(go(a) for a in args))
            case FlexVar(name):
                return FlexVar(renaming.get(name, name))
            case Eq(l, r):
                return Eq(go(l), go(r))
            case Implies(l, r):
                return Implies(go(l), go(r))
            case Forall(v, b):
                return Forall(v, go(b))
            case Nabla(b):
                return Nabla(go(b))
            case _:
                from foml.syntax import DefApp, Prime

                match e:
                    case Prime(b):
                        return Prime(go(b))
                    case DefApp(op, args):
                        return DefApp(op, tuple(go(a) for a in args))
                    case _:
                        return e

    return go(expr)


def coalesced_fol_canonical(text):
    ob = parse_problem(text)
    res = coalesce_obligation_fol(ob)
    order = [e.name for e in res.table.in_order()]
    return (tuple(canonical_fresh(h, order) for h in res.hypotheses),
            canonical_fresh(res.goal, order), res)


def coalesced_ml_canonical(text):
    ob = parse_problem(text)
    res = coalesce_obligation_ml(ob)
    order = [e.name for e in res.table.in_order()]
    return (canonical_fresh(res.goal, order),
            tuple(canonical_fresh(h, order) for h in res.stability),
            res)


def pat(text, **decls):
    env = DefinitionEnvironment.build(
        ops=dict(decls.get("ops", {})),
        rigid=decls.get("rigid", ()),
        flex=decls.get("flex", ()))
    return parse_expr(text, env)


def test_criterion_1_golden_translation_shapes():
    with criterion(1, "golden symbolic examples match modulo renaming"):
        # first-order coalescing of the motivating non-theorem
        _, goal, res = coalesced_fol_canonical(
            "(declare-op 0 0) (declare-flex v)"
            "(goal (=> (= v 0) (nabla (= v 0))))")
        expected = pat("(=> (= v 0) ?0)",
                       ops={"0": 0, "?0": 0}, flex=("v",))
        assert goal == expected
        assert res.table.in_order()[0].arity == 0

        # propositional coalescing of the same formula
        mlgoal, stability, mres = coalesced_ml_canonical(
            "(declare-op 0 0) (declare-flex v)"
            "(goal (=> (= v 0) (nabla (= v 0))))")
        assert mlgoal == Implies(FlexVar("?0"), Nabla(FlexVar("?0")))
        assert stability == ()

        # existential renaming: one shared arity-1 symbol
        _, goal, res = coalesced_fol_canonical(
            "(declare-flex v)"
            "(goal (iff (exists a (exists b (nabla (= v a))))"
            "           (exists c (nabla (= v c)))))")
        assert len(res.table.entries) == 1
        assert res.table.in_order()[0].arity == 1
        expected = pat(
            "(iff (exists a (exists b (?0 a))) (exists c (?0 c)))",
            ops={"?0": 1}, flex=("v",))
        assert alpha_equal(goal, expected)

        # bound variable passed to the abstraction
        _, goal, res = coalesced_fol_canonical(
            "(declare-op 1 0)"
            "(goal (forall a (=> (nabla (= a 1)) (= a 1))))")
        expected = pat("(forall a (=> (?0 a) (= a 1)))",
                       ops={"1": 0, "?0": 1})
        assert alpha_equal(goal, expected)

        # equality atom shared below two modalities, one atom total
        mlgoal, stability, mres = coalesced_ml_canonical(
            "(declare-rigid x) (declare-rigid y)"
            "(goal (=> (and (= x y) (nabla (delta true)))"
            "          (nabla (delta (= x y)))))")
        assert len(mres.table.entries) == 1
        expected = pat(
            "(=> (and (?0) (nabla (delta true))) (nabla (delta (?0))))",
            ops={"?0": 0})
        # the atom is a flexible variable, the pattern uses an operator;
        # compare after reading the pattern's 0-ary op as an atom
        assert mlgoal == _ops_as_atoms(expected)
        assert stability == (Implies(FlexVar("?0"),
                                     Nabla(FlexVar("?0"))),)

        # defined operator with flexible arguments: distinct symbols
        _, goal, res = coalesced_fol_canonical(
            "(declare-flex u) (declare-flex v)"
            "(define (cst x) (exists y (nabla (= x y))))"
            "(goal (=> (= u v) (iff (cst u) (cst v))))")
        assert len(res.table.entries) == 2
        expected = pat("(=> (= u v) (iff (?0 u) (?1 v)))",
                       ops={"?0": 1, "?1": 1}, flex=("u", "v"))
        assert goal == expected

        # rigid (bound) arguments: one shared star symbol
        _, goal, res = coalesced_fol_canonical(
            "(define (cst x) (exists y (nabla (= x y))))"
            "(goal (forall a (forall b"
            "  (=> (= a b) (iff (cst a) (cst b))))))")
        assert len(res.table.entries) == 1
        expected = pat(
            "(forall a (forall b (=> (= a b) (iff (?0 a) (?0 b)))))",
            ops={"?0": 1})
        assert alpha_equal(goal, expected)

        # Leibniz table for the constancy operator
        env = parse_problem(
            "(define (cst x) (exists y (nabla (= x y))))"
            "(goal false)").env
        assert compute_leibniz(env)["cst"] == (False,)


def _ops_as_atoms(e):
    match e:
        case OpApp(op, ()) if op.startswith("?"):
            return FlexVar(op)
        case Implies(l, r):
            return Implies(_ops_as_atoms(l), _ops_as_atoms(r))
        case Nabla(b):
            return Nabla(_ops_as_atoms(b))
        case _:
            return e


def test_criterion_2_fol_witness_property():
    with criterion(2, "10,000 seeded first-order witness rounds, "
                      "0 discrepancies"):
        report = run_fuzz(2024, 10_000, ("fol-witness",),
                          max_universe=3, max_states=3)
        assert report.iterations == 10_000
        assert report.discrepancies == []


def test_criterion_3_ml_witness_property():
    with criterion(3, "10,000 seeded propositional witness rounds "
                      "(plus stability hypotheses), 0 discrepancies"):
        report = run_fuzz(2024, 10_000, ("ml-witness",),
                          max_universe=3, max_states=3)
        assert report.iterations == 10_000
        assert report.discrepancies == []


def _sweep_formula_valid(e, env, prime=None):
    ops, rigid, flex = {}, [], []
    from foml.syntax import signature

    ops, rigid, flex = signature((e,), env)[:3]
    count = 0
    for m in enumerate_models(ops, rigid, flex, 2, 2, prime):
        count += 1
        for w in m.states:
            if eval_expr(m, w, e, env) != m.tt:
                return False, count, (m, w)
    return True, count, None


def test_criterion_4_validity_oracle():
    with criterion(4, "Barcan and rigid-stability laws exhaustively "
                      "valid; motivating formula refuted"):
        env = DefinitionEnvironment.build(
            ops={"0": 0, "f": 1}, rigid=(), flex=("v",))
        barcan1 = parse_expr(
            "(iff (forall a (nabla (= v a))) (nabla (forall a (= v a))))",
            env)
        barcan2 = parse_expr(
            "(iff (forall a (nabla (= (f a) v)))"
            "     (nabla (forall a (= (f a) v))))", env)
        rigid_box = parse_expr(
            "(forall a (forall b (=> (= a b) (nabla (= a b)))))", env)
        total = 0
        for e in (barcan1, barcan2, rigid_box):
            ok, count, refutation = _sweep_formula_valid(e, env)
            assert ok, f"{e} refuted by {refutation}"
            assert count > 0
            total += count
        assert total > 300  # the sweeps are real, not vacuous
        print(f"  swept {total} models exhaustively", end=" ")

        ob = parse_problem(
            "(declare-op 0 0) (declare-flex v)"
            "(goal (=> (= v 0) (nabla (= v 0))))")
        res = find_countermodel(ob, SearchBounds(2, 2))
        assert res.found and len(res.model.states) <= 2


def test_criterion_5_argument_lemmas():
    with criterion(5, "1,000 seeded rounds each of the rigid-argument "
                      "and Leibniz-position lemmas, 0 discrepancies"):
        rigid = run_fuzz(77, 1000, ("rigid-lemma",))
        leibniz = run_fuzz(78, 1000, ("leibniz-lemma",))
        assert rigid.discrepancies == []
        assert leibniz.discrepancies == []


def test_criterion_6_prover_agreement():
    with criterion(6, "prover matches the exhaustive <=3-state sweep on "
                      "the full 2-atom depth-2 family"):
        text = ("(declare-rigid x) (declare-rigid y)"
                "(goal (=> (and (= x y) (nabla (delta true)))"
                "          (nabla (delta (= x y)))))")
        res = coalesce_obligation_ml(parse_problem(text))
        assert isinstance(
            prove_ml(MLSequent(res.hypotheses + res.stability,
                               res.goal)), Proved)
        assert isinstance(
            prove_ml(MLSequent(res.hypotheses, res.goal)), Countermodel)

        sweep = MlSweep()
        # tie the vectorized oracle to the reference evaluator first
        rng = rng_for(99, 0)
        g1, g2 = formula_family()
        for _ in range(200):
            s = rng.randrange(1, 4)
            rel, zeta = sweep.spaces[s]
            ri, zi = (rng.randrange(rel.shape[0]),
                      rng.randrange(zeta.shape[0]))
            k = sweep.model_at(s, ri, zi)
            e = rng.choice(g2)
            w = rng.randrange(s)
            assert bool(sweep.truth(s, e)[ri, zi, w]) == \
                (eval_ml(k, w, e) == "tt")

        sequents = [((), g) for g in g2]
        sequents += [((h,), g) for h in g1 for g in g2]
        proved = refuted = 0
        for hyps, goal in sequents:
            verdict = prove_ml(MLSequent(hyps, goal))
            has_cm = sweep.countermodel_exists(hyps, goal)
            if isinstance(verdict, Proved):
                assert not has_cm, (hyps, goal)
                proved += 1
            else:
                assert isinstance(verdict, Countermodel)
                assert has_cm, (hyps, goal)
                refuted += 1
        assert proved + refuted == len(sequents) >= 3000
        print(f"  {len(sequents)} sequents: {proved} proved, "
              f"{refuted} refuted", end=" ")


SWAP = """
(declare-op 0 0)
(declare-flex x) (declare-flex y)
(init (and (= x 0) (= y 0)))
(next (and (= (prime x) y) (= (prime y) x)))
(invariant (= y x))
(inductive-invariant (= x y))
"""


def test_criterion_7_prime_pipeline():
    with criterion(7, "safety obligations for the two-variable toy spec "
                      "valid; refutation lifting on 1,000 action "
                      "formulas"):
        pf = parse_file(SWAP)
        spec = SafetySpec(pf.init, pf.next, pf.invariant,
                          pf.inductive_invariant, pf.env.flex_vars,
                          pf.env)
        result = safety_obligations(spec)
        assert len(result.obligations) == 3
        assert set(result.primed.values()) == {"x'", "y'"}
        for ob in result.obligations:
            ops, variables = fol_signature_of(ob.all_exprs(), ob.env)
            r = find_fol_countermodel(
                ob.hypotheses, ob.goal, ops, variables,
                SearchBounds(max_universe=3, max_models=500_000))
            assert r.exhausted, f"obligation not valid in bounds: " \
                                f"{ob.goal}"
        # the glue sequent emits and round-trips
        from foml.emit import emit_mlseq, parse_mlseq

        assert parse_mlseq(emit_mlseq(result.glue)) == result.glue

        report = run_fuzz(79, 1000, ("action-refutation",))
        assert report.discrepancies == []
        preserve = run_fuzz(80, 1000, ("distribute-prime",))
        assert preserve.discrepancies == []


def test_criterion_8_negative_unprovability_assertions():
    with criterion(8, "Barcan sequent unprovable by either translation; "
                      "flexible-argument constancy has a countermodel"):
        barcan_text = (
            "(declare-flex v)"
            "(goal (iff (forall a (nabla (= v a)))"
            "           (nabla (forall a (= v a)))))")
        ob = parse_problem(barcan_text)

        mlres = coalesce_obligation_ml(ob)
        verdict = prove_ml(
            MLSequent(mlres.hypotheses + mlres.stability, mlres.goal))
        assert isinstance(verdict, Countermodel)

        folres = coalesce_obligation_fol(ob)
        ops, variables = fol_signature_of(
            folres.hypotheses + (folres.goal,), folres.env)
        r = find_fol_countermodel(folres.hypotheses, folres.goal,
                                  ops, variables,
                                  SearchBounds(max_universe=2))
        assert r.found

        cst = parse_problem(
            "(declare-flex u) (declare-flex v)"
            "(define (cst x) (exists y (nabla (= x y))))"
            "(goal (=> (= u v) (iff (cst u) (cst v))))")
        cres = coalesce_obligation_fol(cst)
        ops, variables = fol_signature_of(
            cres.hypotheses + (cres.goal,), cres.env)
        r = find_fol_countermodel(cres.hypotheses, cres.goal,
                                  ops, variables,
                                  SearchBounds(max_universe=2))
        assert r.found
