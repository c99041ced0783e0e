import hashlib
import sys
from collections import Counter
from itertools import compress, product
from pathlib import Path

import pytest

from foml import semantics, syntax
from foml import (
    Definition,
    DefinitionEnvironment,
    FALSE,
    KripkeModel,
    find_countermodel,
    parse_model,
    parse_problem,
    serialize_model,
)
from foml.coalesce import SymbolTable, build_witness_structure, coalesce_fol
from foml.coalesce_ml import AtomTable, build_witness_propmodel, coalesce_ml
from foml.gen import (
    random_env,
    random_expr,
    random_ml_formula,
    random_model,
    rng_for,
)
from foml.models import FOLStructure, KripkeModel, _successor_table
from foml.search import (
    SearchBounds,
    enumerate_models,
    find_fol_countermodel,
)
from foml.semantics import (
    EvalError,
    eval_expr,
    eval_fol,
    eval_ml,
    obligation_checker,
)
from foml.syntax import (
    DefApp,
    Eq,
    FalseExpr,
    FlexVar,
    FomlError,
    Forall,
    Implies,
    Nabla,
    OpApp,
    Prime,
    RigidVar,
    and_,
    delta_,
    is_rigid,
    not_,
    or_,
    signature,
    substitute,
    true_,
)

sys.path.insert(0, str(Path(__file__).parent))
from rebuild import rebuild  # noqa: E402
from reference_syntax import map_children, walk  # noqa: E402

DEMO = Path(__file__).resolve().parent.parent / "demo"


def tiny_model(nstates=2, R=None, zeta=None, primeR=None):
    states = tuple(range(nstates))
    return KripkeModel(
        universe=(0, 1), tt=0, ff=1,
        op_interp={"0": {(): 0}},
        xi={"x": 0, "y": 1},
        states=states,
        R=frozenset(R if R is not None else
                    [(s, t) for s in states for t in states]),
        zeta=dict(zeta or {("v", w): w % 2 for w in states}),
        primeR=None if primeR is None else frozenset(primeR),
    )


ENV = DefinitionEnvironment.build(
    ops={"0": 0}, rigid=("x", "y"), flex=("v",))


class TestEvalClauses:
    def test_false_is_ff(self):
        m = tiny_model()
        assert eval_expr(m, 0, FALSE, ENV) == m.ff

    def test_variables(self):
        m = tiny_model()
        assert eval_expr(m, 0, RigidVar("x"), ENV) == 0
        assert eval_expr(m, 1, RigidVar("x"), ENV) == 0
        assert eval_expr(m, 0, FlexVar("v"), ENV) == 0
        assert eval_expr(m, 1, FlexVar("v"), ENV) == 1

    def test_nabla_clause_matches_successor_quantification(self):
        for i in range(150):
            rng = rng_for(31, i)
            env = random_env(rng)
            e = random_expr(rng, env, depth=2, allow_prime=False)
            m = random_model(rng, env, need_prime=True)
            for w in m.states:
                succ = [t for (s, t) in m.R if s == w]
                want = all(
                    eval_expr(m, t, e, env) == m.tt for t in succ)
                got = eval_expr(m, w, Nabla(e), env) == m.tt
                assert got == want
                # nabla never returns a third value
                assert eval_expr(m, w, Nabla(e), env) in (m.tt, m.ff)

    def test_vacuous_nabla_is_tt(self):
        m = tiny_model(R=[])
        assert eval_expr(m, 0, Nabla(FALSE), ENV) == m.tt

    def test_duality(self):
        for i in range(100):
            rng = rng_for(32, i)
            env = random_env(rng)
            e = random_expr(rng, env, depth=2, allow_prime=False)
            m = random_model(rng, env, need_prime=True)
            for w in m.states:
                lhs = eval_expr(m, w, delta_(e), env)
                rhs = eval_expr(m, w, not_(Nabla(not_(e))), env)
                assert lhs == rhs

    def test_rigid_stability(self):
        for i in range(200):
            rng = rng_for(33, i)
            env = random_env(rng)
            e = random_expr(rng, env, depth=3)
            if not is_rigid(e, env):
                continue
            m = random_model(rng, env, need_prime=True)
            vals = {eval_expr(m, w, e, env) for w in m.states}
            assert len(vals) == 1

    def test_prime_requires_relation(self):
        m = tiny_model()
        with pytest.raises(EvalError):
            eval_expr(m, 0, Prime(FlexVar("v")), ENV)

    def test_functional_prime_is_next_state_value(self):
        m = tiny_model(primeR=[(0, 1), (1, 0)])
        assert m.prime_is_function
        # term-position prime: the value carries over, not just the truth
        assert eval_expr(m, 0, Prime(FlexVar("v")), ENV) == 1
        assert eval_expr(m, 1, Prime(FlexVar("v")), ENV) == 0

    def test_relational_prime_collapses_like_nabla(self):
        m = tiny_model(primeR=[(0, 0), (0, 1)])
        e = Prime(Eq(FlexVar("v"), OpApp("0")))
        want = all(
            eval_expr(m, t, Eq(FlexVar("v"), OpApp("0")), ENV) == m.tt
            for t in (0, 1))
        assert (eval_expr(m, 0, e, ENV) == m.tt) == want


class TestEvalFol:
    S = FOLStructure(
        universe=(0, 1), tt=0, ff=1,
        op_interp={"f": {(0,): 1, (1,): 0}},
        xi={"x": 0, "v": 1})

    def test_true_and_identity(self):
        assert eval_fol(self.S, true_()) == 0
        assert eval_fol(self.S, Forall("a", Eq(RigidVar("a"),
                                               RigidVar("a")))) == 0

    def test_flexible_as_free_variable(self):
        assert eval_fol(self.S, FlexVar("v")) == 1

    def test_rejects_modal(self):
        with pytest.raises(EvalError):
            eval_fol(self.S, Nabla(FALSE))

    def test_missing_variable_names_no_state(self):
        # A first-order structure has no states to name in the message.
        with pytest.raises(EvalError, match=r"^flexible variable 'w' has "
                           r"no value$"):
            eval_fol(self.S, FlexVar("w"))

    def test_agreement_with_kripke_eval_on_rigid_fragment(self):
        for i in range(150):
            rng = rng_for(34, i)
            env = random_env(rng, with_defs=False)
            e = random_expr(rng, env, depth=3, allow_nabla=False,
                            allow_prime=False, allow_flex=False)
            m = random_model(rng, env)
            s = FOLStructure(m.universe, m.tt, m.ff, dict(m.op_interp),
                             dict(m.xi))
            want = {eval_expr(m, w, e, env) for w in m.states}
            assert want == {eval_fol(s, e)}


class TestEvalMl:
    def test_atom_and_box(self):
        k = KripkeModel.propositional(
            (0, 1), frozenset({(0, 1)}), {("a", 0): "tt", ("a", 1): "ff"})
        assert eval_ml(k, 0, FlexVar("a")) == "tt"
        assert eval_ml(k, 0, Nabla(FlexVar("a"))) == "ff"
        assert eval_ml(k, 1, Nabla(FALSE)) == "tt"  # no successors

    def test_rejects_first_order(self):
        k = KripkeModel.propositional((0,), frozenset(), {})
        with pytest.raises(EvalError):
            eval_ml(k, 0, Eq(RigidVar("x"), RigidVar("x")))


class TestLazyEvaluation:
    """Fragment and lookup errors come from the node when evaluation
    reaches it, never from an up-front pass over the expression."""

    K = KripkeModel.propositional((0,), frozenset(), {})
    X = RigidVar("x")
    UNKNOWN = DefApp("nowhere", (RigidVar("x"),))

    def test_unreached_out_of_fragment_nodes(self):
        assert eval_ml(self.K, 0, Implies(FALSE, Eq(self.X, self.X))) == "tt"
        assert eval_fol(TestEvalFol.S, Implies(FALSE, Nabla(FALSE))) == 0

    def test_unreached_unknown_definition(self):
        m = tiny_model()
        assert eval_expr(m, 0, Implies(FALSE, self.UNKNOWN), ENV) == m.tt

    def test_fused_connectives_short_circuit(self):
        m = tiny_model()
        assert eval_ml(self.K, 0, and_(FALSE, Eq(self.X, self.X))) == "ff"
        assert eval_ml(self.K, 0, or_(true_(), Eq(self.X, self.X))) == "tt"
        assert eval_fol(TestEvalFol.S, and_(FALSE, Nabla(FALSE))) == 1
        assert eval_fol(TestEvalFol.S, or_(true_(), Nabla(FALSE))) == 0
        assert eval_expr(m, 0, and_(FALSE, self.UNKNOWN), ENV) == m.ff
        assert eval_expr(m, 0, or_(true_(), self.UNKNOWN), ENV) == m.tt

    def test_fused_connectives_raise_where_reached(self):
        eq = Eq(self.X, self.X)
        for e in (not_(eq), and_(true_(), eq), or_(FALSE, eq)):
            with pytest.raises(EvalError) as exc:
                eval_ml(self.K, 0, e)
            assert str(exc.value) == (
                "not a propositional modal formula: (= x x)")
        with pytest.raises(EvalError) as exc:
            eval_fol(TestEvalFol.S, not_(Nabla(FALSE)))
        assert str(exc.value) == (
            "not a first-order expression: (nabla false)")
        with pytest.raises(FomlError, match="no definition named"):
            eval_expr(tiny_model(), 0, or_(FALSE, self.UNKNOWN), ENV)

    def test_reached_nodes_raise(self):
        with pytest.raises(EvalError):
            eval_ml(self.K, 0, Implies(true_(), Eq(self.X, self.X)))
        with pytest.raises(EvalError):
            eval_fol(TestEvalFol.S, Implies(true_(), Nabla(FALSE)))
        with pytest.raises(FomlError, match="no definition named"):
            eval_expr(tiny_model(), 0, Implies(true_(), self.UNKNOWN), ENV)

    # first(p, q) reads only p; next(p) reads p at the successors; all(p)
    # binds x around p.
    DEFS = ENV.extended(definitions=(
        Definition("first", ("p", "q"), RigidVar("p")),
        Definition("next", ("p",), Nabla(Eq(RigidVar("p"), OpApp("0")))),
        Definition("all", ("p",), Forall("x", Eq(RigidVar("p"),
                                                 RigidVar("x")))),
    ))

    def test_unread_arguments_are_never_evaluated(self):
        m = tiny_model()
        for unread in (self.UNKNOWN, Prime(FlexVar("v")), Nabla(self.UNKNOWN)):
            e = DefApp("first", (OpApp("0"), unread))
            assert eval_expr(m, 0, e, self.DEFS) == 0

    def test_arguments_are_read_where_the_body_reads_them(self):
        # v is 0 at state 0 and 1 at state 1, each the other's successor:
        # next(v) is (nabla (= v 0)), true at 1 and false at 0.
        m = tiny_model(R=[(0, 1), (1, 0)])
        e = DefApp("next", (FlexVar("v"),))
        assert [eval_expr(m, w, e, self.DEFS) for w in (0, 1)] == [
            m.ff, m.tt]

    def test_body_binders_capture_no_argument_variable(self):
        # all(x) is (forall x1 (= x x1)), false in a universe of two, and
        # not (forall x (= x x)).
        m = tiny_model()
        for e in (DefApp("all", (RigidVar("x"),)),
                  Forall("x", DefApp("all", (RigidVar("x"),))),
                  DefApp("first", (DefApp("all", (RigidVar("x"),)),
                                   RigidVar("y")))):
            assert eval_expr(m, 0, e, self.DEFS) == m.ff

    def test_reached_arguments_raise_their_own_errors(self):
        m = tiny_model(R=[(0, 1)], zeta={("v", 0): 0})
        with pytest.raises(FomlError, match="^no definition named 'nowhere'$"):
            eval_expr(m, 0, DefApp("first", (self.UNKNOWN, FALSE)), self.DEFS)
        with pytest.raises(EvalError, match="^prime evaluated in a model "
                           "without primeR$"):
            eval_expr(m, 0, DefApp("first", (Prime(FlexVar("v")), FALSE)),
                      self.DEFS)
        # read at the successor, which has no value for v
        with pytest.raises(EvalError, match="^flexible variable 'v' has no "
                           "value at state 1$"):
            eval_expr(m, 0, DefApp("next", (FlexVar("v"),)), self.DEFS)


class Stuck(Exception):
    """The reference evaluator reached a node it cannot give a value."""


def reference_eval(m, w, e, env=None, kripke=True, next_state=True):
    """The semantics as a plain recursive walk over e, written from the
    clauses in the `semantics` docstring and sharing none of its code.
    With `kripke`, m is a Kripke model (a propositional one has no
    operators); without it, m is a first-order structure whose xi also
    values the flexible variables and e has no modalities.  `next_state`
    selects the next-state reading of prime when primeR is a total
    function; without it prime always collapses like nabla, which gives
    the same values in a propositional model.  Operands run left to
    right, an implication runs its right side only when its left side is
    tt, and nabla and prime visit successors in the order of the pairs'
    text, stopping at the first value other than tt."""
    tt, ff = m.tt, m.ff

    def successors(rel, w):
        return [t for (s, t) in sorted(rel, key=str) if s == w]

    def go(e, w, bnd):
        if isinstance(e, FalseExpr):
            return ff
        if isinstance(e, Implies):
            if go(e.lhs, w, bnd) != tt:
                return tt
            return tt if go(e.rhs, w, bnd) == tt else ff
        if isinstance(e, FlexVar):
            key = (e.name, w) if kripke else e.name
            values = m.zeta if kripke else m.xi
            if key not in values:
                raise Stuck(e)
            return values[key]
        if isinstance(e, RigidVar):
            if e.name in bnd:
                return bnd[e.name]
            if e.name not in m.xi:
                raise Stuck(e)
            return m.xi[e.name]
        if isinstance(e, Eq):
            lhs = go(e.lhs, w, bnd)
            return tt if lhs == go(e.rhs, w, bnd) else ff
        if isinstance(e, OpApp):
            vals = tuple(go(a, w, bnd) for a in e.args)
            table = m.op_interp.get(e.op, {})
            if vals not in table:
                raise Stuck(e)
            return table[vals]
        if isinstance(e, Forall):
            for d in m.universe:
                if go(e.body, w, {**bnd, e.var: d}) != tt:
                    return ff
            return tt
        if isinstance(e, Nabla) and kripke:
            for t in successors(m.R, w):
                if go(e.body, t, bnd) != tt:
                    return ff
            return tt
        if isinstance(e, Prime) and kripke:
            if m.primeR is None:
                raise Stuck(e)
            if next_state and all(len(successors(m.primeR, s)) == 1
                                  for s in m.states):
                return go(e.body, successors(m.primeR, w)[0], bnd)
            for t in successors(m.primeR, w):
                if go(e.body, t, bnd) != tt:
                    return ff
            return tt
        if isinstance(e, DefApp) and env is not None:
            d = next((d for d in env.definitions if d.name == e.op), None)
            if d is None:
                raise Stuck(e)
            return go(substitute(d.body, dict(zip(d.params, e.args))), w,
                      bnd)
        raise Stuck(e)

    return go(e, w, {})


def outcome(f, *args):
    """A value, or "stuck" where evaluation raises."""
    try:
        return f(*args)
    except (Stuck, FomlError):
        return "stuck"


def connective_expr(rng, depth, leaf):
    """Random expressions under the derived connectives, over leaf()
    operands, so that every shape the syntax helpers build is
    evaluated."""
    if depth == 0 or rng.random() < 0.3:
        return leaf()
    parts = [connective_expr(rng, depth - 1, leaf) for _ in range(2)]
    kind = rng.randrange(5)
    if kind == 0:
        return not_(parts[0])
    if kind == 1:
        return and_(*parts)
    if kind == 2:
        return or_(*parts)
    if kind == 3:
        return Nabla(parts[0])
    return Implies(*parts)


class TestReferenceEvaluator:
    """eval_expr, eval_fol and eval_ml against `reference_eval` on 2,400
    seeded expressions and models, at every state."""

    @pytest.mark.parametrize("block", range(8))
    def test_views_agree_with_reference(self, block):
        stuck = 0
        for i in range(300 * block, 300 * (block + 1)):
            rng = rng_for(36, i)
            env = random_env(rng)
            # with prime in the expression and primeR in the model; with
            # neither; and with prime but no primeR, which gets stuck
            prime = i % 3 != 1
            e = (random_expr(rng, env, depth=3, allow_prime=prime)
                 if i % 2 else connective_expr(rng, 3, lambda: random_expr(
                     rng, env, depth=2, allow_prime=prime)))
            m = random_model(rng, env, need_prime=i % 3 == 0,
                             functional_prime=i % 6 == 0)
            for w in m.states:
                want = outcome(reference_eval, m, w, e, env)
                stuck += want == "stuck"
                assert outcome(eval_expr, m, w, e, env) == want, (e, w)

            if m.primeR is None and signature((e,), env).prime:
                continue  # the witness structures evaluate e's parts
            table, atoms = SymbolTable(env), AtomTable(env)
            fol = coalesce_fol(e, env, table)
            ml = coalesce_ml(e, env, atoms)
            k = build_witness_propmodel(m, atoms, env)
            for w in m.states:
                s = build_witness_structure(m, w, table, env)
                assert outcome(eval_fol, s, fol) == outcome(
                    reference_eval, s, w, fol, None, False), (fol, w)
                # the relational reading alone, which eval_ml must match
                # whether or not primeR is a function
                assert outcome(eval_ml, k, w, ml) == outcome(
                    reference_eval, k, w, ml, None, True, False), (ml, w)
        assert 0 < stuck < 300


def graft(rng, e, make):
    """e with one node, drawn uniformly in walk order, replaced by
    make(node)."""
    target, seen = rng.randrange(sum(1 for _ in walk(e))), [-1]

    def go(n):
        seen[0] += 1
        return make(n) if seen[0] == target else map_children(n, go)
    return go(e)


class TestPointOutcomes:
    """Every outcome of eval_expr, eval_fol and eval_ml on 3,000
    seeded cases at every state, pinned as one SHA-256: the value, or the
    error's class and message.  The cases include unknown definitions and
    nodes outside a view's fragment (reached or not, in definition
    arguments too), a dropped xi, operator or zeta entry, prime without
    primeR and models whose tt is their ff."""

    DIGEST = ("d05da2f668205609d125ceddbfef9de0"
              "9cbed632b7bcc72304e50cd683e35f3b")

    @staticmethod
    def outcomes(i):
        rng = rng_for(18, i)
        env = random_env(rng)
        prime = i % 3 != 1
        e = connective_expr(rng, 3, lambda: random_expr(
            rng, env, depth=2, allow_prime=prime))
        if i % 4 == 0:
            e = graft(rng, e, lambda n: DefApp("nowhere", (n,)))
        f = random_expr(rng, env, depth=3, allow_nabla=False,
                        allow_prime=False, allow_defapp=False)
        ml = connective_expr(rng, 2, lambda: random_ml_formula(
            rng, env.flex_vars, 2, prime))
        m = random_model(rng, env, need_prime=i % 3 == 0,
                         functional_prime=i % 6 == 0)
        xi, ops, zeta = dict(m.xi), dict(m.op_interp), dict(m.zeta)
        if i % 7 == 0:
            del zeta[rng.choice(sorted(zeta, key=str))]
        if i % 13 == 0:
            del xi[rng.choice(sorted(xi))]
        if i % 17 == 0:
            del ops[rng.choice(sorted(ops))]
        m = rebuild(m, xi=xi, op_interp=ops, zeta=zeta,
                    ff=m.tt if i % 11 == 0 else m.ff)
        k = KripkeModel.propositional(
            m.states, m.R, {key: "tt" if v == m.tt else "ff"
                            for key, v in zeta.items()}, m.primeR)
        bnd = {} if i % 2 else {rng.choice(env.rigid_vars):
                                rng.choice(m.universe)}
        for w in m.states:
            s = FOLStructure(m.universe, m.tt, m.ff, m.op_interp,
                             {**m.xi, **{v: x for (v, t), x in zeta.items()
                                         if t == w}})
            for fn, *args in ((eval_expr, m, w, e, env, bnd),
                              (eval_fol, s, e, bnd), (eval_fol, s, f, bnd),
                              (eval_ml, k, w, e), (eval_ml, k, w, ml)):
                try:
                    yield repr(fn(*args))
                except Exception as exc:
                    yield f"{type(exc).__name__}: {exc}"

    def test_outcomes_are_pinned(self):
        digest, kinds = hashlib.sha256(), Counter()
        for i in range(3000):
            for out in self.outcomes(i):
                digest.update(out.encode() + b"\n")
                kinds[out.partition(":")[0]] += 1
        # every kind of failure occurs
        assert {"EvalError", "FomlError"} <= set(kinds)
        assert digest.hexdigest() == self.DIGEST, kinds


class TestSuccessorTables:
    def test_order_and_immutability(self):
        for i in range(100):
            m = random_model(rng_for(37, i), ENV, need_prime=True)
            for rel in (m.R, m.primeR):
                table = _successor_table(rel)
                for w in m.states:
                    want = tuple(t for (s, t) in sorted(rel, key=str)
                                 if s == w)
                    got = table.get(w, ())
                    assert type(got) is tuple and got == want

    def test_one_table_per_relation(self):
        # equal relations of different models share one table
        pairs = [(0, 1), (1, 0), (1, 1)]
        assert _successor_table(frozenset(pairs)) \
            is _successor_table(frozenset(reversed(pairs)))

    def test_cache_stays_within_bound(self):
        bound = _successor_table.cache_info().maxsize
        for n in range(bound + 50):
            _successor_table(frozenset({(n, n + 1), (n + 1, n)}))
            assert _successor_table.cache_info().currsize <= bound
        assert _successor_table.cache_info().currsize == bound


class TestPrimeIsFunction:
    """`prime_is_function` is set once, when a model is built, from
    primeR's successor table; it is not part of the model's value."""

    def test_every_relation_on_up_to_three_states(self):
        for n in (1, 2, 3):
            states = tuple(range(n))
            pairs = list(product(states, repeat=2))
            for bits in product((0, 1), repeat=len(pairs)):
                rel = frozenset(compress(pairs, bits))
                m = KripkeModel.propositional(states, frozenset(), {}, rel)
                want = all(sum(s == w for s, _ in rel) == 1 for w in states)
                assert m.prime_is_function is want, rel

    def test_false_without_primeR(self):
        m = KripkeModel.propositional((0,), frozenset({(0, 0)}), {})
        assert m.prime_is_function is False

    def test_not_part_of_equality_or_repr(self):
        m = KripkeModel.propositional((0, 1), frozenset(), {},
                                      frozenset({(0, 1), (1, 0)}))
        other = rebuild(m)
        other.prime_is_function = False
        assert m.prime_is_function and m == other
        assert repr(m) == repr(other) == (
            "KripkeModel(universe=('tt', 'ff'), tt='tt', ff='ff', "
            "op_interp={}, xi={}, states=(0, 1), R=frozenset(), "
            f"zeta={{}}, primeR={m.primeR!r})")
        assert not hasattr(m, "__dict__")

    def test_an_undeclared_state_is_reported_by_validate(self):
        # built without raising; validate names the state, so a model
        # file with it is rejected (check-model exits 65)
        m = KripkeModel.propositional(
            ("s0",), frozenset({("s0", "s0")}), {},
            frozenset({("s0", "s0"), ("s9", "s0")}))
        message = "primeR names undeclared state 's9'"
        with pytest.raises(FomlError, match=message):
            m.validate()
        with pytest.raises(FomlError, match=message):
            parse_model(serialize_model(m))


class TestModelFiles:
    def test_bit_exact_round_trip(self):
        for i in range(60):
            rng = rng_for(35, i)
            env = random_env(rng)
            m = random_model(rng, env, need_prime=(i % 2 == 0))
            text = serialize_model(m)
            m2 = parse_model(text)
            assert m2 == m
            assert serialize_model(m2) == text

    def test_validation(self):
        with pytest.raises(Exception, match="tt and ff"):
            parse_model("(model (universe a) (tt a) (ff a) "
                        "(states s) (R))")


class TestCountermodelSearch:
    def test_motivating_example_refuted_with_two_states(self):
        ob = parse_problem(
            "(declare-op 0 0) (declare-flex v)"
            "(goal (=> (= v 0) (nabla (= v 0))))")
        res = find_countermodel(ob, SearchBounds(2, 2))
        assert res.found
        assert len(res.model.states) == 2
        assert eval_expr(res.model, res.state, ob.goal, ob.env) \
            != res.model.tt

    def test_true_has_no_countermodel(self):
        ob = parse_problem("(goal true)")
        res = find_countermodel(ob, SearchBounds(2, 2))
        assert res.exhausted

    def test_hypotheses_must_hold_globally(self):
        ob = parse_problem(
            "(declare-op p 0) (assume p) (goal p)")
        res = find_countermodel(ob, SearchBounds(2, 2))
        assert res.exhausted

    def test_barcan_has_no_countermodel_within_bounds(self):
        ob = parse_problem(
            "(declare-flex v)"
            "(goal (iff (forall a (nabla (= v a)))"
            "           (nabla (forall a (= v a)))))")
        res = find_countermodel(ob, SearchBounds(2, 2))
        assert res.exhausted

    def test_resource_cap_reported_distinctly(self):
        ob = parse_problem(
            "(declare-op 0 0) (declare-flex v) (goal (= v 0))")
        res = find_countermodel(ob, SearchBounds(2, 2, max_models=2))
        assert res.status == "resource-out"
        assert (res.examined, res.reason) == (
            2, "more than max_models = 2 models (3 reached)")
        res = find_fol_countermodel((), Eq(OpApp("0"), OpApp("0")),
                                    {"0": 0}, (), SearchBounds(2, 2, 1))
        assert (res.status, res.examined, res.reason) == (
            "resource-out", 1, "more than max_models = 1 structures"
            " (2 reached)")

    def test_definition_bodies_are_compiled_once(self, monkeypatch):
        # A search binds each application's parameters to its arguments'
        # lane values: it substitutes nothing, and compiles each body at
        # most once per value/truth position, however many applications
        # the hypotheses and goal share.
        ob = parse_problem((DEMO / "cst.foml").read_text())

        def no_substitute(e, sigma):
            raise AssertionError(f"substitute called on {e}")

        monkeypatch.setattr(syntax, "substitute", no_substitute)
        real = semantics._lanes
        compiled = Counter()

        def counting(e, env, boolean, bodies):
            for d in env.definitions:
                if e is d.body:
                    compiled[d.name, boolean] += 1
            return real(e, env, boolean, bodies)

        monkeypatch.setattr(semantics, "_lanes", counting)
        assert find_countermodel(ob, SearchBounds(2, 2)).found
        applications = sum(isinstance(n, DefApp)
                           for e in ob.all_exprs() for n in walk(e))
        assert applications == 4  # iff repeats each application
        assert compiled == {("cst", True): 1}

    def test_point_evaluation_substitutes_nothing(self):
        # The point path binds each parameter to its argument: no module
        # reaches syntax.substitute, under whatever name it imports it.
        ob = parse_problem((DEMO / "cst.foml").read_text())
        m = find_countermodel(ob, SearchBounds(2, 2)).model
        env = TestLazyEvaluation.DEFS
        nested = DefApp("first", (DefApp("all", (DefApp("next", (
            FlexVar("v"),)),)), FALSE))
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is substitute.__code__:
                calls.append(frame.f_back.f_code.co_name)

        before = sys.getprofile()
        sys.setprofile(profile)
        try:
            failed, w = obligation_checker(ob)(m)
            value = eval_expr(tiny_model(), 0, nested, env)
        finally:
            sys.setprofile(before)
        assert (failed, value) == (None, 1) and w is not None
        assert calls == []

    def test_enumeration_is_deterministic(self):
        first = list(enumerate_models({"0": 0}, ("x",), ("v",), 2, 2))
        second = list(enumerate_models({"0": 0}, ("x",), ("v",), 2, 2))
        assert first == second
        assert len(first) > 100
