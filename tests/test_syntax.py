import hashlib
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from foml import (
    DefinitionEnvironment,
    Definition,
    alpha_equal,
    expand_definitions,
    free_rigid_vars,
    is_rigid,
    parse_problem,
    print_expr,
    substitute,
)
from foml.gen import (
    random_action_formula,
    random_env,
    random_expr,
    random_ml_sequent,
    random_model,
    rng_for,
)
from foml.emit import parse_mlseq
from foml.models import parse_model, serialize_model
from foml.parser import ProblemError, parse_expr, parse_file
from foml.printer import print_problem
from foml.syntax import (
    FALSE,
    DefApp,
    Eq,
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
    TRUE,
    alpha_key,
    and_,
    children,
    collect_signature,
    contains_node,
    exists_,
    map_children,
    not_,
    or_,
    signature,
)

sys.path.insert(0, str(Path(__file__).parent))
import reference_front_end as reference  # noqa: E402
from reference_syntax import needs_prime, walk  # noqa: E402
from test_cli import (  # noqa: E402
    mutated_problems,
    mutated_sequents_and_models,
)


class TestParsing:
    def test_minimal_program(self):
        ob = parse_problem("(goal false)")
        assert ob.goal == FALSE
        assert ob.hypotheses == ()

    def test_desugaring(self, parse):
        assert parse("true") == Implies(FALSE, FALSE)
        assert parse("(not (= x y))") == not_(Eq(RigidVar("x"),
                                                 RigidVar("y")))
        assert parse("(exists w (nabla (= x w)))") == exists_(
            "w", Nabla(Eq(RigidVar("x"), RigidVar("w"))))
        assert parse("(delta false)") == not_(Nabla(not_(FALSE)))
        # n-ary and/or fold to the right
        a, b, c = (Eq(RigidVar(n), RigidVar(n)) for n in "xyz")
        assert parse("(and (= x x) (= y y) (= z z))") == and_(a, b, c)
        assert parse("(or (= x x) (= y y) (= z z))") == or_(a, b, c)

    def test_defapp_parses_with_exists_desugared(self):
        ob = parse_problem(
            "(declare-flex u)"
            "(define (cst x) (exists y (nabla (= x y))))"
            "(goal (cst u))")
        assert ob.goal == DefApp("cst", (FlexVar("u"),))
        body = ob.env.definition("cst").body
        assert body == not_(Forall("y", not_(
            Nabla(Eq(RigidVar("x"), RigidVar("y"))))))

    def test_errors_carry_positions(self):
        with pytest.raises(ProblemError, match="line 2"):
            parse_problem("(declare-rigid x)\n(goal (= x))")

    @pytest.mark.parametrize("text,msg", [
        ("(goal nope)", "unknown symbol"),
        ("(declare-op f 1) (goal (f))", "arity"),
        ("(declare-flex v) (goal (prime (prime v)))", "nested"),
        ("(declare-rigid x) (define (d) (= x x)) (goal false)",
         "free rigid"),
        ("(declare-flex v) (goal (forall v (= v v)))", "quantify"),
        ("(goal false) (goal false)", "duplicate"),
        ("(declare-flex u) (declare-flex v) (vars u) (vars v) (goal false)",
         r"duplicate \(vars \.\.\.\) form"),
        ("(goal (not false false))",
         r"\(not \.\.\.\) takes 1 argument\(s\), got 2"),
        ("(goal (=> false))", r"\(=> \.\.\.\) takes 2 argument\(s\), got 1"),
        ("(goal (delta))", r"\(delta \.\.\.\) takes 1 argument\(s\), got 0"),
        ("(declare-rigid x) (declare-flex x) (goal false)",
         "already declared"),
        ("(declare-flex s) (vars s s) (goal false)",
         r"line 1, col 26: \(vars \.\.\.\) lists s twice"),
        ("(declare-flex s) (declare-flex t) (vars s t t s)",
         r"line 1, col 45: \(vars \.\.\.\) lists t twice"),
    ])
    def test_rejections(self, text, msg):
        with pytest.raises(ProblemError, match=msg):
            parse_problem(text)

    @pytest.mark.parametrize("arity", ["1_0", "+0", "-0", "-1", "\u0663",
                                       "\uff11", "0x1", "1.0", "one"])
    def test_arity_is_ascii_digits(self, arity):
        with pytest.raises(ProblemError) as exc:
            parse_problem(f"(declare-op f {arity}) (goal false)")
        assert str(exc.value) == f"line 1, col 15: bad arity {arity!r}"

    @pytest.mark.parametrize("arity,expected", [("0", 0), ("007", 7),
                                                ("12", 12)])
    def test_arity_digits(self, arity, expected):
        ob = parse_problem(f"(declare-op f {arity}) (goal false)")
        assert ob.env.ops == {"f": expected}

    def test_prime_inside_nabla_is_fine(self, parse):
        e = parse("(nabla (prime v))")
        assert e == Nabla(Prime(FlexVar("v")))


READER_PIECES = ["(", ")", "(", ")", "a", "=>", "12", "v'", "\u00e9t\u00e9",
                 "; note (", ";", "\n", " ", "\t", "\r", "\x0b", "\x0c",
                 "\x1c", "\x85", "\u00a0", "\u2028"]
reader_texts = st.lists(st.sampled_from(READER_PIECES), max_size=40).map(
    "".join)
# Names for parse_expr: some READER_PIECES atoms resolve, some do not.
READER_ENV = DefinitionEnvironment.build(
    ops={"12": 0, "f": 1}, rigid=("x",), flex=("a", "v'"))
FRONT_ENDS = {
    "parse_file": (parse_file, reference.parse_file),
    "parse_expr": (lambda text: parse_expr(text, READER_ENV),
                   lambda text: reference.parse_expr(text, READER_ENV)),
    "parse_mlseq": (parse_mlseq, reference.parse_mlseq),
    "parse_model": (parse_model, reference.parse_model),
}
# The two rules the reference front end lacks.
NEW_RULES = re.compile(r"\(vars \.\.\.\) lists \S+ twice|bad arity")


def _outcome(parse, text):
    try:
        return parse(text)
    except FomlError as exc:
        return exc


def _same(a, b):
    if isinstance(a, FomlError) or isinstance(b, FomlError):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def _assert_front_ends_agree(text):
    """Each front end gives what the reference gives on text: an equal
    result or the same error, position included; only a rule the
    reference lacks may reject first."""
    for name, (parse, parse_reference) in FRONT_ENDS.items():
        got, want = _outcome(parse, text), _outcome(parse_reference, text)
        if _same(got, want):
            continue
        assert name == "parse_file" and isinstance(got, ProblemError) \
            and NEW_RULES.search(str(got)), (name, text, got, want)
        assert not isinstance(want, FomlError) \
            or (want.line, want.col) > (got.line, got.col), (text, want)


def _first_error(parse, text):
    with pytest.raises(ProblemError) as exc:
        parse(text)
    return str(exc.value)


class TestReader:
    """Positions are computed only for an error message; they must be the
    ones the reference reader gives each token."""

    @given(reader_texts)
    @settings(max_examples=120, deadline=None)
    def test_error_positions_match_the_reference_reader(self, text):
        try:
            tokens = reference.reference_read(text)
        except ProblemError as exc:
            # Every front end reports a bad parenthesis before anything.
            for parse, _ in FRONT_ENDS.values():
                assert _first_error(parse, text) == str(exc)
            return
        if not tokens:
            return
        # Any form, or atom, at the start of a file is reported where its
        # first token is: no READER_PIECES atom names a form.
        first = tokens[0]
        message = _first_error(parse_file, text)
        assert message.startswith(f"line {first.line}, col {first.col}: ")

    @pytest.mark.parametrize("text,msg", [
        ("(a\n (b)", "line 1, col 1: unclosed '('"),
        ("(a (b\n", "line 1, col 4: unclosed '('"),
        ("(goal false))\n(goal nope", "line 1, col 13: unmatched ')'"),
        ("a)\n)", "line 1, col 2: unmatched ')'"),
        # an unbalanced parenthesis comes before an earlier error
        ("(goal nope) (", "line 1, col 13: unclosed '('"),
        # "\r", "\x85" and "\u2028" are one column each; only "\n" ends a
        # line
        ("(goal\r nope)", "line 1, col 8: unknown symbol 'nope'"),
        ("(goal\rnope)", "line 1, col 7: unknown symbol 'nope'"),
        ("\x85(goal nope)", "line 1, col 8: unknown symbol 'nope'"),
        ("(goal\x85nope)", "line 1, col 7: unknown symbol 'nope'"),
        ("(goal\u2028\u2028nope)", "line 1, col 8: unknown symbol 'nope'"),
        ("(declare-flex v)\r\n(goal (= v w)) ; w?\n",
         "line 2, col 12: unknown symbol 'w'"),
        ("; c (\n (a\t;x\n  bc)\r d", "line 2, col 2: unknown form 'a'"),
    ])
    def test_error_positions(self, text, msg):
        assert _first_error(parse_file, text) == msg

    @pytest.mark.parametrize("text,msg", [
        ("", "expected exactly one expression"),
        ("a v'", "expected exactly one expression"),
        ("(and a nope) a", "expected exactly one expression"),
        ("(and a\n nope)", "line 2, col 2: unknown symbol 'nope'"),
        ("(and a (nabla))", "line 1, col 8: (nabla ...) takes 1 argument(s),"
         " got 0"),
        # an argument count comes before the arguments
        ("(not (f nope) a)", "line 1, col 1: (not ...) takes 1 argument(s),"
         " got 2"),
        ("(f (not nope) a)", "line 1, col 1: operator 'f' has arity 1, "
         "got 2 argument(s)"),
        ("(prime (nabla (prime a a)))", "line 1, col 15: (prime ...) takes 1"
         " argument(s), got 2"),
        ("(prime (nabla (prime a)))", "line 1, col 15: prime cannot be "
         "nested"),
        ("(forall (x) a)", "line 1, col 9: expected a variable name after "
         "forall"),
        ("(exists a (= a a))", "line 1, col 9: cannot quantify over "
         "flexible variable 'a'"),
        ("(forall x (x a))", "line 1, col 11: variable 'x' cannot be applied"
         " to arguments"),
        ("(f)", "line 1, col 1: operator 'f' has arity 1, got 0 argument(s)"),
        ("f", "line 1, col 1: operator 'f' has arity 1, bare use needs "
         "arity 0"),
        ("((f a))", "line 1, col 2: expression head must be a symbol"),
        ("(and ())", "line 1, col 6: empty expression"),
        ("(true)", "line 1, col 1: true takes no arguments"),
    ])
    def test_expression_errors(self, text, msg):
        parse = FRONT_ENDS["parse_expr"][0]
        assert _first_error(parse, text) == msg
        assert _first_error(FRONT_ENDS["parse_expr"][1], text) == msg

    @pytest.mark.parametrize("goal,msg", [
        ("(=> p (nabla (foo)))", "col 27: unknown modal form 'foo'"),
        # an argument count comes before the arguments
        ("(=> (foo) p q)", "col 14: unknown modal form '=>'"),
        ("(nabla (prime true) p)", "col 14: unknown modal form 'nabla'"),
        ("(nabla (prime p q))", "col 21: unknown modal form 'prime'"),
        ("(prime (=> p ()))", "col 27: malformed formula"),
        ("(nabla true)", "col 21: bad atom 'true'"),
    ])
    def test_modal_formula_errors(self, goal, msg):
        text = f"(mlseq (goal {goal}))"
        for parse in FRONT_ENDS["parse_mlseq"]:
            assert _first_error(parse, text) == f"line 1, {msg}"


class TestAgainstReferenceFrontEnd:
    """parse_file, parse_expr, parse_mlseq and parse_model against the
    tree-building front end they replaced (tests/reference_front_end.py)."""

    @given(reader_texts)
    @settings(max_examples=80, deadline=None)
    def test_reader_texts(self, text):
        _assert_front_ends_agree(text)

    @given(mutated_problems())
    @settings(max_examples=80, deadline=None)
    def test_mutated_problems(self, text):
        _assert_front_ends_agree(text)

    @given(mutated_sequents_and_models())
    @settings(max_examples=60, deadline=None)
    def test_mutated_sequents_and_models(self, text):
        _assert_front_ends_agree(text)

    @pytest.mark.parametrize("text", [
        "(declare-flex s) (vars s s) (goal false)",
        "(declare-flex s) (declare-flex t) (vars s t s t) (goal nope)",
        "(declare-op f 1_0) (goal false)",
        "(declare-op f +0) (goal (nope))",
        "(declare-op f -0) (goal false)",
        "(declare-op f \u0663) (goal false)",
    ])
    def test_only_the_new_rules_differ(self, text):
        got = _outcome(parse_file, text)
        assert isinstance(got, ProblemError) and NEW_RULES.search(str(got))
        _assert_front_ends_agree(text)

    def test_model_values_read_back_as_written(self):
        # int() reads 1_0, +0, 01, -0 and U+0663 as 10, 0, 1, 0 and 3;
        # both front ends keep them as the atoms they are, so the model
        # prints as it was read, and 01 is another value than 1.
        text = ("(model\n  (universe 1_0 +0 \u0663 01 1 -2 -0)\n"
                "  (tt 1_0)\n  (ff 1)\n  (states s 02)\n  (R (s 02))\n"
                "  (zeta (v 02 -0)))\n")
        m = parse_model(text)
        assert m.universe == ("1_0", "+0", "\u0663", "01", 1, -2, "-0")
        assert m.states == ("s", "02")
        assert serialize_model(m) == text
        _assert_front_ends_agree(text)


class TestFreeVars:
    def test_bound_not_reported(self, parse):
        assert free_rigid_vars(parse("(forall w (= w y))")) == ("y",)

    def test_flexible_never_reported(self, parse):
        assert free_rigid_vars(parse("(nabla (= v x))")) == ("x",)

    def test_defapp_argument_vars(self, parse, env):
        e = parse("(cst (f x))")
        assert free_rigid_vars(e) == ("x",)
        assert free_rigid_vars(expand_definitions(e, env)) == ("x",)

    def test_agrees_with_expansion_on_generated_terms(self, env):
        # definitions here use all their parameters, so the syntactic
        # notion coincides with scanning the full expansion
        for i in range(200):
            rng = rng_for(11, i)
            e = random_expr(rng, env, depth=3)
            assert set(free_rigid_vars(e)) == set(
                free_rigid_vars(expand_definitions(e, env)))


class TestSubstitution:
    def test_identity(self, parse):
        e = parse("(forall w (= w x))")
        assert substitute(e, {}) is e

    def test_classic_capture(self):
        e = Forall("y", Eq(RigidVar("x"), RigidVar("y")))
        out = substitute(e, {"x": RigidVar("y")})
        assert isinstance(out, Forall)
        assert out.var != "y"
        assert out.body == Eq(RigidVar("y"), RigidVar(out.var))

    def test_instantiating_cst_body(self, env):
        body = env.definition("cst").body
        out = substitute(body, {"p": RigidVar("z")})
        assert alpha_equal(
            out, not_(Forall("q", not_(Nabla(Eq(RigidVar("z"),
                                               RigidVar("q")))))))

    def test_no_rename_without_capture_threat(self, parse):
        e = parse("(forall w (= w x))")
        out = substitute(e, {"x": RigidVar("z")})
        assert out == parse("(forall w (= w z))")

    def test_respects_alpha_equivalence(self, env):
        for i in range(150):
            rng = rng_for(5, i)
            e1 = random_expr(rng, env, depth=3)
            e2 = _rename_binders(e1)
            assert alpha_equal(e1, e2)
            sigma = {"x": OpApp("f", (RigidVar("y"),)),
                     "y": RigidVar("x")}
            assert alpha_equal(substitute(e1, sigma),
                               substitute(e2, sigma))


def _rename_binders(e, salt="R"):
    match e:
        case Forall(var, body):
            fresh = var + salt
            renamed = substitute(body, {var: RigidVar(fresh)})
            return Forall(fresh, _rename_binders(renamed, salt))
        case Eq(l, r):
            return Eq(_rename_binders(l, salt), _rename_binders(r, salt))
        case Implies(l, r):
            return Implies(_rename_binders(l, salt),
                           _rename_binders(r, salt))
        case Nabla(b):
            return Nabla(_rename_binders(b, salt))
        case Prime(b):
            return Prime(_rename_binders(b, salt))
        case OpApp(op, args):
            return OpApp(op, tuple(_rename_binders(a, salt) for a in args))
        case DefApp(op, args):
            return DefApp(op, tuple(_rename_binders(a, salt)
                                    for a in args))
        case _:
            return e


class TestAlphaEquivalence:
    def test_lambda_view_of_shared_modal_keys(self, parse):
        # the two abstractions (lam w: nabla(v=w)) differ only in the
        # bound name, so their canonical keys coincide
        e1 = parse("(nabla (= v x))")
        e2 = parse("(nabla (= v y))")
        assert alpha_key(e1, ("x",)) == alpha_key(e2, ("y",))

    def test_bound_renaming(self, parse):
        assert alpha_equal(parse("(forall a (= a a))"),
                           parse("(forall b (= b b))"))

    def test_equality_is_not_commutative(self, parse):
        assert not alpha_equal(parse("(= x y)"), parse("(= y x)"))

    def test_free_names_matter(self, parse):
        assert not alpha_equal(parse("(forall a (= a x))"),
                               parse("(forall a (= a y))"))


class TestExpansion:
    def test_cst(self, parse, env):
        out = expand_definitions(parse("(cst u)"), env)
        assert alpha_equal(out, not_(Forall("q", not_(
            Nabla(Eq(FlexVar("u"), RigidVar("q")))))))

    def test_no_defapp_is_identity_shape(self, parse, env):
        e = parse("(nabla (= v x))")
        assert expand_definitions(e, env) == e

    def test_nested_definitions_match_single_steps(self):
        env = DefinitionEnvironment.build(
            ops={"f": 1}, rigid=("x",), flex=("v",),
            definitions=(
                Definition("d1", ("p",),
                           OpApp("f", (RigidVar("p"),))),
                Definition("d2", ("p",),
                           DefApp("d1", (DefApp("d1", (RigidVar("p"),)),))),
            ))
        e = DefApp("d2", (RigidVar("x"),))
        expanded = expand_definitions(e, env)
        by_hand = OpApp("f", (OpApp("f", (RigidVar("x"),)),))
        assert expanded == by_hand

    def test_idempotent(self, env):
        for i in range(100):
            rng = rng_for(3, i)
            e = random_expr(rng, env, depth=3)
            once = expand_definitions(e, env)
            assert expand_definitions(once, env) == once

    def test_leaves_no_defapp(self, env):
        for i in range(100):
            rng = rng_for(4, i)
            e = random_expr(rng, env, depth=3)
            out = expand_definitions(e, env)
            assert not any(isinstance(s, DefApp) for s in walk(out))


class TestRigidity:
    def test_examples(self, parse, env):
        assert is_rigid(parse("(= x y)"), env)
        assert not is_rigid(Nabla(TRUE), env)
        assert not is_rigid(parse("(cst 0)"), env)
        assert not is_rigid(parse("(prime v)"), env)
        assert not is_rigid(FlexVar("v"), env)
        assert is_rigid(parse("(forall a (= a (f x)))"), env)

    def test_matches_expansion_scan(self):
        for i in range(300):
            rng = rng_for(9, i)
            env = random_env(rng)
            e = random_expr(rng, env, depth=3)
            expanded = expand_definitions(e, env)
            by_scan = not any(
                isinstance(s, (FlexVar, Nabla, Prime))
                for s in walk(expanded))
            assert is_rigid(e, env) == by_scan

    def test_unused_parameter_still_counts_argument_rigidity_right(self):
        env = DefinitionEnvironment.build(
            ops={"0": 0}, flex=("v",),
            definitions=(Definition("k", ("p",), OpApp("0")),))
        # k drops its argument, so even a flexible argument leaves the
        # expansion rigid
        assert is_rigid(DefApp("k", (FlexVar("v"),)), env)


class TestPrinterRoundTrip:
    def test_round_trip_alpha_equal(self, env):
        decls = ("(declare-op 0 0) (declare-op 1 0) (declare-op f 1) "
                 "(declare-op g 2) (declare-rigid x) (declare-rigid y) "
                 "(declare-rigid z) (declare-flex u) (declare-flex v) "
                 "(define (cst p) (exists q (nabla (= p q))))")
        for i in range(250):
            rng = rng_for(21, i)
            e = random_expr(rng, env, depth=3)
            text = f"{decls} (goal {print_expr(e)})"
            back = parse_problem(text).goal
            assert alpha_equal(back, e)

    def test_problem_round_trip(self):
        text = ("(declare-op 0 0)\n(declare-flex v)\n"
                "(assume (nabla (= v 0)))\n(goal (= v 0))\n")
        ob = parse_problem(text)
        assert parse_problem(print_problem(ob)) == ob


@st.composite
def sexpr_names(draw):
    return draw(st.text(alphabet="abcxyz", min_size=1, max_size=3))


class TestFreshNames:
    @given(sexpr_names(), st.sets(sexpr_names(), max_size=8))
    @settings(max_examples=200)
    def test_fresh_name_avoids(self, base, avoid):
        from foml.syntax import fresh_name

        out = fresh_name(base, avoid)
        assert out not in avoid
        assert out.startswith(base)


# One instance of each of the ten node kinds.
NODES = [
    RigidVar("x"),
    FlexVar("v"),
    OpApp("g", (RigidVar("x"), FlexVar("v"))),
    DefApp("d", (FlexVar("v"), FALSE, RigidVar("y"))),
    Eq(RigidVar("x"), FlexVar("v")),
    FALSE,
    Implies(Nabla(FALSE), FlexVar("v")),
    Forall("a", Eq(RigidVar("a"), RigidVar("x"))),
    Nabla(FlexVar("v")),
    Prime(FlexVar("v")),
]


class TestMapChildren:
    def test_covers_every_node_kind(self):
        assert len({type(e) for e in NODES}) == 10

    @pytest.mark.parametrize("e", NODES, ids=lambda e: type(e).__name__)
    def test_identity_rebuilds_an_equal_node(self, e):
        assert map_children(e, lambda c: c) == e

    @pytest.mark.parametrize("e", NODES, ids=lambda e: type(e).__name__)
    def test_visits_exactly_the_children_in_order(self, e):
        seen = []
        map_children(e, lambda c, tag: seen.append((c, tag)) or c, "t")
        assert seen == [(c, "t") for c in children(e)]

    @pytest.mark.parametrize("e", NODES, ids=lambda e: type(e).__name__)
    def test_hash_is_the_dataclass_field_hash(self, e):
        # The hash a frozen dataclass generates from its fields, so set and
        # dict orders stay as they were; a rebuilt equal node hashes equal.
        fields = tuple(getattr(e, f) for f in e.__match_args__)
        assert hash(e) == hash(fields) == hash(e)
        assert hash(map_children(e, lambda c: c)) == hash(e)


def _kinds_reference(e):
    """The node classes that occur in e, by recursion over `children`."""
    kinds = {type(e)}
    for c in children(e):
        kinds |= _kinds_reference(c)
    return kinds


NODE_KINDS = (RigidVar, FlexVar, OpApp, DefApp, Eq, FalseExpr, Implies,
              Forall, Nabla, Prime)


def _and_reference(*es):
    if not es:
        return TRUE
    if len(es) == 1:
        return es[0]
    return not_(Implies(es[0], not_(_and_reference(*es[1:]))))


def _or_reference(*es):
    if not es:
        return FALSE
    if len(es) == 1:
        return es[0]
    return Implies(not_(es[0]), _or_reference(*es[1:]))


class TestDepthIndependence:
    """`and_`, `or_` and the own-stack walks `contains_node` and
    `signature` work at any size under the default recursion limit, and
    agree with their recursive definitions; deep input is read at the
    default limit."""

    def test_contains_node_matches_the_recursive_scan(self):
        for seed in range(300):
            rng = rng_for(7, seed)
            e = random_expr(rng, random_env(rng), depth=4)
            kinds = _kinds_reference(e)
            for kind in NODE_KINDS:
                assert contains_node(e, kind) == (kind in kinds), (e, kind)
            assert contains_node(e, *NODE_KINDS)

    def test_contains_node_stops_at_the_first_hit(self):
        # A node's children are read only when the scan goes past it.
        assert contains_node(Nabla("not a node"), Nabla)
        with pytest.raises(InternalError):
            contains_node(Nabla("not a node"), Prime)

    def test_deep_chain_contains_node_at_the_default_limit(self):
        assert sys.getrecursionlimit() <= 1000
        e = FlexVar("v")
        for _ in range(10_000):
            e = Nabla(e)
        assert contains_node(e, FlexVar)
        assert not contains_node(e, Prime, Eq)

    def test_deep_chain_signature_at_the_default_limit(self):
        assert sys.getrecursionlimit() <= 1000
        env = DefinitionEnvironment.build(
            ops={"f": 1}, rigid=("x",), flex=("v",))
        e = Prime(Eq(OpApp("f", (RigidVar("x"),)), FlexVar("v")))
        for _ in range(10_000):
            e = Nabla(e)
        sig = signature([e], env)
        assert (sig.ops, sig.rigid, sig.flex, sig.prime) == (
            {"f": 1}, ("x",), ("v",), True)
        assert collect_signature([e], env) == ({"f": 1}, ("x",), ("v",))

    def test_deep_nabla_parses_at_the_default_limit(self):
        assert sys.getrecursionlimit() <= 1000
        goal = parse_problem("(declare-flex v) (goal " + "(nabla " * 5000
                             + "(= v v)" + ")" * 5001).goal
        for _ in range(5000):
            assert isinstance(goal, Nabla)
            goal = goal.body
        assert goal == Eq(FlexVar("v"), FlexVar("v"))
        # the modal-sequent reader keeps its own stack
        goal = parse_mlseq("(mlseq (goal " + "(nabla " * 5000 + "p"
                           + ")" * 5002).goal
        for _ in range(5000):
            goal = goal.body
        assert goal == FlexVar("p")

    @pytest.mark.parametrize("n", range(9))
    def test_and_or_match_the_nested_definition(self, n):
        es = [FlexVar(f"v{i}") for i in range(n)]
        assert and_(*es) == _and_reference(*es)
        assert or_(*es) == _or_reference(*es)

    def test_wide_builds_at_the_default_limit(self):
        assert sys.getrecursionlimit() <= 1000
        es = [FlexVar(f"v{i}") for i in range(5000)]
        # and_ adds five nodes per extra conjunct, or_ three per disjunct.
        assert sum(1 for _ in walk(and_(*es))) == 5000 + 5 * 4999
        assert sum(1 for _ in walk(or_(*es))) == 5000 + 3 * 4999


class TestExtended:
    # `extended` walks only the added definitions: each rejection below
    # must still come with the message that building the whole
    # environment at once gives
    BASE = dict(ops={"0": 0}, rigid=("x",), flex=("v",),
                definitions=(Definition("d0", ("p",),
                                        Eq(RigidVar("p"), OpApp("0"))),))

    @pytest.mark.parametrize("added, message", [
        ({"flex": ("x",)}, "duplicate declaration of 'x'"),
        ({"rigid": ("d0",)}, "duplicate declaration of 'd0'"),
        ({"ops": {"v": 0}}, "duplicate declaration of 'v'"),
        ({"definitions": (Definition("d0", (), FALSE),)},
         "duplicate declaration of 'd0'"),
        ({"definitions": (Definition("d1", (), DefApp("d2", ())),
                          Definition("d2", (), FALSE))},
         "definition 'd1' refers to 'd2', which is not defined earlier"),
        ({"definitions": (Definition(
            "d1", (), Nabla(DefApp("d0", (DefApp("e", ()),)))),)},
         "definition 'd1' refers to 'e', which is not defined earlier"),
        ({"definitions": (Definition(
            "d1", ("p",), Eq(RigidVar("p"), RigidVar("x"))),)},
         "definition 'd1' body has free rigid variables not among its "
         "parameters: x"),
        ({"definitions": (Definition("d1", ("p", "p"), FALSE),)},
         "definition 'd1' has repeated parameters"),
    ])
    def test_rejects_with_the_message_of_a_whole_build(self, added,
                                                       message):
        env = DefinitionEnvironment.build(**self.BASE)
        with pytest.raises(FomlError) as got:
            env.extended(**added)
        assert str(got.value) == message
        whole = {key: tuple(value) + tuple(added.get(key, ()))
                 for key, value in self.BASE.items() if key != "ops"}
        with pytest.raises(FomlError) as built:
            DefinitionEnvironment.build(
                ops={**self.BASE["ops"], **added.get("ops", {})}, **whole)
        assert str(built.value) == message

    @pytest.mark.parametrize("arity", [0, 1, 2])
    def test_rejects_an_operator_declared_again(self, arity):
        # at its own arity or another, as a whole build rejects "f"
        # declared as an operator and as a rigid variable
        env = DefinitionEnvironment.build(ops={"0": 0, "f": 1},
                                          rigid=("x",), flex=("v",))
        with pytest.raises(FomlError) as got:
            env.extended(ops={"g": 0, "f": arity})
        assert str(got.value) == "duplicate declaration of 'f'"
        with pytest.raises(FomlError) as built:
            DefinitionEnvironment.build(ops={"0": 0, "f": 1},
                                        rigid=("x", "f"), flex=("v",))
        assert str(built.value) == "duplicate declaration of 'f'"
        assert env.ops == {"0": 0, "f": 1}

    def test_an_added_definition_may_apply_an_earlier_one(self):
        env = DefinitionEnvironment.build(**self.BASE)
        d1 = Definition("d1", ("q",), DefApp("d0", (RigidVar("q"),)))
        d2 = Definition("d2", (), Nabla(DefApp("d1", (OpApp("0"),))))
        got = env.extended(definitions=(d1, d2))
        assert got.definitions == env.definitions + (d1, d2)


class TestRandomDraws:
    def test_seeded_draws_are_pinned(self):
        # 400 (random_env, random_expr) draws from one seeded stream: a
        # change to the generators that alters any draw, or the number
        # of random numbers a draw takes, changes the digest
        rng = random.Random(7)
        digest = hashlib.sha256()
        for _ in range(400):
            env = random_env(rng)
            e = random_expr(rng, env, depth=3)
            digest.update(repr((env, e)).encode())
        assert digest.hexdigest()[:16] == "c1e1d9056e54d028"

    def test_every_generator_is_pinned(self):
        # every generator under each flag that changes what it draws, from
        # one seeded stream; one rng.random() after each draw makes a
        # change in how many numbers a draw takes show even when the drawn
        # value happens to stay the same
        rng = random.Random(11)
        digest = hashlib.sha256()

        def put(value):
            digest.update(repr((value, rng.random())).encode())

        def model_key(m):
            return (m.universe, m.states, sorted(m.op_interp.items()),
                    sorted(m.xi.items()), sorted(m.R), sorted(m.zeta.items()),
                    None if m.primeR is None else sorted(m.primeR))

        for k in range(300):
            env = random_env(rng, with_defs=k % 3 != 0, modal_defs=k % 2 == 0)
            put(env)
            for flags in ({}, {"allow_nabla": False}, {"allow_prime": False},
                          {"allow_flex": False}, {"allow_defapp": False},
                          {"binders": ("p", "q")}, {"rigid_pool": ("p",)},
                          {"binders": ("p",), "rigid_pool": ("p",)},
                          {"under_prime": True},
                          {"allow_nabla": False, "allow_prime": False,
                           "allow_flex": False, "allow_defapp": False}):
                put(random_expr(rng, env, depth=k % 4, **flags))
            put(random_action_formula(rng, env))
            for need_prime, functional in ((False, False), (True, False),
                                           (True, True), (False, True)):
                put(model_key(random_model(
                    rng, env, 2 + k % 2, 1 + k % 3, need_prime=need_prime,
                    functional_prime=functional)))
            put(random_ml_sequent(rng))
            put(random_ml_sequent(rng, allow_prime=False))
        assert digest.hexdigest()[:16] == "76611f8b7f19c543"


def _collect_signature_reference(exprs, env):
    """`collect_signature` as it was first written: a `walk` per
    expression that scans each definition body at its first application,
    then a separate `free_rigid_vars` pass."""
    ops, rigid, flex, seen_defs = {}, [], [], set()

    def scan(e):
        for sub in walk(e):
            match sub:
                case OpApp(op, _):
                    ops.setdefault(op, env.ops[op])
                case FlexVar(name):
                    if name not in flex:
                        flex.append(name)
                case DefApp(op, _):
                    if op not in seen_defs:
                        seen_defs.add(op)
                        scan(env.definition(op).body)

    for e in exprs:
        scan(e)
        for x in free_rigid_vars(e):
            if x not in rigid:
                rigid.append(x)
    return ops, tuple(rigid), tuple(flex)


class TestSignature:
    """`signature` against the walk-based reference and the reference
    `needs_prime`.
    Its orders fix bounded search's enumeration order."""

    def _agree(self, exprs, env):
        got = signature(exprs, env)
        ops, rigid, flex = _collect_signature_reference(exprs, env)
        assert (got.ops, got.rigid, got.flex) == (ops, rigid, flex)
        assert list(got.ops) == list(ops)
        assert got.prime == needs_prime(env, *exprs)
        assert collect_signature(exprs, env) == (ops, rigid, flex)
        return got

    def test_random_obligations_with_definitions(self):
        unapplied_prime = 0
        for i in range(400):
            rng = rng_for(1717, i)
            env = random_env(rng, with_defs=True)
            exprs = [random_expr(rng, env, 4, allow_prime=i % 3 == 0)
                     for _ in range(rng.randrange(1, 4))]
            got = self._agree(exprs, env)
            unapplied_prime += got.prime and not any(
                isinstance(s, Prime) for e in exprs
                for s in walk(expand_definitions(e, env)))
        # a prime only in a body no expression applies counts too
        assert unapplied_prime >= 20

    @pytest.mark.parametrize("text,want", [
        # a body is scanned before its application's arguments
        ("(declare-flex u) (declare-flex v) (declare-op f 1)"
         " (declare-op 0 0) (define (d p) (= v (f p))) (goal (d (f u)))",
         ({"f": 1}, (), ("v", "u"), False)),
        # a prime in a body that is never applied
        ("(declare-op 0 0) (define (d p) (prime (= p 0)))"
         " (goal (= 0 0))", ({"0": 0}, (), (), True)),
        # a binder shadows a free variable, here and in a body
        ("(declare-op 0 0) (declare-rigid x) (declare-rigid y)"
         " (define (d p) (forall p (= p 0)))"
         " (assume (forall x (d x))) (goal (and (= y 0) (= x 0)))",
         ({"0": 0}, ("y", "x"), (), False)),
        # a body applied only inside another body's argument
        ("(declare-flex v) (declare-op 0 0)"
         " (define (a p) (nabla (= p 0))) (define (b q) (a (= q v)))"
         " (goal (forall x (b x)))", ({"0": 0}, (), ("v",), False)),
    ])
    def test_cases(self, text, want):
        ob = parse_problem(text)
        assert self._agree(ob.all_exprs(), ob.env) == want
