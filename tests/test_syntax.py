import hashlib
import random
import re
import sys
import tracemalloc
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
    parser,
    print_expr,
    substitute,
    syntax,
)
from foml.actions import PrimedVars, coalesce_action, distribute_prime
from foml.cli import RECURSION_LIMIT
from foml.coalesce import (
    SymbolTable,
    coalesce_fol,
    coalesce_obligation_fol,
    rewrite_rigid_box,
)
from foml.coalesce_ml import AtomTable, coalesce_ml
from foml.gen import (
    random_action_formula,
    random_env,
    random_expr,
    random_ml_sequent,
    random_model,
    rng_for,
)
from foml.emit import parse_mlseq, stratify
from foml.models import parse_model, serialize_model
from foml.parser import (
    ProblemError,
    _position,
    _tokens,
    parse_expr,
    parse_file,
)
from foml.printer import print_problem
from foml.search import SearchBounds
from foml.syntax import (
    FALSE,
    KIND,
    DefApp,
    Eq,
    Expression,
    FalseExpr,
    FlexVar,
    FomlError,
    Forall,
    Implies,
    InternalError,
    Interner,
    Nabla,
    OpApp,
    Prime,
    RigidVar,
    TRUE,
    alpha_key,
    and_,
    children,
    contains_node,
    exists_,
    free_flex_vars,
    nodes,
    not_,
    or_,
    rewrite,
    signature,
)

sys.path.insert(0, str(Path(__file__).parent))
import reference_front_end as reference  # noqa: E402
from reference_syntax import (  # noqa: E402
    alpha_key as reference_alpha_key,
    free_rigid_vars as reference_free_rigid_vars,
    map_children,
    needs_prime,
    walk,
)
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
        # a form's count comes before the errors of its arguments
        ("(assume (nope) x)", r"line 1, col 1: \(assume expr\)"),
        ("(define (d p) (nope) x) (goal false)",
         r"line 1, col 1: \(define \(d x1 \.\. xn\) body\)"),
        ("(goal (=> (nope) false false))",
         r"line 1, col 7: \(=> \.\.\.\) takes 2 argument\(s\), got 3"),
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


# Texts for the tokenizer oracle: parentheses, comments, atoms (heads of
# forms among them) and the harder whitespace: U+001C-U+001F, U+0085,
# U+2028, U+3000, "\r\n" and a lone "\r".  U+200B and U+FEFF are not
# whitespace, so they stay inside atoms.
TOKENIZER_PIECES = ["(", ")", "(", ")", "; c (", ";", "\n", " ", "a", "v'",
                    "12", "goal", "mlseq", "model", "universe", "\u200b",
                    "\ufeff", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
                    "\u2028", "\u3000", "\r\n", "\r"]
tokenizer_texts = st.lists(st.sampled_from(TOKENIZER_PIECES),
                           max_size=40).map("".join)


def _regex_tokens(text):
    """(token, line, column) of each parenthesis and atom of text, as the
    regex reader of the reference front end (`read_sexprs`) scans it."""
    out, line, newline = [], 1, -1
    for m in reference._TOKEN.finditer(text):
        tok = m.group()
        if tok == "\n":
            line, newline = line + 1, m.start()
        elif tok[0] != ";":
            out.append((tok, line, m.start() - newline))
    return out


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

    @pytest.mark.parametrize("name,text", [
        ("parse_file", "(declare-op 0 0)\n(goal (= 0 nope))"),
        ("parse_expr", "(and a\n nope)"),
        ("parse_mlseq", "(mlseq (goal (=> p\n true)))"),
        ("parse_model", "(model (universe 0 1)\n (nope))"),
    ])
    def test_a_failing_read_places_its_error_once(self, monkeypatch, name,
                                                  text):
        # The read that tells valid input from invalid places no error; the
        # read that reports the first error places only that one.
        calls = []

        def counted(text, k):
            calls.append(k)
            return _position(text, k)

        monkeypatch.setattr(parser, "_position", counted)
        assert _first_error(FRONT_ENDS[name][0], text).startswith("line 2, ")
        assert len(calls) == 1

    @given(tokenizer_texts)
    @settings(max_examples=150, deadline=None)
    def test_tokens_match_the_regex_reader(self, text):
        want = _regex_tokens(text)
        assert _tokens(text) == [tok for tok, _, _ in want]
        assert [_position(text, k) for k in range(len(want))] \
            == [(line, col) for _, line, col in want]
        # and so every reader's error, line and column included
        _assert_front_ends_agree(text)

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
        ("(f (nope) x)", "line 1, col 1: operator 'f' has arity 1, "
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
        ("(=> (nope) p) q", "col 8: (goal formula)"),
        ("(prime (=> p ()))", "col 27: malformed formula"),
        ("(nabla true)", "col 21: bad atom 'true'"),
    ])
    def test_modal_formula_errors(self, goal, msg):
        text = f"(mlseq (goal {goal}))"
        for parse in FRONT_ENDS["parse_mlseq"]:
            assert _first_error(parse, text) == f"line 1, {msg}"

    MODEL = "(model (universe 0 1) (tt 1) (ff 0) (states s) (R (s s)))"

    @pytest.mark.parametrize("text,msg", [
        # a second top-level form comes after the parentheses and before
        # any error of the model form, even when the model is valid
        (MODEL + " (x)", "model file must contain exactly one (model ...)"),
        (MODEL + " " + MODEL, "model file must contain exactly one "
         "(model ...)"),
        (MODEL + " x", "model file must contain exactly one (model ...)"),
        ("(x) " + MODEL, "model file must contain exactly one (model ...)"),
        (MODEL.replace("(tt 1)", "(tt 1 2)") + " (x)",
         "model file must contain exactly one (model ...)"),
        ("", "model file must contain exactly one (model ...)"),
        (MODEL + ")", "line 1, col 58: unmatched ')'"),
        (MODEL.replace("(tt 1)", "(tt 1 2)") + " (",
         "line 1, col 61: unclosed '('"),
        (MODEL.replace("(tt 1)", "(tt 1 2)"), "line 1, col 23: (tt value)"),
        ("(universe 0 1)",
         "line 1, col 1: model file must start with (model ...)"),
        ("x", "line 1, col 1: expected (model ...)"),
    ])
    def test_model_file_errors(self, text, msg):
        for parse in FRONT_ENDS["parse_model"]:
            assert _first_error(parse, text) == msg


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

    def test_queries_in_any_order_match_the_reference(self):
        # A query caches its answer at the node asked and at each forall,
        # nabla and prime below it, so asking every subterm of a fresh draw
        # in a random order meets cached and uncached nodes at every level
        queries = 0
        for k in range(1500):
            rng = rng_for(47, k)
            env = random_env(rng, with_defs=k % 3 != 0)
            e = random_expr(rng, env, depth=2 + k % 5,
                            binders=("a",) if k % 2 else ())
            subterms = list(walk(e))
            rng.shuffle(subterms)
            for sub in subterms:
                assert free_rigid_vars(sub) == reference_free_rigid_vars(sub)
            queries += len(subterms)
        assert queries > 10_000

    def test_a_wide_body_is_cached_once(self):
        # a nabla over 4,000 conjoined equalities, each on its own rigid
        # variable: a tuple at every node of the (and ...) spine would
        # hold about 4,000^2 names
        n = 4000
        ob = parse_problem(
            "".join(f"(declare-rigid x{i})" for i in range(n))
            + "(declare-op 0 0)(goal (nabla (and "
            + " ".join(f"(= x{i} 0)" for i in range(n)) + ")))")
        tracemalloc.start()
        try:
            coalesce_obligation_fol(ob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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

    def test_scans_each_body_once_per_argument_rigidity(self, monkeypatch):
        # d_i(p) applies d_{i-1} twice, so the expansion of d_k doubles
        # with every level; a scan per application reads 2^(k+1) - 1 bodies
        k = 16
        p = RigidVar("p")
        defs = [Definition("d0", ("p",), Eq(p, OpApp("0")))]
        for i in range(1, k + 1):
            inner = DefApp(f"d{i - 1}", (p,))
            defs.append(Definition(f"d{i}", ("p",), Eq(inner, inner)))
        env = DefinitionEnvironment.build(ops={"0": 0}, rigid=("x",),
                                          definitions=defs)
        looked_up = []
        definition = DefinitionEnvironment.definition
        monkeypatch.setattr(
            DefinitionEnvironment, "definition",
            lambda self, name: looked_up.append(name)
            or definition(self, name))
        assert is_rigid(Eq(DefApp(f"d{k}", (RigidVar("x"),)), OpApp("0")),
                        env)
        assert len(looked_up) <= 2 * k + 2


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


def _keep(e, ctx):
    return None


def _bound_reference(e, bound=frozenset()):
    """(node, names bound above it) for every node of e, in pre-order, by
    recursion over `children`."""
    out = [(e, bound)]
    inner = bound | {e.var} if type(e) is Forall else bound
    for c in children(e):
        out += _bound_reference(c, inner)
    return out


def _without_defapps(e):
    """e with every DefApp replaced by FALSE, by recursion."""
    if type(e) is DefApp:
        return FALSE
    return map_children(e, _without_defapps)


class TestRewrite:
    def test_covers_every_node_kind(self):
        assert len({type(e) for e in NODES}) == 10

    @pytest.mark.parametrize("e", NODES, ids=lambda e: type(e).__name__)
    def test_identity_keeps_the_node(self, e):
        assert rewrite(e, _keep, None) is e

    @pytest.mark.parametrize("e", NODES, ids=lambda e: type(e).__name__)
    def test_visits_exactly_the_children_in_order(self, e):
        seen = []

        # the root's children are walked under "t" and come back as
        # they are, unwalked
        def pre(n, tag):
            if tag is None:
                return "t", None
            seen.append((n, tag))
            return n

        assert rewrite(e, pre, None) is e
        assert seen == [(c, "t") for c in children(e)]

    @pytest.mark.parametrize("e", NODES, ids=lambda e: type(e).__name__)
    def test_hash_is_the_dataclass_field_hash(self, e):
        # The hash a dataclass generates from its compared fields (the
        # mask and the cache are not among them), so set and dict orders
        # stay as they were; a rebuilt equal node hashes equal.
        fields = tuple(getattr(e, f) for f in e.__match_args__)
        assert hash(e) == hash(fields) == hash(e)
        rebuilt = rewrite(e, lambda n, top: (False, None) if top
                          else map_children(n, lambda c: c), True)
        assert rebuilt == e and hash(rebuilt) == hash(e)

    @pytest.mark.parametrize("e", NODES, ids=lambda e: type(e).__name__)
    def test_post_replaces_the_rebuilt_node(self, e):
        # each child c comes back as Nabla(c), and post sees the rebuilt
        # node, not e
        got = rewrite(e, lambda n, top: (False, Prime) if top else Nabla(n),
                      True)
        assert got == Prime(map_children(e, Nabla))

    def test_pre_sees_every_node_in_pre_order_with_its_context(self):
        # the context counts the foralls above a node; a DefApp is
        # replaced whole, so nothing below it is visited
        for seed in range(200):
            rng = rng_for(7, seed)
            e = random_expr(rng, random_env(rng), depth=4)
            seen = []

            def pre(n, depth):
                seen.append((n, depth))
                if type(n) is DefApp:
                    return FALSE
                return (depth + 1, None) if type(n) is Forall else None

            out = rewrite(e, pre, 0)
            want, stack = [], [(e, 0)]
            while stack:
                n, depth = stack.pop()
                want.append((n, depth))
                if type(n) is not DefApp:
                    depth += type(n) is Forall
                    stack.extend((c, depth) for c in reversed(children(n)))
            assert seen == want
            assert out == _without_defapps(e)

    def test_nodes_match_the_recursive_walk(self):
        for seed in range(200):
            rng = rng_for(7, seed)
            e = random_expr(rng, random_env(rng), depth=4)
            assert list(nodes(e)) == _bound_reference(e)


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


DEEP = 5100
X, A, V, ZERO = RigidVar("x"), RigidVar("a"), FlexVar("v"), OpApp("0")
DEEP_ENV = DefinitionEnvironment.build(
    ops={"0": 0, "f": 1, "g": 2}, rigid=("x",), flex=("v",),
    definitions=[Definition("d", ("p",), Nabla(Eq(RigidVar("p"), ZERO)))])


def _deep(leaf, *wraps):
    """leaf under DEEP levels, the i-th from the inside made by
    wraps[i % len(wraps)]."""
    e = leaf
    for i in range(DEEP):
        e = wraps[i % len(wraps)](e)
    return e


def _flat(e):
    """e's nodes in pre-order, each as its kind, its own fields and its
    number of children: compares trees too deep for `==`, which
    recurses."""
    return [(type(n), getattr(n, "name", None), getattr(n, "op", None),
             getattr(n, "var", None), len(children(n))) for n in walk(e)]


def _all_kinds(x, a, leaf):
    """A chain through every inner node kind, with x and a at its side,
    under a forall a."""
    return Forall("a", _deep(
        leaf, lambda e: Implies(V, e), lambda e: Eq(e, a),
        lambda e: OpApp("g", (x, e)), lambda e: DefApp("d", (e,)),
        lambda e: Forall("a", e), Nabla, Prime))


class _Stray(Expression):
    """A node kind no pass knows."""

    __slots__ = ()


class _CountingSlot:
    """A node field's slot that counts how often it is read."""

    def __init__(self, slot):
        self.slot, self.reads = slot, 0

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        self.reads += 1
        return self.slot.__get__(obj, cls)

    def __set__(self, obj, value):
        self.slot.__set__(obj, value)


class TestDepthIndependence:
    """`and_`, `or_`, `rewrite`, `nodes` and the passes and scans built
    on them work at any size under the default recursion limit, and agree
    with their recursive definitions; deep input is read at the default
    limit.  The deep inputs keep clear of the shapes `alpha_key`,
    `is_rigid`, the printers and `==` still recurse on: a deep subterm a
    symbol is interned for, or a deep body whose rigidity is asked."""

    def test_deep_rewrite_and_nodes_at_the_default_limit(self):
        assert sys.getrecursionlimit() <= 1000
        e = _all_kinds(X, A, X)
        assert rewrite(e, _keep, None) is e
        w = RigidVar("w")
        got = rewrite(e, lambda n, c: w if type(n) is RigidVar
                      and n.name == "x" else None, None)
        assert _flat(got) == _flat(_all_kinds(w, A, w))
        seen = list(nodes(e))
        assert len(seen) == len(_flat(e))
        assert all(n is m for (n, _), m in zip(seen, walk(e)))
        assert seen[0][1] == frozenset()
        assert {b for _, b in seen[1:]} == {frozenset({"a"})}
        assert seen[-1] == (A, {"a"})
        assert free_rigid_vars(e) == ("x",)
        assert free_flex_vars(e) == ("v",)
        assert contains_node(e, DefApp) and not contains_node(e, FalseExpr)

    def test_deep_substitute_renames_at_the_default_limit(self):
        # x := a under a forall a: the binder is renamed to a1
        chain = lambda x, a: Forall(a.name, _deep(  # noqa: E731
            x, lambda e: Implies(V, e), lambda e: Eq(e, a),
            lambda e: OpApp("g", (x, e)), lambda e: DefApp("d", (e,)),
            Nabla, Prime))
        got = substitute(chain(X, A), {"x": A})
        assert _flat(got) == _flat(chain(A, RigidVar("a1")))

    def test_deep_expand_definitions_at_the_default_limit(self):
        chain = lambda app: _deep(  # noqa: E731
            V, lambda e: Implies(app, e), lambda e: Forall("a", e),
            lambda e: Eq(OpApp("f", (e,)), A), Prime)
        got = expand_definitions(chain(DefApp("d", (X,))), DEEP_ENV)
        assert _flat(got) == _flat(chain(Nabla(Eq(X, ZERO))))

    def test_deep_definition_scans_at_the_default_limit(self):
        body = lambda leaf: _deep(  # noqa: E731
            leaf, lambda e: Implies(V, e), lambda e: Forall("a", e),
            lambda e: Eq(OpApp("f", (e,)), ZERO), Nabla)
        for leaf, prime in ((V, False), (Prime(V), True)):
            env = DEEP_ENV.extended(
                definitions=[Definition("b", (), body(leaf))])
            assert signature([FALSE], env).prime is prime
        with pytest.raises(FomlError, match="refers to 'e'"):
            DEEP_ENV.extended(
                definitions=[Definition("b", (), body(DefApp("e")))])

    def test_deep_coalesce_fol_at_the_default_limit(self):
        # binders only in the innermost levels, so each symbol's
        # selection of bound variables stays short
        def chain(modal, leaf):
            e = leaf
            for i in range(DEEP):
                e = (Forall("a", e) if i < 1000
                     else Implies(modal, e) if i % 2
                     else Eq(OpApp("f", (e,)), X))
            return e

        table = SymbolTable(DEEP_ENV)
        got = coalesce_fol(chain(Nabla(Eq(X, V)), Prime(Eq(A, V))),
                           DEEP_ENV, table)
        c0, c1 = table.in_order()
        assert (c0.arity, c1.arity) == (0, 1)
        assert _flat(got) == _flat(chain(OpApp(c0.name),
                                         OpApp(c1.name, (A,))))

    def test_deep_rewrite_rigid_box_at_the_default_limit(self):
        # each nabla's body starts with a flexible variable or a nabla,
        # so is_rigid decides it at once
        chain = lambda leaf: _deep(  # noqa: E731
            leaf, lambda e: Forall("a", e), Nabla, lambda e: Implies(V, e))
        got = rewrite_rigid_box(chain(Nabla(Eq(X, ZERO))), DEEP_ENV)
        assert _flat(got) == _flat(chain(
            Implies(not_(Nabla(FALSE)), Eq(X, ZERO))))

    def test_deep_coalesce_ml_at_the_default_limit(self):
        chain = lambda atom: _deep(  # noqa: E731
            V, lambda e: Implies(atom, e), Nabla, Prime)
        table = AtomTable(DEEP_ENV)
        got = coalesce_ml(chain(Eq(X, ZERO)), DEEP_ENV, table)
        (a0,) = table.in_order()
        assert _flat(got) == _flat(chain(FlexVar(a0.name)))

    def test_deep_stratify_at_the_default_limit(self):
        chain = lambda named: _deep(  # noqa: E731
            Eq(X, X), lambda e: Implies(Eq(OpApp("f", (named,)), X), e),
            lambda e: Forall("a", e))
        ir = stratify((), chain(Eq(X, X)), DEEP_ENV)
        (q0,) = ir.defs
        assert q0.params == ("x",)
        assert _flat(ir.goal) == _flat(chain(OpApp(q0.name, (X,))))

    def test_deep_action_passes_at_the_default_limit(self):
        chain = lambda v: _deep(  # noqa: E731
            v, lambda e: Implies(v, e), lambda e: Eq(OpApp("f", (e,)), X),
            lambda e: Forall("a", e))
        dist = distribute_prime(Prime(chain(V)), DEEP_ENV)
        assert _flat(dist) == _flat(chain(Prime(V)))
        got = coalesce_action(dist, PrimedVars(DEEP_ENV))
        assert _flat(got) == _flat(chain(FlexVar("v'")))

    def test_contains_node_matches_the_recursive_scan(self):
        for seed in range(300):
            rng = rng_for(7, seed)
            e = random_expr(rng, random_env(rng), depth=4)
            kinds = _kinds_reference(e)
            for kind in NODE_KINDS:
                assert contains_node(e, kind) == (kind in kinds), (e, kind)
            assert contains_node(e, *NODE_KINDS)

    def test_contains_node_answers_from_the_root_mask(self, monkeypatch):
        def walked(*args):
            raise AssertionError("contains_node walked the tree")

        monkeypatch.setattr(syntax, "nodes", walked)
        monkeypatch.setattr(syntax, "children", walked)
        e = _all_kinds(X, A, FALSE)
        assert contains_node(e, Prime) and contains_node(e, FlexVar, OpApp)
        assert not contains_node(FlexVar("v"), RigidVar, FalseExpr)
        # a node of a kind no pass knows holds every bit, so the answer
        # is an error, at any depth below the root
        with pytest.raises(InternalError):
            contains_node(Forall("a", _deep(_Stray(), Nabla)), Prime)

    def test_kinds_is_the_union_of_the_kinds_nodes_yields(self):
        seen = 0
        for k in range(2000):
            rng = rng_for(31, k)
            env = random_env(rng, with_defs=k % 3 != 0)
            e = random_expr(rng, env, depth=1 + k % 4)
            want = 0
            for n, _ in nodes(e):
                want |= KIND[type(n)]
            assert e.kinds == want, e
            seen |= want
        assert seen == sum(KIND.values())

    def test_substitute_reads_each_forall_a_bounded_number_of_times(
            self, monkeypatch):
        # x := y under n nested foralls with distinct binders: the free
        # variables of every body are cached once per node, where a
        # rescan at every forall read about n^2 / 2 bodies in all
        def chain(leaf, n=600):
            for i in range(n):
                leaf = Forall(f"a{i}", leaf)
            return leaf

        y = RigidVar("y")
        body = _CountingSlot(Forall.__dict__["body"])
        e = chain(Eq(X, X))
        monkeypatch.setattr(Forall, "body", body)
        got = substitute(e, {"x": y})
        monkeypatch.undo()
        assert body.reads <= 6 * 600
        assert _flat(got) == _flat(chain(Eq(y, y)))

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
        assert signature([e], env)[:3] == ({"f": 1}, ("x",), ("v",))

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
        assert signature(exprs, env)[:3] == (ops, rigid, flex)
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


# Names a key quotes by its repr: quotes, a backslash, non-ASCII letters,
# and characters repr escapes.
KEY_NAMES = st.text(alphabet="xy'\"\\é∀\n\x85\u2028", min_size=1,
                    max_size=3)


def _key_exprs(children):
    names = KEY_NAMES
    return st.one_of(
        st.builds(Implies, children, children),
        st.builds(Eq, children, children),
        st.builds(Forall, names, children),
        st.builds(Nabla, children),
        st.builds(Prime, children),
        st.builds(OpApp, names, st.lists(children, max_size=3).map(tuple)),
        st.builds(DefApp, names, st.lists(children, max_size=3).map(tuple)))


key_exprs = st.recursive(
    st.one_of(st.builds(RigidVar, KEY_NAMES), st.builds(FlexVar, KEY_NAMES),
              st.just(FALSE), st.builds(OpApp, KEY_NAMES)),
    _key_exprs, max_leaves=12)


class TestAlphaKeyText:
    @given(key_exprs, st.lists(KEY_NAMES, max_size=3).map(tuple))
    @settings(max_examples=300, deadline=None)
    def test_key_is_the_repr_of_the_reference_key(self, e, binders):
        assert alpha_key(e, binders) == repr(reference_alpha_key(e, binders))

    def test_deep_keys_and_prints_need_no_recursion(self):
        # 20,000 levels at Python's default limit: the renderers keep their
        # own stack, and an interner compares and hashes the key text.
        def chain():
            e = Eq(RigidVar("y"), RigidVar("x"))
            for _ in range(10_000):
                e = Nabla(Forall("y", e))
            return e

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            a, b = chain(), chain()
            key = alpha_key(a, ("x",))
            assert key == ("('nabla', ('all', " * 10_000
                           + "('eq', ('b', 0), ('b', 10000))" + "))" * 10_000)
            assert print_expr(a) == ("(nabla (forall y " * 10_000
                                     + "(= y x)" + "))" * 10_000)
            table = Interner("c", DefinitionEnvironment.build())
            first = table.entry(key, lambda name: name)
            assert table.entry(alpha_key(b, ("x",)), lambda name: None) \
                == first
            assert table.in_order() == (first,)
        finally:
            sys.setrecursionlimit(limit)


def _nabla_chain(n):
    e = FlexVar("v")
    for _ in range(n):
        e = Nabla(e)
    return e


class TestRecord:
    """The methods `syntax.Record` gives every record in place of those
    `@dataclass` generated."""

    def test_symbol_keys_name_the_fresh_symbols(self):
        # The keys are text, and a symbol's name digests its key, so these
        # pins fix the names of every translation: a modal key, and
        # definition keys with no, one and two epsilon entries.
        table = coalesce_obligation_fol(parse_problem(
            "(declare-op 0 0) (declare-flex v)"
            " (define (k) (nabla (= v 0))) (define (d p) (nabla (= p 0)))"
            " (define (e p q) (nabla (= p q)))"
            " (goal (forall x (=> (nabla (forall y (= x y)))"
            " (=> k (=> (d (= x v)) (e 0 (= x v)))))))")).table
        assert {key: e.name for key, e in table.entries.items()} == {
            "ModalKey(kind='nabla', nvars=1, body=('nabla', ('all', ('eq',"
            " ('b', 1), ('b', 0)))))": "c0__ab8b0841",
            "DefKey(op='k', nvars=0, entries=())": "c1__01411de8",
            "DefKey(op='d', nvars=1, entries=(('eq', ('b', 0),"
            " ('v', 'v')),))": "c2__baf4a501",
            "DefKey(op='e', nvars=1, entries=(('star',), ('eq', ('b', 0),"
            " ('v', 'v'))))": "c3__6bb0c0ec",
        }
        for key, e in table.entries.items():
            assert e.name.endswith(hashlib.blake2b(
                key.encode(), digest_size=4).hexdigest())

    def test_records_of_different_classes_differ(self):
        assert OpApp("f", ()) != DefApp("f", ())
        assert Nabla(FALSE) != Prime(FALSE)
        assert RigidVar("x") != FlexVar("x")
        assert SearchBounds(3, 2) != (3, 2, 2_000_000)

    def test_equal_records_hash_equal(self):
        for make in (lambda: Definition("d", ("x",), Nabla(RigidVar("x"))),
                     lambda: DefApp("d", (FALSE, RigidVar("x"))),
                     lambda: SearchBounds(3, 2),
                     lambda: Forall("a", OpApp("f", (RigidVar("a"),))),
                     FalseExpr):
            a, b = make(), make()
            assert a is not b and a == b and hash(a) == hash(b)
            assert hash(a) == hash(tuple(
                getattr(a, name) for name in a.__match_args__))

    def test_deep_chains_within_the_cli_limit(self):
        # `main` allows RECURSION_LIMIT frames above its caller.  The
        # dataclass methods reached 665 (==), 997 (hash) and 664 (repr)
        # nested nablas there; a record takes no more per level, and its
        # repr, one frame per level, reaches as far as its hash.
        limit, depth, frame = sys.getrecursionlimit(), 0, sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        sys.setrecursionlimit(depth + RECURSION_LIMIT)
        try:
            a, b = _nabla_chain(650), _nabla_chain(650)
            assert a == b and not a != b
            a, b = _nabla_chain(980), _nabla_chain(980)
            assert hash(a) == hash(b)
            assert repr(a) == repr(b) == (
                "Nabla(body=" * 980 + "FlexVar(name='v')" + ")" * 980)
        finally:
            sys.setrecursionlimit(limit)
