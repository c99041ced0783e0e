import functools
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from foml import parse_problem
from foml.coalesce import build_witness_structure, coalesce_obligation_fol
from foml.emit import (
    _SMT_RESERVED,
    emit_mlseq,
    emit_smt,
    emit_tptp,
    encoding_satisfied,
    parse_mlseq,
    run_solver,
    stratify,
)
from foml.gen import (
    random_env,
    random_expr,
    random_ml_sequent,
    random_model,
    rng_for,
)
from foml.prover import MLSequent
from foml.search import enumerate_fol_structures
from foml.semantics import eval_fol
from foml.syntax import (
    DefinitionEnvironment,
    Eq,
    FlexVar,
    Nabla,
    Obligation,
    OpApp,
    RigidVar,
)

sys.path.insert(0, str(Path(__file__).parent))
from reference_smt import smt_holds, use_order  # noqa: E402
from reference_tptp import tptp_holds  # noqa: E402


def coalesced_ir(text):
    ob = parse_problem(text)
    res = coalesce_obligation_fol(ob)
    return stratify(res.hypotheses, res.goal, res.env)


BOX = ("(declare-op 0 0) (declare-flex v)"
       "(goal (=> (= v 0) (nabla (= v 0))))")
CST_VALID = ("(define (cst x) (exists y (nabla (= x y))))"
             "(goal (forall a (forall b"
             "  (=> (= a b) (iff (cst a) (cst b))))))")


def structures(ir, max_universe=2):
    """Every structure over the symbols of `ir` that its definitional
    axioms do not pin."""
    ops = {op: n for op, n in ir.ops.items()
           if not any(d.name == op for d in ir.defs)}
    return enumerate_fol_structures(ops, ir.consts, max_universe)


def ir_not_valid(ir, max_universe=2) -> bool:
    """Bounded satisfiability of the emitted encoding: a satisfying
    structure means the sequent is not valid."""
    return any(encoding_satisfied(s, ir)
               for s in structures(ir, max_universe))


class TestVerdictsThroughEncodings:
    def test_box_example_is_counter_satisfiable(self):
        assert ir_not_valid(coalesced_ir(BOX))

    def test_true_goal_is_unsatisfiable(self):
        assert not ir_not_valid(coalesced_ir("(goal true)"))

    def test_cst_star_case_is_valid(self):
        assert not ir_not_valid(coalesced_ir(CST_VALID))

    def test_free_symbol_is_not_captured_by_a_binder(self):
        # SMT binders are spelled bv<depth>; a free variable named bv0
        # must not keep its name, or the binder captures it and the
        # emitted script turns unsatisfiable although the goal is invalid.
        ir = coalesced_ir("(declare-op 0 0) (declare-flex bv0)"
                          "(goal (forall a (= a bv0)))")
        assert ir_not_valid(ir)
        text = emit_smt(ir)
        assert "(declare-const bv0_1 U)" in text
        assert "(assert (not (forall ((bv0 U)) (= bv0 bv0_1))))" in text


@functools.cache
def soundness_draws():
    """200 seeded coalesced sequents, each with its IR and the witness
    structure of a random model at a random state."""
    out = []
    for i in range(200):
        rng = rng_for(91, i)
        env = random_env(rng)
        hyp = random_expr(rng, env, depth=2)
        goal = random_expr(rng, env, depth=3)
        res = coalesce_obligation_fol(Obligation((hyp,), goal, env, "fol"))
        ir = stratify(res.hypotheses, res.goal, res.env)
        m = random_model(rng, env, need_prime=True)
        w = rng.choice(m.states)
        out.append((res, ir, build_witness_structure(m, w, res.table, env)))
    return out


# Two nested binders that the body uses: a printer that spelled both
# alike would capture the outer one.
NESTED_BINDERS = (
    "(goal (forall a (forall b (= a b))))",
    "(declare-op f 2) (goal (forall a (forall b (= (f a b) (f b a)))))",
)


@functools.cache
def binder_cases():
    """{goal: (its IR, every structure over two values)} for each goal
    of `NESTED_BINDERS`."""
    return {text: (ir, list(structures(ir)))
            for text, ir in ((t, coalesced_ir(t)) for t in NESTED_BINDERS)}


class TestBoolificationSoundness:
    def test_encoding_matches_direct_evaluation(self):
        # on random coalesced sequents and random structures, the emitted
        # encoding is satisfied exactly when the negated sequent holds
        # under direct evaluation
        for res, ir, s in soundness_draws():
            want = (all(eval_fol(s, h) == s.tt for h in res.hypotheses)
                    and eval_fol(s, res.goal) != s.tt)
            assert encoding_satisfied(s, ir) == want

    def test_smt_text_holds_iff_the_encoding_does(self):
        # the printed script, read back apart from emit, says what the IR
        # says: a misprinted term, binder or axiom changes some verdict
        for _, ir, s in soundness_draws():
            text = emit_smt(ir)
            assert (smt_holds(text, s, [*ir.ops, *ir.consts])
                    == encoding_satisfied(s, ir)), text

    @pytest.mark.parametrize("goal", NESTED_BINDERS)
    def test_smt_text_keeps_nested_binders_apart(self, goal):
        # on every structure over two values, the printed goal says what
        # the IR does: (= a b) fails on the one structure, and f(a, b) =
        # f(b, a) on the eight tables that are not symmetric
        ir, found = binder_cases()[goal]
        assert len(found) == (1 if "declare-op" not in goal else 16)
        text = emit_smt(ir)
        for s in found:
            assert (smt_holds(text, s, [*ir.ops, *ir.consts])
                    == encoding_satisfied(s, ir)), text

    def test_tptp_text_gives_the_smt_texts_verdict(self):
        # the TPTP problem, read back apart from emit and from the SMT
        # reader's parser, holds exactly where the SMT script does
        cases = [(ir, s) for _, ir, s in soundness_draws()]
        cases += [(ir, s) for ir, found in binder_cases().values()
                  for s in found]
        verdicts = set()
        for ir, s in cases:
            smt, tptp = emit_smt(ir), emit_tptp(ir)
            names = [*ir.ops, *ir.consts]
            verdict = smt_holds(smt, s, names)
            assert tptp_holds(tptp, s, use_order(smt, names)) == verdict, \
                tptp
            verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_term_position_formulas_are_named(self):
        env = DefinitionEnvironment.build(
            ops={"f": 1}, rigid=("x", "y"))
        e = OpApp("f", (Eq(RigidVar("x"), RigidVar("y")),))
        ir = stratify((), e, env)
        assert len(ir.defs) == 1
        d = ir.defs[0]
        assert d.params == ("x", "y")
        # the goal now applies the definitional symbol
        assert ir.goal == OpApp("f", (OpApp(
            d.name, (RigidVar("x"), RigidVar("y"))),))
        # and the two emitted texts both mention its axioms
        assert d.name in emit_smt(ir)
        assert "def_0" in emit_tptp(ir)

    def test_shared_term_position_formulas_share_one_symbol(self):
        env = DefinitionEnvironment.build(ops={"f": 1}, rigid=("x",))
        sub = Eq(RigidVar("x"), RigidVar("x"))
        e = Eq(OpApp("f", (sub,)), OpApp("f", (sub,)))
        ir = stratify((), e, env)
        assert len(ir.defs) == 1


class TestDeterminism:
    def test_byte_identical_output(self):
        ir1 = coalesced_ir(BOX)
        ir2 = coalesced_ir(BOX)
        assert emit_smt(ir1) == emit_smt(ir2)
        assert emit_tptp(ir1) == emit_tptp(ir2)

    def test_smt_symbols_sanitized(self):
        text = emit_smt(coalesced_ir(BOX))
        assert "(declare-fun s_0 () U)" in text
        assert "(check-sat)" in text

    def test_tptp_wellformed_names(self):
        text = emit_tptp(coalesced_ir(BOX))
        assert "fof(goal, conjecture," in text
        assert "tt != ff" in text


class TestSmtNames:
    # SMT-LIB 2.6 reserved words and command names that the problem syntax
    # accepts as names
    NAMES = ("! _ as BINARY DECIMAL HEXADECIMAL NUMERAL STRING match let "
             "par push pop exit echo reset assert check-sat define-fun "
             "declare-fun declare-const get-model get-value set-option "
             "set-logic xor distinct ite U tt ff").split()

    def test_declared_names_avoid_reserved_words(self):
        # each name in turn as a constant, a unary operator, a rigid and a
        # flexible variable
        kinds = ("op0", "op1", "rigid", "flex")
        decls, uses = [], []
        for i, name in enumerate(self.NAMES):
            kind = kinds[i % 4]
            if kind == "op0":
                decls.append(f"(declare-op {name} 0)")
                uses.append(f"(= {name} {name})")
            elif kind == "op1":
                decls.append(f"(declare-op {name} 1)")
                uses.append(f"(= ({name} z) z)")
            else:
                decls.append(f"(declare-{kind} {name})")
                uses.append(f"(= {name} z)")
        text = (" ".join(decls) + " (declare-rigid z)"
                f" (goal (and {' '.join(uses)}))")
        out = emit_smt(coalesced_ir(text))
        declared = re.findall(r"^\(declare-(?:fun|const) (\S+)", out,
                              re.MULTILINE)
        # tt, ff, z and one symbol per name
        assert len(declared) == len(self.NAMES) + 3
        assert len(set(declared)) == len(declared)
        assert set(declared[2:]).isdisjoint(
            _SMT_RESERVED | set(self.NAMES))
        assert "as_1" in declared


class TestMlseqRoundTrip:
    def test_fixed_example(self):
        seq = MLSequent(
            (FlexVar("a"),), Nabla(FlexVar("a")), "k", "t")
        text = emit_mlseq(seq)
        assert parse_mlseq(text) == seq
        assert emit_mlseq(parse_mlseq(text)) == text

    def test_empty_hypotheses_block(self):
        seq = MLSequent((), FlexVar("a"))
        assert "(global-hypotheses)" in emit_mlseq(seq)
        assert parse_mlseq(emit_mlseq(seq)) == seq

    def test_stability_sequent_round_trips(self):
        from foml.coalesce_ml import coalesce_obligation_ml

        ob = parse_problem(
            "(declare-rigid x) (declare-rigid y)"
            "(goal (=> (and (= x y) (nabla (delta true)))"
            "          (nabla (delta (= x y)))))")
        res = coalesce_obligation_ml(ob)
        seq = MLSequent(res.hypotheses + res.stability, res.goal)
        assert parse_mlseq(emit_mlseq(seq)) == seq

    def test_thousand_random_sequents(self):
        for i in range(1000):
            rng = rng_for(92, i)
            seq = random_ml_sequent(rng)
            text = emit_mlseq(seq)
            back = parse_mlseq(text)
            assert back == seq
            assert emit_mlseq(back) == text


class TestExternalSolver:
    def test_missing_solver_is_unknown_not_crash(self):
        out = run_solver("/nonexistent/solver", "(check-sat)", "smt")
        assert out == "unknown"

    def test_runs_leave_no_temp_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert run_solver("/nonexistent/solver", "(check-sat)",
                          "smt") == "unknown"
        # the interpreter as a "solver" that reads the file and answers
        assert run_solver(sys.executable, 'print("unsat")',
                          "smt") == "valid"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("status, verdict", [
        ("Theorem", "valid"), ("Unsatisfiable", "valid"),
        ("CounterSatisfiable", "not-valid"), ("Satisfiable", "not-valid"),
        ("CounterTheorem", "not-valid"), ("GaveUp", "unknown")])
    def test_tptp_verdict_is_the_szs_status_word(self, status, verdict):
        # the interpreter as a TPTP prover that answers with this status;
        # the word is read whole, so CounterTheorem is not a Theorem
        text = f'print("% SZS status {status} for problem")'
        assert run_solver(sys.executable, text, "tptp") == verdict

    @pytest.mark.skipif(shutil.which("z3") is None,
                        reason="no external solver installed")
    def test_z3_agrees_when_present(self):
        assert run_solver("z3", emit_smt(coalesced_ir(BOX)),
                          "smt") == "not-valid"
        assert run_solver("z3", emit_smt(coalesced_ir(CST_VALID)),
                          "smt") == "valid"
