import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from foml import cli
from foml.cli import main
from foml.emit import emit_mlseq, parse_mlseq
from foml.gen import (
    CHECKS,
    random_ml_formula,
    random_ml_sequent,
    random_model,
)
from foml.models import KripkeModel, parse_model, serialize_model
from foml.parser import parse_problem
from foml.prover import FRAMES, MLSequent
from foml.semantics import eval_ml

sys.path.insert(0, str(Path(__file__).parent))
from cli_digest import COMMAND_LINES, command_lines  # noqa: E402
from rebuild import rebuild  # noqa: E402

BOX = ("(declare-op 0 0)\n(declare-flex v)\n"
       "(goal (=> (= v 0) (nabla (= v 0))))\n")

SWAP = """(declare-op 0 0)
(declare-flex x) (declare-flex y)
(init (and (= x 0) (= y 0)))
(next (and (= (prime x) y) (= (prime y) x)))
(invariant (= y x))
(inductive-invariant (= x y))
"""

SEQ = "(mlseq (global-hypotheses a) (goal (nabla a)))"


@pytest.fixture
def box_file(tmp_path):
    path = tmp_path / "box.foml"
    path.write_text(BOX)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSubcommands:
    def test_coalesce_fol(self, capsys, box_file):
        code, out, _ = run(capsys, "coalesce-fol", box_file)
        assert code == 0
        assert "(goal (=> (= v 0) c0__" in out
        assert "(symbols" in out

    def test_coalesce_ml(self, capsys, box_file):
        code, out, _ = run(capsys, "coalesce-ml", box_file)
        assert code == 0
        assert "(atoms" in out
        assert "(hypotheses)" in out

    def test_prove_ml_countermodel_exit_code(self, capsys, box_file):
        code, out, _ = run(capsys, "prove-ml", box_file)
        assert code == 1
        assert "countermodel" in out
        assert "(model" in out

    def test_prove_ml_proved(self, capsys, tmp_path):
        path = tmp_path / "seq.mlseq"
        path.write_text("(mlseq (frame nabla k) (frame prime k)"
                        " (global-hypotheses a) (goal (nabla a)))")
        code, out, _ = run(capsys, "prove-ml", str(path))
        assert code == 0
        assert out.strip() == "proved"

    def test_prove_ml_frame_flag_overrides(self, capsys, tmp_path):
        path = tmp_path / "t.mlseq"
        path.write_text("(mlseq (global-hypotheses)"
                        " (goal (=> (nabla a) a)))")
        assert run(capsys, "prove-ml", str(path))[0] == 1
        assert run(capsys, "prove-ml", str(path), "--frame=t")[0] == 0

    @pytest.mark.parametrize("text", [
        "; written by hand\n\n" + SEQ + "\n",
        "; (goal false) is a comment, not a form\n" + SEQ,
        "(; the head comes after this comment\n" + SEQ[1:],
    ])
    def test_mlseq_after_a_comment(self, capsys, tmp_path, text):
        # the head of the first form, not the first characters, tells an
        # mlseq file from a problem file
        path = tmp_path / "commented.mlseq"
        path.write_text(text)
        assert run(capsys, "prove-ml", str(path)) == (0, "proved\n", "")
        code, out, err = run(capsys, "emit", str(path), "--emit=mlseq")
        assert (code, err) == (0, "")
        assert out == emit_mlseq(parse_mlseq(SEQ))

    def test_problem_after_an_mlseq_comment(self, capsys, tmp_path):
        path = tmp_path / "commented.foml"
        path.write_text("; (mlseq (goal p))\n" + BOX)
        code, out, err = run(capsys, "prove-ml", str(path))
        assert (code, err) == (1, "")
        assert out.startswith("countermodel")

    @pytest.mark.parametrize("section, text", [
        ("global-hypotheses",
         "(mlseq (global-hypotheses p) (global-hypotheses q) (goal p))"),
        ("goal", "(mlseq (global-hypotheses p) (goal q) (goal p))"),
        ("frame nabla",
         "(mlseq (frame nabla t) (frame nabla k) (goal (=> (nabla p) p)))"),
        ("frame prime",
         "(mlseq (frame prime t) (frame prime k) (goal (=> (prime p) p)))"),
    ])
    def test_prove_ml_rejects_a_repeated_section(self, capsys, tmp_path,
                                                 section, text):
        # a second section must not silently replace the first
        path = tmp_path / "twice.mlseq"
        path.write_text(text)
        code, out, err = run(capsys, "prove-ml", str(path))
        assert code == 65
        assert out == ""
        assert f"duplicate ({section} ...) section" in err

    def test_leibniz(self, capsys, tmp_path):
        path = tmp_path / "defs.foml"
        path.write_text(
            "(define (cst x) (exists y (nabla (= x y))))\n"
            "(define (id x) x)\n(goal false)\n")
        code, out, _ = run(capsys, "leibniz", str(path))
        assert code == 0
        assert out.splitlines() == ["cst: N", "id: L"]

    def test_action(self, capsys, tmp_path):
        path = tmp_path / "act.foml"
        path.write_text("(declare-op 0 0) (declare-flex v)"
                        "(goal (= (prime v) 0)) (mode action)")
        code, out, _ = run(capsys, "action", str(path))
        assert code == 0
        assert "(declare-flex v')" in out
        assert "(goal (= v' 0))" in out

    def test_safety_writes_files(self, capsys, tmp_path):
        path = tmp_path / "swap.foml"
        path.write_text(SWAP)
        outdir = tmp_path / "out"
        code, out, _ = run(capsys, "safety", str(path),
                           "--out", str(outdir))
        assert code == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["swap-glue.mlseq", "swap-ob1.foml",
                         "swap-ob2.foml", "swap-ob3.foml"]
        # the written obligations re-parse
        from foml.parser import parse_problem

        for n in names:
            if n.endswith(".foml"):
                parse_problem((outdir / n).read_text())

    def test_solver_with_mlseq_is_a_usage_error(self, capsys, tmp_path,
                                                box_file):
        # rejected before the input is read or any output is written
        target = tmp_path / "x.mlseq"
        for file in (box_file, str(tmp_path / "missing.foml")):
            for extra in ((), ("-o", str(target))):
                code, out, err = run(capsys, "emit", file, "--emit=mlseq",
                                     "--solver", "z3", *extra)
                assert code == 64 and out == ""
                assert "--solver only applies to smt/tptp output" in err
                assert not target.exists()

    def test_unwritable_emit_output_is_65(self, capsys, tmp_path, box_file):
        target = tmp_path / "missing" / "x.smt2"
        code, out, err = run(capsys, "emit", box_file, "-o", str(target))
        assert code == 65 and out == ""
        assert err.startswith(f"foml: cannot write {target}: ")

    def test_unwritable_safety_output_is_65(self, capsys, tmp_path):
        path = tmp_path / "swap.foml"
        path.write_text(SWAP)
        # --out names a file, not a directory
        code, out, err = run(capsys, "safety", str(path), "--out", str(path))
        assert code == 65 and out == ""
        assert err.startswith(f"foml: cannot write {path}: ")
        # a directory stands where the glue sequent goes
        outdir = tmp_path / "out"
        (outdir / "swap-glue.mlseq").mkdir(parents=True)
        code, out, err = run(capsys, "safety", str(path),
                             "--out", str(outdir))
        assert code == 65
        assert len(out.splitlines()) == 3
        assert err.startswith(
            f"foml: cannot write {outdir / 'swap-glue.mlseq'}: ")

    def test_check_model_satisfied_and_refuted(self, capsys, tmp_path,
                                               box_file):
        good = tmp_path / "good.model"
        good.write_text(
            "(model (universe 0 1) (tt 0) (ff 1)"
            " (op 0 (row 1)) (states s0) (R (s0 s0))"
            " (zeta (v s0 0)))")
        code, out, _ = run(capsys, "check-model", str(good), box_file)
        assert code == 0
        assert "satisfied at every state" in out

        bad = tmp_path / "bad.model"
        bad.write_text(
            "(model (universe 0 1) (tt 0) (ff 1)"
            " (op 0 (row 0)) (states s0 s1) (R (s0 s1))"
            " (zeta (v s0 0) (v s1 1)))")
        code, out, _ = run(capsys, "check-model", str(bad), box_file)
        assert code == 1
        assert "fails at state s0" in out

    def test_check_model_vacuous_when_hypothesis_fails(self, capsys,
                                                       tmp_path):
        prob = tmp_path / "vac.foml"
        prob.write_text("(declare-op p 0) (assume (nabla p)) (goal p)")
        model = tmp_path / "vac.model"
        model.write_text(
            "(model (universe 0 1) (tt 0) (ff 1) (op p (row 1))"
            " (states s0 s1) (R (s0 s1)))")
        code, out, _ = run(capsys, "check-model", str(model), str(prob))
        assert code == 0
        assert "vacuously" in out

    @pytest.mark.parametrize("section,stray", [
        ("(R (s0 s0) (s0 s7))", "R names undeclared state 's7'"),
        ("(R (s0 s0)) (primeR (s0 s0) (s9 s0))",
         "primeR names undeclared state 's9'"),
        ("(R (s0 s0)) (zeta (v s0 0) (v s5 1))",
         "zeta names undeclared state 's5'"),
    ])
    def test_check_model_rejects_undeclared_states(self, capsys, tmp_path,
                                                   box_file, section,
                                                   stray):
        model = tmp_path / "stray.model"
        model.write_text(
            "(model (universe 0 1) (tt 0) (ff 1) (op 0 (row 1))"
            f" (states s0) {section})")
        code, out, err = run(capsys, "check-model", str(model), box_file)
        assert code == 65
        assert out == ""
        assert err.count("\n") == 1 and stray in err

    @pytest.mark.parametrize("section,message", [
        ("(xi (x 7)) (zeta (v s0 0))",
         "xi gives x the value 7, outside the universe"),
        ("(zeta (v s0 7))",
         "zeta gives v at state s0 the value 7, outside the universe"),
    ])
    def test_check_model_rejects_values_outside_universe(
            self, capsys, tmp_path, box_file, section, message):
        # The stray 7 reads as not tt, so unless validation rejects it the
        # model passes as satisfying the box obligation.
        model = tmp_path / "stray.model"
        model.write_text(
            "(model (universe 0 1) (tt 0) (ff 1) (op 0 (row 0))"
            f" (states s0) (R (s0 s0)) {section})")
        code, out, err = run(capsys, "check-model", str(model), box_file)
        assert code == 65
        assert out == ""
        assert err.count("\n") == 1 and message in err

    HEAD = "(model (universe 0 1) (tt 0) (ff 1)"

    @pytest.mark.parametrize("sections, message", [
        ("(universe 0 1) (states s0) (R)", "duplicate (universe ...)"),
        ("(tt 0) (states s0) (R)", "duplicate (tt ...)"),
        ("(ff 1) (states s0) (R)", "duplicate (ff ...)"),
        ("(states s0) (states s0 s1) (R)", "duplicate (states ...)"),
        ("(states s0 s1) (R (s0 s1)) (R)", "duplicate (R ...)"),
        ("(states s0) (R) (primeR (s0 s0)) (primeR)",
         "duplicate (primeR ...)"),
        ("(xi (x 0)) (xi (y 1)) (states s0) (R)", "duplicate (xi ...)"),
        ("(states s0) (R) (zeta (v s0 0)) (zeta (w s0 0))",
         "duplicate (zeta ...)"),
        ("(op c (row 0)) (op c (row 1)) (states s0) (R)",
         "duplicate (op c ...) section"),
        ("(op f (row 0 0) (row 1 1) (row 0 1)) (states s0) (R)",
         "duplicate (op f (row 0 ...)) row"),
        ("(xi (x 0) (x 1)) (states s0) (R)", "duplicate (xi (x ...)) row"),
        ("(states s0) (R) (zeta (v s0 0) (v s0 1))",
         "duplicate (zeta (v s0 ...)) row"),
    ])
    def test_check_model_rejects_a_repeated_section_or_row(
            self, capsys, tmp_path, box_file, sections, message):
        # a repeated section or row must not silently replace the first
        model = tmp_path / "twice.model"
        model.write_text(f"{self.HEAD} {sections})")
        code, out, err = run(capsys, "check-model", str(model), box_file)
        assert code == 65
        assert out == ""
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("model, message", [
        # 1 counted twice made the two-row table look short of three rows
        ("(model (universe 0 1 1) (tt 0) (ff 1) (op f (row 0 0) (row 1 1))"
         " (states s0) (R))", "(universe ...) lists 1 twice"),
        ("(model (universe 0 1) (tt 0) (ff 1) (states 0 0) (R))",
         "(states ...) lists 0 twice"),
        # 01 is read as written, not as the state 1
        ("(model (universe 0 1) (tt 0) (ff 1) (states 1 01 01) (R))",
         "(states ...) lists 01 twice"),
    ])
    def test_check_model_rejects_a_repeated_value(
            self, capsys, tmp_path, box_file, model, message):
        path = tmp_path / "repeat.model"
        path.write_text(model)
        code, out, err = run(capsys, "check-model", str(path), box_file)
        assert code == 65
        assert out == ""
        assert err.count("\n") == 1 and message in err

    def test_check_model_first_relation_is_not_overridden(self, capsys,
                                                          tmp_path):
        # with R = {(0, 1)}, nabla false fails at state 0; a second (R)
        # used to replace it and make the goal hold everywhere
        model = tmp_path / "twice.model"
        model.write_text("(model (universe tt ff) (tt tt) (ff ff)"
                         " (states 0 1) (R (0 1)) (R) (zeta))")
        prob = tmp_path / "nf.foml"
        prob.write_text("(declare-flex p) (goal (nabla false))")
        code, out, err = run(capsys, "check-model", str(model), str(prob))
        assert (code, out) == (65, "")
        assert "line 1, col 64: duplicate (R ...) section" in err

    @pytest.mark.parametrize("section, message", [
        ("(tt)", "line 1, col 8: (tt value)"),
        ("(ff)", "line 1, col 8: (ff value)"),
        ("(op)", "line 1, col 8: (op name (row args.. value) ...)"),
        ("(xi (x))", "line 1, col 12: (xi (x value) ...)"),
    ])
    def test_check_model_rejects_short_sections(self, capsys, tmp_path,
                                                box_file, section, message):
        # these used to exit 70 with an IndexError
        model = tmp_path / "short.model"
        model.write_text(f"(model {section} (universe 0 1) (states s0) (R))")
        code, out, err = run(capsys, "check-model", str(model), box_file)
        assert code == 65
        assert out == ""
        assert err.count("\n") == 1 and message in err

    def test_serialized_operator_tables_parse_back(self):
        from foml.models import serialize_model

        text = (f"{self.HEAD} (op 0 (row 0)) (op f (row 0 1) (row 1 0))"
                " (xi (x 0) (y 1)) (states s0 s1) (R (s0 s1))"
                " (zeta (v s0 0) (v s1 1)))")
        m = parse_model(text)
        assert parse_model(serialize_model(m)) == m

    def test_fuzz(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--seed", "1",
                           "--iters", "50")
        assert code == 0
        assert "50 iterations, 0 discrepancies" in out

    def test_emit_formats(self, capsys, box_file, tmp_path):
        code, out, _ = run(capsys, "emit", box_file, "--emit=smt")
        assert code == 0 and "(check-sat)" in out
        code, out, _ = run(capsys, "emit", box_file, "--emit=tptp")
        assert code == 0 and "conjecture" in out
        target = tmp_path / "ob.mlseq"
        code, out, _ = run(capsys, "emit", box_file, "--emit=mlseq",
                           "-o", str(target))
        assert code == 0
        from foml.emit import parse_mlseq

        parse_mlseq(target.read_text())

    def test_rewrite_rigid_box_flag(self, capsys, tmp_path):
        path = tmp_path / "rigid.foml"
        path.write_text("(declare-rigid x) (declare-rigid y)"
                        "(goal (=> (= x y) (nabla (= x y))))")
        code, out, _ = run(capsys, "coalesce-fol", str(path),
                           "--rewrite-rigid-box=reflexive")
        assert code == 0
        assert "(goal (=> (= x y) (= x y)))" in out
        code, out, _ = run(capsys, "coalesce-fol", str(path),
                           "--rewrite-rigid-box")
        goal_line = next(l for l in out.splitlines()
                         if l.startswith("(goal"))
        assert "nabla" not in goal_line  # deadlock disjunct coalesced
        assert "(lambda () (nabla false))" in out


class TestDeterminism:
    def test_identical_runs_identical_output(self, capsys, box_file):
        one = run(capsys, "coalesce-fol", box_file)
        two = run(capsys, "coalesce-fol", box_file)
        assert one == two
        one = run(capsys, "fuzz", "--seed", "9", "--iters", "30")
        two = run(capsys, "fuzz", "--seed", "9", "--iters", "30")
        assert one == two


class TestRepeatedCalls:
    """`main` reuses one argument parser per process; no call leaves state
    that changes what a later call prints."""

    @staticmethod
    def first(capsys, *argv):
        # What the call prints on a freshly built parser.
        cli._parser.cache_clear()
        return run(capsys, *argv)

    @staticmethod
    def exits(capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    def test_parser_is_built_once(self, capsys, box_file):
        run(capsys, "coalesce-ml", box_file)
        parser = cli._parser()
        run(capsys, "emit", box_file, "--emit=tptp")
        assert cli._parser() is parser

    def test_frame_flag_does_not_carry_over(self, capsys, tmp_path):
        path = tmp_path / "four.mlseq"
        path.write_text("(mlseq (global-hypotheses)"
                        " (goal (=> (nabla a) (nabla (nabla a)))))")
        plain = self.first(capsys, "prove-ml", str(path))
        assert plain[0] == 1
        assert run(capsys, "prove-ml", "--frame", "k4", str(path)) == (
            0, "proved\n", "")
        assert run(capsys, "prove-ml", str(path)) == plain

    def test_emit_format_does_not_carry_over(self, capsys, box_file):
        plain = self.first(capsys, "emit", box_file)
        assert "(check-sat)" in plain[1]
        assert "conjecture" in run(capsys, "emit", "--emit", "tptp",
                                   box_file)[1]
        assert run(capsys, "emit", box_file) == plain

    @pytest.mark.parametrize("argv,code", [
        (("fuzz", "--bounds", "3"), 64),
        # a model needs tt, ff and a state
        (("fuzz", "--bounds", "1,3"), 64),
        (("fuzz", "--bounds", "2,0"), 64),
        (("fuzz", "--bounds", "0,0"), 64),
        (("no-such-command",), 64),
        (("emit", "--help"), 0),
    ], ids=["bad-bounds", "bad-bounds-u1", "bad-bounds-s0",
            "bad-bounds-u0-s0", "unknown-command", "help"])
    def test_usage_and_help_after_use(self, capsys, box_file, argv, code):
        cli._parser.cache_clear()
        fresh = self.exits(capsys, *argv)
        assert fresh[0] == code
        assert (fresh[1] + fresh[2]).startswith("usage: foml")
        run(capsys, "fuzz", "--seed", "1", "--iters", "2")
        run(capsys, "coalesce-fol", box_file)
        assert self.exits(capsys, *argv) == fresh


class TestDispatch:
    """A command line that starts with a command is read by that
    command's parser alone; every line prints what reading it with the
    whole parser tree prints."""

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.mark.parametrize("line", COMMAND_LINES)
    def test_main_reads_a_line_as_the_tree_does(self, capsys, tmp_path,
                                                monkeypatch, line):
        argv = command_lines(str(tmp_path))[COMMAND_LINES.index(line)]
        got = self.outcome(capsys, argv)
        monkeypatch.setattr(cli, "_parse", cli._parser().parse_args)
        assert got == self.outcome(capsys, argv)

    @pytest.mark.parametrize("line,tree_reads", [
        ("coalesce-fol {box}", 0),
        ("prove-ml {box} --frame t", 0),
        ("coalesce-fol {box} extra", 1),
    ])
    def test_the_tree_reads_only_what_a_command_cannot(
            self, capsys, tmp_path, monkeypatch, line, tree_reads):
        argv = command_lines(str(tmp_path))[COMMAND_LINES.index(line)]
        parser = cli._parser()
        command = parser.commands[argv[0]]
        reads = {parser: 0, command: 0}
        for reader in reads:
            def counted(*args, reader=reader, parse=reader.parse_known_args):
                reads[reader] += 1
                return parse(*args)
            monkeypatch.setattr(reader, "parse_known_args", counted)
        self.outcome(capsys, argv)
        assert reads == {parser: tree_reads, command: 1 + tree_reads}


class TestExitCodes:
    def test_usage_error_is_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 64

    def test_parse_error_is_65(self, capsys, tmp_path):
        path = tmp_path / "bad.foml"
        path.write_text("(goal (= x))")
        code, _, err = run(capsys, "coalesce-fol", str(path))
        assert code == 65
        assert "line 1" in err

    @pytest.mark.parametrize("argv", [
        ("--checks", "bogus"),
        ("--checks=",),
        ("--checks", "fol-witness,"),
        ("--checks", "fol-witness,bogus"),
        ("--iters", "-1"),
        ("--iters", "x"),
    ])
    def test_bad_fuzz_arguments_are_64(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", *argv])
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == "" and "internal error" not in err
        assert err.startswith("usage: foml fuzz")
        if argv[0].startswith("--checks"):
            for name in CHECKS:
                assert name in err

    def test_every_check_is_accepted(self, capsys):
        assert run(capsys, "fuzz", "--iters", "0",
                   "--checks", ",".join(CHECKS)) == (
            0, "0 iterations, 0 discrepancies\n", "")

    def test_missing_file_is_65(self, capsys):
        code, _, err = run(capsys, "coalesce-fol", "/no/such/file.foml")
        assert code == 65

    @pytest.mark.parametrize("exc", [
        RecursionError("maximum recursion depth exceeded"),
        KeyError("s9"),
    ])
    def test_crash_is_70(self, capsys, box_file, monkeypatch, exc):
        # An exception that escapes a subcommand is a crash.  It must exit
        # 70 with one line, never 1 or 2, which prove-ml uses for verdicts.
        def crash(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "prove_ml", crash)
        code, out, err = run(capsys, "prove-ml", box_file)
        assert code == 70
        assert out == ""
        assert err.startswith("foml: internal error: ")
        assert err.count("\n") == 1

    def test_wide_conjunction_gets_a_verdict(self, capsys, tmp_path):
        # 200 conjoined equalities nest 600 implications deep.  prove-ml
        # used to crash on them and exit 1, the countermodel code.
        eqs = " ".join(f"(= v{i % 4} 0)" for i in range(200))
        path = tmp_path / "wide.foml"
        path.write_text("(declare-op 0 0) "
                        + " ".join(f"(declare-flex v{i})" for i in range(4))
                        + f"\n(goal (and {eqs}))\n")
        limit = sys.getrecursionlimit()
        code, out, err = run(capsys, "prove-ml", str(path))
        assert sys.getrecursionlimit() == limit
        assert code == 1
        assert out.startswith("countermodel (goal fails at state ")
        assert err == ""

    @pytest.mark.parametrize("goal", [
        "(nabla " * 1500 + "v" + ")" * 1500,
        "(and " + " ".join(["v"] * 1500) + ")",
        "(d " * 600 + "v" + ")" * 600,
    ], ids=["nabla-1500", "and-1500", "defapp-600"])
    def test_check_model_reach(self, capsys, tmp_path, goal):
        # check-model gets a verdict on nesting as deep as these: 1,500
        # nested nablas or conjuncts, and 600 nested applications of a
        # definition whose body nests two nablas over its parameter.
        model = tmp_path / "m.model"
        model.write_text("(model (universe 0 1) (tt 0) (ff 1) (states 0 1)"
                         " (R (0 1) (1 0)) (zeta (v 0 0) (v 1 1)))")
        path = tmp_path / "deep.foml"
        path.write_text("(declare-flex v)\n"
                        "(define (d x) (nabla (nabla x)))\n"
                        f"(goal {goal})\n")
        code, out, err = run(capsys, "check-model", str(model), str(path))
        assert code in (0, 1) and err == ""

    @pytest.mark.parametrize("command", [
        ("coalesce-fol", "{bad}"),
        ("coalesce-ml", "{bad}"),
        ("prove-ml", "{bad}"),
        ("emit", "{bad}"),
        ("leibniz", "{bad}"),
        ("safety", "--out", "{out}", "{bad}"),
        ("check-model", "{bad}", "{problem}"),
        ("check-model", "{model}", "{bad}"),
    ], ids=["coalesce-fol", "coalesce-ml", "prove-ml", "emit", "leibniz",
            "safety", "check-model-model", "check-model-problem"])
    def test_input_not_utf8_is_65(self, capsys, tmp_path, box_file,
                                  command):
        # a Latin-1 byte in a comment used to escape as UnicodeDecodeError
        bad = tmp_path / "latin1.foml"
        bad.write_bytes(b"; caf\xe9\n(goal false)\n")
        model = tmp_path / "m.model"
        model.write_text("(model (universe 0 1) (tt 0) (ff 1) (states 0)"
                         " (R) (zeta (v 0 0)))")
        argv = [a.format(bad=bad, out=tmp_path / "out", problem=box_file,
                         model=model) for a in command]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (65, "")
        assert err == f"foml: cannot read {bad}: not UTF-8 text (byte 5)\n"


class TestNestingReach:
    """The nesting reach README states ("Exit codes and flags"): the
    rewriting passes, `alpha_key`, `is_rigid` and the renderers keep their
    own stack, but the evaluators recurse, one frame per tree level, so a
    pass that adds a frame per level shows here.  `main` adds its margin
    to the frames its caller already has, so what the test runner has on
    the stack does not shorten the reach."""

    DECLS = ("(declare-op 0 0) "
             + " ".join(f"(declare-flex v{i})" for i in range(4)) + "\n")

    def run_deep(self, capsys, tmp_path, command, goal, extra_frames=0,
                 defs=""):
        """`main` on a file with these definitions and this goal, under
        `extra_frames` more frames than the test has."""
        path = tmp_path / "deep.foml"
        path.write_text(f"{self.DECLS}{defs}(goal {goal})\n")

        def nested(n):
            return nested(n - 1) if n else main([*command.split(),
                                                 str(path)])

        return nested(extra_frames), capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "coalesce-fol", "coalesce-ml", "emit", "prove-ml"])
    @pytest.mark.parametrize("goal", [
        "(and " + " ".join(f"(= v{i % 4} 0)" for i in range(640)) + ")",
        "(nabla " * 980 + "v0" + ")" * 980,
    ], ids=["and-640", "nabla-980"])
    def test_every_translation_reaches(self, capsys, tmp_path, command,
                                       goal):
        code, err = self.run_deep(capsys, tmp_path, command, goal)
        assert code in (0, 1) and err == ""

    @pytest.mark.parametrize("command", ["coalesce-fol", "coalesce-ml",
                                         "emit"])
    def test_translations_reach_further(self, capsys, tmp_path, command):
        # prove-ml stays at 980 above: its type enumeration is quadratic
        # in the nesting depth
        goal = "(nabla " * 1950 + "v0" + ")" * 1950
        code, err = self.run_deep(capsys, tmp_path, command, goal)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("command", [
        "coalesce-fol", "coalesce-ml", "emit --emit=smt", "emit --emit=tptp",
        "emit --emit=mlseq"])
    def test_nabla_chains_have_no_nesting_limit(self, capsys, tmp_path,
                                                command):
        goal = "(nabla " * 20_000 + "v0" + ")" * 20_000
        code, err = self.run_deep(capsys, tmp_path, command, goal)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("command", [
        "coalesce-fol", "coalesce-ml", "emit --emit=smt", "emit --emit=tptp",
        "emit --emit=mlseq"])
    def test_wide_conjunctions_have_no_nesting_limit(self, capsys, tmp_path,
                                                     command):
        goal = "(and " + " ".join(f"(= v{i % 4} 0)" for i in range(3000)) + ")"
        code, err = self.run_deep(capsys, tmp_path, command, goal)
        assert (code, err) == (0, "")

    def test_nested_applications_have_no_nesting_limit(self, capsys,
                                                       tmp_path):
        # `is_rigid` walks the applications down to v0; the translation is
        # one atom.  coalesce-fol is left out: its output grows with the
        # square of the depth here.
        goal = "(= " + "(d " * 3000 + "v0" + ")" * 3000 + " 0)"
        code, err = self.run_deep(capsys, tmp_path, "coalesce-ml", goal,
                                  defs="(define (d p) (nabla (= p 0)))\n")
        assert (code, err) == (0, "")

    def test_reach_does_not_shrink_under_a_deep_caller(self, capsys,
                                                       tmp_path):
        goal = "(nabla " * 980 + "v0" + ")" * 980
        code, err = self.run_deep(capsys, tmp_path, "coalesce-ml", goal,
                                  extra_frames=100)
        assert (code, err) == (0, "")

    def test_prove_ml_has_no_nesting_limit(self, capsys, tmp_path):
        path = tmp_path / "deep.mlseq"
        path.write_text(
            "(mlseq (goal " + "(=> p " * 5000 + "p" + ")" * 5000 + "))\n")
        assert run(capsys, "prove-ml", str(path)) == (0, "proved\n", "")

    def test_a_countermodel_past_the_evaluators_reach_is_resource_out(
            self, capsys, tmp_path):
        # never printed unverified
        path = tmp_path / "deep.mlseq"
        path.write_text(
            "(mlseq (goal " + "(=> q " * 5000 + "p" + ")" * 5000 + "))\n")
        assert run(capsys, "prove-ml", str(path)) == (
            2, "resource limit: nesting depth 5001 is past the evaluator's "
            "reach, so the countermodel found was not verified\n", "")


VERDICT_LINES ={0: "proved", 1: "countermodel (goal fails at state ",
                 2: "resource limit: "}


@st.composite
def ml_sequents(draw):
    rng = draw(st.randoms(use_true_random=False))
    prime = draw(st.booleans())
    atoms = ["p", "q", "r"][: rng.randrange(1, 4)]
    hyps = tuple(random_ml_formula(rng, atoms, 2, prime)
                 for _ in range(rng.randrange(0, 3)))
    goal = random_ml_formula(rng, atoms, rng.randrange(1, 4), prime)
    return MLSequent(hyps, goal, draw(st.sampled_from(tuple(FRAMES))),
                     draw(st.sampled_from(tuple(FRAMES))))


class TestProveMlProperty:
    @given(ml_sequents())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_verdicts_are_well_formed(self, tmp_path, seq):
        path = tmp_path / "seq.mlseq"
        path.write_text(emit_mlseq(seq))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["prove-ml", str(path)])
        out, err = out.getvalue(), err.getvalue()
        assert code in VERDICT_LINES and err == ""
        first, _, rest = out.partition("\n")
        assert first.startswith(VERDICT_LINES[code])
        if code == 1:
            k = parse_model(rest)
            state = int(first[len(VERDICT_LINES[1]):-1])
            s = parse_mlseq(path.read_text())
            assert eval_ml(k, state, s.goal) == k.ff
            for h in s.hypotheses:
                for w in k.states:
                    assert eval_ml(k, w, h) == k.tt


CHECK_PROBLEM = ("(declare-op 0 0) (declare-op f 1) (declare-rigid x)"
                 " (declare-flex v)\n(assume (= (f x) (f x)))\n"
                 "(goal (=> (= v x) (nabla (prime (= (f v) 0)))))\n")


def _rename_states(m: KripkeModel, names: dict) -> KripkeModel:
    return rebuild(
        m, states=tuple(names[w] for w in m.states),
        R=frozenset((names[s], names[t]) for s, t in m.R),
        primeR=frozenset((names[s], names[t]) for s, t in m.primeR),
        zeta={(v, names[w]): val for (v, w), val in m.zeta.items()})


@st.composite
def mutated_models(draw):
    """(kind, model text, mutated model text) for CHECK_PROBLEM."""
    rng = draw(st.randoms(use_true_random=False))
    m = random_model(rng, parse_problem(CHECK_PROBLEM).env, need_prime=True)
    kind = draw(st.sampled_from(
        ("value", "drop", "duplicate", "rename", "rename-all")))
    if kind == "value":
        stray = draw(st.sampled_from((7, -1, "w")))
        section = draw(st.sampled_from(("xi", "zeta", "op")))
        if section == "xi":
            bad = rebuild(m, xi={"x": stray})
        elif section == "zeta":
            key = draw(st.sampled_from(sorted(m.zeta)))
            bad = rebuild(m, zeta={**m.zeta, key: stray})
        else:
            args = draw(st.sampled_from(sorted(m.op_interp["f"])))
            bad = rebuild(m, op_interp={
                **m.op_interp, "f": {**m.op_interp["f"], args: stray}})
        return kind, serialize_model(m), serialize_model(bad)
    if kind.startswith("rename"):
        pool = draw(st.permutations(list(m.states) + ["s0", "s1", "s2"]))
        names = dict(zip(m.states, pool))
        bad = (_rename_states(m, names) if kind == "rename-all"
               else rebuild(m, states=tuple(names[w] for w in m.states)))
        return kind, serialize_model(m), serialize_model(bad)
    text = serialize_model(m)
    sections = text[len("(model\n  "):-len(")\n")].split("\n  ")
    i = draw(st.integers(0, len(sections) - 1))
    if kind == "drop":
        del sections[i]
    else:
        sections.insert(i, sections[i])
    return kind, text, "(model " + " ".join(sections) + ")\n"


class TestCheckModelProperty:
    @given(mutated_models())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_models_exit_cleanly(self, tmp_path, case):
        kind, original, mutated = case
        problem = tmp_path / "problem.foml"
        problem.write_text(CHECK_PROBLEM)
        codes = []
        for text in (original, mutated):
            path = tmp_path / "m.model"
            path.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["check-model", str(path), str(problem)])
            err = err.getvalue()
            assert code in (0, 1, 65), err
            assert "Traceback" not in err and "internal error" not in err
            assert (err == "") == (code != 65) == (out.getvalue() != "")
            codes.append(code)
        assert codes[0] in (0, 1)
        if kind in ("value", "duplicate"):
            assert codes[1] == 65
        if kind == "rename-all":
            # Renaming states consistently gives an isomorphic model.
            assert codes[1] == codes[0]


DEMO = Path(__file__).resolve().parent.parent / "demo"
# Each demo problem as a list of tokens, comments dropped, so that the
# tokens can be joined on one line.
DEMO_TOKENS = {
    p.name: re.findall(r"[()]|[^\s()]+",
                       re.sub(r";[^\n]*", "", p.read_text()))
    for p in sorted(DEMO.glob("*.foml"))}
# Tokens an edit may put in besides those of the demo itself.
EDIT_TOKENS = ("(", ")", "false", "true", "=", "=>", "not", "and", "or",
               "iff", "forall", "exists", "nabla", "delta", "prime", "goal",
               "assume", "define", "declare-op", "declare-flex", "mode",
               "init", "next", "0", "-1", "x")
# Exit codes each subcommand may give on a mutated problem: 65 for
# malformed input, and prove-ml's three verdicts.
MUTATION_EXITS = {
    "coalesce-fol": {0, 65}, "coalesce-ml": {0, 65}, "emit": {0, 65},
    "leibniz": {0, 65}, "safety": {0, 65}, "prove-ml": {0, 1, 2, 65}}


@st.composite
def mutated_problems(draw):
    """A demo problem with one to three tokens deleted, inserted or
    replaced; most come out malformed, a few still parse."""
    name = draw(st.sampled_from(sorted(DEMO_TOKENS)))
    return _mutated(draw, DEMO_TOKENS[name], EDIT_TOKENS)


def _mutated(draw, tokens, edit_tokens):
    """tokens with one to three deleted, inserted or replaced, joined by
    spaces; an inserted or new token comes from tokens or edit_tokens."""
    tokens = list(tokens)
    pool = sorted(set(tokens)) + list(edit_tokens)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        kind = draw(st.sampled_from(("delete", "insert", "replace")))
        if kind == "delete":
            del tokens[i]
        elif kind == "insert":
            tokens.insert(i, draw(st.sampled_from(pool)))
        else:
            # a bracket for a bracket and an atom for an atom
            bracket = tokens[i] in "()"
            tokens[i] = draw(st.sampled_from(
                [t for t in pool if (t in "()") == bracket]))
    return " ".join(tokens)


# Tokens an edit of an mlseq or a model text may put in.
SEQUENT_MODEL_EDITS = ("(", ")", "mlseq", "frame", "nabla", "prime", "=>",
                       "false", "true", "k", "s4", "goal",
                       "global-hypotheses", "model", "universe", "tt", "ff",
                       "op", "row", "xi", "states", "R", "primeR", "zeta",
                       "0", "01", "-1", "s0")


@st.composite
def mutated_sequents_and_models(draw):
    """An mlseq or a model text as foml prints it, with one to three
    tokens deleted, inserted or replaced."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        text = emit_mlseq(random_ml_sequent(rng))
    else:
        text = serialize_model(random_model(
            rng, parse_problem(CHECK_PROBLEM).env, need_prime=True))
    return _mutated(draw, re.findall(r"[()]|[^\s()]+", text),
                    SEQUENT_MODEL_EDITS)


class TestMutatedProblemProperty:
    @given(mutated_problems(), st.sampled_from(("smt", "tptp", "mlseq")))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_problems_exit_cleanly(self, tmp_path, text, fmt):
        path = tmp_path / "problem.foml"
        path.write_text(text)
        for command, codes in MUTATION_EXITS.items():
            argv = [command, str(path)]
            if command == "emit":
                argv += ["--emit", fmt]
            elif command == "safety":
                argv += ["--out", str(tmp_path)]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            err = err.getvalue()
            assert code in codes, (argv, text, err)
            assert "Traceback" not in err and "internal error" not in err
