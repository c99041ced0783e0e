"""Command-line front end.

Exit codes: 64 usage error, 65 malformed input, 70 internal invariant
violation or any other crash.  `prove-ml` instead reports its verdict
through the exit code: 0 proved, 1 countermodel, 2 resource limit.
"""
from __future__ import annotations

import argparse
import functools
import sys
from contextlib import contextmanager
from pathlib import Path

from .actions import SafetySpec, safety_obligations, translate_action
from .coalesce import coalesce_obligation_fol, rewrite_rigid_box, symbols_block
from .coalesce_ml import atoms_block, coalesce_obligation_ml
from .emit import (
    emit_mlseq,
    emit_smt,
    emit_tptp,
    parse_mlseq,
    run_solver,
    stratify,
)
from .leibniz import compute_leibniz, format_table
from .models import parse_model, serialize_model
from .parser import (
    ProblemError,
    _tokens,
    parse_file,
    parse_problem,
)
from .printer import print_expr, print_problem
from .prover import (
    FRAMES,
    Countermodel,
    MLSequent,
    Proved,
    prove_ml,
)
from .semantics import obligation_checker
from .syntax import FomlError, InternalError, Obligation
from .gen import CHECKS, run_fuzz

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70

# The rewriting passes, `alpha_key`, `is_rigid` and the renderers keep
# their own stack, but the evaluators and node `==` and `hash` still take
# one stack frame per tree level, so commands run with this many frames
# on top of the ones the caller already has: about 1,990 levels of
# nesting, from any caller.
RECURSION_LIMIT = 2000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ProblemError(
            f"cannot read {path}: not UTF-8 text (byte {exc.start})")


@contextmanager
def _writing(path):
    """Failing to write an output (a missing directory, a file in the way
    of one, no permission) is an input error, as an unreadable input is."""
    try:
        yield
    except OSError as exc:
        raise ProblemError(f"cannot write {path}: {exc}")


def _apply_rigid_box(ob: Obligation, flag: str) -> Obligation:
    if flag == "off":
        return ob
    reflexive = flag == "reflexive"
    return Obligation(
        tuple(rewrite_rigid_box(h, ob.env, reflexive)
              for h in ob.hypotheses),
        rewrite_rigid_box(ob.goal, ob.env, reflexive),
        ob.env, ob.mode)


def cmd_coalesce_fol(args) -> int:
    ob = _apply_rigid_box(parse_problem(_read(args.file)),
                          args.rewrite_rigid_box)
    res = coalesce_obligation_fol(ob, args.canonical_order)
    for h in res.hypotheses:
        print(f"(assume {print_expr(h)})")
    print(f"(goal {print_expr(res.goal)})")
    print(symbols_block(res.table))
    return 0


def cmd_coalesce_ml(args) -> int:
    ob = parse_problem(_read(args.file))
    res = coalesce_obligation_ml(ob)
    for h in res.hypotheses:
        print(f"(assume {print_expr(h)})")
    print(f"(goal {print_expr(res.goal)})")
    inner = " ".join(print_expr(h) for h in res.stability)
    print(f"(hypotheses {inner})" if inner else "(hypotheses)")
    print(atoms_block(res.table))
    return 0


def _load_sequent(text: str) -> MLSequent:
    """The sequent of an mlseq text, or of a problem text after modal
    coalescing; the first two tokens, comments dropped, tell which the
    text is, and the reader picked takes the same tokens."""
    toks = _tokens(text)
    if toks[:2] == ["(", "mlseq"]:
        return parse_mlseq(text, toks)
    res = coalesce_obligation_ml(parse_problem(text, toks))
    return MLSequent(res.hypotheses + res.stability, res.goal)


def cmd_prove_ml(args) -> int:
    seq = _load_sequent(_read(args.file))
    verdict = prove_ml(MLSequent(seq.hypotheses, seq.goal,
                                 args.frame or seq.frame_nabla,
                                 args.prime_frame or seq.frame_prime))
    if isinstance(verdict, Proved):
        print("proved")
        return 0
    if isinstance(verdict, Countermodel):
        print(f"countermodel (goal fails at state {verdict.state})")
        print(serialize_model(verdict.model), end="")
        return 1
    print(f"resource limit: {verdict.reason}")
    return 2


def cmd_leibniz(args) -> int:
    pf = parse_file(_read(args.file))
    out = format_table(compute_leibniz(pf.env))
    if out:
        print(out)
    return 0


def cmd_action(args) -> int:
    ob = parse_problem(_read(args.file))
    res = translate_action(ob)
    print(print_problem(
        Obligation(res.hypotheses, res.goal, res.env, "fol")), end="")
    return 0


def cmd_safety(args) -> int:
    pf = parse_file(_read(args.file))
    missing = [name for name, val in (
        ("init", pf.init), ("next", pf.next),
        ("invariant", pf.invariant),
        ("inductive-invariant", pf.inductive_invariant))
        if val is None]
    if missing:
        raise ProblemError(
            "safety input lacks " + ", ".join(f"({m} ...)" for m in missing))
    vars_ = pf.vars if pf.vars is not None else pf.env.flex_vars
    spec = SafetySpec(pf.init, pf.next, pf.invariant,
                      pf.inductive_invariant, vars_, pf.env)
    result = safety_obligations(spec)
    outdir = Path(args.out)
    with _writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.file).stem
    outputs = [(outdir / f"{stem}-ob{i}.foml", print_problem(ob))
               for i, ob in enumerate(result.obligations, start=1)]
    outputs.append((outdir / f"{stem}-glue.mlseq", emit_mlseq(result.glue)))
    for path, text in outputs:
        with _writing(path):
            path.write_text(text)
        print(path)
    return 0


def cmd_check_model(args) -> int:
    m = parse_model(_read(args.model))
    ob = parse_problem(_read(args.file))
    failed, w = obligation_checker(ob)(m)
    if failed is not None:
        print(f"hypothesis fails somewhere: {print_expr(failed)}")
        print("obligation vacuously satisfied by this model")
        return 0
    if w is not None:
        print(f"goal fails at state {w} (countermodel)")
        return 1
    print("obligation satisfied at every state")
    return 0


def cmd_fuzz(args) -> int:
    max_u, max_s = args.bounds
    report = run_fuzz(args.seed, args.iters, args.checks,
                      max_universe=max_u, max_states=max_s)
    print(f"{report.iterations} iterations, "
          f"{len(report.discrepancies)} discrepancies")
    for d in report.discrepancies[:5]:
        print(d)
    return 0 if report.ok else 1


def cmd_emit(args) -> int:
    fmt = args.emit
    if args.solver and fmt == "mlseq":
        print("foml: --solver only applies to smt/tptp output",
              file=sys.stderr)
        return EX_USAGE
    text = _read(args.file)
    if fmt == "mlseq":
        out = emit_mlseq(_load_sequent(text))
    else:
        ob = _apply_rigid_box(parse_problem(text), args.rewrite_rigid_box)
        res = coalesce_obligation_fol(ob, args.canonical_order)
        ir = stratify(res.hypotheses, res.goal, res.env)
        out = emit_smt(ir) if fmt == "smt" else emit_tptp(ir)
    if args.output:
        with _writing(args.output):
            Path(args.output).write_text(out)
    else:
        print(out, end="")
    if args.solver:
        verdict = run_solver(args.solver, out, fmt)
        print(f"solver verdict: {verdict}")
    return 0


def _bounds(text: str) -> tuple[int, int]:
    try:
        u, s = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected --bounds=U,S")
    # a model needs the two truth values and at least one state
    if u < 2 or s < 1:
        raise argparse.ArgumentTypeError(
            "--bounds=U,S needs U >= 2 and S >= 1")
    return u, s


def _iterations(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected --iters=N")
    if n < 0:
        raise argparse.ArgumentTypeError("--iters=N needs N >= 0")
    return n


def _checks(text: str) -> tuple[str, ...]:
    names = tuple(text.split(","))
    for name in names:
        if name not in CHECKS:
            raise argparse.ArgumentTypeError(
                f"unknown check {name!r}; the checks are "
                + ", ".join(CHECKS))
    return names


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="foml",
                description="first-order modal logic workbench")
    sub = p.add_subparsers(dest="command", required=True)
    # the command parsers by name, so `main` can hand a line to its command
    p.commands = sub.choices

    def add(name, func, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(func=func)
        return sp

    def coalesce_flags(sp):
        sp.add_argument("--canonical-order", default="binder",
                        choices=("binder", "appearance"))
        sp.add_argument("--rewrite-rigid-box", nargs="?", const="general",
                        default="off",
                        choices=("off", "general", "reflexive"))

    sp = add("coalesce-fol", cmd_coalesce_fol,
             help="translate an obligation to first-order logic")
    sp.add_argument("file")
    coalesce_flags(sp)

    sp = add("coalesce-ml", cmd_coalesce_ml,
             help="translate an obligation to propositional modal logic")
    sp.add_argument("file")

    sp = add("prove-ml", cmd_prove_ml,
             help="decide a propositional modal sequent")
    sp.add_argument("file")
    sp.add_argument("--frame", choices=FRAMES)
    sp.add_argument("--prime-frame", choices=FRAMES)

    sp = add("leibniz", cmd_leibniz,
             help="print the Leibniz position table")
    sp.add_argument("file")

    sp = add("action", cmd_action,
             help="translate an action obligation to first-order logic")
    sp.add_argument("file")

    sp = add("safety", cmd_safety,
             help="emit the three safety obligations plus the glue sequent")
    sp.add_argument("file")
    sp.add_argument("--out", default=".")

    sp = add("check-model", cmd_check_model,
             help="evaluate an obligation against a model file")
    sp.add_argument("model")
    sp.add_argument("file")

    sp = add("fuzz", cmd_fuzz,
             help="run the seeded witness-construction properties")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--iters", type=_iterations, default=1000)
    sp.add_argument("--bounds", type=_bounds, default=(3, 3))
    sp.add_argument("--checks", type=_checks,
                    default="fol-witness,ml-witness")

    sp = add("emit", cmd_emit, help="serialize an obligation")
    sp.add_argument("file")
    sp.add_argument("--emit", default="smt",
                    choices=("smt", "tptp", "mlseq"))
    sp.add_argument("--output", "-o")
    sp.add_argument("--solver")
    coalesce_flags(sp)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the tree costs about as much as translating a small
    # problem, so in-process callers build it once.  Parsing leaves no
    # state on it: each call gets a fresh namespace, and argparse looks up
    # sys.stdout, sys.stderr and the terminal width when it prints.
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace of a command line, read once.  A line that starts
    with a command is read by that command's parser alone, as the tree
    would hand it on; any other line, and one that leaves words over, is
    read by the whole tree, so help, usage and every error are the tree's
    own."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    limit, depth, frame = sys.getrecursionlimit(), 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    sys.setrecursionlimit(max(limit, depth + RECURSION_LIMIT))
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"foml: internal error: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except FomlError as exc:
        print(f"foml: {exc}", file=sys.stderr)
        return EX_DATAERR
    except Exception as exc:
        # Any other exception (RecursionError on a deeply nested input,
        # say) is a crash too; exit 1 or 2 would read as a prove-ml verdict.
        print(f"foml: internal error: {exc!r}", file=sys.stderr)
        return EX_SOFTWARE
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    sys.exit(main())
