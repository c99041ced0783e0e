"""A differential of the command line.  Run it on two versions of the
code and compare what they print:

    PYTHONPATH=src python tests/cli_digest.py

It runs `foml.cli.main` in this process on each file of `demo/` and on
300 seeded problems, problem i drawn from `rng_for(5151, i)`: an
environment with definitions in two of every three, prime allowed in
every odd one, zero to two hypotheses of depth 2 and a goal of depth 3,
written with `print_problem`.  The commands are `coalesce-fol` (plain,
with `--canonical-order=appearance`, and with `--rewrite-rigid-box`
general and reflexive), `coalesce-ml`, `emit --emit=smt|tptp|mlseq`,
`leibniz` and `prove-ml` on every input, `check-model` on every input
against a model drawn for its environment (`random_model` from
`rng_for(6161, k)` for input k, prime relation included, written with
`serialize_model`), and `safety` on `demo/swap.foml`.  A malformed pass
then runs `coalesce-fol` on each input, and `check-model` on each model
with its input, each text cut at half its length and, apart, with its
first ")" deleted, so the readers' errors and their positions enter a
digest too.  Last, the `usage` digest runs the command lines of
`COMMAND_LINES`, so help, usage text and usage errors enter one as well.

It prints one SHA-256 per command over each run's input, exit code,
stdout and stderr (and, for `safety`, the files it writes), with the
temporary directory's path replaced by a placeholder.  The script is not
a test module: pytest does not collect it.
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from foml import cli
from foml.gen import random_env, random_expr, random_model, rng_for
from foml.models import serialize_model
from foml.parser import parse_file
from foml.printer import print_problem
from foml.syntax import Obligation

DEMO = Path(__file__).resolve().parent.parent / "demo"
COMMANDS = (
    ("coalesce-fol",),
    ("coalesce-fol", "--canonical-order=appearance"),
    ("coalesce-fol", "--rewrite-rigid-box=general"),
    ("coalesce-fol", "--rewrite-rigid-box=reflexive"),
    ("coalesce-ml",),
    ("emit", "--emit=smt"),
    ("emit", "--emit=tptp"),
    ("emit", "--emit=mlseq"),
    ("leibniz",),
    ("prove-ml",),
)

# Every command with valid arguments, then help, usage errors and odd
# spellings: abbreviations, "--", repeated and missing option values,
# words left over.  A word in braces names a file `command_lines` writes.
COMMAND_LINES = (
    "coalesce-fol {box}",
    "coalesce-fol {box} --canonical-order=appearance --rewrite-rigid-box",
    "coalesce-fol --rewrite-rigid-box=reflexive {box}",
    "coalesce-ml {box}",
    "prove-ml {box}",
    "prove-ml {box} --frame t",
    "prove-ml --frame=k4 --prime-frame s4 {box}",
    "leibniz {box}",
    "action {action}",
    "safety {swap} --out {out}",
    "check-model {model} {box}",
    "fuzz --seed 3 --iters 5 --bounds 2,1 --checks=fol-witness",
    "emit {box}",
    "emit {box} --emit tptp -o {emitted}",
    "emit --emit=mlseq {box}",
    "",
    "-h",
    "--help",
    "-h coalesce-fol {box}",
    "--version",
    "-x coalesce-fol {box}",
    "-- coalesce-fol {box}",
    "no-such-command",
    "coal {box}",
    "coalesce-fol",
    "coalesce-fol -h",
    "coalesce-fol {box} -h",
    "emit --he",
    "coalesce-fol {box} extra",
    "coalesce-fol {box} {box}",
    "coalesce-fol {box} --rewrite",
    "coalesce-fol {box} --can appearance",
    "coalesce-fol {box} --canonical-order",
    "coalesce-fol {box} --canonical-order=nope",
    "coalesce-fol -- {box}",
    "coalesce-fol {box} --",
    "coalesce-fol -",
    "leibniz {box} -- extra",
    "prove-ml {box} --frame bogus",
    "prove-ml {box} --frame k --frame t",
    "fuzz --seed -3 --iters 1",
    "fuzz --seed x",
    "fuzz --bounds 3",
    "fuzz --iters=-1",
    "fuzz extra",
    "emit {box} --bogus",
    "emit {box} -o",
    "emit {box} --emit=mlseq --solver x",
    "check-model {model}",
    "safety {swap} --out",
)


def command_lines(tmp: str) -> list[list[str]]:
    """The argv of each of COMMAND_LINES, with the files it names written
    under `tmp`."""
    box = (DEMO / "box.foml").read_text()
    texts = {
        "box": box,
        "action": "(declare-op 0 0) (declare-flex v)"
                  "(goal (= (prime v) 0)) (mode action)\n",
        "swap": (DEMO / "swap.foml").read_text(),
        "model": serialize_model(random_model(
            rng_for(6161, 0), parse_file(box).env, need_prime=True)),
    }
    paths = {"out": str(Path(tmp, "out")),
             "emitted": str(Path(tmp, "emitted.p"))}
    for name, text in texts.items():
        path = Path(tmp, f"{name}.txt")
        path.write_text(text)
        paths[name] = str(path)
    return [[word.format(**paths) for word in line.split()]
            for line in COMMAND_LINES]


def problems() -> list[tuple[str, str, str]]:
    """(a name, the text, a model text for it) of every input, in order."""
    out = [(path.name, path.read_text())
           for path in sorted(DEMO.glob("*.foml"))]
    for i in range(300):
        rng = rng_for(5151, i)
        env = random_env(rng, with_defs=i % 3 != 0)
        prime = i % 2 == 1
        hyps = tuple(random_expr(rng, env, 2, allow_prime=prime)
                     for _ in range(rng.randrange(0, 3)))
        goal = random_expr(rng, env, 3, allow_prime=prime)
        out.append((f"random{i}.foml",
                    print_problem(Obligation(hyps, goal, env))))
    return [(name, text, serialize_model(random_model(
                rng_for(6161, k), parse_file(text).env, need_prime=True)))
            for k, (name, text) in enumerate(out)]


def malformed(text: str) -> tuple[str, str]:
    """text cut at half its length, and text with its first ")" deleted."""
    return text[:len(text) // 2], text.replace(")", "", 1)


def run(argv: list[str], tmp: str) -> bytes:
    """The exit code, stdout and stderr of one command, as bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return repr((argv, code, out.getvalue(), err.getvalue())).replace(
        tmp, "<tmp>").encode()


def digest_runs(label: str, runs: list[tuple[str, list[str]]],
                tmp: str) -> None:
    """Print one digest over (input text, argv) runs."""
    digest = hashlib.sha256()
    for text, argv in runs:
        digest.update(text.encode())
        digest.update(run(argv, tmp))
    print(f"{label}: {digest.hexdigest()}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, text, model in problems():
            path = Path(tmp, name)
            path.write_text(text)
            model_path = Path(tmp, f"{path.stem}.model")
            model_path.write_text(model)
            paths.append((path, text, model_path, model))
        for command in COMMANDS:
            digest_runs(" ".join(command), [
                (text, [command[0], str(path), *command[1:]])
                for path, text, _, _ in paths], tmp)
        digest_runs("check-model", [
            (model + text, ["check-model", str(model_path), str(path)])
            for path, text, model_path, model in paths], tmp)
        bad_problems, bad_models = [], []
        for path, text, model_path, model in paths:
            for k, (bad_text, bad_model) in enumerate(
                    zip(malformed(text), malformed(model))):
                bad_path = Path(tmp, f"bad{k}-{path.name}")
                bad_path.write_text(bad_text)
                bad_problems.append(
                    (bad_text, ["coalesce-fol", str(bad_path)]))
                bad_model_path = Path(tmp, f"bad{k}-{model_path.name}")
                bad_model_path.write_text(bad_model)
                bad_models.append((bad_model + text, [
                    "check-model", str(bad_model_path), str(path)]))
        digest_runs("malformed coalesce-fol", bad_problems, tmp)
        digest_runs("malformed check-model", bad_models, tmp)
        out = Path(tmp, "safety")
        swap = Path(tmp, "swap.foml")
        digest = hashlib.sha256(swap.read_bytes())
        digest.update(run(["safety", str(swap), "--out", str(out)], tmp))
        for written in sorted(out.iterdir()):
            digest.update(written.name.encode() + written.read_bytes()
                          .replace(tmp.encode(), b"<tmp>"))
        print(f"safety: {digest.hexdigest()}")
        usage = Path(tmp, "usage")
        usage.mkdir()
        # help text wraps at the terminal's width
        os.environ["COLUMNS"] = "80"
        digest_runs("usage", list(zip(COMMAND_LINES,
                                      command_lines(str(usage)))), tmp)


if __name__ == "__main__":
    sys.exit(main())
