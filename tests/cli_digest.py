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
`leibniz` and `prove-ml` on every input, and `safety` on `demo/swap.foml`.

It prints one SHA-256 per command over each run's input, exit code,
stdout and stderr (and, for `safety`, the files it writes), with the
temporary directory's path replaced by a placeholder.  The script is not
a test module: pytest does not collect it.
"""
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from foml import cli
from foml.gen import random_env, random_expr, rng_for
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


def problems() -> list[tuple[str, str]]:
    """(a name, the text) of every input, in order."""
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
    return out


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


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, text in problems():
            path = Path(tmp, name)
            path.write_text(text)
            paths.append((path, text))
        for command in COMMANDS:
            digest = hashlib.sha256()
            for path, text in paths:
                digest.update(text.encode())
                digest.update(run([command[0], str(path), *command[1:]], tmp))
            print(f"{' '.join(command)}: {digest.hexdigest()}")
        out = Path(tmp, "safety")
        swap = Path(tmp, "swap.foml")
        digest = hashlib.sha256(swap.read_bytes())
        digest.update(run(["safety", str(swap), "--out", str(out)], tmp))
        for written in sorted(out.iterdir()):
            digest.update(written.name.encode() + written.read_bytes()
                          .replace(tmp.encode(), b"<tmp>"))
        print(f"safety: {digest.hexdigest()}")


if __name__ == "__main__":
    sys.exit(main())
