"""Byte-exact CLI output on every demo problem.

The golden-shape tests compare translations only up to renaming of fresh
symbols; these snapshots pin the exact bytes, fresh names included, of the
translation, emission, Leibniz and prover subcommands on `demo/*.foml`
(the prover's countermodels included).

Regenerate `snapshots/demo_cli.json` (only when an output change is
intended) with

    PYTHONPATH=src python tests/test_snapshots.py
"""
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from foml.cli import main

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = Path(__file__).resolve().parent / "snapshots" / "demo_cli.json"
DEMOS = sorted(p.name for p in (ROOT / "demo").glob("*.foml"))
COMMANDS = (
    ("coalesce-fol", "--canonical-order", "binder"),
    ("coalesce-fol", "--canonical-order", "binder", "--rewrite-rigid-box"),
    ("coalesce-fol", "--canonical-order", "appearance"),
    ("coalesce-fol", "--canonical-order", "appearance",
     "--rewrite-rigid-box"),
    ("coalesce-ml",),
    ("emit", "--emit=smt"),
    ("emit", "--emit=tptp"),
    ("emit", "--emit=mlseq"),
    ("leibniz",),
    ("prove-ml",),
    ("prove-ml", "--frame", "k4"),
    ("prove-ml", "--frame", "s4"),
)


def _argv(demo: str, command: tuple[str, ...]) -> list[str]:
    # The demo path goes right after the subcommand, so that a trailing
    # `--rewrite-rigid-box` takes its default value.
    return [command[0], str(ROOT / "demo" / demo), *command[1:]]


def _key(demo: str, command: tuple[str, ...]) -> str:
    return " ".join((demo,) + command)


def _run(argv: list[str]) -> dict:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


CASES = [(d, c) for d in DEMOS for c in COMMANDS]


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_every_case(expected):
    assert sorted(expected) == sorted(_key(d, c) for d, c in CASES)


@pytest.mark.parametrize("demo,command", CASES,
                         ids=[_key(d, c) for d, c in CASES])
def test_cli_output_is_byte_identical(expected, demo, command):
    assert _run(_argv(demo, command)) == expected[_key(demo, command)]


if __name__ == "__main__":
    snap = {_key(d, c): _run(_argv(d, c)) for d, c in CASES}
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(snap, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(snap)} snapshots to {SNAPSHOT}", file=sys.stderr)
