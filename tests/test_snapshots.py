"""Byte-exact CLI output on every demo problem.

The golden-shape tests compare translations only up to renaming of fresh
symbols; these snapshots pin the exact bytes, fresh names included, of the
translation, emission, Leibniz and prover subcommands on `demo/*.foml`
(the prover's countermodels included).  `snapshots/demo_search.json` pins
what the bounded countermodel search returns on every demo with a goal:
status, models examined, refuting state and the serialized model.

Regenerate both files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_snapshots.py
"""
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from foml.cli import main
from foml.models import serialize_model
from foml.parser import parse_problem
from foml.search import SearchBounds, find_countermodel

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"
SNAPSHOT = SNAPSHOTS / "demo_cli.json"
SEARCH_SNAPSHOT = SNAPSHOTS / "demo_search.json"
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


def test_replay_in_reverse_matches(expected):
    # One process runs every case again, last first: no call may leave
    # state (in the shared argument parser, say) that a later one sees.
    for demo, command in reversed(CASES):
        assert _run(_argv(demo, command)) == expected[_key(demo, command)]


GOAL_DEMOS = [d for d in DEMOS if "(goal" in (ROOT / "demo" / d).read_text()]
SEARCH_BOUNDS = ((2, 2), (2, 3), (3, 2))
SEARCH_CASES = [(d, b) for d in GOAL_DEMOS for b in SEARCH_BOUNDS]


def _search_key(demo: str, bounds: tuple[int, int]) -> str:
    return f"{demo} {bounds[0]},{bounds[1]}"


def _search(demo: str, bounds: tuple[int, int]) -> dict:
    ob = parse_problem((ROOT / "demo" / demo).read_text())
    res = find_countermodel(ob, SearchBounds(*bounds))
    return {"status": res.status, "examined": res.examined,
            "state": res.state,
            "model": None if res.model is None
            else serialize_model(res.model)}


@pytest.fixture(scope="module")
def expected_search() -> dict:
    return json.loads(SEARCH_SNAPSHOT.read_text())


def test_search_snapshot_covers_every_case(expected_search):
    assert sorted(expected_search) == sorted(
        _search_key(d, b) for d, b in SEARCH_CASES)


@pytest.mark.parametrize("demo,bounds", SEARCH_CASES,
                         ids=[_search_key(d, b) for d, b in SEARCH_CASES])
def test_search_result_is_identical(expected_search, demo, bounds):
    assert _search(demo, bounds) == expected_search[_search_key(demo, bounds)]


def _write(path: Path, snap: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(snap, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(snap)} snapshots to {path}", file=sys.stderr)


if __name__ == "__main__":
    _write(SNAPSHOT, {_key(d, c): _run(_argv(d, c)) for d, c in CASES})
    _write(SEARCH_SNAPSHOT,
           {_search_key(d, b): _search(d, b) for d, b in SEARCH_CASES})
