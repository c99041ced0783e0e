"""A differential of the bounded countermodel search.  Run it on two
versions of the code and compare what they print:

    PYTHONPATH=src python tests/search_digest.py

It makes 1,545 searches with `find_countermodel`:

- 1,500 seeded random obligations, obligation i drawn from
  `rng_for(4242, i)`: an environment with definitions half the time,
  prime allowed in every odd one, zero to two hypotheses of depth 2 and
  a goal of depth 3; bounds (2,2), (2,3), (3,2), (3,3) in turn every two
  obligations, and `max_models` 200,000, 50 and 3,000 in turn;
- each file of `demo/` that has a goal, at bounds (2,2), (2,3) and (3,3),
  each with `max_models` 7, 100 and 2,000,000.

It prints one SHA-256 over the outputs of every search (status,
`examined`, state and serialized model), with the count of each status,
and one over the `resource-out` reasons, with their count.  A change to
how the search lays out its lane blocks keeps the first; the "(N
reached)" count of a reason follows the blocks, so it may move the
second.  The script is not a test module: pytest does not collect it.
"""
import hashlib
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

from foml.gen import random_env, random_expr, rng_for
from foml.models import serialize_model
from foml.parser import parse_file
from foml.search import SearchBounds, find_countermodel
from foml.syntax import Obligation

DEMO = Path(__file__).resolve().parent.parent / "demo"
RANDOM_BOUNDS = ((2, 2), (2, 3), (3, 2), (3, 3))
RANDOM_MAX = (200_000, 50, 3_000)
DEMO_BOUNDS = ((2, 2), (2, 3), (3, 3))
DEMO_MAX = (7, 100, 2_000_000)


def searches() -> Iterator[tuple[str, Obligation, SearchBounds]]:
    """(a label, the obligation, its bounds) of every search, in order."""
    for i in range(1_500):
        rng = rng_for(4242, i)
        env = random_env(rng, with_defs=rng.random() < 0.5)
        prime = i % 2 == 1
        hyps = tuple(random_expr(rng, env, 2, allow_prime=prime)
                     for _ in range(rng.randrange(0, 3)))
        goal = random_expr(rng, env, 3, allow_prime=prime)
        bounds = SearchBounds(*RANDOM_BOUNDS[i // 2 % 4], RANDOM_MAX[i % 3])
        yield f"random {i}", Obligation(hyps, goal, env), bounds
    for path in sorted(DEMO.glob("*.foml")):
        problem = parse_file(path.read_text())
        if problem.goal is None:
            continue
        for bounds in DEMO_BOUNDS:
            for most in DEMO_MAX:
                yield (f"{path.name} {bounds} {most}", problem.obligation(),
                       SearchBounds(*bounds, most))


def main() -> None:
    outputs, reasons = hashlib.sha256(), hashlib.sha256()
    statuses: Counter = Counter()
    nreasons = 0
    for label, ob, bounds in searches():
        res = find_countermodel(ob, bounds)
        model = None if res.model is None else serialize_model(res.model)
        outputs.update(repr((label, res.status, res.examined, res.state,
                             model)).encode())
        statuses[res.status] += 1
        if res.reason:
            reasons.update(repr((label, res.reason)).encode())
            nreasons += 1
    counts = ", ".join(f"{status} {statuses[status]}"
                       for status in ("found", "none", "resource-out"))
    print(f"outputs {outputs.hexdigest()} ({counts})")
    print(f"reasons {reasons.hexdigest()} ({nreasons} reasons)")


if __name__ == "__main__":
    sys.exit(main())
