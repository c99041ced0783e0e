"""The replay contract of `run_fuzz`: a check inside a multi-check iteration
sees exactly the inputs and generator states it sees when it runs alone."""
from __future__ import annotations

import random

import pytest

from foml import gen

NAMES = tuple(gen.CHECKS)
SEEDS = range(20)
ITERATIONS = 10  # 20 seeds x 10 iterations: 200 (seed, iteration) pairs


def _recorded(monkeypatch, log: list):
    """Wrap every check's body so that it logs, per call, its opening value
    as it finds it and the generator state it starts from and leaves
    (state hashes: the comparisons stay within one process)."""
    def wrap(name, body):
        def recording(rng, opening):
            seen = (repr(opening), hash(rng.getstate()))
            problem = body(rng, opening)
            log.append((name, seen + (hash(rng.getstate()), problem)))
            return problem
        return recording

    for name, check in gen.CHECKS.items():
        monkeypatch.setitem(gen.CHECKS, name,
                            check._replace(body=wrap(name, check.body)))


def _per_check(log: list) -> dict:
    out: dict = {name: [] for name in NAMES}
    for name, digest in log:
        out[name].append(digest)
    return out


def test_checks_see_the_same_draws_alone_and_together(monkeypatch):
    log: list = []
    _recorded(monkeypatch, log)
    for seed in SEEDS:
        for name in NAMES:
            gen.run_fuzz(seed, ITERATIONS, (name,))
    alone = _per_check(log)
    # forward order replays every opening as a whole; reverse order also
    # draws the witness opening on top of a replayed env opening
    for order in (NAMES, NAMES[::-1]):
        log.clear()
        for seed in SEEDS:
            gen.run_fuzz(seed, ITERATIONS, order)
        assert _per_check(log) == alone, order
    assert all(len(v) == len(SEEDS) * ITERATIONS for v in alone.values())


class _CountingRandom(random.Random):
    snapshots = 0
    restores = 0

    def getstate(self):
        _CountingRandom.snapshots += 1
        return super().getstate()

    def setstate(self, state):
        _CountingRandom.restores += 1
        super().setstate(state)


@pytest.fixture
def counting(monkeypatch):
    monkeypatch.setattr(_CountingRandom, "snapshots", 0)
    monkeypatch.setattr(_CountingRandom, "restores", 0)
    monkeypatch.setattr(gen, "rng_for", lambda seed, index: _CountingRandom(
        f"{seed}:{index}"))
    return _CountingRandom


@pytest.mark.parametrize("name", NAMES)
def test_a_single_check_takes_no_snapshot(counting, name):
    report = gen.run_fuzz(3, 5, (name,))
    assert report.iterations == 5
    assert (counting.snapshots, counting.restores) == (0, 0)


def test_six_checks_snapshot_the_start_and_each_shared_opening(counting):
    gen.run_fuzz(3, 5, NAMES)
    # per iteration: the start state plus env, witness and action once;
    # every check restores the start state or the opening it replays
    assert counting.snapshots == 5 * 4
    assert counting.restores == 5 * 6
