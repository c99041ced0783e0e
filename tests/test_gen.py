"""The replay contract of `run_fuzz`: a check inside a multi-check iteration
sees exactly the inputs and generator states it sees when it runs alone."""
from __future__ import annotations

import random

import pytest

from foml import gen
from foml.syntax import signature

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


def test_below_consumes_the_stream_of_choice_and_randrange():
    for n in (*range(1, 70), 127, 128, 129, 1 << 20):
        a, b = random.Random(n), random.Random(n)
        for _ in range(50):
            assert gen._below(b.getrandbits, n) == a.choice(range(n))
            assert 3 + gen._below(b.getrandbits, n) == a.randrange(3, 3 + n)
        assert a.getstate() == b.getstate(), n


EXPR_FLAGS = ({}, {"allow_nabla": False}, {"allow_prime": False},
              {"allow_flex": False}, {"allow_defapp": False},
              {"binders": ("p", "q")}, {"rigid_pool": ("p",)},
              {"rigid_pool": ()}, {"binders": ("a", "p"), "rigid_pool": ()},
              {"under_prime": True})


def _draws(rng: random.Random, rounds: int, reverse: bool = False) -> list:
    """The repr of each draw of a seeded sequence over every generator
    flag, with the generator state after it; `reverse` draws each
    environment's expressions in the other order."""
    out = []

    def put(value):
        out.append(repr((value, rng.getstate())))

    for k in range(rounds):
        env = gen.random_env(rng, with_defs=k % 3 != 0,
                             modal_defs=k % 2 == 0)
        put(env)
        exprs = [lambda f=f: gen.random_expr(rng, env, k % 4, **f)
                 for f in EXPR_FLAGS]
        exprs.append(lambda: gen.random_action_formula(rng, env))
        for draw in reversed(exprs) if reverse else exprs:
            put(draw())
        for need_prime, functional in ((False, False), (True, False),
                                       (True, True)):
            put(gen.random_model(rng, env, 2 + k % 2, 1 + k % 3,
                                 need_prime=need_prime,
                                 functional_prime=functional))
    return out


def test_draws_do_not_depend_on_the_frame_caches():
    caches = (gen._leaves, gen._kinds)
    for cache in caches:
        cache.cache_clear()
    cold = _draws(random.Random(5), 40)
    for cache in caches:
        cache.cache_clear()
    # warm the caches with other environments, drawn in another order
    _draws(random.Random(6), 40, reverse=True)
    assert all(cache.cache_info().currsize for cache in caches)
    assert _draws(random.Random(5), 40) == cold


@pytest.mark.parametrize("bounds", [
    {"max_universe": 1}, {"max_universe": 0}, {"max_universe": -2},
    {"max_states": 0}, {"max_states": -1},
])
def test_an_empty_range_of_sizes_raises(bounds):
    env = gen.random_env(random.Random(0))
    with pytest.raises(ValueError, match="empty range"):
        gen.random_model(random.Random(0), env, **bounds)


@pytest.mark.parametrize("n", [0, -1, -8])
def test_an_empty_range_raises_before_drawing(n):
    def no_draw(_k):
        pytest.fail("drew from an empty range")

    with pytest.raises(ValueError, match="empty range"):
        gen._below(no_draw, n)


def test_needs_prime_is_the_prime_of_the_signature():
    # what the witness and argument-lemma openings ask of `random_model`,
    # read from `kinds` in place of a `signature` walk
    seen = set()
    for i in range(5000):
        rng = gen.rng_for(3434, i)
        env = gen.random_env(rng, with_defs=i % 3 != 0)
        exprs = tuple(gen.random_expr(rng, env, depth=3 - k % 2)
                      for k in range(1 + i % 3))
        want = signature(exprs, env).prime
        assert gen._needs_prime(exprs, env) == want, (exprs, env)
        seen.add(want)
    assert seen == {False, True}
