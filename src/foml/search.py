"""Bounded enumeration of finite models and brute-force countermodel search.

Enumeration order is fixed (universe size, then state count, then valuation
/ table / relation assignments in lexicographic order), so searches are
deterministic and the first countermodel found is reproducible.  Absence of
a countermodel within bounds is reported distinctly from running into the
examination cap.

`find_countermodel` examines one model per orbit of the permutations of
the states: the orbit's lex-leader, its first member in the enumeration
order (zeta values in key order, then the R mask, then the primeR mask).
Renaming states never changes whether a model is a countermodel, so the
first countermodel is the one the full enumeration finds first, and
`examined` and `max_models` count orbit representatives.  The leaders
are drawn hierarchically: a zeta assignment is kept when no permutation
maps it to an earlier one, R ranges over the relations least under the
permutations that fix zeta, and primeR over those least under the
permutations that fix both.  `enumerate_models` remains the full
labelled enumeration, the oracle the search is tested against.

A search is set up in one walk over the obligation, `syntax.signature`,
which gives the operators and the rigid and flexible variables in the
order the enumeration follows, and whether a prime occurs; and in one
lane compilation of each hypothesis and the goal, which share one cache
of compiled definition bodies for the search.  The models are not built
one at a time, but evaluated a lane block at a time by the lane closures
of `semantics.compile_lanes`.  A segment is a prefix (universe, states,
xi, tables and a zeta leader), its R leader when prime occurs, and a
block of at most 512 relations that the innermost enumerated relation (R
without prime, primeR with prime) ranges over, one lane per (relation,
state).  From 4 states on, all but the last 9 pairs of a relation are
enumerated outside the block, and blocks without a leader are skipped.
A run is the segments of one xi and tables; the tails of a segment
(zeta, R and the block of relations) are the same in every run of a
universe size and state count.  Run r's xi values and table rows are the
digits of r in base u, the universe size, most significant first.  Where
one run's tails fit in a lane block of at most `_LANE_BUDGET` lanes,
every block holds the same number of whole runs, u**top, from a multiple
of u**top, top as large as fits: a block's fixed cost outweighs its wider
operations.  Each digit below place u**top then takes each value in a
fixed periodic set of lanes, built once per shape, and every other digit
is constant over the block, so a block's xi and tables cost one one-hot
per digit.  Elsewhere a block is a window of one run's tails, laid out
once per search for all its runs.  A block's countermodels are its
leader lanes where every hypothesis holds at every state and the goal
fails at some state; the first is the lowest such lane, which is the
first in enumeration order, and `examined` counts the leaders up to it.
Leaders are otherwise counted a block at a time, so the "(N reached)"
count of a `resource-out` reason follows the blocks: u**top runs, or a
window.  Only the model returned is built, its xi and tables decoded
from its run number.
"""
from __future__ import annotations

from functools import cache, lru_cache
from itertools import count, islice, permutations, product
from typing import (
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
)

from .models import FOLStructure, KripkeModel, Value
from .semantics import Access, LaneBodies, Lanes, compile_lanes, eval_fol
from .syntax import (
    DefinitionEnvironment,
    Expression,
    Obligation,
    Record,
    signature,
)


class SearchBounds(Record):
    __slots__ = __match_args__ = ("max_universe", "max_states", "max_models")

    def __init__(self, max_universe: int = 2, max_states: int = 2,
                 max_models: int = 2_000_000) -> None:
        # Bounds that admit no model would make "none" read as a verdict
        # about models nobody looked at.
        if max_universe < 2:
            raise ValueError("max_universe must be at least 2 (tt and ff)")
        if max_states < 1:
            raise ValueError("max_states must be at least 1")
        if max_models < 0:
            raise ValueError("max_models must not be negative")
        self.max_universe = max_universe
        self.max_states = max_states
        self.max_models = max_models


class SearchResult(Record):
    __slots__ = __match_args__ = ("status", "model", "state", "examined",
                                  "reason")

    def __init__(self, status: str, model: object = None,
                 state: object = None, examined: int = 0,
                 reason: str = "") -> None:
        self.status = status  # "found" | "none" | "resource-out"
        self.model = model
        self.state = state
        self.examined = examined
        # resource-out: the limit, and the count that passed it
        self.reason = reason

    @property
    def found(self) -> bool:
        return self.status == "found"

    @property
    def exhausted(self) -> bool:
        return self.status == "none"


# (op, its table's rows, the first and past-the-last digit of its rows'
# values in a run number) for each op
Spans = list[tuple[str, tuple, int, int]]


def _spans(ops: Mapping[str, int], rigid: Sequence[str],
           universe: tuple[Value, ...]) -> tuple[Spans, int]:
    """The spans of the digits of a run number over universe, and the
    number of digits: the xi values of rigid come first, then each op's
    table row by row, ops in order."""
    spans = []
    at = len(rigid)
    for op, arity in ops.items():
        rows = tuple(product(universe, repeat=arity))
        spans.append((op, rows, at, at + len(rows)))
        at += len(rows)
    return spans, at


def _interpret(rigid: Sequence[str], spans: Spans, digits: Sequence
               ) -> tuple[dict, dict]:
    """(xi, {op: {args: value}}) whose values, in `_spans` order, are
    digits: values of the universe, or their one-hot lanes."""
    return dict(zip(rigid, digits)), {op: dict(zip(rows, digits[a:b]))
                                      for op, rows, a, b in spans}


def _run(rigid: Sequence[str], spans: Spans, ndigits: int,
         universe: tuple[Value, ...], r: int) -> tuple[dict, dict]:
    """Run r of (xi, operator tables) over universe: the one whose values
    are the digits of r in base len(universe), most significant first.
    The runs in enumeration order, `product(universe, repeat=ndigits)`,
    are runs 0, 1, 2, ..."""
    vals = []
    for _ in range(ndigits):
        r, v = divmod(r, len(universe))
        vals.append(universe[v])
    vals.reverse()
    return _interpret(rigid, spans, vals)


def _relations(states: tuple[Value, ...]) -> Iterator[frozenset]:
    pairs = [(s, t) for s in states for t in states]
    for mask in product((False, True), repeat=len(pairs)):
        yield frozenset(p for p, keep in zip(pairs, mask) if keep)


def enumerate_models(
    ops: Mapping[str, int],
    rigid: Sequence[str],
    flex: Sequence[str],
    max_universe: int = 2,
    max_states: int = 2,
    prime: bool = False,
) -> Iterator[KripkeModel]:
    """All Kripke models over the given signature, universes {tt,ff} and
    upward, up to the given bounds; with `prime`, every primeR too."""
    for usize in range(2, max_universe + 1):
        universe = tuple(range(usize))
        tt, ff = 0, 1
        spans, ndigits = _spans(ops, rigid, universe)
        for nstates in range(1, max_states + 1):
            states = tuple(range(nstates))
            flex_keys = [(v, w) for v in flex for w in states]
            for digits in product(universe, repeat=ndigits):
                xi, op_interp = _interpret(rigid, spans, digits)
                for zeta_vals in product(universe, repeat=len(flex_keys)):
                    zeta = dict(zip(flex_keys, zeta_vals))
                    for R in _relations(states):
                        if not prime:
                            yield KripkeModel(universe, tt, ff, op_interp,
                                              xi, states, R, zeta)
                            continue
                        for pR in _relations(states):
                            yield KripkeModel(universe, tt, ff, op_interp,
                                              xi, states, R, zeta,
                                              primeR=pR)


Perm = tuple[int, ...]


def _least_fixers(vals: tuple, maps: Sequence[tuple[Perm, tuple[int, ...]]]
                  ) -> Optional[tuple[Perm, ...]]:
    """The permutations that fix `vals`, or None when one of them maps it
    to an earlier tuple.  `maps` pairs each permutation with the indices
    that apply it: `vals` permuted is `vals[i] for i in indices`."""
    fixers = []
    for p, indices in maps:
        image = tuple([vals[i] for i in indices])
        if image < vals:
            return None
        if image == vals:
            fixers.append(p)
    return tuple(fixers)


def _relation(nstates: int, r: int) -> frozenset:
    """The r-th relation of `_relations(range(nstates))`: its mask tuple
    read as a binary number, the first pair the highest bit."""
    last = nstates * nstates - 1
    return frozenset(divmod(i, nstates) for i in range(last + 1)
                     if r >> (last - i) & 1)


def _byte_tables(dest: Sequence[int]) -> list[list[int]]:
    """For a map that sends bit b of an int to bit dest[b]: one table per
    byte of the int, giving the image of each value of that byte."""
    tables = []
    for base in range(0, len(dest), 8):
        table = [0] * 256
        for v in range(1, 1 << min(8, len(dest) - base)):
            low = v & -v
            table[v] = table[v ^ low] | 1 << dest[base + low.bit_length() - 1]
        tables.append(table)
    return tables


@cache
def _leader_relations(nstates: int, group: tuple[Perm, ...]
                      ) -> tuple[tuple[int, tuple[Perm, ...]], ...]:
    """The indices of the relations of `_relations(range(nstates))`, in
    its order, that no permutation in `group` maps to an earlier one, each
    with the members of `group` that fix it.  A group is given without
    its identity, in `permutations` order.

    A permutation of the states sends each pair to one pair, so it moves
    each bit of a relation's index to one bit: the image of index r is the
    OR of one table lookup per byte of r, and "earlier" compares indices
    as ints.  The leaders are the least members of their orbits: taken in
    order, an index no earlier leader maps to is a leader, and its images
    are the rest of its orbit."""
    npairs = nstates * nstates
    last = npairs - 1
    maps = []
    for p in group:
        # Pair j of the image is pair p(j) of the relation, so bit
        # last - index(p(j)) of r becomes bit last - j of the image.
        dest = [0] * npairs
        for s in range(nstates):
            for t in range(nstates):
                dest[last - (p[s] * nstates + p[t])] = \
                    last - (s * nstates + t)
        maps.append((p, _byte_tables(dest)))
    seen = bytearray(1 << npairs)
    leaders = []
    for r in range(1 << npairs):
        if seen[r]:
            continue
        fixers = []
        for p, tables in maps:
            image, rest = 0, r
            for table in tables:
                image |= table[rest & 255]
                rest >>= 8
            seen[image] = 1
            if image == r:
                fixers.append(p)
        leaders.append((r, tuple(fixers)))
    return tuple(leaders)


def _zeta_leaders(nflex: int, universe: tuple[Value, ...], nstates: int
                  ) -> Iterator[tuple[tuple[Value, ...], tuple[Perm, ...]]]:
    """The zeta values of nflex variables on nstates states (variable by
    variable, state by state) that come first in their orbit under the
    permutations of the states, in order, each with the permutations
    that fix them."""
    states = range(nstates)
    zeta_maps = [(p, tuple([i * nstates + p[w]
                            for i in range(nflex) for w in states]))
                 for p in tuple(permutations(states))[1:]]
    for zeta_vals in product(universe, repeat=nflex * nstates):
        fixers = _least_fixers(zeta_vals, zeta_maps)
        if fixers is not None:
            yield zeta_vals, fixers


def _zeta(flex: Sequence[str], nstates: int, vals: tuple[Value, ...]
          ) -> dict:
    return dict(zip([(v, w) for v in flex for w in range(nstates)], vals))


# A segment's lanes range over the relations on n states that share
# their first n*n - 9 pairs (all of them when n <= 3): at most 512
# relations, so that the blocks without a leader can be skipped.
_BLOCK_PAIRS = 9

# A lane block lays segments of one universe and state count side by side
# in at most this many lanes (at least one segment).  Where one run's
# segments fit, every block holds u**top whole runs from a multiple of
# u**top (u the universe size, top the largest level that fits and at
# most the digit count): each block carries a fixed cost in Python, which
# outweighs its wider big-int operations, so an early countermodel gains
# nothing from smaller first blocks.  Else a block is a window of one
# run's segments.
_LANE_BUDGET = 4096


def _block_pairs(nstates: int) -> int:
    return min(nstates * nstates, _BLOCK_PAIRS)


def _segment_lanes(nstates: int) -> int:
    return nstates << _block_pairs(nstates)


def _spread(count: int, stride: int) -> int:
    """Bits 0, stride, 2*stride, ... (count of them)."""
    return ((1 << count * stride) - 1) // ((1 << stride) - 1)


@lru_cache(maxsize=256)
def _block(nstates: int, block: int) -> Access:
    """The relations of a segment as lanes: lane r * nstates + w is state
    w of the relation whose index has the binary digits of `block`
    followed by the last pairs' digits, r."""
    n, low = nstates, _block_pairs(nstates)
    width = 1 << low
    rep = _spread(width, n)
    last = n * n - 1
    pairs = {}
    for i in range(last + 1):
        bit = last - i
        if bit < low:
            # the first lanes of the relations whose digit `bit` is 1
            period = 2 << bit
            lanes = (_spread(period >> 1, n) << (period >> 1) * n) \
                * _spread(width // period, period * n)
        else:
            lanes = rep if block >> (bit - low) & 1 else 0
        w, t = divmod(i, n)
        pairs[w, t] = lanes << w
    return Access.of_pairs(n, rep, pairs)


@lru_cache(maxsize=1024)
def _fixed_relation(nstates: int, r: int) -> Access:
    """Relation r in every lane of a segment: each edge (w, t) holds at
    column w of every relation."""
    rep = _spread(1 << _block_pairs(nstates), nstates)
    return Access.of_pairs(nstates, rep, {(w, t): rep << w
                                          for w, t in _relation(nstates, r)})


@cache
def _leader_lanes(nstates: int, group: tuple[Perm, ...]
                  ) -> tuple[tuple[int, int], ...]:
    """The relations of `_leader_relations` as lanes: (block, the first
    lanes of its leaders), for each block that has one, in order."""
    low = _block_pairs(nstates)
    blocks: dict[int, int] = {}
    for r, _ in _leader_relations(nstates, group):
        b = r >> low
        blocks[b] = blocks.get(b, 0) | 1 << (r & ((1 << low) - 1)) * nstates
    return tuple(blocks.items())


class _Tail(NamedTuple):
    """A segment less its xi and tables: its zeta values, R's index when
    the lanes range over primeR (else None), the block of relations the
    lanes range over and the first lanes of its leaders."""
    zeta: tuple[Value, ...]
    r: Optional[int]
    block: int
    leaders: int


def _tails(nflex: int, usize: int, nstates: int, prime: bool
           ) -> Iterator[_Tail]:
    """The tails of the segments of one universe size and state count,
    which are the same for every xi and tables, in order."""
    for zeta, fixers in _zeta_leaders(nflex, tuple(range(usize)), nstates):
        outer = _leader_relations(nstates, fixers) if prime \
            else ((None, fixers),)
        for r, inner in outer:
            for block, leaders in _leader_lanes(nstates, inner):
                yield _Tail(zeta, r, block, leaders)


def _most(nstates: int) -> int:
    """The number of segments a lane block holds at most."""
    return max(1, _LANE_BUDGET // _segment_lanes(nstates))


@lru_cache(maxsize=64)
def _layout(nflex: int, usize: int, nstates: int, prime: bool
            ) -> tuple[_Tail, ...]:
    """The first tails of a universe size and state count: all of them
    when one lane block holds them, else one more than it holds.  Every
    run of xi and tables has the same tails, and so does every search
    with as many flexible variables, so they are drawn once."""
    return tuple(islice(_tails(nflex, usize, nstates, prime),
                        _most(nstates) + 1))


class _Frame(NamedTuple):
    """A lane block less its xi and tables: the first lanes of its
    leaders, each flexible variable's one-hot values (by index), its
    relations, every lane, the first lane of each model, {v: every lane}
    for each value v, and, for each place p of the run numbers below the
    block's run count, the lanes where digit p is each value."""
    leaders: int
    flex: tuple[dict[Value, int], ...]
    access: tuple[Access, Optional[Access]]
    full: int
    rep: int
    const: tuple[dict[Value, int], ...]
    digits: tuple[dict[Value, int], ...]


def _frame(tails: Sequence[_Tail], nflex: int, usize: int, nstates: int,
           level: int = 0) -> _Frame:
    """The frame of u**level runs (u = usize) whose tails are `tails`,
    laid side by side from lane 0, tail i from lane i * `_segment_lanes`
    on, one run after another from a run number that is a multiple of
    u**level.  Digit p < level of the run number is v on u**p runs in
    every u**(p + 1), from the v-th on."""
    stride = _segment_lanes(nstates)
    rep = _spread(1 << _block_pairs(nstates), nstates)
    leaders = 0
    flex: tuple[dict[Value, int], ...] = tuple({} for _ in range(nflex))
    edges: tuple[dict[int, int], dict[int, int]] = ({}, {})
    func = [0, 0]
    for i, tail in enumerate(tails):
        at = i * stride
        leaders |= tail.leaders << at
        for j, val in enumerate(tail.zeta):
            onehot = flex[j // nstates]
            onehot[val] = onehot.get(val, 0) | rep << j % nstates + at
        rels = (_block(nstates, tail.block),) if tail.r is None else (
            _fixed_relation(nstates, tail.r), _block(nstates, tail.block))
        for rel, access in enumerate(rels):
            for d, mask in access.edges:
                edges[rel][d] = edges[rel].get(d, 0) | mask << at
            func[rel] |= access.func << at
    width = len(tails) * stride
    runs = usize ** level
    copies = _spread(runs, width)
    access = [Access({d: mask * copies for d, mask in edges[rel].items()},
                     func[rel] * copies) for rel in (0, 1)]
    digits = []
    for p in range(level):
        span = usize ** p * width
        ones = ((1 << span) - 1) * _spread(usize ** (level - p - 1),
                                           usize * span)
        digits.append({v: ones << v * span for v in range(usize)})
    full = (1 << runs * width) - 1
    return _Frame(leaders * copies,
                  tuple({v: mask * copies for v, mask in onehot.items()}
                        for onehot in flex),
                  (access[0], access[1] if tails[0].r is not None else None),
                  full, _spread(runs * width // nstates, nstates),
                  tuple({v: full} for v in range(usize)), tuple(digits))


@lru_cache(maxsize=256)
def _level(nflex: int, usize: int, nstates: int, prime: bool, level: int
           ) -> _Frame:
    """The frame of u**level whole runs of a universe size and state count
    whose tails all fit in one lane block."""
    return _frame(_layout(nflex, usize, nstates, prime), nflex, usize,
                  nstates, level)


class _Block(NamedTuple):
    """The runs of xi and tables of a lane block, run .. run + runs - 1
    in `_run` order, laid out one after another with the same tails."""
    run: int
    runs: int
    tails: Sequence[_Tail]


def _lane_blocks(
    ops: Mapping[str, int],
    rigid: Sequence[str],
    flex: Sequence[str],
    max_universe: int,
    max_states: int,
    prime: bool,
) -> Iterator[tuple[_Block, int, Lanes]]:
    """The orbit leaders a lane block at a time, in order: (the block,
    the first lanes of its leaders, its lanes).  The digits of a run
    number are its xi values and table rows, so a block's xi and tables
    are one one-hot per digit: `frame.digits` below the block's run
    count, a constant value above it."""
    nflex = len(flex)
    for usize in range(2, max_universe + 1):
        universe = tuple(range(usize))
        spans, ndigits = _spans(ops, rigid, universe)
        nruns = usize ** ndigits

        def lanes(frame: _Frame, run: int, level: int, n: int) -> Lanes:
            onehots = list(frame.digits)
            run //= usize ** level
            for _ in range(level, ndigits):
                run, v = divmod(run, usize)
                onehots.append(frame.const[v])
            onehots.reverse()
            return Lanes(n, universe, 0, 1, frame.full, frame.rep,
                         *_interpret(rigid, spans, onehots),
                         dict(zip(flex, frame.flex)), frame.access)

        for n in range(1, max_states + 1):
            tails = _layout(nflex, usize, n, prime)
            most = _most(n)
            if len(tails) <= most:
                top = 0
                while top < ndigits \
                        and usize ** (top + 1) * len(tails) <= most:
                    top += 1
                frame, size = _level(nflex, usize, n, prime, top), usize ** top
                for run in range(0, nruns, size):
                    yield (_Block(run, size, tails), frame.leaders,
                           lanes(frame, run, top, n))
                continue
            # One run's tails overflow a block: every block is a window of
            # `most` tails, kept from run 0 until the last run lays it out.
            rest = _tails(nflex, usize, n, prime)
            kept: dict[int, tuple[list[_Tail], _Frame]] = {}
            for run in range(nruns):
                for a in count(0, most):
                    if a not in kept:
                        window = list(islice(rest, most))
                        if not window:
                            break
                        kept[a] = window, _frame(window, nflex, usize, n)
                    window, frame = kept.pop(a) if run == nruns - 1 \
                        else kept[a]
                    yield (_Block(run, 1, window), frame.leaders,
                           lanes(frame, run, 0, n))


def _everywhere(k: Lanes, mask: int) -> int:
    """The first lane of each model whose lanes are all in mask: the
    models of the block where a formula holds at every state."""
    acc = mask
    for s in range(1, k.nstates):
        acc &= mask >> s
    return acc & k.rep


def find_countermodel(
    ob: Obligation,
    bounds: SearchBounds = SearchBounds(),
) -> SearchResult:
    """Exhaustive bounded search, one model per state-permutation orbit,
    for a model satisfying every hypothesis at every state while
    falsifying the goal at some state.

    The signature and the prime flag come from one walk (`signature`),
    and the hypotheses and goal are compiled over lanes sharing one cache
    of definition bodies, which lives for this call.  The models are
    evaluated a lane block at a time, and only the model returned is
    built."""
    ops, rigid, flex, prime = signature(ob.all_exprs(), ob.env)
    bodies: LaneBodies = {}
    hyps = [compile_lanes(h, ob.env, bodies) for h in ob.hypotheses]
    goal = compile_lanes(ob.goal, ob.env, bodies)
    examined = 0
    for block, leaders, k in _lane_blocks(
            ops, rigid, flex, bounds.max_universe, bounds.max_states,
            prime):
        if leaders and examined == bounds.max_models:
            examined += 1  # this block's first leader passes max_models
            break
        ok = leaders
        for h in hyps:
            ok &= _everywhere(k, h(k, {}))
            if not ok:
                break
        if ok:
            holds = goal(k, {})
            ok &= ~_everywhere(k, holds)
        if ok:
            first = (ok & -ok).bit_length() - 1
            examined += (leaders & ((1 << first) - 1)).bit_count() + 1
            if examined > bounds.max_models:
                break
            n = k.nstates
            column = holds >> first & ((1 << n) - 1)
            w = (~column & column + 1).bit_length() - 1
            return SearchResult("found",
                                model=_lane_model(block, ops, rigid, flex,
                                                 k, first),
                                state=w, examined=examined)
        examined += leaders.bit_count()
        if examined > bounds.max_models:
            break
    else:
        return SearchResult("none", examined=examined)
    return SearchResult(
        "resource-out", examined=bounds.max_models,
        reason=f"more than max_models = {bounds.max_models} models"
        f" ({examined} reached)")


def _lane_model(block: _Block, ops: Mapping[str, int],
                rigid: Sequence[str], flex: Sequence[str], k: Lanes,
                lane: int) -> KripkeModel:
    """The model of a lane of a block."""
    n = k.nstates
    segment, lane = divmod(lane, _segment_lanes(n))
    q, i = divmod(segment, len(block.tails))
    xi, op_interp = _run(rigid, *_spans(ops, rigid, k.universe), k.universe,
                         block.run + q)
    tail = block.tails[i]
    rel = _relation(n, tail.block << _block_pairs(n) | lane // n)
    R, primeR = (rel, None) if tail.r is None \
        else (_relation(n, tail.r), rel)
    return KripkeModel(k.universe, 0, 1, op_interp, xi, tuple(range(n)), R,
                       _zeta(flex, n, tail.zeta), primeR=primeR)


def enumerate_fol_structures(
    ops: Mapping[str, int],
    variables: Sequence[str],
    max_universe: int = 2,
) -> Iterator[FOLStructure]:
    for usize in range(2, max_universe + 1):
        universe = tuple(range(usize))
        spans, ndigits = _spans(ops, variables, universe)
        for digits in product(universe, repeat=ndigits):
            xi, op_interp = _interpret(variables, spans, digits)
            yield FOLStructure(universe, 0, 1, op_interp, xi)


def find_fol_countermodel(
    hypotheses: Sequence[Expression],
    goal: Expression,
    ops: Mapping[str, int],
    variables: Sequence[str],
    bounds: SearchBounds = SearchBounds(),
) -> SearchResult:
    """Bounded search for a first-order structure satisfying the hypotheses
    and falsifying the goal (shared valuation of free variables)."""
    examined = 0
    for s in enumerate_fol_structures(ops, variables, bounds.max_universe):
        examined += 1
        if examined > bounds.max_models:
            return SearchResult(
                "resource-out", examined=examined - 1,
                reason=f"more than max_models = {bounds.max_models}"
                f" structures ({examined} reached)")
        if all(eval_fol(s, h) == s.tt for h in hypotheses) \
                and eval_fol(s, goal) != s.tt:
            return SearchResult("found", model=s, examined=examined)
    return SearchResult("none", examined=examined)


def fol_signature_of(
    exprs: Iterable[Expression], env: DefinitionEnvironment
) -> tuple[dict[str, int], tuple[str, ...]]:
    """Signature of a coalesced (pure first-order) sequent: operators plus
    the merged free-variable list (rigid then flexible) valued by xi."""
    ops, rigid, flex, _ = signature(exprs, env)
    return ops, rigid + flex


def _frame_ok(R: frozenset, states: tuple, frame: str) -> bool:
    if frame in ("t", "s4"):
        if any((w, w) not in R for w in states):
            return False
    if frame in ("k4", "s4"):
        for (a, b) in R:
            for (c, d) in R:
                if b == c and (a, d) not in R:
                    return False
    return True


def enumerate_propmodels(
    atoms: Sequence[str],
    max_states: int = 3,
    frame: str = "k",
    with_prime: bool = False,
    prime_frame: str = "k",
) -> Iterator[KripkeModel]:
    """All propositional models up to max_states, restricted to the frame
    class; the oracle side of the prover's agreement property."""
    for nstates in range(1, max_states + 1):
        states = tuple(range(nstates))
        keys = [(a, w) for a in atoms for w in states]
        for R in _relations(states):
            if not _frame_ok(R, states, frame):
                continue
            for vals in product(("tt", "ff"), repeat=len(keys)):
                zeta = dict(zip(keys, vals))
                if not with_prime:
                    yield KripkeModel.propositional(states, R, zeta)
                    continue
                for pR in _relations(states):
                    if _frame_ok(pR, states, prime_frame):
                        yield KripkeModel.propositional(states, R, zeta, pR)
