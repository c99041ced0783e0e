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

The models are not built one at a time.  A prefix (universe, states, xi,
tables and a zeta leader) is evaluated once for all its candidate
relations together, by the lane closures of `semantics.compile_lanes`:
the innermost enumerated relation (R without prime, primeR with prime)
ranges over a block of at most 512 relations, one lane per (relation,
state); with prime, R takes its leaders one at a time.  From 4 states
on, all but the last 9 pairs of a relation are enumerated outside the
block, and blocks without a leader are skipped.  A block's countermodels are its leader
lanes where every hypothesis holds at every state and the goal fails at
some state; the first is the lowest such lane, and `examined` counts the
leaders up to it.  Only the model returned is built.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import permutations, product
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
)

from .models import FOLStructure, KripkeModel, Value
from .semantics import (
    Access,
    BlockLanes,
    Lanes,
    compile_fol,
    compile_lanes,
)
from .syntax import (
    DefinitionEnvironment,
    Expression,
    Obligation,
    Prime,
    collect_signature,
    contains_node,
)


@dataclass(frozen=True)
class SearchBounds:
    max_universe: int = 2
    max_states: int = 2
    max_models: int = 2_000_000

    def __post_init__(self) -> None:
        # Bounds that admit no model would make "none" read as a verdict
        # about models nobody looked at.
        if self.max_universe < 2:
            raise ValueError("max_universe must be at least 2 (tt and ff)")
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")
        if self.max_models < 0:
            raise ValueError("max_models must not be negative")


@dataclass
class SearchResult:
    status: str  # "found" | "none" | "resource-out"
    model: object = None
    state: object = None
    examined: int = 0

    @property
    def found(self) -> bool:
        return self.status == "found"

    @property
    def exhausted(self) -> bool:
        return self.status == "none"


def _lazy_product(spaces: Sequence[Callable[[], Iterator]]) -> Iterator[tuple]:
    """Cartesian product over factor *generators*, never materializing a
    factor's space (itertools.product would)."""
    if not spaces:
        yield ()
        return
    head, rest = spaces[0], spaces[1:]
    for h in head():
        for r in _lazy_product(rest):
            yield (h,) + r


def _tables_space(
    ops: Mapping[str, int], universe: tuple[Value, ...]
) -> Sequence[Callable[[], Iterator[dict]]]:
    factors = []
    for op in ops:
        arity = ops[op]
        arg_tuples = list(product(universe, repeat=arity))

        def space(op=op, arg_tuples=arg_tuples):
            for values in product(universe, repeat=len(arg_tuples)):
                yield dict(zip(arg_tuples, values))

        factors.append(space)
    return factors


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
        for nstates in range(1, max_states + 1):
            states = tuple(range(nstates))
            flex_keys = [(v, w) for v in flex for w in states]
            for xi_vals in product(universe, repeat=len(rigid)):
                xi = dict(zip(rigid, xi_vals))
                for tables in _lazy_product(_tables_space(ops, universe)):
                    op_interp = dict(zip(ops, tables))
                    for zeta_vals in product(universe,
                                             repeat=len(flex_keys)):
                        zeta = dict(zip(flex_keys, zeta_vals))
                        for R in _relations(states):
                            if not prime:
                                yield KripkeModel(
                                    universe, tt, ff, op_interp, xi,
                                    states, R, zeta)
                                continue
                            for pR in _relations(states):
                                yield KripkeModel(
                                    universe, tt, ff, op_interp, xi,
                                    states, R, zeta, primeR=pR)


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


class _Prefix(NamedTuple):
    """A model of the search less its relations, when its zeta is the
    first of its orbit: `fixers` are the state permutations that fix
    zeta."""
    universe: tuple[Value, ...]
    states: tuple[Value, ...]
    xi: dict
    op_interp: dict
    zeta: dict
    fixers: tuple[Perm, ...]

    def model(self, R: frozenset, primeR: Optional[frozenset] = None
              ) -> KripkeModel:
        return KripkeModel(self.universe, 0, 1, self.op_interp, self.xi,
                           self.states, R, self.zeta, primeR=primeR)


def _prefixes(
    ops: Mapping[str, int],
    rigid: Sequence[str],
    flex: Sequence[str],
    max_universe: int,
    max_states: int,
) -> Iterator[_Prefix]:
    """The prefixes of the orbit leaders, in `enumerate_models` order:
    universe, states, xi, tables and zeta, zeta the first of its orbit
    under the permutations of the states."""
    for usize in range(2, max_universe + 1):
        universe = tuple(range(usize))
        for nstates in range(1, max_states + 1):
            states = tuple(range(nstates))
            flex_keys = [(v, w) for v in flex for w in states]
            group = tuple(permutations(states))[1:]
            zeta_maps = [(p, tuple([i * nstates + p[w]
                                    for i in range(len(flex))
                                    for w in states]))
                         for p in group]
            for xi_vals in product(universe, repeat=len(rigid)):
                xi = dict(zip(rigid, xi_vals))
                for tables in _lazy_product(_tables_space(ops, universe)):
                    op_interp = dict(zip(ops, tables))
                    for zeta_vals in product(universe,
                                             repeat=len(flex_keys)):
                        fixers = _least_fixers(zeta_vals, zeta_maps)
                        if fixers is not None:
                            yield _Prefix(universe, states, xi, op_interp,
                                          dict(zip(flex_keys, zeta_vals)),
                                          fixers)


def _orbit_leaders(
    ops: Mapping[str, int],
    rigid: Sequence[str],
    flex: Sequence[str],
    max_universe: int,
    max_states: int,
    prime: bool,
) -> Iterator[KripkeModel]:
    """The models of `enumerate_models`, in its order, that come first in
    their orbit under the permutations of the states."""
    for pre in _prefixes(ops, rigid, flex, max_universe, max_states):
        n = len(pre.states)
        for r, fixers in _leader_relations(n, pre.fixers):
            if not prime:
                yield pre.model(_relation(n, r))
                continue
            for pr, _ in _leader_relations(n, fixers):
                yield pre.model(_relation(n, r), _relation(n, pr))


# A lane block holds the relations on n states that share their first
# n*n - 9 pairs (all of them when n <= 3): at most 512 relations, so the
# masks of a block stay a few hundred bytes and its box tables small.
_BLOCK_PAIRS = 9


def _block_pairs(nstates: int) -> int:
    return min(nstates * nstates, _BLOCK_PAIRS)


def _spread(count: int, stride: int) -> int:
    """Bits 0, stride, 2*stride, ... (count of them)."""
    return ((1 << count * stride) - 1) // ((1 << stride) - 1)


@lru_cache(maxsize=256)
def _block(nstates: int, block: int) -> tuple[int, int, Access]:
    """(full, rep, the relations as lanes) of a lane block: lane
    r * nstates + w is state w of the relation whose index has the
    binary digits of `block` followed by the last pairs' digits, r."""
    n, low = nstates, _block_pairs(nstates)
    width = 1 << low
    full = (1 << width * n) - 1
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
    return full, rep, Access(n, full, rep, pairs)


@lru_cache(maxsize=1024)
def _fixed_relation(nstates: int, r: int) -> Access:
    """Relation r in every lane of a block: each edge (w, t) holds at
    column w of every relation."""
    full, rep, _ = _block(nstates, 0)
    return Access(nstates, full, rep,
                  {(w, t): rep << w for w, t in _relation(nstates, r)})


@cache
def _leader_lanes(nstates: int, group: tuple[Perm, ...]
                  ) -> tuple[tuple[int, int, int], ...]:
    """The relations of `_leader_relations` as lanes: (block, the first
    lanes of its leaders, their count), for each block that has one, in
    order."""
    low = _block_pairs(nstates)
    blocks: dict[int, int] = {}
    for r, _ in _leader_relations(nstates, group):
        b = r >> low
        blocks[b] = blocks.get(b, 0) | 1 << (r & ((1 << low) - 1)) * nstates
    return tuple((b, m, m.bit_count()) for b, m in blocks.items())


def _lane_blocks(
    ops: Mapping[str, int],
    rigid: Sequence[str],
    flex: Sequence[str],
    max_universe: int,
    max_states: int,
    prime: bool,
) -> Iterator[tuple[_Prefix, Optional[int], int, int, int, BlockLanes]]:
    """The orbit leaders, a lane block at a time, in order: (prefix, the
    index of R when the lanes range over primeR, block, the first lanes of
    the block's leaders, their count, the block's lanes)."""
    for pre in _prefixes(ops, rigid, flex, max_universe, max_states):
        n = len(pre.states)
        state = Lanes(n, pre.universe, 0, 1, pre.xi, pre.op_interp,
                      pre.zeta)
        outer = _leader_relations(n, pre.fixers) if prime \
            else ((None, pre.fixers),)
        for r, fixers in outer:
            for block, leaders, count in _leader_lanes(n, fixers):
                full, rep, lanes = _block(n, block)
                access = (_fixed_relation(n, r), lanes) if prime \
                    else (lanes, None)
                yield (pre, r, block, leaders, count,
                       BlockLanes(state, full, rep, *access))


def _everywhere(k: Lanes, mask: int) -> int:
    """The first lane of each relation whose lanes are all in mask: the
    models of the block where a formula holds at every state."""
    acc = mask
    for s in range(1, k.nstates):
        acc &= mask >> s
    return acc & k.rep


def needs_prime(env: DefinitionEnvironment, *exprs: Expression) -> bool:
    """Whether a prime occurs in `exprs` or in any definition body; by
    occurrence, since an argument the body drops is still evaluated."""
    return any(contains_node(e, Prime) for e in exprs) or any(
        contains_node(d.body, Prime) for d in env.definitions)


def find_countermodel(
    ob: Obligation,
    bounds: SearchBounds = SearchBounds(),
) -> SearchResult:
    """Exhaustive bounded search, one model per state-permutation orbit,
    for a model satisfying every hypothesis at every state while
    falsifying the goal at some state.

    The models of a prefix are evaluated together, a lane block of
    relations at a time (`compile_lanes`), and only the model returned is
    built."""
    ops, rigid, flex = collect_signature(ob.all_exprs(), ob.env)
    prime = needs_prime(ob.env, *ob.all_exprs())
    hyps = [compile_lanes(h, ob.env) for h in ob.hypotheses]
    goal = compile_lanes(ob.goal, ob.env)
    examined = 0
    for pre, r, block, leaders, count, k in _lane_blocks(
            ops, rigid, flex, bounds.max_universe, bounds.max_states,
            prime):
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
            rel = _relation(n, block << _block_pairs(n) | first // n)
            m = pre.model(rel) if r is None \
                else pre.model(_relation(n, r), rel)
            return SearchResult("found", model=m, state=w,
                                examined=examined)
        examined += count
        if examined > bounds.max_models:
            break
    else:
        return SearchResult("none", examined=examined)
    return SearchResult("resource-out", examined=bounds.max_models)


def enumerate_fol_structures(
    ops: Mapping[str, int],
    variables: Sequence[str],
    max_universe: int = 2,
) -> Iterator[FOLStructure]:
    for usize in range(2, max_universe + 1):
        universe = tuple(range(usize))
        for xi_vals in product(universe, repeat=len(variables)):
            xi = dict(zip(variables, xi_vals))
            for tables in _lazy_product(_tables_space(ops, universe)):
                yield FOLStructure(universe, 0, 1,
                                   dict(zip(ops, tables)), xi)


def find_fol_countermodel(
    hypotheses: Sequence[Expression],
    goal: Expression,
    ops: Mapping[str, int],
    variables: Sequence[str],
    bounds: SearchBounds = SearchBounds(),
) -> SearchResult:
    """Bounded search for a first-order structure satisfying the hypotheses
    and falsifying the goal (shared valuation of free variables)."""
    hyps = [compile_fol(h) for h in hypotheses]
    concl = compile_fol(goal)
    examined = 0
    for s in enumerate_fol_structures(ops, variables, bounds.max_universe):
        examined += 1
        if examined > bounds.max_models:
            return SearchResult("resource-out", examined=examined - 1)
        if all(h(s, 0, {}) == s.tt for h in hyps) \
                and concl(s, 0, {}) != s.tt:
            return SearchResult("found", model=s, examined=examined)
    return SearchResult("none", examined=examined)


def fol_signature_of(
    exprs: Iterable[Expression], env: DefinitionEnvironment
) -> tuple[dict[str, int], tuple[str, ...]]:
    """Signature of a coalesced (pure first-order) sequent: operators plus
    the merged free-variable list (rigid then flexible) valued by xi."""
    ops, rigid, flex = collect_signature(exprs, env)
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
