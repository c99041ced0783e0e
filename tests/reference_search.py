"""The orbit leaders of bounded search one model at a time: the models of
`enumerate_models`, in its order, that come first in their orbit under
the permutations of the states.  `find_countermodel` finds them a lane
block at a time; the tests hold it to this one-model-at-a-time oracle,
built from the same zeta and relation leaders.

`runs` spells the xi and operator tables of a universe as one
`itertools.product` over materialized spaces, apart from the search's
lazy `_tables`, which the search, `enumerate_models` and
`enumerate_fol_structures` all share.
"""
from __future__ import annotations

from itertools import product
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from foml.models import KripkeModel, Value
from foml.search import (
    Perm,
    _leader_relations,
    _relation,
    _runs,
    _zeta,
    _zeta_leaders,
)


def runs(ops: Mapping[str, int], rigid: Sequence[str],
         universe: tuple[Value, ...]) -> list[tuple[dict, dict]]:
    """Every (xi, operator tables) over universe: xi values, then each
    operator's table, in lexicographic order, a table's values listed
    row by row in the order of its argument tuples."""
    spaces = [list(product(universe, repeat=len(rigid)))]
    for arity in ops.values():
        rows = list(product(universe, repeat=arity))
        spaces.append([dict(zip(rows, vals))
                       for vals in product(universe, repeat=len(rows))])
    return [(dict(zip(rigid, xi_vals)), dict(zip(ops, tables)))
            for xi_vals, *tables in product(*spaces)]


class Prefix(NamedTuple):
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


def prefixes(
    ops: Mapping[str, int],
    rigid: Sequence[str],
    flex: Sequence[str],
    max_universe: int,
    max_states: int,
) -> Iterator[Prefix]:
    """The prefixes of the orbit leaders, in `enumerate_models` order:
    universe, states, xi, tables and zeta, zeta the first of its orbit
    under the permutations of the states."""
    for usize in range(2, max_universe + 1):
        universe = tuple(range(usize))
        for nstates in range(1, max_states + 1):
            states = tuple(range(nstates))
            for xi, op_interp in _runs(ops, rigid, universe):
                for vals, fixers in _zeta_leaders(len(flex), universe,
                                                  nstates):
                    yield Prefix(universe, states, xi, op_interp,
                                 _zeta(flex, nstates, vals), fixers)


def orbit_leaders(
    ops: Mapping[str, int],
    rigid: Sequence[str],
    flex: Sequence[str],
    max_universe: int,
    max_states: int,
    prime: bool,
) -> Iterator[KripkeModel]:
    """The models of `enumerate_models`, in its order, that come first in
    their orbit under the permutations of the states."""
    for pre in prefixes(ops, rigid, flex, max_universe, max_states):
        n = len(pre.states)
        for r, fixers in _leader_relations(n, pre.fixers):
            if not prime:
                yield pre.model(_relation(n, r))
                continue
            for pr, _ in _leader_relations(n, fixers):
                yield pre.model(_relation(n, r), _relation(n, pr))
