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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations, product
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .models import FOLStructure, KripkeModel, Value
from .semantics import compile_fol, countermodel_checker
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


@cache
def _leader_relations(nstates: int, group: tuple[Perm, ...]
                      ) -> tuple[tuple[frozenset, tuple[Perm, ...]], ...]:
    """The relations of `_relations(range(nstates))`, in its order, that
    no permutation in `group` maps to an earlier one, each with the
    members of `group` that fix it.  A group is given without its
    identity, in `permutations` order."""
    states = range(nstates)
    pairs = [(s, t) for s in states for t in states]
    maps = [(p, tuple([p[s] * nstates + p[t] for s, t in pairs]))
            for p in group]
    leaders = []
    for mask in product((False, True), repeat=len(pairs)):
        fixers = _least_fixers(mask, maps)
        if fixers is not None:
            leaders.append(
                (frozenset(p for p, keep in zip(pairs, mask) if keep),
                 fixers))
    return tuple(leaders)


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
    for usize in range(2, max_universe + 1):
        universe = tuple(range(usize))
        tt, ff = 0, 1
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
                        zeta_fixers = _least_fixers(zeta_vals, zeta_maps)
                        if zeta_fixers is None:
                            continue
                        zeta = dict(zip(flex_keys, zeta_vals))
                        for R, fixers in _leader_relations(nstates,
                                                           zeta_fixers):
                            if not prime:
                                yield KripkeModel(
                                    universe, tt, ff, op_interp, xi,
                                    states, R, zeta)
                                continue
                            for pR, _ in _leader_relations(nstates, fixers):
                                yield KripkeModel(
                                    universe, tt, ff, op_interp, xi,
                                    states, R, zeta, primeR=pR)


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
    falsifying the goal at some state."""
    ops, rigid, flex = collect_signature(ob.all_exprs(), ob.env)
    prime = needs_prime(ob.env, *ob.all_exprs())
    countermodel_state = countermodel_checker(ob)
    examined = 0
    for m in _orbit_leaders(ops, rigid, flex, bounds.max_universe,
                            bounds.max_states, prime):
        examined += 1
        if examined > bounds.max_models:
            return SearchResult("resource-out", examined=examined - 1)
        w = countermodel_state(m)
        if w is not None:
            return SearchResult("found", model=m, state=w,
                                examined=examined)
    return SearchResult("none", examined=examined)


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
