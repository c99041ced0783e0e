"""Vectorized exhaustive enumeration of propositional models, used as the
independent oracle for the prover's agreement sweep.

Truth tables for every formula are computed simultaneously over all
(relation, valuation) pairs for each state count, as numpy boolean arrays
indexed (relation, valuation, state).  This is a from-scratch second
implementation of the propositional semantics; test_acceptance cross-checks
it against eval_ml on sampled models before trusting it.
"""
from __future__ import annotations

from itertools import product

import numpy as np

from foml.models import KripkeModel
from foml.syntax import FALSE, Expression, FlexVar, Implies, Nabla


def formula_family(atoms=("p", "q")):
    """All formulas over the given atoms with modal depth (and nesting
    depth) at most two: the sweep family of the prover acceptance check."""
    g0 = [FlexVar(a) for a in atoms] + [FALSE]
    seen = set()
    out = []

    def add(e):
        if e not in seen:
            seen.add(e)
            out.append(e)

    for e in g0:
        add(e)
    g1_src = list(out)
    for e in g1_src:
        add(Nabla(e))
    for a, b in product(g1_src, g1_src):
        add(Implies(a, b))
    g1 = list(out)
    for e in g1:
        add(Nabla(e))
    for a, b in product(g1, g1):
        add(Implies(a, b))
    return g1, out


class MlSweep:
    def __init__(self, atoms=("p", "q"), max_states=3):
        self.atoms = tuple(atoms)
        self.max_states = max_states
        self.spaces = {}
        for s in range(1, max_states + 1):
            n_pairs = s * s
            masks = np.arange(1 << n_pairs, dtype=np.uint32)
            bits = ((masks[:, None] >> np.arange(n_pairs)) & 1).astype(bool)
            rel = bits.reshape(-1, s, s)  # (nR, s, s)
            n_keys = len(self.atoms) * s
            zmasks = np.arange(1 << n_keys, dtype=np.uint32)
            zbits = ((zmasks[:, None] >> np.arange(n_keys)) & 1).astype(bool)
            zeta = zbits.reshape(-1, len(self.atoms), s)  # (nZ, natoms, s)
            self.spaces[s] = (rel, zeta)
        self._cache: dict[tuple[int, Expression], np.ndarray] = {}
        # per-model reductions over the state axis, shared by every sequent
        # that uses the formula: (nR, nZ) arrays keyed like the truth tables
        self._everywhere: dict[tuple[int, Expression], np.ndarray] = {}
        self._somewhere_false: dict[tuple[int, Expression], np.ndarray] = {}

    def truth(self, s: int, e: Expression) -> np.ndarray:
        """Boolean array (nR, nZ, s): truth of e at each state of each
        model with s states."""
        key = (s, e)
        got = self._cache.get(key)
        if got is not None:
            return got
        rel, zeta = self.spaces[s]
        nr, nz = rel.shape[0], zeta.shape[0]
        match e:
            case FlexVar(name):
                idx = self.atoms.index(name)
                out = np.broadcast_to(zeta[None, :, idx, :], (nr, nz, s))
            case Implies(lhs, rhs):
                out = ~self.truth(s, lhs) | self.truth(s, rhs)
            case Nabla(body):
                t = self.truth(s, body)  # (nR, nZ, s)
                step = ~rel[:, None, :, :] | t[:, :, None, :]
                out = step.all(axis=3)
            case _:
                if e == FALSE:
                    out = np.zeros((nr, nz, s), dtype=bool)
                else:
                    raise ValueError(f"not in the sweep fragment: {e}")
        self._cache[key] = out
        return out

    def holds_everywhere(self, s: int, e: Expression) -> np.ndarray:
        """Boolean array (nR, nZ): e holds at every state of the model."""
        key = (s, e)
        got = self._everywhere.get(key)
        if got is None:
            got = self._everywhere[key] = self.truth(s, e).all(axis=2)
        return got

    def fails_somewhere(self, s: int, e: Expression) -> np.ndarray:
        """Boolean array (nR, nZ): e fails at some state of the model."""
        key = (s, e)
        got = self._somewhere_false.get(key)
        if got is None:
            got = self._somewhere_false[key] = \
                (~self.truth(s, e)).any(axis=2)
        return got

    def countermodel_exists(self, hypotheses, goal) -> bool:
        """Is there a model with at most max_states states where every
        hypothesis holds at every state and the goal fails somewhere?"""
        for s in range(1, self.max_states + 1):
            ok = None
            for h in hypotheses:
                t = self.holds_everywhere(s, h)
                ok = t if ok is None else (ok & t)
            bad = self.fails_somewhere(s, goal)
            mask = bad if ok is None else (ok & bad)
            if mask.any():
                return True
        return False

    def model_at(self, s: int, ri: int, zi: int) -> KripkeModel:
        """Materialize one enumerated model, for cross-checks."""
        rel, zeta = self.spaces[s]
        states = tuple(range(s))
        R = frozenset(
            (a, b) for a in states for b in states if rel[ri, a, b])
        zmap = {
            (atom, w): "tt" if zeta[zi, k, w] else "ff"
            for k, atom in enumerate(self.atoms)
            for w in states
        }
        return KripkeModel.propositional(states, R, zmap)
