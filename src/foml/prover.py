"""Decision procedure for propositional (multi-)modal logic with global
hypotheses, over the K / T / K4 / S4 frame classes per modality.

The procedure enumerates Hintikka types (truth assignments to the closure
of the sequent that respect the propositional clauses, make every global
hypothesis true, and satisfy the local reflexivity law for T/S4 frames),
then repeatedly eliminates types whose falsified box-formulas have no
surviving witness successor.  A type is an int whose bit i is the truth
value of closure[i].  For each modality, a type's need mask holds the
bodies of its true boxes, plus those boxes themselves on K4/S4 frames; the
canonical relation links t to u iff u has every bit of t's need mask.  It
realizes every surviving type, is reflexive/transitive exactly when the
frame class requires it, and makes the hypotheses true at every world, so
the sequent is provable iff no surviving type falsifies the goal.
Returned countermodels are restricted to the reachable part and re-checked
with the evaluator before being reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from typing import Union

from .models import PropModel, Value
from .semantics import compile_ml, eval_ml
from .syntax import (
    Expression,
    FalseExpr,
    FlexVar,
    FomlError,
    Implies,
    InternalError,
    Nabla,
    Prime,
    children,
    walk,
)

FRAMES = ("k", "t", "k4", "s4")


@dataclass(frozen=True)
class MLSequent:
    """Global-consequence sequent: hypotheses hold at every state of a
    model; the goal must then hold at every state too."""

    hypotheses: tuple[Expression, ...]
    goal: Expression
    frame_nabla: str = "k"
    frame_prime: str = "k"


@dataclass(frozen=True)
class ProverLimits:
    max_free_bits: int = 18
    max_types: int = 8000


@dataclass(frozen=True)
class Proved:
    kind: str = "proved"


@dataclass(frozen=True)
class Countermodel:
    model: PropModel
    state: Value
    kind: str = "countermodel"


@dataclass(frozen=True)
class ResourceOut:
    reason: str
    kind: str = "resource-out"


Verdict = Union[Proved, Countermodel, ResourceOut]


def check_ml_formula(e: Expression) -> None:
    for sub in walk(e):
        if not isinstance(sub, (FlexVar, FalseExpr, Implies, Nabla, Prime)):
            raise FomlError(
                f"not a propositional modal formula: {sub}")


def _closure(seq: MLSequent) -> list[Expression]:
    """Subformulas of the sequent, children before parents, deduplicated."""
    out: list[Expression] = []
    seen: set[Expression] = set()

    def visit(e: Expression) -> None:
        if e in seen:
            return
        for c in children(e):
            visit(c)
        seen.add(e)
        out.append(e)

    for h in seq.hypotheses:
        visit(h)
    visit(seq.goal)
    return out


def prove_ml(
    seq: MLSequent, limits: ProverLimits = ProverLimits()
) -> Verdict:
    """Proved iff the sequent's global consequence holds over the declared
    frame classes; otherwise a verified countermodel, or ResourceOut when
    the type space exceeds the limits (never a wrong verdict)."""
    for f in (seq.frame_nabla, seq.frame_prime):
        if f not in FRAMES:
            raise FomlError(f"unknown frame class {f!r}")
    for e in seq.hypotheses + (seq.goal,):
        check_ml_formula(e)

    closure = _closure(seq)
    bit = {e: 1 << i for i, e in enumerate(closure)}
    free = [bit[e] for e in closure
            if isinstance(e, (FlexVar, Nabla, Prime))]
    if len(free) > limits.max_free_bits:
        return ResourceOut(
            f"{len(free)} free valuation bits exceed the limit "
            f"{limits.max_free_bits}")

    implies = [(bit[e], bit[e.lhs], bit[e.rhs])
               for e in closure if isinstance(e, Implies)]
    hyps = sum({bit[h] for h in seq.hypotheses})  # distinct bits: a union
    # Per modality: the (box, body) bit pairs, and whether the frame is
    # transitive (k4/s4) or reflexive (t/s4).
    mods = [([(bit[e], bit[e.body]) for e in closure if isinstance(e, kind)],
             frame in ("k4", "s4"), frame in ("t", "s4"))
            for kind, frame in ((Nabla, seq.frame_nabla),
                                (Prime, seq.frame_prime))]

    # reqs[t] holds, per modality, the need mask (the bits every successor
    # of t must have) and the bodies of the boxes t falsifies.  On a
    # reflexive frame a type must be its own successor.
    reqs: dict[int, list[tuple[int, int]]] = {}
    for assignment in product((0, 1), repeat=len(free)):
        t = sum(compress(free, assignment))
        for b, lhs, rhs in implies:
            if not t & lhs or t & rhs:
                t |= b
        if t & hyps != hyps:
            continue
        req = []
        for pairs, transitive, reflexive in mods:
            need = want = 0
            for box, body in pairs:
                if t & box:
                    need |= (body | box) if transitive else body
                else:
                    want |= body
            if reflexive and t & need != need:
                break
            req.append((need, want))
        else:
            reqs[t] = req
            if len(reqs) > limits.max_types:
                return ResourceOut(
                    f"more than {limits.max_types} candidate types")

    # Eliminate, round by round, every type with a falsified box whose
    # body all its surviving successors share.
    alive, changed = list(reqs), True
    while changed:
        kept = [t for t in alive if not any(
            want & _shared(alive, need) for need, want in reqs[t] if want)]
        alive, changed = kept, len(kept) < len(alive)

    witness = next((t for t in alive if not t & bit[seq.goal]), None)
    if witness is None:
        return Proved()

    atoms = [(e.name, bit[e]) for e in closure if isinstance(e, FlexVar)]
    model = _extract_model(witness, alive, reqs, mods, atoms)
    _verify(seq, model, 0)
    return Countermodel(model, 0)


def _shared(types: list[int], need: int) -> int:
    """The bits common to every type with all bits of `need` (-1: none)."""
    common = -1
    for u in types:
        if u & need == need:
            common &= u
    return common


def _extract_model(root, alive, reqs, mods, atoms) -> PropModel:
    """The part of the canonical model reachable from `root` through the
    modalities that have boxes, breadth first, with states numbered in
    order of first reach; primeR only when prime has boxes."""
    order, seen = [root], {root}
    for t in order:  # grows while walked: a FIFO queue
        for (pairs, _, _), (need, _) in zip(mods, reqs[t]):
            if not pairs:
                continue
            for u in alive:
                if u not in seen and u & need == need:
                    seen.add(u)
                    order.append(u)

    zeta = {(name, i): "tt" if t & b else "ff"
            for name, b in atoms
            for i, t in enumerate(order)}

    def relation(m: int) -> frozenset:
        rows: dict[int, list[int]] = {}  # need mask -> its successors
        pairs: list[tuple[int, int]] = []
        for i, t in enumerate(order):
            need = reqs[t][m][0]
            if need not in rows:
                rows[need] = [j for j, u in enumerate(order)
                              if u & need == need]
            pairs.extend((i, j) for j in rows[need])
        return frozenset(pairs)

    return PropModel(states=tuple(range(len(order))), R=relation(0),
                     zeta=zeta, primeR=relation(1) if mods[1][0] else None)


def _verify(seq: MLSequent, model: PropModel, state) -> None:
    for h in seq.hypotheses:
        hyp = compile_ml(h)
        for w in model.states:
            if hyp(model, w, {}) != model.tt:
                raise InternalError(
                    "countermodel fails a global hypothesis")
    if eval_ml(model, state, seq.goal) == model.tt:
        raise InternalError("countermodel satisfies the goal")
