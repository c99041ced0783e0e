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
A countermodel is not that canonical model but a witness model grown from
a goal-falsifying type: each falsified box of a state gets one successor,
the first surviving type with the state's need mask and without the box's
body, closed under the frame's reflexivity and transitivity.  Every
countermodel is re-checked for its frame classes and with the evaluator
before being reported.
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
    """A witness model from `root`: on each modality with boxes, every
    falsified box of a state gets one successor, the first surviving type
    with all of the state's need mask and without the box's body.  States
    are numbered breadth first in order of first reach.  Transitive
    frames take the closure of these edges and reflexive frames add a
    loop at every state; both stay inside the canonical relation, so
    every true box still holds.  A modality without boxes relates every
    pair of states; primeR only when prime has boxes."""
    order, index = [root], {root: 0}
    succ: list[list[list[int]]] = [[], []]  # per modality, per state
    for i, t in enumerate(order):  # grows while walked: a FIFO queue
        for m, (need, want) in enumerate(reqs[t]):
            out = []
            while want:
                b = want & -want  # lowest falsified body first
                want ^= b
                u = next(u for u in alive if u & need == need and not u & b)
                if u not in index:
                    index[u] = len(order)
                    order.append(u)
                out.append(index[u])
            succ[m].append(out)

    zeta = {(name, i): "tt" if t & b else "ff"
            for name, b in atoms
            for i, t in enumerate(order)}
    states = range(len(order))

    def relation(m: int) -> frozenset:
        pairs, transitive, reflexive = mods[m]
        if not pairs:
            return frozenset(product(states, repeat=2))
        rel = set()
        for i in states:
            reach = {i} if reflexive else set()
            todo = list(succ[m][i])
            while todo:
                j = todo.pop()
                if j not in reach:
                    reach.add(j)
                    if transitive:
                        todo.extend(succ[m][j])
            rel.update((i, j) for j in reach)
        return frozenset(rel)

    return PropModel(states=tuple(states), R=relation(0), zeta=zeta,
                     primeR=relation(1) if mods[1][0] else None)


def _verify(seq: MLSequent, model: PropModel, state) -> None:
    """Raise InternalError unless the model lies in the sequent's frame
    classes, makes every hypothesis true at every state and the goal
    false at `state`."""
    rels = [("R", model.R, seq.frame_nabla)]
    if model.primeR is not None:
        rels.append(("primeR", model.primeR, seq.frame_prime))
    for name, rel, frame in rels:
        if frame == "k":
            continue
        succ: dict = {w: set() for w in model.states}
        for v, w in rel:
            succ[v].add(w)
        if frame in ("t", "s4") and any(w not in succ[w] for w in succ):
            raise InternalError(
                f"countermodel {name} is not reflexive on frame {frame}")
        if frame in ("k4", "s4") and any(
                not succ[w] <= ws for ws in succ.values() for w in ws):
            raise InternalError(
                f"countermodel {name} is not transitive on frame {frame}")
    for h in seq.hypotheses:
        hyp = compile_ml(h)
        for w in model.states:
            if hyp(model, w, {}) != model.tt:
                raise InternalError(
                    "countermodel fails a global hypothesis")
    if eval_ml(model, state, seq.goal) == model.tt:
        raise InternalError("countermodel satisfies the goal")
