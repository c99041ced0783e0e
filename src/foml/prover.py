"""Decision procedure for propositional (multi-)modal logic with global
hypotheses, over the K / T / K4 / S4 frame classes per modality.

The procedure enumerates Hintikka types (truth assignments to the closure
of the sequent that respect the propositional clauses, make every global
hypothesis true, and satisfy the local reflexivity law for T/S4 frames),
then repeatedly eliminates types whose falsified box-formulas have no
surviving witness successor.  The canonical relation between surviving
types realizes every surviving type, is reflexive/transitive exactly when
the frame class requires it, and makes the hypotheses true at every world,
so the sequent is provable iff no surviving type falsifies the goal.
Returned countermodels are restricted to the reachable part and re-checked
with the evaluator before being reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Union

from .models import PropModel, Value
from .semantics import eval_ml
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
    index = {e: i for i, e in enumerate(closure)}
    free = [e for e in closure
            if isinstance(e, (FlexVar, Nabla, Prime))]
    if len(free) > limits.max_free_bits:
        return ResourceOut(
            f"{len(free)} free valuation bits exceed the limit "
            f"{limits.max_free_bits}")

    hyp_idx = [index[h] for h in seq.hypotheses]
    goal_idx = index[seq.goal]
    boxes = {
        "nabla": [e for e in closure if isinstance(e, Nabla)],
        "prime": [e for e in closure if isinstance(e, Prime)],
    }
    frame_of = {"nabla": seq.frame_nabla, "prime": seq.frame_prime}

    def derive(bits: dict[Expression, bool]) -> Optional[tuple[bool, ...]]:
        vals: list[bool] = []
        for e in closure:
            match e:
                case FlexVar() | Nabla() | Prime():
                    v = bits[e]
                case FalseExpr():
                    v = False
                case Implies(lhs, rhs):
                    v = (not vals[index[lhs]]) or vals[index[rhs]]
                case _:
                    raise InternalError(f"non-ML node {e!r} in closure")
            vals.append(v)
        for i in hyp_idx:
            if not vals[i]:
                return None
        for mod in ("nabla", "prime"):
            if frame_of[mod] in ("t", "s4"):
                for b in boxes[mod]:
                    if vals[index[b]] and not vals[index[b.body]]:
                        return None
        return tuple(vals)

    types: list[tuple[bool, ...]] = []
    for assignment in product((False, True), repeat=len(free)):
        t = derive(dict(zip(free, assignment)))
        if t is not None:
            types.append(t)
            if len(types) > limits.max_types:
                return ResourceOut(
                    f"more than {limits.max_types} candidate types")

    def related(mod: str, t: tuple, u: tuple) -> bool:
        transitive = frame_of[mod] in ("k4", "s4")
        for b in boxes[mod]:
            if t[index[b]]:
                if not u[index[b.body]]:
                    return False
                if transitive and not u[index[b]]:
                    return False
        return True

    # Eliminate types whose falsified boxes have no surviving witness.
    alive = list(types)
    changed = True
    while changed:
        changed = False
        kept = []
        for t in alive:
            ok = True
            for mod in ("nabla", "prime"):
                for b in boxes[mod]:
                    if t[index[b]]:
                        continue
                    if not any(
                        related(mod, t, u) and not u[index[b.body]]
                        for u in alive
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                kept.append(t)
            else:
                changed = True
        alive = kept

    witness = next((t for t in alive if not t[goal_idx]), None)
    if witness is None:
        return Proved()

    model, state = _extract_model(
        witness, alive, closure, index, boxes, related)
    _verify(seq, model, state)
    return Countermodel(model, state)


def _extract_model(root, alive, closure, index, boxes, related):
    reachable = [root]
    frontier = [root]
    while frontier:
        nxt = []
        for t in frontier:
            for mod in ("nabla", "prime"):
                if not boxes[mod]:
                    continue
                for u in alive:
                    if u not in reachable and related(mod, t, u):
                        reachable.append(u)
                        nxt.append(u)
        frontier = nxt

    pos = {id(t): i for i, t in enumerate(reachable)}
    states = tuple(range(len(reachable)))
    atoms = [e for e in closure if isinstance(e, FlexVar)]
    zeta = {
        (a.name, pos[id(t)]): "tt" if t[index[a]] else "ff"
        for a in atoms
        for t in reachable
    }
    rel = {}
    for mod in ("nabla", "prime"):
        rel[mod] = frozenset(
            (pos[id(t)], pos[id(u)])
            for t in reachable
            for u in reachable
            if related(mod, t, u))
    prime_rel = rel["prime"] if boxes["prime"] else None
    return (
        PropModel(states=states, R=rel["nabla"], zeta=zeta,
                  primeR=prime_rel),
        0,
    )


def _verify(seq: MLSequent, model: PropModel, state) -> None:
    for h in seq.hypotheses:
        for w in model.states:
            if eval_ml(model, w, h) != model.tt:
                raise InternalError(
                    "countermodel fails a global hypothesis")
    if eval_ml(model, state, seq.goal) == model.tt:
        raise InternalError("countermodel satisfies the goal")
