"""Decision procedure for propositional (multi-)modal logic with global
hypotheses, over the K / T / K4 / S4 frame classes per modality.

A Hintikka type is a truth assignment to the closure of the sequent that
respects the propositional clauses, makes every global hypothesis true,
and satisfies the local reflexivity law for T/S4 frames.  A type is an
int whose bit i is the truth value of closure[i].  For each modality, a
type's need mask holds the bodies of its true boxes, plus those boxes
themselves on K4/S4 frames; the canonical relation links t to u iff u has
every bit of t's need mask.  A type survives when each of its falsified
boxes has a surviving successor without the box's body; the surviving
types make a canonical model that is reflexive/transitive exactly when
the frame class requires it and makes the hypotheses true at every
world, so the sequent is provable iff no surviving type falsifies the
goal.

The closure is numbered in one walk with its own stack, over the
hypotheses and then the goal, children before parents: each distinct
subformula gets the next number, keyed by its kind and its children's
numbers (hash-consing, as in Filliâtre & Conchon, Type-safe modular
hash-consing, 2006).  So no node is hashed, an object shared by several
parents is walked once, and the closure has no nesting limit.

Types are eliminated lazily, with global caching.  A key is a
requirement (must, b): the types with every bit of `must` (the
hypotheses plus a need mask) and without bit b.  The candidates come
from one search tree that all keys share: a node sets the free bits
(atoms and boxes) up to some point in closure order, and is grown once,
with a three-valued pass over the implications above its last bit that
cuts the children breaking a hypothesis or the reflexivity law.  Each
key keeps its own walk of the tree, a stack of the nodes still to
visit: depth first with 0 before 1, skipping the nodes that already
break its requirement, so its candidates come in enumeration order, and
moving the key on resumes its walk where it stopped.  One key is shared
by every type that has the requirement, on either modality, and its
live candidate is the first one not known to be dead.  The search
starts at the root key (the hypotheses, without the goal) and expands
only the live candidates of keys it reaches; a type dies when one of
its keys runs out of candidates, and a death moves on every key whose
live candidate it was, which can kill more types.  The sequent is
provable iff the root key runs out.  A type only dies when it has no
surviving witness, and the live expanded types are closed under live
candidates, so each key's live candidate is its first surviving type.

A countermodel is not the canonical model but a witness model grown from
the root key's live candidate: each falsified box of a state gets one
successor, its key's live candidate, closed under the frame's
reflexivity and transitivity.  Every countermodel is re-checked for its
frame classes and with the evaluator before being reported.  The
evaluator recurses once per level, so a countermodel of a sequent nested
past its reach gives ResourceOut naming the depth, never an unchecked
countermodel.

Two limits bound the search: `max_types` caps the distinct types the
keys generate, and `max_steps` caps the tree nodes grown.  A tree over
n free bits has at most 2^n - 1 nodes to grow, so the default step
limit is never reached with up to 18.  Hitting either limit gives
ResourceOut, never a wrong verdict.
"""
from __future__ import annotations

from itertools import product
from typing import Optional, Union

from .models import KripkeModel, Value
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
    Record,
)

# Each frame class: whether its relations are (reflexive, transitive).
FRAMES = {"k": (False, False), "t": (True, False),
          "k4": (False, True), "s4": (True, True)}


class MLSequent(Record):
    """Global-consequence sequent: hypotheses hold at every state of a
    model; the goal must then hold at every state too."""

    __slots__ = __match_args__ = ("hypotheses", "goal", "frame_nabla",
                                  "frame_prime")

    def __init__(self, hypotheses: tuple[Expression, ...], goal: Expression,
                 frame_nabla: str = "k", frame_prime: str = "k") -> None:
        self.hypotheses = hypotheses
        self.goal = goal
        self.frame_nabla = frame_nabla
        self.frame_prime = frame_prime


class ProverLimits(Record):
    __slots__ = __match_args__ = ("max_types", "max_steps")

    def __init__(self, max_types: int = 8000,
                 max_steps: int = 1 << 18) -> None:
        self.max_types = max_types
        self.max_steps = max_steps


class Proved(Record):
    __slots__ = __match_args__ = ("kind",)

    def __init__(self, kind: str = "proved") -> None:
        self.kind = kind


class Countermodel(Record):
    __slots__ = __match_args__ = ("model", "state", "kind")

    def __init__(self, model: KripkeModel, state: Value,
                 kind: str = "countermodel") -> None:
        self.model = model
        self.state = state
        self.kind = kind


class ResourceOut(Record):
    __slots__ = __match_args__ = ("reason", "kind")

    def __init__(self, reason: str, kind: str = "resource-out") -> None:
        self.reason = reason
        self.kind = kind


Verdict = Union[Proved, Countermodel, ResourceOut]


_NUMBERED = object()  # on the walk's stack: number the node below it


def _closure(seq: MLSequent) -> tuple[list[tuple], list[int]]:
    """Number the distinct subformulas of the sequent, children before
    parents, in the order of a depth-first walk over the hypotheses and
    then the goal: the closure.  Each subformula is keyed by its kind and
    its children's numbers, `(Implies, i, j)`, `(Nabla, i)`, `(Prime,
    i)`, `(FlexVar, name)` or `(FalseExpr,)`, so equal subformulas get
    one number without hashing a node.  An object met twice is walked
    once.  Returns the keys in closure order and the number of each
    hypothesis and of the goal.  A node outside the propositional modal
    fragment raises FomlError naming the first one in pre-order over the
    hypotheses and then the goal; `emit_mlseq` calls this as its guard."""
    number: dict[tuple, int] = {}
    seen: dict[int, int] = {}  # id of a walked node -> its number
    keys: list[tuple] = []
    roots: list[int] = []
    for root in (*seq.hypotheses, seq.goal):
        stack = [root]
        while stack:
            e = stack.pop()
            if e is _NUMBERED:  # the node below has its children numbered
                e = stack.pop()
                t = type(e)
                key = ((t, seen[id(e.lhs)], seen[id(e.rhs)]) if t is Implies
                       else (t, seen[id(e.body)]))
            elif id(e) in seen:
                continue
            else:
                t = type(e)
                if t is Implies:  # the lhs on top, so walked first
                    stack += (e, _NUMBERED, e.rhs, e.lhs)
                    continue
                if t is Nabla or t is Prime:
                    stack += (e, _NUMBERED, e.body)
                    continue
                if t is FlexVar:
                    key = (t, e.name)
                elif t is FalseExpr:
                    key = (t,)
                else:
                    raise FomlError(
                        f"not a propositional modal formula: {e}")
            i = number.get(key)
            if i is None:
                i = number[key] = len(keys)
                keys.append(key)
            seen[id(e)] = i
        roots.append(seen[id(root)])
    return keys, roots


def _depth(keys: list[tuple], roots: list[int]) -> int:
    """The most nodes on one path down from a hypothesis or the goal."""
    height: list[int] = []
    for t, *kids in keys:
        height.append(1 if t is FlexVar
                      else 1 + max((height[i] for i in kids), default=0))
    return max(height[i] for i in roots)


class _OutOfLimits(Exception):
    """Carries the ResourceOut reason."""


class _Key:
    """A requirement, the types with every bit of `must` and without bit
    `must_not`; its own walk over the shared tree, a stack of (depth,
    node) still to visit; its live candidate (None once every candidate
    is dead); and the expanded types that need it."""

    __slots__ = ("must", "must_not", "stack", "live", "deps")

    def __init__(self, must: int, must_not: int, tree: list) -> None:
        self.must, self.must_not = must, must_not
        self.stack = [(0, tree)]
        self.live: Optional[int] = None
        self.deps: list[int] = []


class _Search:
    """Lazy type elimination over one sequent's closure (see the module
    docstring).  `free` lists the free bits in closure order; `up[i]`
    the (bit, lhs, rhs) implications whose value can change when free
    bit i is set, children first; `bodies[i]` the body of free bit i
    when it is a box on a reflexive frame, else 0.  `tree` is the root
    of the search tree that every key walks, each on its own stack: a
    node at depth i is [T, F, kids], the (true, false) masks known once
    the first i free bits are set and its children, None until grown.
    Keys hold only nodes, never the search, so nothing here is a cycle
    and a finished search is freed by reference counting."""

    __slots__ = ("free", "up", "bodies", "hyps", "mods", "max_types",
                 "max_steps", "steps", "tree", "built", "dead", "keys",
                 "watch", "queue", "reqs")

    def __init__(self, free, up, bodies, start, hyps, mods, limits):
        self.free, self.up, self.bodies = free, up, bodies
        self.hyps, self.mods = hyps, mods
        self.max_types, self.max_steps = limits.max_types, limits.max_steps
        self.steps = 0
        self.tree = [*start, None]
        self.built: set[int] = set()
        self.dead: set[int] = set()
        self.keys: dict[tuple[int, int], _Key] = {}
        self.watch: dict[int, list[_Key]] = {}
        self.queue: list[int] = []
        # per expanded type and modality: the need mask and the bodies
        # of the falsified boxes
        self.reqs: dict[int, list[tuple[int, int]]] = {}

    def grow(self, i: int, T: int, F: int) -> list:
        """The children of a node at depth i: free bit i set to 1, then
        to 0, each kept unless it breaks a hypothesis or the reflexivity
        law.  One search step.  Every key's `must` holds the hypotheses,
        so the cut changes no walk; it keeps dead nodes out of memory."""
        self.steps += 1
        if self.steps > self.max_steps:
            raise _OutOfLimits(
                f"more than {self.max_steps} search steps "
                f"({len(self.built)} types built)")
        x, ups, body = self.free[i], self.up[i], self.bodies[i]
        hyps, kids = self.hyps, []
        for T, F in ((T | x, F), (T, F | x)):
            for b, lhs, rhs in ups:  # three-valued implication
                if F & lhs or T & rhs:
                    T |= b
                elif T & lhs and F & rhs:
                    F |= b
            # a box's body comes before it in the closure, so it is
            # decided: on a reflexive frame a true box needs it true
            if not (F & hyps or T & x and F & body):
                kids.append([T, F, None])
        return kids

    def key(self, must: int, b: int) -> _Key:
        key = self.keys.get((must, b))
        if key is None:
            key = self.keys[must, b] = _Key(must, b, self.tree)
            self.advance(key)
        return key

    def advance(self, key: _Key) -> None:
        """Move `key` to its next candidate not known to be dead: its walk
        goes on depth first over the tree, 0 before 1, so the candidates
        come in enumeration order."""
        dead, built, stack = self.dead, self.built, key.stack
        must, must_not, n = key.must, key.must_not, len(self.free)
        while stack:
            i, node = stack.pop()
            T, F, kids = node
            if F & must or T & must_not:
                continue
            if i < n:
                if kids is None:
                    kids = node[2] = self.grow(i, T, F)
                i += 1
                for kid in kids:  # the 0-child last, so it comes out first
                    stack.append((i, kid))
                continue
            if T in dead:  # a leaf: T is a type
                continue
            if T not in built:
                built.add(T)
                if len(built) > self.max_types:
                    raise _OutOfLimits(
                        f"more than {self.max_types} candidate types "
                        f"(after {self.steps} search steps)")
            key.live = T
            self.watch.setdefault(T, []).append(key)
            if T not in self.reqs:
                self.queue.append(T)
            return
        key.live = None

    def expand(self, t: int) -> None:
        """Record t's requirements and the keys that witness them; t dies
        if one of them has no live candidate."""
        req = self.reqs[t] = []
        for pairs, transitive, _ in self.mods:
            need = want = 0
            for box, body in pairs:
                if t & box:
                    need |= (body | box) if transitive else body
                else:
                    want |= body
            req.append((need, want))
        hyps = self.hyps
        for need, want in req:
            while want:
                b = want & -want
                want ^= b
                key = self.key(hyps | need, b)
                if key.live is None:
                    self.kill(t)
                    return
                key.deps.append(t)

    def kill(self, t: int) -> None:
        """Mark t dead and move on every key whose live candidate it
        was; a key that runs out kills the types that need it."""
        todo = [t]
        while todo:
            t = todo.pop()
            if t in self.dead:
                continue
            self.dead.add(t)
            for key in self.watch.pop(t, ()):
                self.advance(key)
                if key.live is None:
                    todo.extend(key.deps)


def prove_ml(
    seq: MLSequent, limits: ProverLimits = ProverLimits()
) -> Verdict:
    """Proved iff the sequent's global consequence holds over the declared
    frame classes; otherwise a verified countermodel, or ResourceOut when
    the search exceeds the limits (never a wrong verdict)."""
    for f in (seq.frame_nabla, seq.frame_prime):
        if f not in FRAMES:
            raise FomlError(f"unknown frame class {f!r}")
    closure, roots = _closure(seq)
    # below[b]: the free bits that closure bit b depends on through
    # implications alone; up[x]: the implications above free bit x
    free: list[int] = []
    below: dict[int, int] = {}
    up: dict[int, list[tuple[int, int, int]]] = {}
    T = F = 0
    frames = (FRAMES[seq.frame_nabla], FRAMES[seq.frame_prime])
    boxes: tuple[list, list] = ([], [])
    bodies: list[int] = []
    atoms = []
    for i, key in enumerate(closure):
        b = 1 << i
        t = key[0]
        if t is Implies:
            lhs, rhs = 1 << key[1], 1 << key[2]
            below[b] = m = below[lhs] | below[rhs]
            if not m:  # constant: decided before any free bit
                if F & lhs or T & rhs:
                    T |= b
                else:
                    F |= b
            while m:
                x = m & -m
                m ^= x
                up[x].append((b, lhs, rhs))
        elif t is FalseExpr:
            below[b] = 0
            F |= b
        else:
            below[b] = b
            up[b] = []
            free.append(b)
            if t is FlexVar:
                atoms.append((key[1], b))
                bodies.append(0)
            else:
                m = t is Prime
                body = 1 << key[1]
                boxes[m].append((b, body))
                bodies.append(body if frames[m][0] else 0)

    hyps = sum({1 << i for i in roots[:-1]})  # distinct bits: a union
    # Per modality: the (box, body) bit pairs, and whether the frame is
    # transitive and reflexive.
    mods = [(pairs, transitive, reflexive)
            for pairs, (reflexive, transitive) in zip(boxes, frames)]
    s = _Search(free, [up[x] for x in free], bodies, (T, F), hyps, mods,
                limits)
    try:
        root = s.key(hyps, 1 << roots[-1])
        while s.queue and root.live is not None:
            t = s.queue.pop()
            if t not in s.reqs:
                s.expand(t)
    except _OutOfLimits as out:
        return ResourceOut(str(out))
    if root.live is None:
        return Proved()

    keys, hyps = s.keys, s.hyps
    model = _extract_model(root.live, s.reqs,
                           lambda need, b: keys[hyps | need, b].live,
                           mods, atoms)
    try:
        _verify(seq, model, 0)
    except RecursionError:
        return ResourceOut(
            f"nesting depth {_depth(closure, roots)} is past the evaluator's "
            "reach, so the countermodel found was not verified")
    return Countermodel(model, 0)


def _extract_model(root, reqs, witness, mods, atoms) -> KripkeModel:
    """A witness model from `root`: on each modality with boxes, every
    falsified box of a state gets one successor, `witness(need, body)`:
    the first surviving type with all of the state's need mask and
    without the box's body.  States are numbered breadth first in
    order of first reach.  Transitive frames take the closure of these
    edges and reflexive frames add a loop at every state; both stay
    inside the canonical relation, so every true box still holds.  A
    modality without boxes relates every pair of states; primeR only
    when prime has boxes."""
    order, index = [root], {root: 0}
    succ: list[list[list[int]]] = [[], []]  # per modality, per state
    for i, t in enumerate(order):  # grows while walked: a FIFO queue
        for m, (need, want) in enumerate(reqs[t]):
            out = []
            while want:
                b = want & -want  # lowest falsified body first
                want ^= b
                u = witness(need, b)
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

    return KripkeModel.propositional(
        tuple(states), relation(0), zeta,
        primeR=relation(1) if mods[1][0] else None)


def _verify(seq: MLSequent, model: KripkeModel, state) -> None:
    """Raise InternalError unless the model lies in the sequent's frame
    classes, makes every hypothesis true at every state and the goal
    false at `state`."""
    rels = [("R", model.R, seq.frame_nabla)]
    if model.primeR is not None:
        rels.append(("primeR", model.primeR, seq.frame_prime))
    for name, rel, frame in rels:
        reflexive, transitive = FRAMES[frame]
        if not (reflexive or transitive):
            continue
        succ: dict = {w: set() for w in model.states}
        for v, w in rel:
            succ[v].add(w)
        if reflexive and any(w not in succ[w] for w in succ):
            raise InternalError(
                f"countermodel {name} is not reflexive on frame {frame}")
        if transitive and any(
                not succ[w] <= ws for ws in succ.values() for w in ws):
            raise InternalError(
                f"countermodel {name} is not transitive on frame {frame}")
    for h in seq.hypotheses:
        for w in model.states:
            if eval_ml(model, w, h) != model.tt:
                raise InternalError(
                    "countermodel fails a global hypothesis")
    if eval_ml(model, state, seq.goal) == model.tt:
        raise InternalError("countermodel satisfies the goal")
