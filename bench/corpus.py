"""Seeded corpus generator for the benchmark workloads.

Every generator is a pure function of its `random.Random`: the same seed
gives a byte-identical corpus, a different seed a different one.  The
program under test only ever sees the generated text (problem files,
`.mlseq` sequents, fuzz seeds); the structured facts the checks rely on
(known verdicts, Leibniz tables) are computed here, from the generator's
own construction, never by calling the program.

Each family carries a `why`: the input property it varies and the layer or
cost curve it is there to expose.  Sizes are capped so that no op costs
more than about 2 s on the commit that introduced the benchmark; the
measured cells are recorded beside each family.  The seed changes names,
orders and details; what sets an input's cost (sizes, signatures, frames,
the shapes of random sequents) is fixed, so every seed measures the same
work.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demo"
DEMOS = ("box", "cst", "cst-forall", "eq3", "stability")

TRANSLATE_SUBCOMMANDS = (
    ("coalesce-fol",),
    ("coalesce-fol", "--rewrite-rigid-box"),
    ("coalesce-ml",),
    ("emit", "--emit=smt"),
    ("emit", "--emit=tptp"),
    ("emit", "--emit=mlseq"),
    ("leibniz",),
)
FRAMES = ("k", "t", "k4", "s4")
FUZZ_CHECKS = ("fol-witness,ml-witness,rigid-lemma,leibniz-lemma,"
               "distribute-prime,action-refutation")
FUZZ_ITERS = 10


@dataclass
class Family:
    name: str
    why: str


@dataclass
class Item:
    """One corpus entry: the files it needs and the op to run on them.

    `kind` is "cli" (argv for `foml.cli.main`, with `{dir}` standing for
    the corpus directory) or "search" (find_countermodel at `bounds`, then
    `check-model` on any model found).  `expect` is the known answer where
    the family has one, else None.
    """

    family: str
    name: str
    kind: str
    files: dict[str, str]
    argv: tuple[str, ...] = ()
    expect: Optional[str] = None
    bounds: tuple[int, int] = (2, 2)
    leibniz: Optional[str] = None  # expected `foml leibniz` output
    golden: Optional[str] = None  # golden-shape key for demo outputs

    @property
    def label(self) -> str:
        return f"{self.family}/{self.name}"


@dataclass
class Corpus:
    workload: str
    seed: int
    families: list[Family]
    items: list[Item]
    warmup: Item

    def files(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for item in self.items + [self.warmup]:
            for name, text in item.files.items():
                if out.setdefault(name, text) != text:
                    raise ValueError(f"corpus file {name} defined twice")
        return out

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in self.files().items():
            (directory / name).write_text(text)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for name, text in sorted(self.files().items()):
            h.update(name.encode() + b"\0" + text.encode() + b"\0")
        for it in self.items:
            h.update(repr((it.label, it.kind, it.argv, it.expect,
                           it.bounds)).encode())
        return h.hexdigest()


# ---------------------------------------------------------------- helpers

def _and(parts: list[str]) -> str:
    return parts[0] if len(parts) == 1 else f"(and {' '.join(parts)})"


def _nest(head: str, body: str, depth: int) -> str:
    for _ in range(depth):
        body = f"({head} {body})"
    return body


def _demo_text(name: str) -> str:
    return (DEMO_DIR / f"{name}.foml").read_text()


def _box_warmup() -> Item:
    return Item("warmup", "box", "cli", {"box.foml": _demo_text("box")},
                argv=("coalesce-fol", "{dir}/box.foml"))


def _problem_ops(family: str, stem: str, text: str, leibniz: str,
                 golden: Optional[str] = None) -> list[Item]:
    fname = f"{family}-{stem}.foml"
    out = []
    for sub in TRANSLATE_SUBCOMMANDS:
        tag = "-".join(a.lstrip("-").replace("=", "-") for a in sub)
        out.append(Item(family, f"{stem}:{tag}", "cli", {fname: text},
                        argv=(sub[0], "{dir}/" + fname) + sub[1:],
                        leibniz=leibniz, golden=golden))
    return out


# ------------------------------------------------------ translate families

TRANSLATE_FAMILIES = [
    Family("demo", "the shipped demo problems; outputs are compared with "
           "the golden shapes of acceptance criterion 1 modulo fresh names"),
    Family("width", "conjunction width 6..36 over mixed first-order and "
           "modal conjuncts: parser, printer and coalescing cost per "
           "conjunct, and whether an iterative rewrite slows the common case"),
    Family("depth", "nabla nesting depth 6..48 with a prime at the bottom: "
           "alpha keys and the ML translation walk deep bodies"),
    Family("defdepth", "definition depth 2..10 (each definition applies the "
           "previous one): Leibniz analysis, epsilon vectors and "
           "definition-indexed symbols"),
    Family("binders", "binder depth 2..5 over the abstracted body: "
           "lambda-lifting arity and the witness tables it implies"),
    Family("shared", "24 modal conjuncts, most alpha-equivalent to an "
           "earlier one: interning hits"),
    Family("distinct", "24 modal conjuncts, none alpha-equivalent to an "
           "earlier one: interning misses at the same size as `shared`"),
    Family("safety", "rotation transition systems over 2..4 variables: the "
           "prime pipeline (distribute, coalesce-action) and the safety "
           "obligations"),
]

_CONSTS = ("0", "1")


def _width_problem(rng: random.Random, width: int) -> str:
    parts = []
    for _ in range(width):
        v = rng.choice(("u", "v"))
        c = rng.choice(_CONSTS)
        kind = rng.randrange(4)
        if kind == 0:
            parts.append(f"(= {v} {c})")
        elif kind == 1:
            parts.append(f"(nabla (= {v} {c}))")
        elif kind == 2:
            parts.append(f"(= (f {rng.choice(('x', 'y'))}) {c})")
        else:
            parts.append(f"(exists a (nabla (= (f a) {v})))")
    goal = f"(=> {_and(parts)} (nabla {_and(parts[: max(1, width // 4)])}))"
    return ("(declare-op 0 0) (declare-op 1 0) (declare-op f 1)\n"
            "(declare-rigid x) (declare-rigid y)\n"
            "(declare-flex u) (declare-flex v)\n"
            f"(assume (= x x))\n(goal {goal})\n")


def _depth_problem(rng: random.Random, depth: int) -> str:
    body = f"(= (prime {rng.choice(('u', 'v'))}) {rng.choice(_CONSTS)})"
    for _ in range(depth):
        if rng.random() < 0.3:
            body = f"(nabla (=> (= {rng.choice(('u', 'v'))} 0) {body}))"
        else:
            body = f"(nabla {body})"
    return ("(declare-op 0 0) (declare-op 1 0)\n"
            "(declare-flex u) (declare-flex v)\n"
            f"(goal (=> (= u 0) {body}))\n")


def _defdepth_problem(rng: random.Random, depth: int) -> tuple[str, str]:
    """d0(p q) = nabla(p = 0) /\\ q = 0: p non-Leibniz, q Leibniz.  Each
    later d_k passes its parameters to d_(k-1) in a seeded order and may
    box one of them, so the expected table follows from the construction."""
    defs = ["(define (d0 p q) (and (nabla (= p 0)) (= q 0)))"]
    non_leibniz = [{"p"}]
    table = ["d0: N L"]
    for k in range(1, depth + 1):
        swap = rng.random() < 0.5
        args = ("q", "p") if swap else ("p", "q")
        prev_bad = non_leibniz[-1]
        bad = {args[i] for i, prm in enumerate(("p", "q")) if prm in prev_bad}
        extra = "(= (f q) p)"
        if rng.random() < 0.3:
            boxed = rng.choice(("p", "q"))
            extra = f"(nabla (= {boxed} 0))"
            bad.add(boxed)
        defs.append(f"(define (d{k} p q) "
                    f"(and (d{k - 1} {args[0]} {args[1]}) {extra}))")
        non_leibniz.append(bad)
        table.append(f"d{k}: " + " ".join(
            "N" if prm in bad else "L" for prm in ("p", "q")))
    top = f"d{depth}"
    goal = (f"(and (=> (= u v) (iff ({top} u v) ({top} v u))) "
            f"(forall a (forall b (=> (= a b) "
            f"(iff ({top} a x) ({top} b x))))))")
    text = ("(declare-op 0 0) (declare-op f 1)\n"
            "(declare-rigid x)\n(declare-flex u) (declare-flex v)\n"
            + "\n".join(defs) + f"\n(goal {goal})\n")
    return text, "\n".join(table)


def _binders_problem(rng: random.Random, depth: int) -> str:
    names = [f"a{i}" for i in range(depth)]
    used = rng.sample(names, k=min(len(names), rng.randrange(2, depth + 1)))
    inner = f"(nabla (= (g {used[0]} {used[1]}) v))"
    for extra in used[2:]:
        inner = f"(nabla (=> (= {extra} u) {inner}))"
    body = f"(=> (= (g {names[0]} {names[-1]}) u) {inner})"
    for name in reversed(names):
        body = f"({rng.choice(('forall', 'exists'))} {name} {body})"
    return ("(declare-op g 2)\n(declare-flex u) (declare-flex v)\n"
            f"(goal {body})\n")


def _sharing_problem(rng: random.Random, width: int, shared: bool) -> str:
    parts = []
    for i in range(width):
        if shared:
            # three templates under fresh bound names: alpha-equivalent
            t = rng.randrange(3)
            b = f"b{i}"
            parts.append((f"(exists {b} (nabla (= v {b})))",
                          f"(forall {b} (nabla (= (f {b}) u)))",
                          "(nabla (= v 0))")[t])
        else:
            fs = "(f " * i + "b" + ")" * i
            parts.append(rng.choice((
                f"(exists b (nabla (= v {fs})))",
                f"(forall b (nabla (= {fs} u)))")))
    return ("(declare-op 0 0) (declare-op f 1)\n"
            "(declare-flex u) (declare-flex v)\n"
            f"(goal (=> {_and(parts)} (nabla (= v 0))))\n")


def _safety_problem(rng: random.Random, nvars: int) -> str:
    names = rng.sample(("s", "t", "w", "x", "y", "z"), k=nvars)
    decl = " ".join(f"(declare-flex {n})" for n in names)
    init = _and([f"(= {n} 0)" for n in names])
    step = _and([f"(= (prime {names[i]}) {names[(i + 1) % nvars]})"
                 for i in range(nvars)])
    inv = _and([f"(= {names[i]} {names[i + 1]})" for i in range(nvars - 1)])
    return (f"(declare-op 0 0)\n{decl}\n(init {init})\n(next {step})\n"
            f"(invariant {inv})\n(inductive-invariant {inv})\n")


def translate_corpus(seed: int) -> Corpus:
    rng = random.Random(f"translate:{seed}")
    items: list[Item] = []
    for name in DEMOS:
        text = _demo_text(name)
        table = "cst: N" if name.startswith("cst") else ""
        items += _problem_ops("demo", name, text, table, golden=name)
    for width in (6, 12, 24, 36):
        for r in range(2):
            items += _problem_ops("width", f"w{width}r{r}",
                                  _width_problem(rng, width), "")
    for depth in (6, 12, 24, 48):
        for r in range(2):
            items += _problem_ops("depth", f"n{depth}r{r}",
                                  _depth_problem(rng, depth), "")
    for depth in (2, 4, 7, 10):
        for r in range(2):
            text, table = _defdepth_problem(rng, depth)
            items += _problem_ops("defdepth", f"k{depth}r{r}", text, table)
    for depth in (2, 3, 4, 5):
        for r in range(2):
            items += _problem_ops("binders", f"b{depth}r{r}",
                                  _binders_problem(rng, depth), "")
    for r in range(3):
        items += _problem_ops("shared", f"r{r}",
                              _sharing_problem(rng, 24, True), "")
        items += _problem_ops("distinct", f"r{r}",
                              _sharing_problem(rng, 24, False), "")
    for nvars in (2, 3, 4):
        for r in range(2):
            stem = f"safety-v{nvars}r{r}"
            text = _safety_problem(rng, nvars)
            items.append(Item("safety", stem, "cli", {f"{stem}.foml": text},
                              argv=("safety", "{dir}/" + f"{stem}.foml",
                                    "--out", "{dir}/out-" + stem)))
    items.append(Item("demo", "swap:safety", "cli",
                      {"swap.foml": _demo_text("swap")},
                      argv=("safety", "{dir}/swap.foml",
                            "--out", "{dir}/out-swap")))
    warmup = _box_warmup()
    return Corpus("translate", seed, TRANSLATE_FAMILIES, items, warmup)


# ---------------------------------------------------------- over-limit slice

OVERLIMIT_FAMILIES = [
    Family("overlimit", "inputs past the recursion limit of the commit that "
           "introduced the benchmark: (and ...) of 200 and of 400 "
           "equalities and a 2000-deep nabla.  Every op that crashes counts "
           "as failed; depth-independent processing shows as a drop in "
           "failed_share"),
]


def overlimit_corpus(seed: int) -> Corpus:
    rng = random.Random(f"overlimit:{seed}")
    items = []
    inputs = {}
    for width in (200, 400):
        eqs = [f"(= v{rng.randrange(4)} {rng.choice(_CONSTS)})"
               for _ in range(width)]
        inputs[f"and{width}"] = (
            "(declare-op 0 0) (declare-op 1 0)\n"
            + " ".join(f"(declare-flex v{i})" for i in range(4))
            + f"\n(goal (=> {_and(eqs)} (nabla (= v0 0))))\n")
    inputs["nabla2000"] = ("(declare-op 0 0) (declare-flex v)\n"
                           f"(goal {_nest('nabla', '(= v 0)', 2000)})\n")
    for stem, text in inputs.items():
        for sub in ("coalesce-fol", "coalesce-ml", "prove-ml"):
            items.append(Item("overlimit", f"{stem}:{sub}", "cli",
                              {f"{stem}.foml": text},
                              argv=(sub, "{dir}/" + f"{stem}.foml")))
    warmup = _box_warmup()
    return Corpus("overlimit", seed, OVERLIMIT_FAMILIES, items, warmup)


# ---------------------------------------------------------- prove families

PROVE_FAMILIES = [
    Family("chain", "hypotheses p_i => nabla p_(i+1), goal p_0 => "
           "nabla^(n-1) p_(n-1): proved, and a countermodel once a link is "
           "dropped.  n=3,4 on every frame, n=5 on t and s4 only (k/k4 at "
           "n=5 take 2-155 s); the prover's cost grows ~10-50x per step"),
    Family("random", "random sequent shapes over 1-3 atoms with 4-9 free "
           "bits on every frame (fixed shapes, so every seed measures the "
           "same prover work; the seed renames atoms and reorders "
           "hypotheses): type enumeration and elimination on mixed shapes"),
    Family("foml", "problem files with rigid and flexible sources: "
           "coalesce-ml and the stability hypotheses on the prover's path"),
    Family("wide", "trivially refutable implications over 20-27 atoms, "
           "above the 18-free-bit limit: resource-out today, so a "
           "goal-directed prover shows as a rise in decided_share"),
]


def _chain_sequent(rng: random.Random, n: int, frame: str,
                   drop: Optional[int]) -> str:
    prefix = rng.choice("pqrs")
    atoms = [f"{prefix}{i}" for i in range(n)]
    hyps = [f"(=> {atoms[i]} (nabla {atoms[i + 1]}))"
            for i in range(n - 1) if i != drop]
    rng.shuffle(hyps)
    goal = f"(=> {atoms[0]} {_nest('nabla', atoms[-1], n - 1)})"
    return (f"(mlseq\n  (frame nabla {frame})\n  (frame prime k)\n"
            f"  (global-hypotheses {' '.join(hyps)})\n  (goal {goal})\n)\n")


def _ml_formula(rng: random.Random, atoms: list[str], depth: int,
                prime: bool) -> str:
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(["false"] + atoms)
    kind = rng.choice(["=>", "=>", "nabla"] + (["prime"] if prime else []))
    if kind == "=>":
        return (f"(=> {_ml_formula(rng, atoms, depth - 1, prime)} "
                f"{_ml_formula(rng, atoms, depth - 1, prime)})")
    return f"({kind} {_ml_formula(rng, atoms, depth - 1, prime)})"


def free_bits(formulas: list[str]) -> int:
    """Distinct atom / nabla / prime subformulas of s-expression formulas:
    the prover's free valuation bits, computed from the text alone."""
    seen: set[str] = set()

    def visit(text: str, i: int) -> int:
        # returns the index just past the subformula starting at i
        if text[i] != "(":
            j = i
            while j < len(text) and text[j] not in " ()":
                j += 1
            if text[i:j] != "false":
                seen.add(text[i:j])
            return j
        j = i + 1
        while text[j] != " ":
            j += 1
        head = text[i + 1:j]
        depth, k = 0, i
        while True:
            if text[k] == "(":
                depth += 1
            elif text[k] == ")":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        if head in ("nabla", "prime"):
            seen.add(text[i:k + 1])
        pos = j + 1
        while pos < k:
            pos = visit(text, pos)
            while pos < k and text[pos] == " ":
                pos += 1
        return k + 1

    for f in formulas:
        visit(f, 0)
    return len(seen)


def _random_structures(count: int) -> list[tuple]:
    """Random sequent shapes over atoms A0..A2 with 4-9 free bits, drawn
    from a fixed generator: the prover's cost depends on the shape and the
    frame, so these stay the same for every workload seed, which only
    renames the atoms and reorders the hypotheses."""
    rng = random.Random("prove:structures")
    out = []
    while len(out) < count:
        atoms = ["A0", "A1", "A2"][: rng.randrange(1, 4)]
        prime = rng.random() < 0.25
        hyps = [_ml_formula(rng, atoms, 3, prime)
                for _ in range(rng.randrange(0, 3))]
        goal = _ml_formula(rng, atoms, 4, prime)
        if 4 <= free_bits(hyps + [goal]) <= 9:
            pframe = FRAMES[len(out) % 3] if prime else "k"
            out.append((hyps, goal, FRAMES[len(out) % 4], pframe))
    return out


def _random_sequent(rng: random.Random, shape) -> str:
    hyps, goal, frame, pframe = shape
    names = rng.sample(("p", "q", "r", "s", "t", "w"), 3)
    hyps = list(hyps)
    rng.shuffle(hyps)
    text = (f"(mlseq\n  (frame nabla {frame})\n  (frame prime {pframe})\n"
            f"  (global-hypotheses {' '.join(hyps)})\n  (goal {goal})\n)\n")
    for i, name in enumerate(names):
        text = text.replace(f"A{i}", name)
    return text


def _stable_problem(rng: random.Random, rigid: bool,
                    k: int) -> tuple[str, str]:
    """x = y is rigid, so `x = y => nabla^k (x = y)` is proved once the
    stability hypothesis is added; the flexible twin has a countermodel."""
    if rigid:
        a, b = rng.sample(("x", "y", "z"), 2)
        decl = "(declare-rigid x) (declare-rigid y) (declare-rigid z)"
        fact = f"(= {a} {b})"
    else:
        a = rng.choice(("u", "v"))
        decl = "(declare-op 0 0) (declare-flex u) (declare-flex v)"
        fact = f"(= {a} 0)"
    goal = f"(=> {fact} {_nest('nabla', fact, k)})"
    return f"{decl}\n(goal {goal})\n", "proved" if rigid else "countermodel"


def prove_corpus(seed: int) -> Corpus:
    rng = random.Random(f"prove:{seed}")
    items: list[Item] = []

    def add(family: str, stem: str, text: str, expect: Optional[str],
            ext: str = "mlseq", extra: tuple[str, ...] = ()) -> None:
        fname = f"{stem}.{ext}"
        items.append(Item(family, stem, "cli", {fname: text},
                          argv=("prove-ml", "{dir}/" + fname) + extra,
                          expect=expect))

    cells = [(n, f) for n in (3, 4) for f in FRAMES] + [(5, "t"), (5, "s4")]
    for n, frame in cells:
        for drop in (None, 0, n - 2):
            tag = "full" if drop is None else f"drop{drop}"
            add("chain", f"chain-n{n}-{frame}-{tag}",
                _chain_sequent(rng, n, frame, drop),
                "proved" if drop is None else "countermodel")
    for r, shape in enumerate(_random_structures(24)):
        add("random", f"random{r}", _random_sequent(rng, shape), None)
    for r in range(12):
        rigid = r % 2 == 0
        text, expect = _stable_problem(rng, rigid, 1 + r // 2 % 3)
        add("foml", f"foml{r}", text, expect, ext="foml",
            extra=("--frame", FRAMES[(r // 2) % 4]))
    for name, expect in (("box", "countermodel"), ("stability", "proved")):
        add("foml", f"demo-{name}", _demo_text(name), expect, ext="foml")
    for r in range(8):
        width = 20 + r
        atoms = [f"w{i}" for i in range(width)]
        rng.shuffle(atoms)
        goal = "z"
        for a in atoms:
            goal = f"(=> {a} {goal})"
        add("wide", f"wide{r}", f"(mlseq (global-hypotheses) (goal {goal}))\n",
            "not-valid")
    warmup = Item("warmup", "chain", "cli",
                  {"warmup.mlseq": _chain_sequent(random.Random(0), 3, "k",
                                                  None)},
                  argv=("prove-ml", "{dir}/warmup.mlseq"))
    return Corpus("prove", seed, PROVE_FAMILIES, items, warmup)


# ---------------------------------------------------------- search families

SEARCH_FAMILIES = [
    Family("demo", "demo problems at bounds (2,2)..(3,3): one obligation "
           "over thousands of enumerated models (eq3 and cst-forall at "
           "(2,3) and (3,3) take 0.7-9 s and are left out, so that a run "
           "holds enough passes)"),
    Family("valid", "seeded renamings of known-valid laws (Barcan, rigid "
           "stability, cst-forall, stability): exhaustive `none` sweeps "
           "whose answer is known"),
    Family("template", "seeded small obligations at (2,2) and (3,2) over "
           "one fixed signature, 40% valid by construction: early `found` "
           "results, where per-model set-up dominates, mixed with full "
           "sweeps of fixed size"),
]

_DEMO_BOUNDS = {
    "box": ((2, 2), (2, 3), (3, 2), (3, 3)),
    "cst": ((2, 2), (2, 3), (3, 2), (3, 3)),
    "cst-forall": ((2, 2), (3, 2)),
    "eq3": ((2, 2), (3, 2)),
    "stability": ((2, 2), (2, 3), (3, 2), (3, 3)),
}


def _valid_problem(rng: random.Random, law: str) -> str:
    a, b = rng.sample(("a", "b", "c", "d"), 2)
    v = rng.choice(("v", "w"))
    if law == "barcan":
        return (f"(declare-flex {v})\n(goal (iff (forall {a} (nabla "
                f"(= {v} {a}))) (nabla (forall {a} (= {v} {a})))))\n")
    if law == "barcan-f":
        return (f"(declare-op f 1) (declare-flex {v})\n"
                f"(goal (iff (forall {a} (nabla (= (f {a}) {v}))) "
                f"(nabla (forall {a} (= (f {a}) {v})))))\n")
    if law == "rigid":
        return (f"(goal (forall {a} (forall {b} "
                f"(=> (= {a} {b}) (nabla (= {a} {b}))))))\n")
    if law == "cst-forall":
        return (f"(define (cst {a}) (exists {b} (nabla (= {a} {b}))))\n"
                f"(goal (forall x (forall y "
                f"(=> (= x y) (iff (cst x) (cst y))))))\n")
    x, y = rng.sample(("x", "y", "z"), 2)
    return (f"(declare-rigid {x}) (declare-rigid {y})\n"
            f"(goal (=> (and (= {x} {y}) (nabla (delta true))) "
            f"(nabla (delta (= {x} {y})))))\n")


_SEARCH_ATOMS = ("(= v 0)", "(= v x)", "(= x 0)", "(nabla (= v 0))",
                 "(nabla (= v x))", "(nabla (= x 0))")


def _template_obligation(rng: random.Random, valid: bool,
                         pair: tuple[int, int]) -> tuple[str, Optional[str]]:
    """`(=> (and T H1 H2) C)` over 0, rigid x and flexible v, where H1, H2
    are the atoms `pair` picks and the tautology T fixes the signature, so
    every seed sweeps the same number of models.  When `valid`, C is H1
    (known answer `none`, after a full sweep whose cost the seed must not
    change); otherwise H1, H2 come in seeded order and C is
    `(nabla (nabla false))`, refuted early by a one-state loop where every
    atom holds."""
    hyps = [_SEARCH_ATOMS[pair[0]], _SEARCH_ATOMS[pair[1]]]
    concl = hyps[0] if valid else "(nabla (nabla false))"
    if not valid:
        rng.shuffle(hyps)
    goal = f"(=> (and (=> (= x 0) (= v v)) {' '.join(hyps)}) {concl})"
    return ("(declare-op 0 0) (declare-rigid x) (declare-flex v)\n"
            f"(goal {goal})\n", "none" if valid else "found")


def search_corpus(seed: int) -> Corpus:
    rng = random.Random(f"search:{seed}")
    items: list[Item] = []

    def add(family: str, stem: str, text: str, bounds: tuple[int, int],
            expect: Optional[str]) -> None:
        items.append(Item(family, f"{stem}@{bounds[0]},{bounds[1]}",
                          "search", {f"{stem}.foml": text},
                          bounds=bounds, expect=expect))

    for name, bounds_list in _DEMO_BOUNDS.items():
        expect = "found" if name in ("box", "cst") else "none"
        for bounds in bounds_list:
            add("demo", name, _demo_text(name), bounds, expect)
    laws = ("barcan", "barcan-f", "rigid", "cst-forall", "stability")
    for r in range(10):
        law = laws[r % len(laws)]
        add("valid", f"valid{r}", _valid_problem(rng, law),
            ((2, 2), (3, 2))[r // 5], "none")
    for r in range(24):
        valid = r % 5 in (0, 3)
        pair = (0, 4) if valid else (r % 3, 3 + r % 4 % 3)
        text, expect = _template_obligation(rng, valid, pair)
        add("template", f"template{r}", text, ((2, 2), (3, 2))[r % 2],
            expect)
    warmup = Item("warmup", "box", "search", {"box.foml": _demo_text("box")},
                  bounds=(2, 2), expect="found")
    return Corpus("search", seed, SEARCH_FAMILIES, items, warmup)


# ------------------------------------------------------------ fuzz family

FUZZ_FAMILIES = [
    Family("batch", f"`foml fuzz` with all six checks, {FUZZ_ITERS} "
           "iterations under its own seed per op: many fresh expressions, "
           "each evaluated in one or a few random models (the acceptance "
           "gate's load)"),
]


def fuzz_corpus(seed: int) -> Corpus:
    rng = random.Random(f"fuzz:{seed}")
    items = []
    for r in range(48):
        s = rng.randrange(1, 2**31)
        items.append(Item("batch", f"seed{s}", "cli", {},
                          argv=("fuzz", "--seed", str(s), "--iters",
                                str(FUZZ_ITERS), "--checks", FUZZ_CHECKS,
                                "--bounds", "3,3")))
    warmup = Item("warmup", "seed0", "cli", {},
                  argv=("fuzz", "--seed", "0", "--iters", "2",
                        "--checks", FUZZ_CHECKS))
    return Corpus("fuzz", seed, FUZZ_FAMILIES, items, warmup)


BUILDERS = {
    "translate": translate_corpus,
    "prove": prove_corpus,
    "search": search_corpus,
    "fuzz": fuzz_corpus,
    "overlimit": overlimit_corpus,
}


def build(workload: str, seed: int) -> Corpus:
    return BUILDERS[workload](seed)
