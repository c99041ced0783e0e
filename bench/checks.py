"""Per-op correctness checks, run after the timed phase.

A check gets the corpus item and the op's recorded outcome and returns None
when the output is right, else a one-line reason.  Checks never trust the
op's own path: translations are re-derived and then judged by the
finite-model witness properties (the evaluators against the translators),
verdicts by re-reading and re-evaluating printed countermodels or by a
known answer or an exhaustive small-model sweep, and demo outputs by the
golden shapes of acceptance criterion 1.
"""
from __future__ import annotations

import dataclasses
import random
import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Outcome:
    """What one op produced.  `code` is None when an exception escaped
    `cli.main`; `error` then names it.  Search ops also carry the search
    status, the serialized model and the `check-model` result."""

    code: Optional[int]
    stdout: str
    error: str = ""
    status: str = ""
    model: str = ""


SWEEP_MODELS = 2000
FRESH = re.compile(r"\b[acq]\d+__[0-9a-f]{8}(?:_\d+)?\b")


def canonical(text: str) -> str:
    """Rename fresh symbols and atoms to ?0, ?1, ... by first appearance."""
    names: dict[str, str] = {}
    return FRESH.sub(
        lambda m: names.setdefault(m.group(0), f"?{len(names)}"), text)


# Golden shapes of acceptance criterion 1 on the demo problems, as printed
# and with fresh names canonicalized.
GOLDEN = {
    ("box", "coalesce-fol"): (
        "(goal (=> (= v 0) ?0))\n(symbols\n"
        "  (?0 0 (lambda () (nabla (= v 0))))\n)\n"),
    ("box", "coalesce-ml"): (
        "(goal (=> ?0 (nabla ?0)))\n(hypotheses)\n(atoms\n"
        "  (?0 (= v 0))\n)\n"),
    ("cst", "coalesce-fol"): (
        "(goal (=> (= u v) (=> (=> (=> (?0 u) (?1 v)) (=> (=> (?1 v) "
        "(?0 u)) false)) false)))\n(symbols\n  (?0 1 (cst u))\n"
        "  (?1 1 (cst v))\n)\n"),
    ("cst-forall", "coalesce-fol"): (
        "(goal (forall a (forall b (=> (= a b) (=> (=> (=> (?0 a) (?0 b)) "
        "(=> (=> (?0 b) (?0 a)) false)) false)))))\n(symbols\n"
        "  (?0 1 (cst *))\n)\n"),
    ("eq3", "coalesce-fol"): (
        "(goal (=> (=> (=> (=> (forall x (=> (=> (forall z (=> (?0 x) "
        "false)) false) false)) false) (=> (forall y (=> (?0 y) false)) "
        "false)) (=> (=> (=> (forall y (=> (?0 y) false)) false) (=> "
        "(forall x (=> (=> (forall z (=> (?0 x) false)) false) false)) "
        "false)) false)) false))\n(symbols\n"
        "  (?0 1 (lambda (x) (nabla (= v x))))\n)\n"),
    ("stability", "coalesce-ml"): (
        "(goal (=> (=> (=> ?0 (=> (nabla (=> (nabla (=> (=> false false) "
        "false)) false)) false)) false) (nabla (=> (nabla (=> ?0 false)) "
        "false))))\n(hypotheses (=> ?0 (nabla ?0)))\n(atoms\n"
        "  (?0 (= x y))\n)\n"),
}


VERDICTS = (("proved", "proved", 0),
            ("countermodel (goal fails at state ", "countermodel", 1),
            ("resource limit: ", "resource-out", 2))


def verdict(stdout: str) -> tuple[Optional[str], Optional[int]]:
    """The verdict `prove-ml` printed and the exit code it must have."""
    first = stdout.split("\n", 1)[0]
    for prefix, name, code in VERDICTS:
        if first.startswith(prefix):
            return name, code
    return None, None


class Checker:
    """Holds the imported `foml` modules and dispatches each item to the
    check for its workload and subcommand."""

    def __init__(self, foml_modules: dict, seed: int):
        self.m = foml_modules
        self.seed = seed

    # ------------------------------------------------------------ helpers
    def _text(self, item) -> str:
        return next(iter(item.files.values()))

    def _models(self, item, ob, count: int = 4):
        """Seeded small Kripke models over the obligation's signature,
        drawn here rather than by the program's own generator.  Above
        modal depth 4 every state gets at most one successor, since
        evaluating nested modalities costs out-degree ** depth."""
        KripkeModel = self.m["models"].KripkeModel
        env = ob.env
        needs_prime = self._needs_prime(ob)
        functional = self._modal_depth(ob) > 4
        rng = random.Random(f"{self.seed}:{item.label}")
        for _ in range(count):
            universe = tuple(range(rng.randrange(2, 4)))
            states = tuple(range(rng.randrange(1, 4)))
            ops = {op: {args: rng.choice(universe)
                        for args in product(universe, repeat=n)}
                   for op, n in env.ops.items()}
            xi = {x: rng.choice(universe) for x in env.rigid_vars}
            zeta = {(v, w): rng.choice(universe)
                    for v in env.flex_vars for w in states}
            R, primeR = self._relation(rng, states, functional), None
            if needs_prime:
                primeR = self._relation(rng, states, functional)
            yield KripkeModel(universe, 0, 1, ops, xi, states, R, zeta,
                              primeR=primeR)

    @staticmethod
    def _relation(rng, states, functional: bool) -> frozenset:
        if functional:
            return frozenset((s, rng.choice(states)) for s in states
                             if rng.random() < 0.8)
        return frozenset((s, t) for s in states for t in states
                         if rng.random() < 0.5)

    def _modal_depth(self, ob) -> int:
        syn = self.m["syntax"]
        deepest, stack = 0, [(e, 0) for e in ob.all_exprs()]
        stack += [(d.body, 0) for d in ob.env.definitions]
        while stack:
            e, d = stack.pop()
            if isinstance(e, (syn.Nabla, syn.Prime)):
                d += 1
            deepest = max(deepest, d)
            stack.extend((c, d) for c in syn.children(e))
        return deepest

    def _needs_prime(self, ob) -> bool:
        syn = self.m["syntax"]
        return any(syn.contains_node(e, syn.Prime) for e in ob.all_exprs()) \
            or any(syn.contains_node(d.body, syn.Prime)
                   for d in ob.env.definitions)

    # -------------------------------------------------------------- entry
    def check(self, workload: str, item, out: Outcome) -> Optional[str]:
        if out.code is None:
            return f"exception escaped cli.main: {out.error}"
        if workload == "overlimit":
            return self._overlimit(item, out)
        if workload == "search":
            return self._search(item, out)
        if workload == "prove":
            return self._prove(item, out, self._text(item))
        if workload == "fuzz":
            return self._fuzz(item, out)
        return self._translate(item, out)

    # ---------------------------------------------------------- translate
    def _translate(self, item, out: Outcome) -> Optional[str]:
        if out.code != 0:
            return f"exit code {out.code}, expected 0"
        sub = item.argv[0]
        if sub == "safety":
            return self._safety(item, out)
        if sub == "leibniz":
            want = item.leibniz or ""
            got = out.stdout.rstrip("\n")
            return None if got == want else f"leibniz table {got!r}, " \
                f"expected {want!r}"
        if item.golden and (item.golden, sub) in GOLDEN \
                and len(item.argv) == 2:
            if canonical(out.stdout) != GOLDEN[(item.golden, sub)]:
                return "output differs from the golden shape"
        ob = self.m["parser"].parse_problem(self._text(item))
        if sub == "coalesce-fol":
            return self._coalesce_fol(item, out, ob,
                                      "--rewrite-rigid-box" in item.argv)
        if sub == "coalesce-ml":
            return self._coalesce_ml(item, out, ob, "cli")
        fmt = item.argv[2].split("=", 1)[1]
        if fmt == "mlseq":
            return self._coalesce_ml(item, out, ob, "mlseq")
        return self._emit_fol(item, out, ob, fmt)

    def _coalesce_fol(self, item, out, ob, rewrite: bool) -> Optional[str]:
        co, pr, sem = self.m["coalesce"], self.m["printer"], \
            self.m["semantics"]
        src = ob
        if rewrite:
            rw = co.rewrite_rigid_box
            src = dataclasses.replace(
                ob, hypotheses=tuple(rw(h, ob.env) for h in ob.hypotheses),
                goal=rw(ob.goal, ob.env))
        res = co.coalesce_obligation_fol(src)
        lines = [f"(assume {pr.print_expr(h)})" for h in res.hypotheses]
        lines += [f"(goal {pr.print_expr(res.goal)})",
                  co.symbols_block(res.table)]
        if out.stdout != "\n".join(lines) + "\n":
            return "printed translation differs from the re-derived one"
        pairs = list(zip(ob.hypotheses + (ob.goal,),
                         res.hypotheses + (res.goal,)))
        for m in self._models(item, ob):
            for w in m.states:
                s = co.build_witness_structure(m, w, res.table, ob.env)
                for orig, tr in pairs:
                    want = sem.eval_expr(m, w, orig, ob.env)
                    got = sem.eval_fol(s, tr)
                    if rewrite:
                        want, got = want == m.tt, got == s.tt
                    if want != got:
                        return (f"FOL witness mismatch at state {w}: "
                                f"original {want}, translation {got}")
        return None

    def _coalesce_ml(self, item, out, ob, form: str) -> Optional[str]:
        cm, pr, sem = self.m["coalesce_ml"], self.m["printer"], \
            self.m["semantics"]
        res = cm.coalesce_obligation_ml(ob)
        if form == "cli":
            lines = [f"(assume {pr.print_expr(h)})" for h in res.hypotheses]
            lines.append(f"(goal {pr.print_expr(res.goal)})")
            inner = " ".join(pr.print_expr(h) for h in res.stability)
            lines.append(f"(hypotheses {inner})" if inner
                         else "(hypotheses)")
            lines.append(cm.atoms_block(res.table))
            want_text = "\n".join(lines) + "\n"
        else:
            seq = self.m["prover"].MLSequent(res.hypotheses + res.stability,
                                             res.goal)
            want_text = self.m["emit"].emit_mlseq(seq)
        if out.stdout != want_text:
            return "printed translation differs from the re-derived one"
        pairs = list(zip(ob.hypotheses + (ob.goal,),
                         res.hypotheses + (res.goal,)))
        for m in self._models(item, ob):
            k = cm.build_witness_propmodel(m, res.table, ob.env)
            for w in m.states:
                for orig, tr in pairs:
                    want = sem.eval_expr(m, w, orig, ob.env) == m.tt
                    got = sem.eval_ml(k, w, tr) == k.tt
                    if want != got:
                        return (f"ML witness mismatch at state {w}: "
                                f"original {want}, translation {got}")
                for h in res.stability:
                    if sem.eval_ml(k, w, h) != k.tt:
                        return f"stability hypothesis fails at state {w}"
        return None

    def _emit_fol(self, item, out, ob, fmt: str) -> Optional[str]:
        co, em, sem = self.m["coalesce"], self.m["emit"], \
            self.m["semantics"]
        res = co.coalesce_obligation_fol(ob)
        ir = em.stratify(res.hypotheses, res.goal, res.env)
        want_text = em.emit_smt(ir) if fmt == "smt" else em.emit_tptp(ir)
        if out.stdout != want_text:
            return "emitted text differs from the re-derived one"
        for m in self._models(item, ob):
            for w in m.states:
                s = co.build_witness_structure(m, w, res.table, ob.env)
                refutes = all(sem.eval_expr(m, w, h, ob.env) == m.tt
                              for h in ob.hypotheses) \
                    and sem.eval_expr(m, w, ob.goal, ob.env) != m.tt
                if em.encoding_satisfied(s, ir) != refutes:
                    return (f"{fmt} encoding satisfied={not refutes} but "
                            f"the model refutes={refutes} at state {w}")
        return None

    def _safety(self, item, out) -> Optional[str]:
        parser, sem = self.m["parser"], self.m["semantics"]
        paths = [Path(p) for p in out.stdout.split()]
        obs = [p for p in paths if p.suffix == ".foml"]
        glue = [p for p in paths if p.suffix == ".mlseq"]
        if len(obs) != 3 or len(glue) != 1:
            return f"expected 3 obligations and 1 glue file, got {paths}"
        self.m["emit"].parse_mlseq(glue[0].read_text())
        for p in obs:
            ob = parser.parse_problem(p.read_text())
            for m in self._models(item, ob):
                w = sem.countermodel_state(m, ob)
                if w is not None:
                    return f"valid obligation {p.name} refuted at state {w}"
        return None

    # -------------------------------------------------------------- prove
    def _prove(self, item, out, text: str) -> Optional[str]:
        first = out.stdout.split("\n", 1)[0]
        name, code = verdict(out.stdout)
        if name is None:
            return f"unrecognized verdict line {first!r}"
        if out.code != code:
            return f"exit code {out.code} contradicts verdict {name}"
        if name == "resource-out":
            return None
        seq = self._sequent(item, text)
        if name == "countermodel":
            if item.expect == "proved":
                return "countermodel for a sequent known to be valid"
            state = first[len("countermodel (goal fails at state "):-1]
            return self._recheck_countermodel(seq, out.stdout, state)
        if item.expect in ("countermodel", "not-valid"):
            return "proved a sequent known to be invalid"
        if item.expect is None:
            return self._sweep(seq)
        return None

    def _sequent(self, item, text: str):
        MLSequent = self.m["prover"].MLSequent
        if text.lstrip().startswith("(mlseq"):
            return self.m["emit"].parse_mlseq(text)
        res = self.m["coalesce_ml"].coalesce_obligation_ml(
            self.m["parser"].parse_problem(text))
        argv = list(item.argv)
        frame = argv[argv.index("--frame") + 1] if "--frame" in argv \
            else "k"
        return MLSequent(res.hypotheses + res.stability, res.goal, frame, "k")

    def _recheck_countermodel(self, seq, stdout: str,
                              state_text: str) -> Optional[str]:
        models, sem = self.m["models"], self.m["semantics"]
        km = models.parse_model(stdout.split("\n", 1)[1])
        k = models.kripke_as_propmodel(km)
        state = int(state_text) if state_text.isdigit() else state_text
        if state not in k.states:
            return f"countermodel state {state_text} is not a state"
        for rel, frame in ((k.R, seq.frame_nabla),
                           (k.primeR, seq.frame_prime)):
            if rel is not None and not _in_frame(rel, k.states, frame):
                return f"countermodel relation is not a {frame} frame"
        for h in seq.hypotheses:
            for w in k.states:
                if sem.eval_ml(k, w, h) != k.tt:
                    return f"countermodel violates a hypothesis at {w}"
        if sem.eval_ml(k, state, seq.goal) == k.tt:
            return "countermodel satisfies the goal"
        return None

    def _sweep(self, seq) -> Optional[str]:
        """Exhaustive sweep over propositional models of up to 3 states
        (fewer when the atom count makes that too large)."""
        syn, search, sem = self.m["syntax"], self.m["search"], \
            self.m["semantics"]
        exprs = seq.hypotheses + (seq.goal,)
        atoms = sorted({v for e in exprs for v in syn.free_flex_vars(e)})
        prime = any(syn.contains_node(e, syn.Prime) for e in exprs)
        def models(n: int) -> int:
            rel = 2 ** (n * n)
            return rel * (rel if prime else 1) * 2 ** (len(atoms) * n)

        states = 3
        while states > 1 and sum(models(n) for n in
                                 range(1, states + 1)) > SWEEP_MODELS:
            states -= 1
        for k in search.enumerate_propmodels(
                atoms, states, seq.frame_nabla, prime, seq.frame_prime):
            if all(sem.eval_ml(k, w, h) == k.tt
                   for h in seq.hypotheses for w in k.states):
                for w in k.states:
                    if sem.eval_ml(k, w, seq.goal) != k.tt:
                        return (f"proved, but a {len(k.states)}-state "
                                "model refutes the sequent")
        return None

    # ------------------------------------------------------------- search
    def _search(self, item, out) -> Optional[str]:
        if out.status == "found":
            if item.expect == "none":
                return "countermodel found for a known-valid obligation"
            ob = self.m["parser"].parse_problem(self._text(item))
            m = self.m["models"].parse_model(out.model)
            if self.m["semantics"].countermodel_state(m, ob) is None:
                return "found model is not a countermodel"
            if out.code != 1 or not out.stdout.startswith(
                    "goal fails at state"):
                return f"check-model exit code {out.code}, expected 1"
            return None
        if out.status == "none" and item.expect == "found":
            return "no countermodel for a known-invalid obligation"
        if out.status not in ("none", "resource-out"):
            return f"unknown search status {out.status!r}"
        return None

    # --------------------------------------------------------------- fuzz
    def _fuzz(self, item, out) -> Optional[str]:
        iters = item.argv[item.argv.index("--iters") + 1]
        if out.code != 0 or not out.stdout.startswith(
                f"{iters} iterations, 0 discrepancies"):
            return f"fuzz exit {out.code}: {out.stdout[:200]!r}"
        return None

    # ---------------------------------------------------------- overlimit
    def _overlimit(self, item, out) -> Optional[str]:
        """Exit codes only: re-deriving outputs this deep would hit the
        same recursion limit in the checks themselves."""
        if item.argv[0] == "prove-ml":
            name, code = verdict(out.stdout)
            if name is None or code != out.code:
                return f"exit code {out.code} contradicts the verdict"
            return None
        return None if out.code == 0 else f"exit code {out.code}"


def _in_frame(rel, states, frame: str) -> bool:
    if frame in ("t", "s4") and any((w, w) not in rel for w in states):
        return False
    if frame in ("k4", "s4"):
        return all((a, d) in rel for (a, b) in rel for (c, d) in rel
                   if b == c)
    return True


def decided(workload: str, item, out: Outcome) -> bool:
    """Whether the op ended in a definite result (resource-out does not)."""
    if out.code is None:
        return False
    if workload == "search":
        return out.status in ("found", "none")
    if item.argv and item.argv[0] == "prove-ml":
        return out.code in (0, 1)
    if workload == "fuzz":
        return out.code in (0, 1)
    return out.code == 0
