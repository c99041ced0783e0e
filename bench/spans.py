"""Timing wrappers around the public functions of every `foml` module.

Installed only in the traced run, from the benchmark's own files: each
public function (and public method of a module's classes, such as
`KripkeModel.successors`) is replaced by a wrapper in its own module and in
every `foml` module that imported it by name.  A call that crosses into a
layer (a module) from another layer or from the harness opens a span;
calls inside the layer it is already in only count.  Spans record op id,
layer, function, start, end and parent.  Beyond `AGGREGATE_AFTER` children
of one function under one parent, further calls are folded into a count
plus total time under that parent, so hot calls such as `eval_expr`
inside search stay cheap to record.  Everything stays in memory until
`write` is called at the end of the run.

A layer's self time is its spans' duration minus the time their child
spans cover, so the self times of all layers add up to the time of the
root spans.
"""
from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "parser", "printer", "syntax", "leibniz", "coalesce",
          "coalesce_ml", "emit", "actions", "prover", "search", "semantics",
          "models", "gen")
PRIVATE_WRAPPED = {("prover", "_verify")}
AGGREGATE_AFTER = 16


class Span:
    __slots__ = ("layer", "func", "start", "parent", "child", "index",
                 "agg_key", "fanout")

    def __init__(self, layer, func, start, parent):
        self.layer = layer
        self.func = func
        self.start = start
        self.parent = parent
        self.child = 0.0
        self.index = None  # position in Tracer.records when kept
        self.agg_key = None  # aggregate bucket when folded
        self.fanout = None  # per-function child counts, when kept


class Tracer:
    def __init__(self):
        self.stack: list[Span] = []
        self.records: list[tuple] = []
        self.aggregates: dict[tuple, list] = {}
        self.layer_calls: Counter = Counter()
        self.layer_self: defaultdict = defaultdict(float)
        self.layer_errors: Counter = Counter()
        self.fn_calls: Counter = Counter()
        self.fn_time: defaultdict = defaultdict(float)
        self.fn_depth: Counter = Counter()
        self.deferred: list[tuple] = []
        self.op = -1
        self._patches: list[tuple] = []

    # ---------------------------------------------------------- install
    def install(self, modules: dict, package) -> None:
        """Prepare wrappers for the given layer modules; `enable` and
        `disable` swap them in and out."""
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and (not name.startswith("_")
                             or (layer, name) in PRIVATE_WRAPPED):
                    wrappers[obj] = self._wrap(layer, f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) \
                                and not mname.startswith("_"):
                            key = f"{layer}.{obj.__name__}.{mname}"
                            self._patches.append(
                                (obj, mname, meth,
                                 self._wrap(layer, key, meth)))
        for mod in list(modules.values()) + [package]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj, wrappers[obj]))

    def enable(self) -> None:
        for owner, name, _orig, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def disable(self) -> None:
        for owner, name, orig, _wrapper in self._patches:
            setattr(owner, name, orig)

    def _wrap(self, layer: str, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(layer, key, fn, args, kwargs)

        return wrapper

    # ------------------------------------------------------------- spans
    def _open(self, layer: str, key: str, start: float) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(layer, key, start, parent)
        if parent is None:
            span.index = len(self.records)
            span.fanout = Counter()
        else:
            host = parent
            while host.index is None:
                host = host.parent
            if host is parent and parent.fanout[key] < AGGREGATE_AFTER:
                parent.fanout[key] += 1
                span.index = len(self.records)
                span.fanout = Counter()
            else:
                span.agg_key = (host.index, layer, key)
        if span.index is not None:
            self.records.append(None)  # filled when the span closes
        self.stack.append(span)
        return span

    def _close(self, span: Span, end: float) -> None:
        self.stack.pop()
        dur = end - span.start
        self.layer_calls[span.layer] += 1
        self.layer_self[span.layer] += dur - span.child
        if span.parent is not None:
            span.parent.child += dur
        if span.index is not None:
            parent = span.parent.index if span.parent is not None else None
            self.records[span.index] = (self.op, span.layer, span.func,
                                        span.start, end, parent)
        else:
            agg = self.aggregates.setdefault(span.agg_key, [0, 0.0])
            agg[0] += 1
            agg[1] += dur

    def _call(self, layer, key, fn, args, kwargs):
        top = self.stack[-1] if self.stack else None
        span_opened = top is None or top.layer != layer
        depth = self.fn_depth[key]
        self.fn_depth[key] = depth + 1
        start = perf_counter()
        span = self._open(layer, key, start) if span_opened else None
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            if span_opened:
                self.layer_errors[layer] += 1
            raise
        finally:
            end = perf_counter()
            self.fn_depth[key] = depth
            if depth == 0:
                self.fn_calls[key] += 1
                self.fn_time[key] += end - start
            if span is not None:
                self._close(span, end)
        if depth == 0 and key in CAPTURED:
            self.deferred.append((key, span_opened, args, result,
                                  end - start))
        return result

    # ----------------------------------------------------------- output
    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (op, layer, func, start, end, parent) in \
                    enumerate(self.records):
                fh.write(json.dumps({
                    "id": i, "op": op, "layer": layer, "func": func,
                    "start": start, "end": end, "parent": parent}) + "\n")
            for (parent, layer, func), (count, total) in \
                    self.aggregates.items():
                fh.write(json.dumps({
                    "parent": parent, "layer": layer, "func": func,
                    "count": count, "total_s": total}) + "\n")


# Functions whose arguments or results feed a layer counter.  The counters
# are computed by `Counters.absorb` after each op, outside any span.
CAPTURED = {
    "parser.read_sexprs",
    "printer.print_expr", "printer.print_problem", "printer.print_env",
    "coalesce.coalesce_obligation_fol",
    "coalesce_ml.coalesce_obligation_ml",
    "emit.emit_smt", "emit.emit_tptp", "emit.emit_mlseq",
    "prover.prove_ml",
    "search.find_countermodel", "search.find_fol_countermodel",
    "gen.run_fuzz",
}


class Counters:
    """Layer counters computed from captured arguments and results, by
    walking the inputs from outside the program."""

    def __init__(self, syntax):
        self.syn = syntax
        self.c: defaultdict = defaultdict(float)
        self.free_bits_max = 0

    def absorb(self, tracer: Tracer) -> None:
        for key, span_opened, args, result, dur in tracer.deferred:
            getattr(self, "_" + key.replace(".", "_"))(
                span_opened, args, result, dur)
        tracer.deferred.clear()

    def _parser_read_sexprs(self, _s, args, result, _d):
        self.c["parser.bytes"] += len(args[0])
        stack = list(result)
        while stack:
            node = stack.pop()
            self.c["parser.nodes"] += 1
            stack.extend(getattr(node, "items", ()))

    def _printer(self, span_opened, result):
        if span_opened:
            self.c["printer.bytes"] += len(result)

    def _printer_print_expr(self, s, _a, result, _d):
        self._printer(s, result)

    _printer_print_problem = _printer_print_expr
    _printer_print_env = _printer_print_expr

    def _coalesce_coalesce_obligation_fol(self, _s, args, result, _d):
        self.c["coalesce.symbols"] += len(result.table.entries)
        self.c["coalesce.sites"] += sum(
            self._sites(e) for e in args[0].all_exprs())

    def _sites(self, e) -> int:
        """Abstraction sites: nabla/prime nodes and definition
        applications that first-order coalescing replaces (it does not
        look inside a nabla/prime, and does inside definition arguments)."""
        syn = self.syn
        count, stack = 0, [e]
        while stack:
            node = stack.pop()
            if isinstance(node, (syn.Nabla, syn.Prime)):
                count += 1
                continue
            if isinstance(node, syn.DefApp):
                count += 1
            stack.extend(syn.children(node))
        return count

    def _coalesce_ml_coalesce_obligation_ml(self, _s, _a, result, _d):
        self.c["coalesce_ml.atoms"] += len(result.table.entries)
        self.c["coalesce_ml.stability_hyps"] += len(result.stability)

    def _emit(self, result):
        self.c["emit.bytes"] += len(result)

    def _emit_emit_smt(self, _s, _a, result, _d):
        self._emit(result)

    _emit_emit_tptp = _emit_emit_smt
    _emit_emit_mlseq = _emit_emit_smt

    def _prover_prove_ml(self, _s, args, result, dur):
        syn = self.syn
        seq = args[0]
        seen, stack = set(), list(seq.hypotheses) + [seq.goal]
        while stack:
            node = stack.pop()
            if isinstance(node, (syn.FlexVar, syn.Nabla, syn.Prime)):
                seen.add(node)
            stack.extend(syn.children(node))
        self.free_bits_max = max(self.free_bits_max, len(seen))
        kind = getattr(result, "kind", "")
        if kind == "resource-out":
            self.c["prover.resource_out"] += 1
            self.c["prover.resource_out_s"] += dur
        elif kind == "countermodel":
            self.c["prover.countermodel_states"] += len(result.model.states)

    def _search_find_countermodel(self, _s, _a, result, _d):
        self.c["search.models_examined"] += result.examined
        if result.status == "resource-out":
            self.c["search.resource_out"] += 1

    _search_find_fol_countermodel = _search_find_countermodel

    def _gen_run_fuzz(self, _s, _a, result, _d):
        self.c["gen.iterations"] += result.iterations


def per_layer_metrics(tracer: Tracer, counters: Counters, passes: int,
                      op_s: float, untraced_s: float, ops: int,
                      missing: int) -> dict:
    """The traced run's metrics, per pass over the corpus."""
    out: dict = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    c, fc, ft = counters.c, tracer.fn_calls, tracer.fn_time

    def rate(num, den):
        return num / den if den > 0 else 0.0

    for layer in LAYERS:
        put(f"{layer}.calls", tracer.layer_calls[layer] / passes, "count")
        put(f"{layer}.self_s", tracer.layer_self[layer] / passes, "s")
        put(f"{layer}.errors", tracer.layer_errors[layer] / passes, "count")
    put("parser.bytes", c["parser.bytes"] / passes, "bytes")
    put("parser.nodes_per_s",
        rate(c["parser.nodes"], tracer.layer_self["parser"]), "1/s")
    put("printer.bytes", c["printer.bytes"] / passes, "bytes")
    put("syntax.alpha_key.calls", fc["syntax.alpha_key"] / passes, "count")
    put("syntax.substitute.calls", fc["syntax.substitute"] / passes,
        "count")
    put("coalesce.symbols", c["coalesce.symbols"] / passes, "count")
    put("coalesce.share_ratio",
        rate(c["coalesce.sites"], c["coalesce.symbols"]), "ratio")
    put("coalesce.witness_s", ft["coalesce.build_witness_structure"] / passes,
        "s")
    put("coalesce_ml.atoms", c["coalesce_ml.atoms"] / passes, "count")
    put("coalesce_ml.stability_hyps", c["coalesce_ml.stability_hyps"] / passes,
        "count")
    put("emit.bytes", c["emit.bytes"] / passes, "bytes")
    put("emit.stratify_s", ft["emit.stratify"] / passes, "s")
    put("prover.free_bits_max", counters.free_bits_max, "count")
    put("prover.resource_out", c["prover.resource_out"] / passes, "count")
    put("prover.resource_out_s", c["prover.resource_out_s"] / passes, "s")
    put("prover.verify_s", ft["prover._verify"] / passes, "s")
    put("prover.countermodel_states",
        c["prover.countermodel_states"] / passes, "count")
    put("search.models_examined", c["search.models_examined"] / passes,
        "count")
    put("search.models_per_s",
        rate(c["search.models_examined"],
             ft["search.find_countermodel"]
             + ft["search.find_fol_countermodel"]), "1/s")
    put("search.resource_out", c["search.resource_out"] / passes, "count")
    evals = sum(fc[f"semantics.{f}"]
                for f in ("eval_expr", "eval_fol", "eval_ml"))
    put("semantics.evals", evals / passes, "count")
    put("semantics.evals_per_s",
        rate(evals, tracer.layer_self["semantics"]), "1/s")
    put("models.successors.calls",
        fc["models.KripkeModel.successors"] / passes, "count")
    put("models.parse_s", ft["models.parse_model"] / passes, "s")
    put("gen.iterations", c["gen.iterations"] / passes, "count")
    attributed = sum(tracer.layer_self.values())
    put("trace.passes", passes, "count")
    put("trace.ops", ops / passes, "count")
    put("trace.op_s", op_s / passes, "s")
    put("trace.attributed_share", rate(attributed, op_s), "ratio")
    put("trace.overhead_ms", rate(op_s - untraced_s, ops) * 1e3, "ms")
    put("trace.overhead_share", rate(op_s - untraced_s, untraced_s), "ratio")
    put("trace.coverage_missing", missing, "count")
    return out


# Layers that must see calls on each workload (the layer table in
# bench/README.md), and entry points that must not run on it.  Translate
# does reach the prover layer, through `prover.check_ml_formula` (the
# syntactic guard `emit_mlseq` calls), but never its decision procedure.
EXPECTED = {
    "translate": ({"cli", "parser", "printer", "syntax", "leibniz",
                   "coalesce", "coalesce_ml", "emit", "actions"},
                  {"prover.prove_ml", "search.find_countermodel",
                   "search.find_fol_countermodel"}),
    "prove": ({"cli", "parser", "coalesce_ml", "emit", "prover", "semantics",
               "models"}, set()),
    "search": ({"cli", "parser", "syntax", "search", "semantics", "models"},
               set()),
    "fuzz": ({"cli", "gen", "coalesce", "coalesce_ml", "actions", "leibniz",
              "semantics", "syntax"}, set()),
    "overlimit": (set(), set()),
}


def coverage_problems(workload: str, tracer: Tracer) -> list[str]:
    must, must_not = EXPECTED[workload]
    out = [f"{layer}.calls is 0" for layer in sorted(must)
           if tracer.layer_calls[layer] == 0]
    out += [f"{fn} ran {tracer.fn_calls[fn]} times, expected never"
            for fn in sorted(must_not) if tracer.fn_calls[fn]]
    return out
