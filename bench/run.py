"""foml benchmark: run one workload as a closed loop and report its metrics.

    python3 bench/run.py --workload translate --seed 1 --seconds 10 --trace 0

One process, one thread, one client: the next op starts when the previous
one has completed.  Every op is an in-process `foml.cli.main(argv)` call
with stdout and stderr captured in memory (search ops call
`search.find_countermodel` and then `check-model`).  Outputs are checked
after the timed phase.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
`--workload all` runs every workload in its own child process and prints a
table.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("translate", "prove", "search", "fuzz", "overlimit")
SETUP_REPEATS = 5
MIN_OPS = 100
# Host-speed calibration.  On a shared host the speed of pure-Python code
# drifts by a quarter or more over a few seconds, for foml and for any
# other loop alike.  So the harness times a fixed reference loop every SAMPLE_EVERY_S
# and scales each op's wall time by REF_NOMINAL_S / reference time: times
# are reported as on a host where the reference takes REF_NOMINAL_S.  The
# table also prints the raw figures.
REF_LOOP = 8000
REF_NOMINAL_S = 0.002
SAMPLE_EVERY_S = 0.1
E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "decided_share": "fraction",
    "peak_rss_mb": "MiB",
}


def reference_s() -> float:
    """Best of three timings of a fixed loop of tuple, dict and call work."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        d: dict = {}
        for i in range(REF_LOOP):
            key = (i & 63, i % 7)
            d[key] = d.get(key, 0) + 1
        best = min(best, time.perf_counter() - t0)
    return best


def import_foml() -> dict:
    """Import every foml module afresh (a set-up repeat must pay the
    import again), returning them by layer name plus the package."""
    for name in [n for n in sys.modules if n == "foml"
                 or n.startswith("foml.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {layer: importlib.import_module(f"foml.{layer}")
            for layer in spans.LAYERS}
    mods["foml"] = importlib.import_module("foml")
    return mods


class Runner:
    """Executes corpus items against the imported program."""

    def __init__(self, mods: dict, directory: Path):
        self.m = mods
        self.dir = directory

    def argv(self, item) -> list[str]:
        return [a.replace("{dir}", str(self.dir)) for a in item.argv]

    def cli(self, argv: list[str]) -> checks.Outcome:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.m["cli"].main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaped exception fails the op
            return checks.Outcome(None, out.getvalue(),
                                  f"{type(exc).__name__}: {exc}")
        return checks.Outcome(code, out.getvalue())

    def run(self, item) -> checks.Outcome:
        if item.kind == "cli":
            return self.cli(self.argv(item))
        return self.search(item)

    def search(self, item) -> checks.Outcome:
        fname, text = next(iter(item.files.items()))
        try:
            ob = self.m["parser"].parse_problem(text)
            res = self.m["search"].find_countermodel(
                ob, self.m["search"].SearchBounds(*item.bounds))
            if not res.found:
                return checks.Outcome(0, "", status=res.status)
            model = self.m["models"].serialize_model(res.model)
        except Exception as exc:
            return checks.Outcome(None, "", f"{type(exc).__name__}: {exc}")
        mpath = self.dir / (Path(fname).stem + f"-{item.bounds[0]}"
                            f"{item.bounds[1]}.model")
        mpath.write_text(model)
        out = self.cli(["check-model", str(mpath), str(self.dir / fname)])
        return checks.Outcome(out.code, out.stdout, out.error, "found", model)


def set_up(workload: str, seed: int, directory: Path):
    t0 = time.perf_counter()
    mods = import_foml()
    corp = corpus.build(workload, seed)
    shutil.rmtree(directory, ignore_errors=True)
    corp.write(directory)
    runner = Runner(mods, directory)
    warm = runner.run(corp.warmup)
    if warm.code is None:
        raise RuntimeError(f"warm-up op failed: {warm.error}")
    return time.perf_counter() - t0, mods, corp, runner


class Record:
    """Outcomes (deduplicated, with counts) and op latencies, per item."""

    def __init__(self, n: int):
        self.outcomes = [dict() for _ in range(n)]
        self.latency: list[list[float]] = [[] for _ in range(n)]
        self.raw: list[float] = []

    def add(self, i: int, out: checks.Outcome, seconds: float,
            raw: float) -> None:
        self.outcomes[i][out] = self.outcomes[i].get(out, 0) + 1
        self.latency[i].append(seconds)
        self.raw.append(raw)

    @property
    def ops(self) -> int:
        return len(self.raw)

    def typical_latencies(self) -> list[float]:
        """Every op's latency taken as the median over its item's repeats,
        so a few seconds of slow host do not move the quantiles."""
        out = []
        for xs in self.latency:
            if xs:
                out += [statistics.median(xs)] * len(xs)
        return out


def timed_loop(runner: Runner, items, seed: int, seconds: float,
               workload: str):
    """Whole passes over the corpus, each in a fresh seeded order, ending
    at the pass boundary nearest to `seconds` (and after at least MIN_OPS
    ops), so every run measures the same mix of items.  Op latencies are
    recorded scaled to nominal host speed, by the mean of the factors
    sampled just before and just after each stretch of ops.  Returns the
    record and each pass's scaled and raw wall time."""
    rng = random.Random(f"order:{workload}:{seed}")
    rec = Record(len(items))
    factor = REF_NOMINAL_S / reference_s()
    start = time.perf_counter()
    scaled, raw = [], []

    def flush(pending: list, stretch: float) -> float:
        """Record the pending ops, scaled; returns the stretch scaled."""
        nonlocal factor
        before, factor = factor, REF_NOMINAL_S / reference_s()
        mean = (before + factor) / 2
        for i, out, dt in pending:
            rec.add(i, out, dt * mean, dt)
        pending.clear()
        return stretch * mean

    while True:
        pass_scaled = pass_raw = 0.0
        pending: list = []
        order = list(range(len(items)))
        rng.shuffle(order)
        mark = time.perf_counter()
        for i in order:
            t0 = time.perf_counter()
            out = runner.run(items[i])
            t1 = time.perf_counter()
            pending.append((i, out, t1 - t0))
            if t1 - mark >= SAMPLE_EVERY_S:
                pass_raw += t1 - mark
                pass_scaled += flush(pending, t1 - mark)
                mark = time.perf_counter()
        now = time.perf_counter()
        pass_raw += now - mark
        pass_scaled += flush(pending, now - mark)
        scaled.append(pass_scaled)
        raw.append(pass_raw)
        if rec.ops >= MIN_OPS and now + pass_raw / 2 - start >= seconds:
            return rec, scaled, raw


def traced_loop(runner: Runner, items, tracer, counters, seconds: float):
    """Whole passes over the corpus; each op runs untraced and then
    traced, so the overhead is measured pairwise."""
    rec = Record(len(items))
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, item in enumerate(items):
            t0 = time.perf_counter()
            out = runner.run(item)
            t1 = time.perf_counter()
            rec.add(i, out, t1 - t0, t1 - t0)
            untraced += t1 - t0
            tracer.op = passes * len(items) + i
            tracer.enable()
            t0 = time.perf_counter()
            out = runner.run(item)
            t1 = time.perf_counter()
            tracer.disable()
            rec.add(i, out, t1 - t0, t1 - t0)
            traced += t1 - t0
            counters.absorb(tracer)
        passes += 1
        now = time.perf_counter()
        if now + (now - pass_start) - start > seconds:
            return rec, passes, traced, untraced


def check_all(workload: str, seed: int, corp, rec: Record, checker):
    """Returns (failed op count, decided op count, failure lines)."""
    failed = decided = 0
    lines = []
    for item, outs in zip(corp.items, rec.outcomes):
        if not outs:
            continue
        if len(outs) > 1:
            reason = f"{len(outs)} different outputs over repeats"
        else:
            try:
                reason = checker.check(workload, item, next(iter(outs)))
            except Exception as exc:  # a check that cannot run fails
                reason = f"check raised {type(exc).__name__}: {exc}"
        n = sum(outs.values())
        if reason is not None:
            failed += n
            lines.append(f"FAILED family={item.family} seed={seed} "
                         f"item={item.name} argv={list(item.argv)} "
                         f"ops={n}: {reason}"[:600])
        decided += sum(c for out, c in outs.items()
                       if checks.decided(workload, item, out))
    return failed, decided, lines


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args) -> int:
    if not (SRC / "foml" / "__init__.py").is_file() \
            or not corpus.DEMO_DIR.is_dir():
        print(f"bench: no foml sources under {SRC} (or no demo/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    directory = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-" \
        f"{os.getpid()}"
    try:
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            before = reference_s()
            dt, mods, corp, runner = set_up(args.workload, args.seed,
                                            directory)
            ref = (before + reference_s()) / 2
            setups.append(dt * REF_NOMINAL_S / ref)
            raw_setups.append(dt)
        checker = checks.Checker(mods, args.seed)
        if args.trace:
            return report_traced(args, mods, corp, runner, checker)
        rec, walls, raw_walls = timed_loop(runner, corp.items, args.seed,
                                           args.seconds, args.workload)
        rss = peak_rss_mb()
        failed, decided, lines = check_all(args.workload, args.seed, corp,
                                           rec, checker)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with suppress(OSError):
            directory.parent.rmdir()
    n = rec.ops
    deciles = statistics.quantiles(
        [x * 1e3 for x in rec.typical_latencies()], n=10, method="inclusive")
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(len(corp.items) / w for w in walls),
        "latency_p50_ms": deciles[4],
        "latency_p90_ms": deciles[8],
        "decided_share": decided / n,
        "peak_rss_mb": rss,
    }
    raw_deciles = statistics.quantiles([x * 1e3 for x in rec.raw], n=10,
                                       method="inclusive")
    raw = {
        "setup_s": statistics.median(raw_setups),
        "ops_per_s": statistics.median(len(corp.items) / w
                                       for w in raw_walls),
        "latency_p50_ms": raw_deciles[4],
        "latency_p90_ms": raw_deciles[8],
    }
    for line in lines:
        print(line)
    print(f"workload {args.workload} seed {args.seed}: {n} ops "
          f"({len(corp.items)} corpus items, corpus {corp.fingerprint()[:12]})"
          f" in {len(walls)} passes, {sum(raw_walls):.2f} s; host ran at "
          f"{sum(walls) / sum(raw_walls):.3f} of nominal speed")
    print(f"  {'metric':16s} {'value':>14s} {'unit':8s} {'raw':>14s}")
    for name, value in values.items():
        extra = f"  (samples {n})" if name.startswith("latency") else ""
        rawv = f"{raw[name]:14.6f}" if name in raw else " " * 14
        print(f"  {name:16s} {value:14.6f} {E2E_UNITS[name]:8s} {rawv}"
              f"{extra}")
    print(f"  {'failed_share':16s} {failed / n:14.6f} fraction  "
          f"({failed}/{n})")
    print(json.dumps({
        "correct": failed == 0, "attempted": n, "failed": failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]}
                    for k, v in values.items()}}))
    return 0


def report_traced(args, mods, corp, runner, checker) -> int:
    tracer = spans.Tracer()
    tracer.install({k: v for k, v in mods.items() if k != "foml"},
                   mods["foml"])
    counters = spans.Counters(mods["syntax"])
    rec, passes, traced_s, untraced_s = traced_loop(
        runner, corp.items, tracer, counters, args.seconds)
    failed, _decided, lines = check_all(args.workload, args.seed, corp, rec,
                                        checker)
    problems = spans.coverage_problems(args.workload, tracer)
    out_path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(out_path)
    ops = passes * len(corp.items)
    metrics = spans.per_layer_metrics(tracer, counters, passes, traced_s,
                                      untraced_s, ops, len(problems))
    for line in lines:
        print(line)
    for p in problems:
        print(f"COVERAGE {args.workload}: {p}")
    print(f"traced workload {args.workload} seed {args.seed}: {passes} "
          f"pass(es) of {len(corp.items)} ops; spans in {out_path}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:16.6f} {m['unit']}")
    n = 2 * ops
    print(json.dumps({"correct": failed == 0, "attempted": n,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process; prints their tables and
    one combined JSON line keyed `<workload>.<metric>`."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for traced in ((0, 1) if args.trace else (0,)):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(traced)],
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
