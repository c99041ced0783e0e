"""Where foml's start-up goes.  Run it in a fresh interpreter:

    PYTHONPATH=src python tests/startup_time.py

It first imports every foml module once and prints the wall time of that
import, which includes the standard-library modules foml loads and, when
no bytecode cache is written or found, compiling foml's sources.  Then,
for each foml module in the order the import loaded them, it prints the
time to compile the module's source and the time to run its body, each
the best of 5, and the totals of both columns.  A body runs in a fresh
module object; the modules it imports are loaded by then, so its time is
that of its own statements: class and function definitions, decorators
and module-level tables.

The script is not a test module: pytest does not collect it.
"""
import importlib
import sys
import time
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "foml"
REPEATS = 5


def best_of(run) -> float:
    """The fastest of REPEATS timed calls of run(), in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    names = ["foml"] + [f"foml.{p.stem}" for p in sorted(SRC.glob("*.py"))
                        if p.stem != "__init__"]
    if any(name in sys.modules for name in names):
        sys.exit("startup_time: foml is imported already; "
                 "run the script in a fresh interpreter")
    t0 = time.perf_counter()
    for name in names:
        importlib.import_module(name)
    first = time.perf_counter() - t0
    print(f"first import of foml: {first * 1e3:.1f} ms")
    print(f"{'module':20s} {'compile ms':>11s} {'body ms':>9s}")
    total_compile = total_body = 0.0
    for name in [n for n in sys.modules if n in names]:
        module = sys.modules[name]
        path = Path(module.__file__)
        source = path.read_text(encoding="utf-8")
        compile_s = best_of(lambda: compile(source, str(path), "exec"))
        code = compile(source, str(path), "exec")

        def body() -> None:
            fresh = types.ModuleType(name)
            fresh.__file__ = str(path)
            fresh.__package__ = module.__package__
            exec(code, fresh.__dict__)

        body_s = best_of(body)
        total_compile += compile_s
        total_body += body_s
        print(f"{name:20s} {compile_s * 1e3:11.2f} {body_s * 1e3:9.2f}")
    print(f"{'total':20s} {total_compile * 1e3:11.2f} "
          f"{total_body * 1e3:9.2f}")


if __name__ == "__main__":
    main()
