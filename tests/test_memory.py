"""Every entry point frees what it builds by reference counting: a run
leaves no reference cycle behind for the cycle collector to find."""
from __future__ import annotations

import contextlib
import gc
import io
from pathlib import Path

from foml import cli
from foml.gen import CHECKS, run_fuzz
from foml.models import serialize_model
from foml.parser import parse_file
from foml.search import SearchBounds, find_countermodel

DEMO = Path(__file__).resolve().parent.parent / "demo"
# each command line of a demo file: the command, then the file, then flags
COMMANDS = (
    ("coalesce-fol",), ("coalesce-fol", "--rewrite-rigid-box"),
    ("coalesce-ml",), ("emit", "--emit=smt"), ("emit", "--emit=tptp"),
    ("emit", "--emit=mlseq"), ("leibniz",), ("prove-ml",),
)


def _main(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def test_no_entry_point_leaves_cyclic_garbage(tmp_path):
    # building the cached argparse parser leaves `HelpFormatter` cycles
    # once, so one line is parsed first; help and usage output make them
    # on every call, so no line here prints either
    _main("leibniz", str(DEMO / "box.foml"))
    codes = []
    gc.collect()
    gc.disable()
    try:
        report = run_fuzz(1, 20, tuple(CHECKS))
        for path in sorted(DEMO.glob("*.foml")):
            for command, *flags in COMMANDS:
                codes.append(_main(command, str(path), *flags))
            problem = parse_file(path.read_text())
            if problem.goal is None:  # a safety spec: no obligation
                continue
            res = find_countermodel(problem.obligation(), SearchBounds(2, 2))
            if res.model is not None:
                model = tmp_path / f"{path.stem}.model"
                model.write_text(serialize_model(res.model))
                codes.append(_main("check-model", str(model), str(path)))
        codes.append(_main("safety", str(DEMO / "swap.foml"),
                           "--out", str(tmp_path)))
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    assert report.ok and report.iterations == 20
    assert cli.EX_USAGE not in codes and cli.EX_SOFTWARE not in codes, codes
