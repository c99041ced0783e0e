"""The benchmark's own tests (outside the tier-1 `testpaths`).

    python3 -m pytest bench -q
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corpus_is_reproducible_from_its_seed(workload):
    a, b = corpus.build(workload, 7), corpus.build(workload, 7)
    assert a.files() == b.files()
    # every item belongs to a family that records why it is there
    assert {it.family for it in a.items} <= {f.name for f in a.families}
    assert a.fingerprint() == b.fingerprint()
    assert corpus.build(workload, 8).fingerprint() != a.fingerprint()


def test_listed_workloads_match_the_harness():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert set(listed) <= set(run.WORKLOADS)
    assert "overlimit" not in listed


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc = bench("--workload", "fuzz", "--seed", "3", "--seconds", "0.1")
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and unit in line
                   for line in proc.stdout.splitlines()), name
    assert f"(samples {result['attempted']})" in proc.stdout
    assert "failed_share" in proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", "1")
    result = last_json(proc)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.coverage_missing"] == 0, proc.stdout
    # self times add up to the traced op time, less harness glue
    assert 0.95 < metrics["trace.attributed_share"] <= 1.0
    if workload == "translate":
        assert metrics["search.calls"] == 0
        assert metrics["prover.resource_out"] == 0
    if workload == "fuzz":
        assert metrics["gen.iterations"] == 48 * corpus.FUZZ_ITERS
        assert metrics["prover.calls"] == 0


def _outcome(runner, item):
    out = runner.run(item)
    assert out.code is not None, out.error
    return out


@pytest.fixture(scope="module")
def prove_setup(tmp_path_factory):
    directory = tmp_path_factory.mktemp("prove")
    _dt, mods, corp, runner = run.set_up("prove", 5, directory)
    return mods, corp, runner, checks.Checker(mods, 5)


def test_tampered_countermodel_is_counted_as_failed(prove_setup):
    _mods, corp, runner, checker = prove_setup
    i, item = next((i, it) for i, it in enumerate(corp.items)
                   if it.expect == "countermodel" and it.family == "chain")
    good = _outcome(runner, item)
    bad = checks.Outcome(good.code, good.stdout.replace(" tt)", " ff)"))
    assert bad != good
    rec = run.Record(len(corp.items))
    rec.add(i, good, 0.001, 0.001)
    assert run.check_all("prove", 5, corp, rec, checker)[0] == 0
    rec = run.Record(len(corp.items))
    rec.add(i, bad, 0.001, 0.001)
    rec.add(i, bad, 0.001, 0.001)
    failed, _decided, lines = run.check_all("prove", 5, corp, rec, checker)
    assert failed == 2
    assert "family=chain" in lines[0] and "seed=5" in lines[0]


def test_wrong_exit_code_for_a_verdict_is_counted_as_failed(prove_setup):
    _mods, corp, runner, checker = prove_setup
    item = next(it for it in corp.items if it.expect == "proved")
    good = _outcome(runner, item)
    assert checker.check("prove", item, good) is None
    assert checker.check("prove", item, checks.Outcome(1, good.stdout))


@pytest.fixture(scope="module")
def translate_setup(tmp_path_factory):
    directory = tmp_path_factory.mktemp("translate")
    _dt, mods, corp, runner = run.set_up("translate", 5, directory)
    return mods, corp, runner, checks.Checker(mods, 5)


def _translate_item(corp, label):
    return next((i, it) for i, it in enumerate(corp.items)
                if it.label == label)


def test_tampered_translation_is_counted_as_failed(translate_setup):
    _mods, corp, runner, checker = translate_setup
    i, item = _translate_item(corp, "width/w12r0:coalesce-fol")
    good = _outcome(runner, item)
    assert checker.check("translate", item, good) is None
    bad = checks.Outcome(0, good.stdout.replace("(= x x)", "(= y x)", 1))
    assert bad != good
    rec = run.Record(len(corp.items))
    rec.add(i, bad, 0.001, 0.001)
    assert run.check_all("translate", 5, corp, rec, checker)[0] == 1
    # output that differs between repeats fails the item too
    rec = run.Record(len(corp.items))
    rec.add(i, good, 0.001, 0.001)
    rec.add(i, checks.Outcome(0, good.stdout + "\n"), 0.001, 0.001)
    assert run.check_all("translate", 5, corp, rec, checker)[0] == 2


@pytest.mark.parametrize("module, func, label", [
    ("coalesce", "coalesce_obligation_fol", "width/w12r0:coalesce-fol"),
    ("coalesce_ml", "coalesce_obligation_ml", "width/w12r0:coalesce-ml"),
])
def test_unsound_translator_fails_the_witness_check(
        translate_setup, monkeypatch, module, func, label):
    """A translator that negates the goal prints output the re-derivation
    agrees with, so only the semantic witness check can catch it."""
    mods, corp, runner, checker = translate_setup
    original = getattr(mods[module], func)

    def unsound(ob, *args):
        res = original(ob, *args)
        return dataclasses.replace(res, goal=mods["syntax"].not_(res.goal))

    monkeypatch.setattr(mods[module], func, unsound)
    monkeypatch.setattr(mods["cli"], func, unsound)
    _i, item = _translate_item(corp, label)
    reason = checker.check("translate", item, _outcome(runner, item))
    assert reason is not None and "witness mismatch" in reason


def test_recursion_errors_count_as_failed_without_aborting_the_run():
    proc = bench("--workload", "overlimit", "--seed", "1", "--seconds", "0.1")
    result = last_json(proc)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert "RecursionError" in proc.stdout
    assert "family=overlimit seed=1" in proc.stdout


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
