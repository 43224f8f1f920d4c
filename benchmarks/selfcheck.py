"""The benchmark's own tests: reduced-size runs of every workload through the
whole pipeline, and outputs corrupted on purpose, which the checks must reject.

    python3 -m pytest benchmarks/selfcheck.py

The file name keeps these tests out of the library's own pytest run.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_reduced_run_passes_every_check(workload):
    proc, result = _run(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_reduced_traced_run_reports_every_layer_metric(workload):
    proc, result = _run(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert (HERE / ".trace" / f"{workload}-seed5.json").is_file()


def test_run_refuses_a_tree_without_the_library(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# corrupted outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def census():
    wl = workloads.Census(5, small=True)
    form = wl.forms[3]  # <1,3,9,27,27>_16 has exceptional and obstructed N
    report, _, _ = wl.run(form)
    assert report.exceptional
    return wl, form, report


def _check_census(wl, form, report):
    out = (report, report.to_json_bytes(stable=True), report.to_csv())
    checks.check_census(wl, [form], [out], random.Random(0))


def test_intact_census_report_passes(census):
    _check_census(*census)


def test_dropped_exceptional_n_is_caught(census):
    wl, form, report = census
    dropped = dataclasses.replace(report, exceptional=report.exceptional[1:])
    with pytest.raises(checks.CheckFailure):
        _check_census(wl, form, dropped)
    # also with the counts made to agree with the shorter list
    recounted = dataclasses.replace(
        dropped, locally_represented_count=report.locally_represented_count - 1)
    with pytest.raises(checks.CheckFailure):
        _check_census(wl, form, recounted)


def test_wrong_census_witness_is_caught(census):
    wl, form, report = census
    wrong = dataclasses.replace(report)
    wrong.witness = lambda n: (lambda w: (w[0] + 1,) + w[1:])(report.witness(n))
    with pytest.raises(checks.CheckFailure):
        _check_census(wl, form, wrong)


def test_wrong_scaling_row_is_caught():
    wl = workloads.Scaling(5, small=True)
    (op,) = wl.ops()
    result, payload, csv = wl.run(op)
    checks.check_scaling(wl, [op], [(result, payload, csv)], random.Random(0))
    rows = list(result.rows)
    rows[-1] = dataclasses.replace(rows[-1], max_exceptional=rows[-1].bound)  # reachable
    bad = dataclasses.replace(result, rows=tuple(rows))
    with pytest.raises(checks.CheckFailure):
        checks.check_scaling(wl, [op], [(bad, payload, csv)], random.Random(0))


def test_wrong_represent_outputs_are_caught():
    wl = workloads.Represent(5, small=True)
    ops = wl.ops()
    outputs = [wl.run(op) for op in ops]
    checks.check_represent(wl, ops, outputs, random.Random(0))

    def corrupt(kind, change):
        i = next(i for i, op in enumerate(ops) if op[2] == kind)
        bad = list(outputs)
        bad[i] = change(outputs[i])
        with pytest.raises(checks.CheckFailure):
            checks.check_represent(wl, ops, bad, random.Random(0))

    corrupt("represented", lambda o: (o[0], (o[1][0] + 1,) + o[1][1:]))  # wrong witness
    corrupt("represented", lambda o: (o[0], None))  # missed representation
    corrupt("obstructed", lambda o: (True, o[1]))  # obstruction not seen


def test_wrong_admissible_outputs_are_caught():
    wl = workloads.Admissible(5, small=True)
    ops = wl.ops()[:1]
    out = wl.run(ops[0])
    checks.check_admissible(wl, ops, [out], random.Random(0))
    kc, search, rq, jordan = out

    def rejected(bad):
        with pytest.raises(checks.CheckFailure):
            checks.check_admissible(wl, ops, [bad], random.Random(0))

    pair = search.pairs[0]
    ev = pair.evidence[0]
    w = ev.verdict.witness
    shifted = dataclasses.replace(ev.verdict, witness=(w[0] + 1,) + w[1:])
    bad_pair = dataclasses.replace(
        pair, evidence=(dataclasses.replace(ev, verdict=shifted),) + pair.evidence[1:])
    rejected((kc, dataclasses.replace(search, pairs=(bad_pair,) + search.pairs[1:]), rq, jordan))
    rejected((dataclasses.replace(kc, value=kc.value + 1), search, rq, jordan))
    T = [list(r) for r in jordan[0].transform]
    T[0][0] += 1
    bad_jordan = dataclasses.replace(jordan[0], transform=tuple(map(tuple, T)))
    rejected((kc, search, rq, [bad_jordan] + jordan[1:]))
