import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgonal
import mgonal.cli
import mgonal.theorem
from mgonal.cli import main

from oracles import diagonal_residue_oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--m", "5", "--coeffs", "1,1,1,1,1",
                       "--x", "1,1,1,0,0", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 3


def test_represent_json_witness(capsys):
    code, out, _ = run(capsys, "represent", "--m", "5", "--coeffs", "1,1,1,1,1",
                       "--n", "33", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["represented"] is True
    assert sum(
        a * ((5 - 2) * (x * x - x) // 2 + x)
        for a, x in zip(data["form"]["coeffs"], data["witness"])
    ) == 33


def test_represent_expectation_failure(capsys):
    code, out, _ = run(capsys, "represent", "--m", "4", "--coeffs", "2,3",
                       "--n", "1", "--expect-represented")
    assert code == 1


def test_kconst(capsys):
    code, out, _ = run(capsys, "kconst", "--m", "5", "--coeffs", "1,1,1,1,1")
    assert code == 0
    assert "K = 7" in out
    code, out, _ = run(capsys, "kconst", "--m", "5", "--coeffs", "1,1,1,1,1",
                       "--format", "json")
    data = json.loads(out)
    assert data["value"] == 7 and data["factors"] == [{"p": 2, "exponent": 1}]


def test_local_rule_four(capsys):
    code, out, _ = run(capsys, "local", "--m", "8", "--coeffs", "1,1,1,1,1",
                       "--n", "1", "--prime", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["represented"] is True and data["rule"] == 4


def test_local_all_primes(capsys):
    code, out, _ = run(capsys, "local", "--m", "7", "--coeffs", "6,10,15,1,1",
                       "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [v["p"] for v in data["verdicts"]] == [2, 3]


def test_local_at_a_large_prime(capsys):
    # <1,1,83>_3 needs the criterion at p = 83, once refused as a residue
    # table mod 83^3
    code, out, _ = run(capsys, "local", "--m", "3", "--coeffs", "1,1,83",
                       "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [v["p"] for v in data["verdicts"]] == [2, 83]
    for v in data["verdicts"]:
        if "criterion_value" in v:
            assert v["represented"] == diagonal_residue_oracle(
                (1, 1, 83), v["criterion_value"], v["p"])


def test_exceptional_stable_bytes(capsys):
    args = ("exceptional", "--m", "5", "--coeffs", "1,1,1,1,1", "--bound",
            "500", "--format", "json", "--stable-output")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["exceptional"] == [] and "timings" not in data


def test_admissible_k(capsys):
    code, out, _ = run(capsys, "admissible-k", "--m", "5",
                       "--coeffs", "1,1,1,1,1", "--n", "10", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pairs"] and data["k_bound"] == 7


def test_admissible_k_at_a_large_coefficient_prime(capsys):
    # 53 divides a coefficient, so the search classifies eq2 at p = 53
    code, out, _ = run(capsys, "admissible-k", "--m", "8",
                       "--coeffs", "3,1,1,2,53", "--n", "400", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pairs"] and data["diagnostics"] == []
    assert {ev["p"] for ev in data["pairs"][0]["evidence"]} == {2, 3, 53}


def test_admissible_k_text_prints_diagnostics_with_pairs(capsys, monkeypatch):
    monkeypatch.setattr(mgonal.theorem, "K_SCAN_LIMIT", 1)
    code, out, _ = run(capsys, "admissible-k", "--m", "12",
                       "--coeffs", "10,9,9,1,1", "--n", "52")
    assert code == 0
    assert "  k=0 P=1" in out
    assert "  k scan truncated at 1 (full residue period is" in out


def test_jordan(capsys):
    code, out, _ = run(capsys, "jordan", "--m", "5", "--coeffs", "1,1,1,1,1",
                       "--prime", "3", "--precision", "10", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["det"] == 5
    assert sum(len(b["block"]) for b in data["blocks"]) == 4


def test_scaling_csv(capsys):
    code, out, _ = run(capsys, "scaling", "--coeffs", "1,1,1,1,1",
                       "--m-min", "5", "--m-max", "6", "--multiplier", "2",
                       "--format", "csv", "--stable-output")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,bound,max_exceptional,seconds"
    assert lines[1].startswith("5,54,0")


def test_usage_errors(capsys):
    code, _, err = run(capsys, "represent", "--m", "5", "--coeffs", "1,1,x",
                       "--n", "3")
    assert code == 2
    code, _, err = run(capsys, "represent", "--m", "5", "--coeffs", "1,1,1,1,1",
                       "--n", "3", "--prime", "7")
    assert code == 2
    assert "--prime" in err or "unrecognized" in err


def test_jobs_flag_is_gone(capsys):
    for argv in (("exceptional", "--m", "5", "--coeffs", "1,1,1,1,1",
                  "--bound", "50"),
                 ("scaling", "--coeffs", "1,1,1,1,1", "--m-min", "5",
                  "--m-max", "6")):
        code, out, err = run(capsys, *argv, "--jobs", "2")
        assert code == 2 and out == ""
        assert err.startswith("usage: mgonal")
        assert "--jobs" in err


def test_unknown_flag_suggestion(capsys):
    code, _, err = run(capsys, "kconst", "--m", "5", "--coeffs", "1,1,1,1,1",
                       "--bouund", "7")
    assert code == 2
    assert "did you mean" in err
    code, _, err = run(capsys, "kconst", "--m", "5", "--coeffs", "1,1,1,1,1",
                       "--bund", "7")
    assert code == 2
    assert "did you mean --bound?" in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(mgonal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "mgonal", "eval", "--m", "5",
         "--coeffs", "1,1,1,1,1", "--x", "1,1,1,0,0", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 3


def test_nonprimitive_form_is_usage_error(capsys):
    code, _, err = run(capsys, "kconst", "--m", "5", "--coeffs", "2,4,6,8,10")
    assert code == 2
    assert "primitive" in err
