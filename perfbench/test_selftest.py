"""Self-test of the benchmark at tiny sizes.

Run from the repository root with::

    python3 -m pytest perfbench/test_selftest.py -q

It checks that every workload, untraced and traced, emits every named
metric with a finite value; that the output check can fail; that
``BENCHMARK.json`` names the same workloads and metrics as the code; and
that the command fails without printing a result when the program's
sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY_ITEMS = {
    "swor-narrow": 20_000,
    "multiquery-ckpt": 20_000,
    "sharded-2w": 20_000,
}
SEED = 3


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], items=TINY_ITEMS[name])


@pytest.mark.parametrize("name", list(TINY_ITEMS))
def test_end_to_end_metrics_are_finite(name):
    _oracle, reps = run.measure(tiny(name), SEED, 0, traced=False)
    assert [r.error for r in reps if r.error] == []
    values = run.end_to_end(reps)
    assert list(values) == [n for n, _unit, _better in run.END_TO_END]
    assert all(math.isfinite(v) and v > 0 for v in values.values()), values


@pytest.mark.parametrize("name", list(TINY_ITEMS))
def test_per_layer_metrics_are_finite(name):
    _oracle, reps = run.measure(tiny(name), SEED, 0, traced=True)
    assert [r.error for r in reps if r.error] == []
    assert any(r.traced for r in reps) and any(not r.traced for r in reps)
    values, absent, _traced_ips, _plain_ips = run.per_layer(reps)
    assert list(values) == [n for n, _unit, _better in layers.PER_LAYER]
    assert all(math.isfinite(v) for v in values.values()), values
    assert all(values[n] == 0 for n in absent)


def test_peak_rss_is_left_out_when_the_mark_cannot_be_reset(monkeypatch):
    monkeypatch.setattr(run, "reset_peak_rss", lambda: False)
    _oracle, reps = run.measure(tiny("swor-narrow"), SEED, 0, traced=False)
    assert [r.error for r in reps if r.error] == []
    assert "peak_rss_mb" not in run.end_to_end(reps)


def test_traced_run_restores_every_callable():
    w = tiny("swor-narrow")
    import repro.runtime.columnar as columnar

    before = columnar.window_order
    _oracle, reps = run.measure(w, SEED, 0, traced=True)
    assert columnar.window_order is before
    assert [r.error for r in reps if r.error] == []


@pytest.mark.parametrize("name", ["swor-narrow", "multiquery-ckpt"])
@pytest.mark.parametrize("field", ["fingerprint", "messages_total"])
def test_tampered_oracle_fails_the_check(name, field):
    w = tiny(name)
    oracle = w.oracle(SEED)
    wrong = "0" * 64 if field == "fingerprint" else oracle.messages_total + 1
    tampered = dataclasses.replace(oracle, **{field: wrong})
    _oracle, reps = run.measure(w, SEED, 0, traced=False, oracle=tampered)
    assert reps and all("CheckFailed" in r.error for r in reps)
    assert run.end_to_end(reps) == {}


def test_command_prints_one_result_line(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "swor-narrow", tiny("swor-narrow"))
    argv = ["--workload", "swor-narrow", "--seed", str(SEED), "--seconds", "0"]
    assert run.main(argv + ["--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        n: u for n, u in run.END_TO_END_UNITS.items() if n not in run.NOT_REGISTERED
    }


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    assert [(n, m["unit"], m["better"]) for n, m in end_to_end.items()] == [
        m for m in run.END_TO_END if m[0] not in run.NOT_REGISTERED
    ]
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in end_to_end.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "swor-narrow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
