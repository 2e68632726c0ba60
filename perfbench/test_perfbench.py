"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, proc.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_reports_every_metric(workload, trace):
    rc, result, err = bench("--workload", workload, "--seed", "3",
                            "--seconds", "0", "--rounds", "1",
                            "--trace", trace)
    assert rc == 0, err
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_trace_restores_every_wrapped_function():
    from tracer import TARGETS, Tracer, absent_targets, leftover_wrappers, \
        lookup
    from workloads import GoldenPolymul

    wl = GoldenPolymul(seed=5)
    before = {(m, a): lookup(m, a) for m, a, _ in TARGETS}
    present = [k for k, found in before.items() if found is not None]
    assert len(present) == len(TARGETS) - len(absent_targets())
    tracer = Tracer()
    tracer.install()
    try:
        assert len(leftover_wrappers()) == len(present)
        op = next(wl.rounds())
        with tracer.op():
            res = op.run()
        assert op.check(res) == []
    finally:
        tracer.uninstall()
    assert leftover_wrappers() == []
    for (m, a), found in before.items():
        assert lookup(m, a) == found, f"{m}.{a} not restored"
    assert tracer.calls["bfu.ct_butterfly"] > 0
    assert tracer.self_ns["pipeline_sim"] > 0


def test_removed_functions_are_skipped_not_fatal(monkeypatch):
    import random

    import kdntt.bfu
    import kdntt.pipeline_sim
    import micro
    from tracer import Tracer, absent_targets, leftover_wrappers

    monkeypatch.delattr(kdntt.bfu, "kyber_pwm_pair")
    monkeypatch.delattr(kdntt.pipeline_sim, "kyber_pwm_pair")
    assert "kdntt.pipeline_sim.kyber_pwm_pair" in absent_targets()
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert leftover_wrappers() == []
    makes = {name: make for name, make, _, _ in micro.items(random.Random(0))}
    with pytest.raises(AttributeError):
        makes["bfu.kyber_pwm_pair.ns"]()
    assert callable(makes["bfu.ct_butterfly.ns"]())


def test_stray_threads_are_errors():
    import threading

    from worker import stray_activity

    assert stray_activity() == []
    stop = threading.Event()
    t = threading.Thread(target=stop.wait, name="stray")
    t.start()
    try:
        assert any("stray" in e for e in stray_activity())
    finally:
        stop.set()
        t.join(timeout=10)
    assert not t.is_alive()
    assert stray_activity() == []


def test_corrupt_rom_counts_as_errors_and_fails():
    from run import SETUP_PROBES

    rc, result, _ = bench("--workload", "golden-polymul", "--seed", "3",
                          "--seconds", "0", "--rounds", "1", "--trace", "0",
                          "--fault", "rom")
    assert rc != 0
    assert not result["correct"]
    # Every product of the round and every set-up probe used the bad ROM.
    assert result["failed"] >= 8 + SETUP_PROBES
    assert result["failed"] <= result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_prints_ratio_rows(tmp_path):
    rec = {"correct": True, "attempted": 1, "failed": 0,
           "env": {"workload": "golden-polymul"},
           "metrics": {"latency_ms_p50": {"value": 20.0, "unit": "ms"}}}
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text(json.dumps(rec) + "\n")
    rec["metrics"]["latency_ms_p50"]["value"] = 10.0
    new.write_text(json.dumps(rec) + "\n")
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--compare",
                           str(old), str(new)],
                          capture_output=True, text=True, check=True)
    row = [ln for ln in proc.stdout.splitlines() if "latency_ms_p50" in ln]
    assert row and row[0].split()[-2] == "0.500"
