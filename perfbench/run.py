"""kdntt benchmark: one command per workload, every output checked.

    python3 perfbench/run.py --workload golden-polymul --seed 1 \\
        --seconds 20 --trace 0 [--out runs.jsonl]
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

With ``--trace 0`` it measures the end-to-end metrics with tracing off:
set-up time from several fresh interpreters, then one worker process
running the workload's closed loop.  With ``--trace 1`` it reports the
per-layer metrics: self times and call counts per op from a traced run
of a fixed op sequence (against an untraced run of the same sequence,
for the tracing overhead), micro-timings with and without ``python -O``,
the exact simulated statistics and the source size of each module.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Any failed op or
fingerprint deviation makes the exit status 1.  ``--out`` appends the
full record (environment included) as one JSON line, and ``--compare``
prints one row per workload and metric with both medians and their ratio.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata

import hostspeed
from tracer import COUNTED, LAYERS
from workloads import HERE, MODULES, ROOT, SRC, WORKLOADS

WORKER = HERE / "worker.py"
MICRO = HERE / "micro.py"

# Layers reported with a self time: the tracer's, bar the benchmark's
# own glue, plus interpreter start-up and import.
LAYER_METRICS = tuple(x for x in LAYERS if x != "bench") + ("import",)
STAT_UNITS = {"sim.busy_cycles.total": "cycles",
              "sim.fill_drain_cycles.total": "cycles",
              "sim.hazards.total": "count",
              "memory_map.bram_units.total": "bram18k",
              "memory_map.rom_digest": "hash"}

SETUP_PROBES = 15
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def _python(*flags: str) -> list[str]:
    return [sys.executable, *flags]


def run_child(cmd: list[str]) -> dict:
    """Run a child to completion; its last stdout line is its JSON result."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def setup_probe(args, i: int) -> tuple[float, float, bool]:
    """Seconds from spawning a fresh worker until its first op completes:
    host-speed corrected, raw, and whether the op checked out."""
    cmd = _python(str(WORKER), "probe", "--workload", args.workload,
                  "--seed", str(args.seed * 1000 + i), *_fault(args))
    before = hostspeed.STARTUP.measure()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        t1 = time.perf_counter()
        rest = proc.stdout.read() if ready else ""
        proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # After the probe has exited, so that the two do not share the CPU.
    after = hostspeed.STARTUP.measure()
    try:
        if line.strip() != "first-op-done":
            raise ValueError("no first op")
        result = json.loads(rest.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError(f"set-up probe failed:\n{(line + rest)[-2000:]}")
    raw = t1 - t0
    return (raw * hostspeed.STARTUP.scale(before, after), raw,
            bool(result["ok"]) and proc.returncode == 0)


def _fault(args) -> list[str]:
    return ["--fault", args.fault] if args.fault else []


def _rounds(args) -> list[str]:
    return ["--rounds", str(args.rounds)] if args.rounds else []


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of the pct-th percentile of n samples."""
    return max(1, math.ceil(pct * n / 100))


def percentile(sorted_values: list[float], pct: float) -> float:
    return sorted_values[rank(len(sorted_values), pct) - 1]


def end_to_end(args) -> tuple[dict, int, int, dict]:
    probes = [setup_probe(args, i) for i in range(SETUP_PROBES)]
    loop = run_child(_python(str(WORKER), "loop", "--workload", args.workload,
                             "--seed", str(args.seed),
                             "--seconds", str(args.seconds), *_rounds(args),
                             *_fault(args)))
    samples = loop["samples"]
    ok = [(cls, dt * k, dt) for cls, dt, _, k in samples if dt is not None]
    by_cls: dict[str, list[float]] = defaultdict(list)
    for cls, dt, _ in ok:
        by_cls[cls].append(dt)
    lat = sorted(dt for _, dt, _ in ok)
    pct = loop["tail_pct"]
    failed_ops = len(samples) - len(ok)
    bad_probes = sum(not good for *_, good in probes)
    run_bad = bool(loop["run_errors"])
    attempted = len(samples) + len(probes) + 1
    failed = failed_ops + bad_probes + run_bad
    class_medians = {c: statistics.median(v) for c, v in by_cls.items()}
    metrics = {
        "throughput_ops_s": (
            len(ok) / sum(cycle * k for _, _, cycle, k in samples), "ops/s"),
        # Ops come in fixed rounds of unequal classes (designs, commands),
        # so a pooled median would sit in the gap between two classes and
        # jump between runs; the mean of the class medians does not.
        "latency_ms_p50": (1e3 * statistics.fmean(class_medians.values())
                           if class_medians else float("nan"), "ms"),
        "latency_ms_tail": (1e3 * percentile(lat, pct)
                            if lat else float("nan"), "ms"),
        "setup_s": (statistics.median(t for t, _, _ in probes), "s"),
        "peak_rss_mb": (loop["maxrss_kb"] / 1024, "MB"),
    }
    raw = sorted(dt for _, _, dt in ok)
    details = {
        "error_rate": failed / attempted,
        "tail_percentile": pct,
        "tail_samples_beyond": len(lat) - rank(len(lat), pct),
        "samples": len(lat),
        "class_medians_ms": {c: 1e3 * v for c, v in class_medians.items()},
        "raw.throughput_ops_s": len(ok) / loop["wall_s"],
        "raw.latency_ms_median": 1e3 * statistics.median(raw) if raw else None,
        "raw.latency_ms_tail": 1e3 * percentile(raw, pct) if raw else None,
        "raw.setup_s": statistics.median(t for _, t, _ in probes),
        "host_speed_scale": {"min": min(k for *_, k in samples),
                             "median": statistics.median(
                                 k for *_, k in samples),
                             "max": max(k for *_, k in samples)},
        "stats": loop["stats"],
        "errors": loop["errors"] + loop["run_errors"],
    }
    return metrics, attempted, failed, details


def per_layer(args) -> tuple[dict, int, int, dict]:
    cmd = _python(str(WORKER), "fixed", "--workload", args.workload,
                  "--seed", str(args.seed), *_rounds(args))
    plain = run_child(cmd)
    traced = run_child(cmd + ["--trace", "1"])
    budget = max(0.05, args.seconds / 124)
    micro = run_child(_python(str(MICRO), "--seed", str(args.seed),
                              "--budget", str(budget)))
    micro_o = run_child(_python("-O", str(MICRO), "--seed", str(args.seed),
                                "--budget", str(budget)))

    ops = traced["ops"]

    def corrected_ns(run: dict) -> float:
        return sum(t * k for t, k in zip(run["op_ns"], run["scales"]))

    # Self times are scaled by the traced run's mean host-speed factor.
    speed = corrected_ns(traced) / sum(traced["op_ns"])
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYER_METRICS:
        metrics[f"{layer}.self_ms"] = (
            traced["self_ns"].get(layer, 0) * speed / ops / 1e6, "ms")
    metrics["trace.overhead_frac"] = (
        corrected_ns(traced) / corrected_ns(plain) - 1, "ratio")
    for name in COUNTED:
        metrics[f"{name}.calls"] = (traced["calls"].get(name, 0) / ops,
                                    "count")
    for suffix, table in (("", micro), (".O", micro_o)):
        for name, v in table["values"].items():
            metrics[name + suffix] = (v, name.rsplit(".", 1)[-1])
    for name, v in traced["stats"].items():
        metrics[name] = (v, STAT_UNITS[name])
    for m in MODULES:
        with open(SRC / "kdntt" / f"{m}.py", encoding="utf-8") as f:
            metrics[f"src_lines.{m}"] = (sum(1 for _ in f), "lines")

    attempted = 2 * ops + 2
    failed = plain["failed"] + traced["failed"] + \
        bool(plain["run_errors"]) + bool(traced["run_errors"])
    if plain["stats"] != traced["stats"]:
        failed += 1
    metrics["error_rate"] = (failed / attempted, "ratio")
    details = {
        "ops": ops,
        "traced_op_ms": corrected_ns(traced) / ops / 1e6,
        "untraced_op_ms": corrected_ns(plain) / ops / 1e6,
        "bench.self_ms": traced["self_ns"].get("bench", 0) * speed / ops / 1e6,
        "raw.traced_op_ms": sum(traced["op_ns"]) / ops / 1e6,
        "raw.untraced_op_ms": sum(plain["op_ns"]) / ops / 1e6,
        # Functions the package no longer has: their spans and call counts
        # are missing from the traced run, their micro-timings from the
        # metrics.
        "absent.traced": traced["absent"],
        "absent.micro": micro["absent"],
        "errors": plain["errors"] + traced["errors"]
        + plain["run_errors"] + traced["run_errors"],
    }
    return metrics, attempted, failed, details


def environment(args) -> dict:
    env = {"git_sha": "unknown", "git_dirty": None}
    if (ROOT / ".git").exists():
        def git(*a):
            return subprocess.run(["git", "-C", str(ROOT), *a],
                                  capture_output=True, text=True).stdout
        env["git_sha"] = git("rev-parse", "HEAD").strip() or "unknown"
        env["git_dirty"] = bool(git("status", "--porcelain",
                                    "--untracked-files=no").strip())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    flags = sys.flags
    env.update({
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "interpreter_flags": {"optimize": flags.optimize,
                              "dont_write_bytecode": flags.dont_write_bytecode,
                              "hash_randomization": flags.hash_randomization},
        "micro_flags": ["", "-O"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    return env


def load_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(ln) for ln in f if ln.strip()]


def compare(old_path: str, new_path: str) -> int:
    """One row per workload and metric: both medians and new/old."""
    sides = []
    for path in (old_path, new_path):
        vals: dict[tuple[str, str], list[float]] = defaultdict(list)
        units = {}
        for rec in load_records(path):
            for name, m in rec["metrics"].items():
                vals[(rec["env"]["workload"], name)].append(m["value"])
                units[name] = m["unit"]
        sides.append(({k: statistics.median(v) for k, v in vals.items()},
                      units))
    (old, units), (new, new_units) = sides
    units.update(new_units)
    print(f"{'workload':20s} {'metric':42s} {'old':>14s} {'new':>14s} "
          f"{'new/old':>8s} unit")
    for key in sorted(set(old) | set(new)):
        o, n = old.get(key), new.get(key)
        ratio = f"{n / o:8.3f}" if o and n is not None else f"{'-':>8s}"
        fmt = lambda v: f"{v:14.6g}" if v is not None else f"{'-':>14s}"
        print(f"{key[0]:20s} {key[1]:42s} {fmt(o)} {fmt(n)} {ratio} "
              f"{units[key[1]]}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="kdntt benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this JSONL file")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two JSONL record files")
    ap.add_argument("--rounds", type=int,
                    help="run exactly this many rounds of ops (self-tests)")
    ap.add_argument("--fault", choices=("rom",),
                    help="inject a corrupted twiddle ROM (self-test only; "
                         "golden-polymul)")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if args.fault and args.workload != "golden-polymul":
        ap.error("--fault applies to golden-polymul only")
    if not (SRC / "kdntt" / "__init__.py").is_file():
        print(f"error: no kdntt sources under {SRC}", file=sys.stderr)
        return 2

    env = environment(args)
    hostspeed.pin_to_one_cpu()
    try:
        metrics, attempted, failed, details = \
            (per_layer if args.trace else end_to_end)(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    for key, v in env.items():
        print(f"env.{key}={json.dumps(v)}")
    for key, v in details.items():
        print(f"detail.{key}={json.dumps(v)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps({**result, "env": env, "details": details})
                    + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
