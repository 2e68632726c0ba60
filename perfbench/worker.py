"""Child process that runs one workload; spawned by run.py.

Modes:
  probe       build the workload, run its first op, print "first-op-done"
              the moment it completes, then check it (set-up time probe);
  loop        run whole rounds until --seconds have passed and the tail
              percentile has at least 10 samples beyond it;
  fixed       run exactly --rounds rounds, optionally traced, and report
              per-layer self times and call counts (per-layer run);
  cli-traced  ``cli-traced SUMMARY ARGV...``: run one ``kdntt`` command
              under the tracer and write the span summary to the file
              SUMMARY (the traced child of cli-cold).

The last line of stdout is one JSON object with the mode's results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracer import Tracer, absent_targets, leftover_wrappers
from workloads import (ROOT, SRC, WORKLOADS, CliCold, GoldenPolymul,
                       fingerprint, kdntt_modules)

HARD_CAP_S = 120.0  # keeps one run well inside its 180 s limit
WORK = ROOT / ".perfbench_work"


def tail_floor(pct: float) -> int:
    """Fewest samples that leave 10 beyond the nearest-rank percentile."""
    n = 1
    while n - math.ceil(pct * n / 100) < 10:
        n += 1
    return n


def stray_activity() -> list[str]:
    """Threads or child processes left running besides the worker's own.

    The host-speed calibration runs in the worker, between ops.  Work the
    package left running in the background would slow the calibration as
    much as the ops and be divided out, so any is counted as an error.
    """
    found = []
    if threading.active_count() > 1:
        names = [t.name for t in threading.enumerate()
                 if t is not threading.main_thread()]
        found.append(f"threads left running: {names}")
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children at all
        pass
    else:
        found.append("a child process is still running" if pid == 0
                     else f"child process {pid} exited unwaited")
    return found


def _make(args, workdir: Path, traced_children: bool = False):
    """Build the workload; the package's import happens here."""
    cls = WORKLOADS[args.workload]
    if cls is CliCold:
        return cls(args.seed, workdir, traced=traced_children)
    if cls is GoldenPolymul:
        return cls(args.seed, fault=args.fault)
    return cls(args.seed)


def _run_checked(op, errors: list[str]) -> tuple[bool, object]:
    try:
        res = op.run()
    except Exception as e:  # a crashing op is a failed op, not a crash
        errors.append(f"{op.cls}: {type(e).__name__}: {e}")
        return False, None
    return True, res


def _check(op, res, errors: list[str]) -> bool:
    try:
        errs = op.check(res)
    except Exception as e:
        errs = [f"{op.cls}: check raised {type(e).__name__}: {e}"]
    errs += [f"{op.cls}: {e}" for e in stray_activity()]
    errors.extend(errs)
    return not errs


def _finish(out: dict, errors: list[str], workdir: Path, k=None,
            run_errors: list[str] = ()) -> None:
    """Run the fingerprint and print the result line.

    ``run_errors`` are deviations of the run as a whole (the stray
    activity after import); with the fingerprint's they count as one
    failed check.
    """
    stats, ferrs = fingerprint(k or kdntt_modules(), workdir)
    out["stats"] = stats
    out["run_errors"] = [*run_errors, *ferrs]
    out["errors"] = errors[:20]
    print(json.dumps(out))


def cmd_probe(args, workdir: Path) -> int:
    wl = _make(args, workdir)
    errors = stray_activity()
    op = next(wl.rounds())
    ok, res = _run_checked(op, errors)
    print("first-op-done", flush=True)
    ok = ok and _check(op, res, errors)
    print(json.dumps({"ok": ok and not errors, "errors": errors}))
    return 0 if ok else 1


def cmd_loop(args, workdir: Path) -> int:
    wl = _make(args, workdir)
    after_import = stray_activity()
    floor = tail_floor(wl.tail_pct)
    rounds = wl.rounds()
    # Per op: class, latency, whole cycle (inputs, op, check) and the
    # host-speed scale from the calibrations around it; failed ops have
    # no latency.
    samples: list[tuple[str, float | None, float, float]] = []
    errors: list[str] = []
    done_rounds = 0
    t0 = time.perf_counter()
    before = wl.calibration.measure()
    while True:
        for _ in range(wl.round_len):
            tc = time.perf_counter()
            op = next(rounds)
            with wl.calibration.sampler() as during:
                ts = time.perf_counter()
                ok, res = _run_checked(op, errors)
                dt = time.perf_counter() - ts
            dt -= during.spent
            ok = ok and _check(op, res, errors)
            cycle = time.perf_counter() - tc - during.spent
            after = wl.calibration.measure()
            samples.append((op.cls, dt if ok else None, cycle,
                            wl.calibration.scale(before, after,
                                                 during.samples)))
            before = after
        done_rounds += 1
        elapsed = time.perf_counter() - t0
        n_ok = sum(s[1] is not None for s in samples)
        if args.rounds:
            if done_rounds == args.rounds:
                break
        elif (elapsed >= args.seconds and n_ok >= floor) \
                or elapsed >= HARD_CAP_S:
            break
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliCold) \
        else resource.RUSAGE_SELF
    out = {"samples": samples, "wall_s": elapsed, "tail_pct": wl.tail_pct,
           "maxrss_kb": resource.getrusage(who).ru_maxrss}
    _finish(out, errors, workdir, wl.k, after_import)
    return 0


def cmd_fixed(args, workdir: Path) -> int:
    t0 = time.perf_counter_ns()
    wl = _make(args, workdir, traced_children=bool(args.trace))
    import_ns = time.perf_counter_ns() - t0
    after_import = stray_activity()
    cold = isinstance(wl, CliCold)
    tracer = Tracer()
    if args.trace and not cold:
        tracer.install()
    rounds = wl.rounds()
    errors: list[str] = []
    failed = 0
    op_ns: list[int] = []
    scales: list[float] = []
    child_calls: dict[str, int] = {}
    child_self: dict[str, int] = {}
    n_ops = (args.rounds or wl.trace_rounds) * wl.round_len
    before = wl.calibration.measure()
    try:
        for _ in range(n_ops):
            op = next(rounds)
            if args.trace and not cold:
                with tracer.op():
                    ok, res = _run_checked(op, errors)
                op_ns.append(tracer.op_ns[-1])
            else:
                ts = time.perf_counter_ns()
                ok, res = _run_checked(op, errors)
                op_ns.append(time.perf_counter_ns() - ts)
            after = wl.calibration.measure()
            scales.append(wl.calibration.scale(before, after))
            before = after
            if ok and cold and args.trace:
                summary = res[1] or {}
                for key, v in summary.get("self_ns", {}).items():
                    child_self[key] = child_self.get(key, 0) + v
                for key, v in summary.get("calls", {}).items():
                    child_calls[key] = child_calls.get(key, 0) + v
                # Interpreter start, imports and exit: the op's wall time
                # outside the CLI's own span.
                child_self["import"] = child_self.get("import", 0) + \
                    op_ns[-1] - sum(summary.get("op_ns", [op_ns[-1]]))
            if not (ok and _check(op, res, errors)):
                failed += 1
    finally:
        tracer.uninstall()
    left = leftover_wrappers() if not cold else []
    if left:
        errors.append(f"wrappers left installed: {left}")
        failed += 1
    if cold:
        self_ns, calls = child_self, child_calls
    else:
        self_ns, calls = dict(tracer.self_ns), dict(tracer.calls)
        self_ns["import"] = import_ns
    out = {"ops": n_ops, "op_ns": op_ns, "scales": scales, "failed": failed,
           "self_ns": self_ns if args.trace else {},
           "calls": calls if args.trace else {},
           "absent": absent_targets()}
    _finish(out, errors, workdir, wl.k, after_import)
    return 0


def cmd_cli_traced(summary_path: str, argv: list[str]) -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kdntt.cli
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op():
            rc = kdntt.cli.main(argv)
    finally:
        tracer.uninstall()
    Path(summary_path).write_text(json.dumps(tracer.summary()))
    return rc


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli-traced"]:
        return cmd_cli_traced(argv[1], argv[2:])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("probe", "loop", "fixed"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int,
                    help="exact number of rounds (fixed mode default: the "
                         "workload's trace_rounds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", choices=("rom",))
    args = ap.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        return {"probe": cmd_probe, "loop": cmd_loop,
                "fixed": cmd_fixed}[args.mode](args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # still in use by another worker
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
