"""Per-layer spans around the package's functions, installed from outside.

The tracer replaces a function under the name its caller looks it up by
(``kdntt.pipeline_sim.ct_butterfly``, ``kdntt.bfu.mont_mul``, ...) with a
wrapper that times the call and counts it, and puts every original back
on ``uninstall``.  Nothing under ``src/`` is edited.  A target the
package no longer has (a function removed or no longer imported under
that name) is skipped and listed by ``absent_targets``, so a refactor
loses that span, not the whole traced run.

Spans are only recorded while an op is open (``Tracer.op``), so the
benchmark's own input generation and output checks, which also call
package code, are neither timed nor counted.  A layer's self time is
its spans' durations minus the part covered by child spans; the op's
own remainder (the benchmark's glue inside the op) is the ``bench``
layer, so the layers' self times add up to the traced op wall time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, layer).  A dotted attribute names a method on a
# class.  Each function is wrapped under every name its callers use.
TARGETS: tuple[tuple[str, str, str], ...] = (
    # The simulator drivers, as the benchmark and the CLI call them.
    ("kdntt.pipeline_sim", "run_polymul", "pipeline_sim"),
    ("kdntt.pipeline_sim", "run_op", "pipeline_sim"),
    ("kdntt.cli", "run_polymul", "pipeline_sim"),
    ("kdntt.cli", "run_op", "pipeline_sim"),
    # Bank word packing.
    ("kdntt.pipeline_sim", "pack_word", "memory_map.pack"),
    ("kdntt.pipeline_sim", "unpack_word", "memory_map.pack"),
    # Schedules, ROM images and the BRAM estimate.
    ("kdntt.pipeline_sim", "generate_addresses", "memory_map.schedule"),
    ("kdntt.pipeline_sim", "intra_word_stages", "memory_map.schedule"),
    ("kdntt.pipeline_sim", "pwm_schedule", "memory_map.schedule"),
    ("kdntt.pipeline_sim", "estimate_bram_usage", "memory_map.schedule"),
    ("kdntt.memory_map", "generate_addresses", "memory_map.schedule"),
    ("kdntt.memory_map", "intra_word_stages", "memory_map.schedule"),
    ("kdntt.memory_map", "pwm_schedule", "memory_map.schedule"),
    ("kdntt.cli", "build_rom_images", "memory_map.schedule"),
    ("kdntt.cli", "estimate_bram_usage", "memory_map.schedule"),
    # Butterflies, called by the simulator and by the fast transforms.
    ("kdntt.pipeline_sim", "ct_butterfly", "bfu.butterfly"),
    ("kdntt.pipeline_sim", "gs_butterfly_halving", "bfu.butterfly"),
    ("kdntt.pipeline_sim", "kyber_pwm_pair", "bfu.butterfly"),
    ("kdntt.pipeline_sim", "dilithium_pwm", "bfu.butterfly"),
    ("kdntt.bfu", "ct_butterfly", "bfu.butterfly"),
    ("kdntt.bfu", "gs_butterfly_halving", "bfu.butterfly"),
    # The unified datapath: the step and the shared multiplier pair, as
    # the simulator will call them once it runs on the unified unit.
    ("kdntt.pipeline_sim", "unified_bfu_step", "bfu.butterfly"),
    ("kdntt.bfu", "dual_lane_mult", "bfu.butterfly"),
    ("kdntt.cli", "fast_ntt", "bfu.fast_transform"),
    # Modular arithmetic.
    ("kdntt.bfu", "mont_mul", "core_arith"),
    ("kdntt.bfu", "mod_add", "core_arith"),
    ("kdntt.bfu", "mod_sub", "core_arith"),
    ("kdntt.bfu", "mod_add_half", "core_arith"),
    ("kdntt.bfu", "mont_redc", "core_arith"),
    ("kdntt.bfu", "shared_add_sub", "core_arith"),
    ("kdntt.pipeline_sim", "to_mont", "core_arith"),
    ("kdntt.core_arith", "mont_mul", "core_arith"),
    # Oracles, twiddle tables and polynomial construction.
    ("kdntt.cli", "schoolbook_negacyclic", "ntt_reference"),
    ("kdntt.cli", "reference_pwm", "ntt_reference"),
    ("kdntt.pipeline_sim", "forward_zetas", "ntt_reference"),
    ("kdntt.pipeline_sim", "inverse_zetas", "ntt_reference"),
    ("kdntt.pipeline_sim", "basemul_zetas", "ntt_reference"),
    ("kdntt.bfu", "forward_zetas", "ntt_reference"),
    ("kdntt.bfu", "inverse_zetas", "ntt_reference"),
    ("kdntt.ntt_reference", "Polynomial.__post_init__", "ntt_reference"),
    ("kdntt.ntt_reference", "Polynomial.random", "ntt_reference"),
    # The command-line front end.
    ("kdntt.cli", "main", "cli"),
)

LAYERS = ("pipeline_sim", "memory_map.pack", "memory_map.schedule",
          "bfu.butterfly", "bfu.fast_transform", "core_arith",
          "ntt_reference", "cli", "bench")

# Call counts reported per op, keyed by the wrapped function's own name.
# The unified datapath's four read 0 while the simulator runs on the
# standalone butterflies; together with mont_mul they keep the
# multiplication count complete when it moves over.
COUNTED = ("memory_map.pack_word", "memory_map.unpack_word",
           "bfu.ct_butterfly", "bfu.gs_butterfly_halving",
           "bfu.kyber_pwm_pair", "bfu.dilithium_pwm",
           "bfu.unified_bfu_step", "bfu.dual_lane_mult",
           "core_arith.mont_mul", "core_arith.mont_redc",
           "core_arith.shared_add_sub",
           "core_arith.mod_add", "core_arith.mod_sub",
           "core_arith.mod_add_half", "memory_map.generate_addresses")

WRAPPED_MARK = "__perfbench_wrapped__"


def lookup(module: str, attr: str):
    """(owner, name, raw) for a target, or None if the package lacks it.

    ``owner`` holds ``attr``'s last component ``name``; ``raw`` is the
    object stored there (for a class, its ``__dict__`` entry, so that a
    classmethod stays a classmethod).
    """
    obj = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part, None)
    if isinstance(obj, type):
        raw = obj.__dict__.get(name)
    else:
        raw = getattr(obj, name, None)
    return None if raw is None else (obj, name, raw)


def absent_targets() -> list[str]:
    """Targets the package does not have, as ``module.attr``."""
    return [f"{m}.{a}" for m, a, _ in TARGETS if lookup(m, a) is None]


class Tracer:
    """Self time per layer and call counts per function, for open ops."""

    def __init__(self) -> None:
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.calls: Counter[str] = Counter()
        self.op_ns: list[int] = []
        self._stack: list[int] = []   # child time accumulated per open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            calls[name] += 1
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_ns[layer] += dt - stack.pop()
                stack[-1] += dt

        setattr(wrapper, WRAPPED_MARK, fn)
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self) -> None:
        for module, attr, layer in TARGETS:
            found = lookup(module, attr)
            if found is None:
                continue
            owner, name, raw = found
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, layer))
            else:
                new = self._wrap(raw, layer)
            self._saved.append((owner, name, raw))
            setattr(owner, name, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    @contextmanager
    def op(self):
        """Open one op: spans inside it are recorded."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        self._stack.append(0)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            dt = time.perf_counter_ns() - t0
            self.self_ns["bench"] += dt - self._stack.pop()
            self.op_ns.append(dt)

    def summary(self) -> dict:
        return {"self_ns": dict(self.self_ns), "calls": dict(self.calls),
                "op_ns": list(self.op_ns)}


def leftover_wrappers() -> list[str]:
    """Names among TARGETS that still hold a tracer wrapper."""
    left = []
    for module, attr, _layer in TARGETS:
        found = lookup(module, attr)
        if found is None:
            continue
        raw = found[2]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if hasattr(fn, WRAPPED_MARK):
            left.append(f"{module}.{attr}")
    return left
