"""Isolated micro-timings of each layer's hot functions.

Run by run.py in a child interpreter, once as is and once under
``python -O`` (which strips the package's ``assert`` range checks).
Each item times a batch of calls on seeded random operands, repeats the
batch until its time budget is spent, and reports the median batch time
per call, corrected for host speed (see hostspeed.py).  An item whose
function the package no longer has is skipped and listed as absent.
Prints one JSON object {"values": {metric name: value}, "absent": [...]}.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hostspeed  # noqa: E402
from kdntt import bfu, core_arith, memory_map, ntt_reference, pipeline_sim  # noqa: E402

K, D = core_arith.KYBER, core_arith.DILITHIUM
PAIRS = [(d, s) for d, g in memory_map.DESIGNS.items() for s in g.schemes]


def timed(fn, calls: int, budget: float, unit: float) -> float:
    """Median host-speed corrected time per call of ``fn()`` (which makes
    ``calls`` calls), in ``1/unit`` seconds."""
    fn()  # fills lazy tables and caches
    times = []
    end = time.perf_counter() + budget
    before = hostspeed.KERNEL.measure()
    while len(times) < 3 or time.perf_counter() < end:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        after = hostspeed.KERNEL.measure()
        times.append(dt * hostspeed.KERNEL.scale(before, after))
        before = after
    return statistics.median(times) / calls * unit


def items(rng: random.Random):
    """(name, make, calls per batch, unit scale) per metric.

    ``make()`` looks up the package functions the item times and returns
    its batch function; it raises AttributeError if the package no
    longer has one of them, and the item is then reported as absent.
    """
    n = 1000
    kq, dq = K.q, D.q
    kx = [(rng.randrange(kq), rng.randrange(kq)) for _ in range(n)]
    dx = [(rng.randrange(dq), rng.randrange(dq)) for _ in range(n)]
    ns, us, ms = 1e9, 1e6, 1e3
    wk = ntt_reference.forward_zetas(K)[5]
    wd = ntt_reference.forward_zetas(D)[5]
    polys = {s: [ntt_reference.Polynomial.random(s, rng) for _ in range(2)]
             for s in ("kyber", "dilithium")}
    words = [[rng.randrange(1 << 12) for _ in range(4)] for _ in range(n)]

    def ca(fname, *extra):
        def make():
            f = getattr(core_arith, fname)
            return lambda: [f(a, b, *extra) for a, b in kx]
        return make

    yield "core_arith.mont_mul.ns", ca("mont_mul", K), n, ns
    yield "core_arith.mod_add.ns", ca("mod_add", kq), n, ns
    yield "core_arith.mod_sub.ns", ca("mod_sub", kq), n, ns
    yield "core_arith.mod_add_half.ns", ca("mod_add_half", kq), n, ns

    def shared_kyber():
        f, pk = core_arith.shared_add_sub, core_arith.pack_lanes
        lanes = [(pk(a, b), pk(b, a)) for a, b in kx]
        mode = core_arith.KYBER_PAIR
        return lambda: [f(x, y, mode, "add", K) for x, y in lanes]

    def shared_dilithium():
        f, mode = core_arith.shared_add_sub, core_arith.DILITHIUM_SINGLE
        return lambda: [f(a, b, mode, "sub", D) for a, b in dx]

    yield "core_arith.shared_add_sub.kyber.ns", shared_kyber, n, ns
    yield "core_arith.shared_add_sub.dilithium.ns", shared_dilithium, n, ns

    def butterfly(fname):
        def make():
            f = getattr(bfu, fname)
            return lambda: [f(a, b, wk, K) for a, b in kx]
        return make

    yield "bfu.ct_butterfly.ns", butterfly("ct_butterfly"), n, ns
    yield "bfu.gs_butterfly_halving.ns", butterfly("gs_butterfly_halving"), \
        n, ns

    def pwm_pairs():
        pair, m0, m1 = bfu.kyber_pwm_pair, bfu.MODE_PWM0, bfu.MODE_PWM1

        def run():
            for a, b in kx:
                c = pair(m0, (a, b), (b, a), 0, K)
                pair(m1, (0, 0), (0, 0), wk, K, carry_state=c)
        return run

    yield "bfu.kyber_pwm_pair.ns", pwm_pairs, 2 * n, ns

    def step(scheme):
        def make():
            f, Io, mode = bfu.unified_bfu_step, bfu.BfuIo, bfu.MODE_NTT
            if scheme == "kyber":
                ios = [(Io(a, b, wk), Io(b, a, wk)) for a, b in kx]
                return lambda: [f(io, mode, "kyber", K) for io in ios]
            ios = [Io(a, b, wd) for a, b in dx]
            return lambda: [f(io, mode, "dilithium", D) for io in ios]
        return make

    yield "bfu.unified_bfu_step.kyber_ntt.ns", step("kyber"), n, ns
    yield "bfu.unified_bfu_step.dilithium_ntt.ns", step("dilithium"), n, ns
    for s, p in (("kyber", K), ("dilithium", D)):
        def fast(a=polys[s][0], p=p):
            f = bfu.fast_ntt
            return lambda: f(a, p)
        yield f"bfu.fast_ntt.{s}.us", fast, 1, us

    def pack():
        f = memory_map.pack_word
        return lambda: [f(c, 12) for c in words]

    def unpack():
        f, g = memory_map.pack_word, memory_map.unpack_word
        packed = [f(c, 12) for c in words]
        return lambda: [g(x, 4, 12) for x in packed]

    def addresses():
        f, ch = memory_map.generate_addresses, memory_map.CH_NTT
        return lambda: f(ch, 64)

    def roms():
        f = memory_map.build_rom_images
        return lambda: f("d2")

    yield "memory_map.pack_word.ns", pack, n, ns
    yield "memory_map.unpack_word.ns", unpack, n, ns
    yield "memory_map.generate_addresses.us", addresses, 1, us
    yield "memory_map.build_rom_images.ms", roms, 1, ms

    for s, p in (("kyber", K), ("dilithium", D)):
        a, b = polys[s]
        for op in ("ntt", "intt", "pwm"):
            def run_op(a=a, b=b, s=s, p=p, op=op):
                f = pipeline_sim.run_op
                d2 = pipeline_sim.CoreConfig.for_design("d2")
                if op == "ntt":
                    return lambda: f(d2, s, op, a)
                fa = bfu.fast_ntt(a, p)
                if op == "intt":
                    return lambda: f(d2, s, op, fa)
                fb = bfu.fast_ntt(b, p)
                return lambda: f(d2, s, op, fa, fb)
            yield f"pipeline_sim.run_op.{op}.d2.{s}.ms", run_op, 1, ms
    for design, s in PAIRS:
        def polymul(design=design, s=s):
            f = pipeline_sim.run_polymul
            cfg = pipeline_sim.CoreConfig.for_design(design)
            a, b = polys[s]
            return lambda: f(cfg, s, a, b)
        yield f"pipeline_sim.run_polymul.{design}.{s}.ms", polymul, 1, ms


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=float, default=0.2,
                    help="seconds of timing per item")
    args = ap.parse_args(argv)
    rng = random.Random(f"{args.seed}/micro")
    values, absent = {}, []
    for name, make, calls, unit in items(rng):
        try:
            fn = make()
        except AttributeError:
            absent.append(name)
            continue
        values[name] = timed(fn, calls, args.budget, unit)
    print(json.dumps({"values": values, "absent": absent}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
