"""Acceptance gate: one test per shipped claim, each printing a single
PASS line (pytest -v adds the per-criterion pass/fail verdict either way).

 1. cycle counts match the published per-operation latencies, exactly
 2. 100 seeded random polynomial pairs per scheme and configuration go
    through the simulated core and equal schoolbook multiplication
 3. the core's own ntt and intt (run_batch on d3) match the direct
    O(n^2) oracles; inverse-of-forward is the identity with n^-1 folded
    into per-stage halving
 4. modular add/sub/halving-add exhaustively correct over all Kyber
    input pairs; Montgomery multipliers match a wide-integer oracle on
    1e6 random pairs per scheme
 5. generated schedules are conflict-free for every pipeline depth up
    to d/2 and at the shipped depths; removing the stage-1 last-half
    reversal creates a hazard at the bound
 6. the unified butterfly step is bit-identical to the standalone lane
    behavior on 1e5 samples per mode, at 2 Kyber / 1 Dilithium
    multiplies per step and 4 per Kyber pointwise pair
 7. the BRAM estimator reproduces the published 18Kb-unit totals
"""

import random
import time

from kdntt.core_arith import (
    DILITHIUM,
    KYBER,
    SCHEMES,
    from_mont,
    mod_add,
    mod_add_half,
    mod_sub,
    mont_mul,
    to_mont,
)
from kdntt.ntt_reference import (
    Polynomial,
    direct_ntt,
    schoolbook_negacyclic,
)
from kdntt.bfu import (
    MODE_INTT,
    MODE_NTT,
    MODE_PWM,
    MODE_PWM0,
    MODE_PWM1,
    BfuIo,
    ct_butterfly,
    dilithium_pwm,
    gs_butterfly_halving,
    unified_bfu_step,
)
from kdntt.memory_map import (
    CH_INTT,
    CH_NTT,
    DESIGNS,
    build_twiddle_rom,
    check_conflict_free,
    estimate_bram_usage,
    generate_addresses,
)
from kdntt.pipeline_sim import (
    OP_INTT,
    OP_NTT,
    OP_POLYMUL,
    OP_PWM,
    CoreConfig,
    latency_model,
    run_batch,
    run_op,
    run_polymul,
)
from oracles import kyber_basecase_ref

PUBLISHED_LATENCY = {
    ("standalone-kyber", "kyber"): (448, 448, 256, 1152),
    ("standalone-dilithium", "dilithium"): (1024, 1024, 256, 2304),
    ("d1", "kyber"): (448, 448, 256, 1152),
    ("d1", "dilithium"): (1024, 1024, 256, 2304),
    ("d2", "kyber"): (224, 224, 128, 576),
    ("d2", "dilithium"): (512, 512, 128, 1152),
    ("d3", "kyber"): (112, 112, 64, 288),
    ("d3", "dilithium"): (256, 256, 64, 576),
}

PUBLISHED_BRAM = {
    "standalone-kyber": 2.0,
    "standalone-dilithium": 2.5,
    "d1": 4.5,
    "d2": 4.5,
    "d3": 5.5,
}


def test_c1_latency_reproduction():
    """Busy-cycle counts equal the published table, tolerance 0."""
    rng = random.Random(1)
    for (design, scheme), row in sorted(PUBLISHED_LATENCY.items()):
        cfg = CoreConfig.for_design(design)
        modeled = tuple(latency_model(cfg, scheme, op)
                        for op in (OP_NTT, OP_INTT, OP_PWM, OP_POLYMUL))
        assert modeled == row, f"model {design}/{scheme}: {modeled} != {row}"
        # and the simulator actually takes that many cycles
        p = SCHEMES[scheme]
        a = Polynomial.random(scheme, rng)
        b = Polynomial.random(scheme, rng)
        fa, fb = direct_ntt(a, p), direct_ntt(b, p)
        measured = (
            run_op(cfg, scheme, OP_NTT, a)[1].busy_cycles,
            run_op(cfg, scheme, OP_INTT, fa)[1].busy_cycles,
            run_op(cfg, scheme, OP_PWM, fa, fb)[1].busy_cycles,
            run_polymul(cfg, scheme, a, b)[1].busy_cycles,
        )
        assert measured == row, f"sim {design}/{scheme}: {measured} != {row}"
    print("criterion 1 PASS: all published ntt/intt/pwm/polymul cycle "
          "counts reproduced exactly (8 configuration rows)")


def test_c2_end_to_end_correctness():
    """100 random pairs per scheme per configuration, simulated core vs
    schoolbook, exact, under one minute.  Each configuration's pairs run
    as one run_batch polymul."""
    t0 = time.monotonic()
    runs = 0
    for design, dg in DESIGNS.items():
        cfg = CoreConfig.for_design(design)
        for scheme in dg.schemes:
            As, Bs = [], []
            for trial in range(100):
                rng = random.Random(f"c2/{design}/{scheme}/{trial}")
                As.append(Polynomial.random(scheme, rng))
                Bs.append(Polynomial.random(scheme, rng))
            outs, rep = run_batch(cfg, scheme, OP_POLYMUL, As, Bs)
            assert not rep.hazards
            for trial, (a, b, got) in enumerate(zip(As, Bs, outs)):
                want = schoolbook_negacyclic(a, b)
                assert got.coeffs == want.coeffs, \
                    f"{design}/{scheme} trial {trial} mismatch"
                runs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"budget blown: {elapsed:.1f}s"
    print(f"criterion 2 PASS: {runs} simulated products equal schoolbook "
          f"({elapsed:.1f}s)")


def test_c3_transform_oracle_equivalence():
    """The core's transforms (run_batch ntt, then intt of its outputs,
    on d3) vs direct oracles, 1e3 polynomials per scheme; inverse(forward)
    identity with scaling done purely by halving."""
    cfg = CoreConfig.for_design("d3")
    for scheme, p in SCHEMES.items():
        rng = random.Random(scheme)
        # the only inverse scaling available is the pre-halved twiddle ROM:
        # every inverse entry is (forward_entry * 2)^-1
        rom = build_twiddle_rom(scheme)
        for k in range(1 << p.layers):
            f = from_mont(rom.forward[k], p)
            i = from_mont(rom.inverse[k], p)
            assert 2 * f * i % p.q == 1
        As = [Polynomial.random(scheme, rng) for _ in range(1000)]
        spectra = run_batch(cfg, scheme, OP_NTT, As)[0]
        back = run_batch(cfg, scheme, OP_INTT, spectra)[0]
        for a, got, inverse in zip(As, spectra, back):
            want = direct_ntt(a, p)
            assert got.coeffs == want.coeffs
            assert inverse.coeffs == a.coeffs
    print("criterion 3 PASS: core == direct on 1000 polynomials/scheme, "
          "inverse-of-forward identity via per-stage halving")


def test_c4_arithmetic_exhaustiveness():
    """All ~3.3e7 Kyber (a, b) pairs through add/sub/halving-add, plus
    1e6 Montgomery products per scheme against wide integers."""
    q = KYBER.q
    inv2 = KYBER.inv2
    for a in range(q):
        for b in range(q):
            s = a + b
            if mod_add(a, b, q) != s % q:
                raise AssertionError(f"mod_add({a}, {b})")
            if mod_sub(a, b, q) != (a - b) % q:
                raise AssertionError(f"mod_sub({a}, {b})")
            if mod_add_half(a, b, q) != s * inv2 % q:
                raise AssertionError(f"mod_add_half({a}, {b})")
    pairs = 3 * q * q
    for scheme, p in SCHEMES.items():
        rng = random.Random(f"c4/{scheme}")
        rinv = pow(p.r, -1, p.q)
        for _ in range(1_000_000):
            a = rng.randrange(p.q)
            b = rng.randrange(p.q)
            if mont_mul(a, b, p) != a * b * rinv % p.q:
                raise AssertionError(f"mont_mul({a}, {b}) [{scheme}]")
    print(f"criterion 4 PASS: {pairs} exhaustive Kyber add/sub/half checks, "
          "1e6 Montgomery products per scheme vs wide-integer oracle")


def test_c5_conflict_freedom():
    """Schedules hazard-free for every depth <= d/2 (both directions, all
    region depths) and at the shipped depths 15/15/8 and 11; without the
    stage-1 last-half reversal the forward pass hazards at the bound."""
    for d in (2, 4, 8, 16, 32, 64, 128):
        for ch in (CH_NTT, CH_INTT):
            s = generate_addresses(ch, d)
            for depth in range(1, d // 2 + 1):
                assert not check_conflict_free(s, depth), (d, ch, depth)
        if d >= 4:
            bare = generate_addresses(CH_NTT, d, stage1_reversal=False)
            assert check_conflict_free(bare, d // 2), d
    shipped = []
    for design, dg in DESIGNS.items():
        for scheme in dg.schemes:
            d = dg.geometry(scheme).d
            for ch in (CH_NTT, CH_INTT):
                s = generate_addresses(ch, d)
                assert not check_conflict_free(s, dg.pipeline_depth), \
                    (design, scheme, ch)
            shipped.append(dg.pipeline_depth)
    assert sorted(set(shipped)) == [8, 11, 15]
    print("criterion 5 PASS: conflict-free for all depths <= d/2 and at "
          "shipped depths 15/15/8/11; reversal removal hazards at the bound")


def test_c6_unified_lane_equivalence(count_mults):
    """unified_bfu_step vs standalone lanes, 1e5 samples per mode, with
    the counted multiplier passes at 2/step (Kyber), 1/step (Dilithium),
    and 4 per Kyber pointwise pair."""
    n = 100_000
    rng = random.Random("c6")
    kq = KYBER.q

    counter = count_mults()
    for _ in range(n):
        a0, b0, a1, b1 = (rng.randrange(kq) for _ in range(4))
        w0, w1 = to_mont(rng.randrange(kq), KYBER), to_mont(rng.randrange(kq), KYBER)
        lanes = (BfuIo(in1=a0, in2=b0, in3=w0), BfuIo(in1=a1, in2=b1, in3=w1))
        out = unified_bfu_step(lanes, MODE_NTT, "kyber", KYBER)
        assert out[0] == ct_butterfly(a0, b0, w0, KYBER)
        assert out[1] == ct_butterfly(a1, b1, w1, KYBER)
    assert counter.kyber_mults == 2 * n

    counter = count_mults()
    for _ in range(n):
        a0, b0, a1, b1 = (rng.randrange(kq) for _ in range(4))
        w0, w1 = to_mont(rng.randrange(kq), KYBER), to_mont(rng.randrange(kq), KYBER)
        lanes = (BfuIo(in1=a0, in2=b0, in3=w0), BfuIo(in1=a1, in2=b1, in3=w1))
        out = unified_bfu_step(lanes, MODE_INTT, "kyber", KYBER)
        assert out[0] == gs_butterfly_halving(a0, b0, w0, KYBER)
        assert out[1] == gs_butterfly_halving(a1, b1, w1, KYBER)
    assert counter.kyber_mults == 2 * n

    counter = count_mults()
    for _ in range(n):
        a = (rng.randrange(kq), rng.randrange(kq))
        b = (rng.randrange(kq), rng.randrange(kq))
        psi = rng.randrange(1, kq)
        io0 = BfuIo(in1=a[0], in2=a[1],
                    in3=to_mont(b[0], KYBER), in4=to_mont(b[1], KYBER))
        carry = unified_bfu_step(io0, MODE_PWM0, "kyber", KYBER)
        io1 = BfuIo(in3=to_mont(psi, KYBER))
        done = unified_bfu_step(io1, MODE_PWM1, "kyber", KYBER, carry=carry)
        assert done == kyber_basecase_ref(a, b, psi)
    assert counter.kyber_mults == 4 * n  # the Karatsuba count

    p = DILITHIUM
    counter = count_mults()
    for mode, ref in ((MODE_NTT, ct_butterfly),
                      (MODE_INTT, gs_butterfly_halving)):
        for _ in range(n):
            a, b = rng.randrange(p.q), rng.randrange(p.q)
            w = to_mont(rng.randrange(1, p.q), p)
            out = unified_bfu_step(BfuIo(in1=a, in2=b, in3=w), mode,
                                   "dilithium", p)
            assert out == ref(a, b, w, p)
    for _ in range(n):
        a = rng.randrange(p.q)
        w = to_mont(rng.randrange(p.q), p)
        out = unified_bfu_step(BfuIo(in1=a, in3=w), MODE_PWM,
                               "dilithium", p)
        assert out == (dilithium_pwm(a, w, p), 0)
    assert counter.dilithium_mults == 3 * n and counter.kyber_mults == 0
    print(f"criterion 6 PASS: unified == standalone on {n} samples/mode; "
          "2 Kyber / 1 Dilithium multiplies per step, 4 per Kyber pair")


def test_c7_bram_estimates():
    """Estimator totals equal the published unit counts."""
    got = {name: estimate_bram_usage(name).total_units for name in DESIGNS}
    assert got == PUBLISHED_BRAM, got
    print("criterion 7 PASS: BRAM totals 2.0/2.5/4.5/4.5/5.5 units for "
          "standalone-K/standalone-D/D1/D2/D3")
