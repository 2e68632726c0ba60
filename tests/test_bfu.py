"""Tests for the butterfly unit: standalone butterflies, the staged Kyber
pointwise product, the unified dual-lane step, and fast_ntt (kept for
perfbench), with the core's intt checked against its oracle."""

import random
import sys

import pytest

from kdntt import bfu
from kdntt.core_arith import (
    DILITHIUM,
    DILITHIUM_SINGLE,
    KYBER,
    KYBER_PAIR,
    SCHEMES,
    pack_lanes,
    to_mont,
)
from kdntt.ntt_reference import (
    DOMAIN_NTT_BR,
    Polynomial,
    direct_intt,
    direct_ntt,
)
from kdntt.bfu import (
    MODE_INTT,
    MODE_NTT,
    MODE_PWM,
    MODE_PWM0,
    MODE_PWM1,
    SCHEME_MODES,
    BfuIo,
    ct_butterfly,
    dilithium_pwm,
    dual_lane_mult,
    fast_ntt,
    gs_butterfly_halving,
    kyber_pwm_pair,
    unified_bfu_step,
)
from kdntt.memory_map import DESIGNS
from kdntt.pipeline_sim import OP_INTT, CoreConfig, run_op
from oracles import kyber_basecase_ref

RNG = random.Random(0xBF)

KYBER_INV17_HALF = to_mont(pow(17, -1, 3329) * KYBER.inv2 % 3329, KYBER)

# The published mux-select bits of the Kyber modes, kept as data: the
# model selects its datapath by mode name and never reads them.  The
# first 12-bit core takes 12 select bits, its partner 6 (it shares the
# remaining routing); the per-bit mux wiring is not recoverable at word
# level, and the wide Dilithium mode has no published encoding.
CONTROL_WORDS: dict[str, tuple[str, str]] = {
    MODE_NTT: ("000000001001", "000101"),
    MODE_INTT: ("001011110100", "111010"),
    MODE_PWM0: ("110100001010", "001100"),
    MODE_PWM1: ("000010011000", "011100"),
}


def test_control_word_table():
    assert set(CONTROL_WORDS) == {MODE_NTT, MODE_INTT, MODE_PWM0, MODE_PWM1}
    for main, aux in CONTROL_WORDS.values():
        assert len(main) == 12 and len(aux) == 6
        assert set(main) <= {"0", "1"} and set(aux) <= {"0", "1"}
    # the published select encodings, bit for bit
    assert CONTROL_WORDS[MODE_NTT][0] == "000000001001"
    assert CONTROL_WORDS[MODE_NTT][1] == "000101"
    assert CONTROL_WORDS[MODE_INTT][0] == "001011110100"
    assert CONTROL_WORDS[MODE_INTT][1] == "111010"
    assert CONTROL_WORDS[MODE_PWM0][0] == "110100001010"
    assert CONTROL_WORDS[MODE_PWM0][1] == "001100"
    assert CONTROL_WORDS[MODE_PWM1][0] == "000010011000"
    assert CONTROL_WORDS[MODE_PWM1][1] == "011100"
    assert len({pair for pair in CONTROL_WORDS.values()}) == 4


def test_dual_lane_mult_kyber_lanes_independent():
    for _ in range(2000):
        x0, x1 = RNG.randrange(3329), RNG.randrange(3329)
        y0, y1 = RNG.randrange(4096), RNG.randrange(4096)
        p0, p1 = dual_lane_mult(pack_lanes(x0, x1), pack_lanes(y0, y1),
                                KYBER_PAIR)
        assert (p0, p1) == (x0 * y0, x1 * y1)


def test_dual_lane_mult_dilithium_shift_add():
    for _ in range(2000):
        x = RNG.randrange(1 << 23)
        y = RNG.randrange(1 << 24)
        p, zero = dual_lane_mult(x, y, DILITHIUM_SINGLE)
        assert p == x * y and zero == 0
    if sys.flags.optimize == 0:  # -O strips the operand-range assert
        with pytest.raises(AssertionError):
            dual_lane_mult(1 << 23, 0, DILITHIUM_SINGLE)


def test_dual_lane_mult_kyber_operand_range():
    """Kyber words are two 12-bit lanes: the widest pass, and a word
    outside [0, 2**24) fails the range assert instead of feeding a block
    more than 12 bits of y or a negative lane."""
    top = (1 << 24) - 1
    assert dual_lane_mult(top, top, KYBER_PAIR) == (0xFFF ** 2, 0xFFF ** 2)
    if sys.flags.optimize == 0:  # -O strips the operand-range assert
        for x, y in ((5 | 7 << 12, 3 | 1 << 32), (-1, 3), (-(1 << 12), 3),
                     (1 << 24, 0), (0, 1 << 24), (0, -1)):
            with pytest.raises(AssertionError):
                dual_lane_mult(x, y, KYBER_PAIR)


def test_dual_lane_mult_counter(count_mults):
    """The tally counts each pass at the name unified_bfu_step calls."""
    c = count_mults()
    bfu.dual_lane_mult(0, 0, KYBER_PAIR)
    assert (c.kyber_mults, c.dilithium_mults) == (2, 0)
    bfu.dual_lane_mult(0, 0, DILITHIUM_SINGLE)
    assert (c.kyber_mults, c.dilithium_mults) == (2, 1)


def test_ct_butterfly_anchor():
    # w = Montgomery form of the Kyber root 17; w*b = 17*7 = 119
    assert ct_butterfly(5, 7, to_mont(17, KYBER), KYBER) == (124, 3215)


def test_gs_butterfly_anchor():
    # inverse of the ct anchor; first output is mod_add_half(124, 3215)
    assert gs_butterfly_halving(124, 3215, KYBER_INV17_HALF, KYBER) == (5, 7)
    # documented halving case: first output only depends on a+b
    assert gs_butterfly_halving(3, 4, to_mont(1, KYBER), KYBER)[0] == 1668


def test_ct_gs_roundtrip_random():
    for scheme, p in SCHEMES.items():
        for _ in range(3000):
            a = RNG.randrange(p.q)
            b = RNG.randrange(p.q)
            w_plain = RNG.randrange(1, p.q)
            w = to_mont(w_plain, p)
            w_half = to_mont(pow(w_plain, -1, p.q) * p.inv2 % p.q, p)
            hi, lo = ct_butterfly(a, b, w, p)
            assert gs_butterfly_halving(hi, lo, w_half, p) == (a, b)


def test_kyber_pwm_pair_matches_basecase():
    q = 3329
    for _ in range(3000):
        a = (RNG.randrange(q), RNG.randrange(q))
        b = (RNG.randrange(q), RNG.randrange(q))
        psi = RNG.randrange(1, q)
        bm = (to_mont(b[0], KYBER), to_mont(b[1], KYBER))
        carry = kyber_pwm_pair(MODE_PWM0, a, bm, 0, KYBER)
        got = kyber_pwm_pair(MODE_PWM1, a, bm, to_mont(psi, KYBER), KYBER,
                             carry_state=carry)
        assert got == kyber_basecase_ref(a, b, psi)


def test_kyber_pwm_pair_protocol_errors():
    with pytest.raises(ValueError):
        kyber_pwm_pair(MODE_PWM1, (0, 0), (0, 0), 0, KYBER)  # no carry
    with pytest.raises(ValueError):
        kyber_pwm_pair(MODE_NTT, (0, 0), (0, 0), 0, KYBER)


def test_unified_kyber_ntt_matches_standalone():
    for _ in range(3000):
        vals = [RNG.randrange(3329) for _ in range(6)]
        lanes = (BfuIo(in1=vals[0], in2=vals[1], in3=to_mont(vals[2], KYBER)),
                 BfuIo(in1=vals[3], in2=vals[4], in3=to_mont(vals[5], KYBER)))
        out = unified_bfu_step(lanes, MODE_NTT, "kyber", KYBER)
        for lane, src in zip(out, lanes):
            assert lane == ct_butterfly(src.in1, src.in2, src.in3, KYBER)


def test_unified_kyber_intt_matches_standalone():
    for _ in range(3000):
        vals = [RNG.randrange(3329) for _ in range(6)]
        lanes = (BfuIo(in1=vals[0], in2=vals[1], in3=to_mont(vals[2], KYBER)),
                 BfuIo(in1=vals[3], in2=vals[4], in3=to_mont(vals[5], KYBER)))
        out = unified_bfu_step(lanes, MODE_INTT, "kyber", KYBER)
        for lane, src in zip(out, lanes):
            assert lane == \
                gs_butterfly_halving(src.in1, src.in2, src.in3, KYBER)


def test_unified_kyber_pwm_two_stage(count_mults):
    q = 3329
    c = count_mults()
    for _ in range(2000):
        a = (RNG.randrange(q), RNG.randrange(q))
        b = (RNG.randrange(q), RNG.randrange(q))
        psi = RNG.randrange(1, q)
        io0 = BfuIo(in1=a[0], in2=a[1],
                    in3=to_mont(b[0], KYBER), in4=to_mont(b[1], KYBER))
        carry = unified_bfu_step(io0, MODE_PWM0, "kyber", KYBER)
        io1 = BfuIo(in3=to_mont(psi, KYBER))
        done = unified_bfu_step(io1, MODE_PWM1, "kyber", KYBER, carry=carry)
        assert done == kyber_basecase_ref(a, b, psi)
    assert c.kyber_mults == 4 * 2000  # Karatsuba count: 4 per pair


def test_unified_dilithium_modes_match_standalone(count_mults):
    p = DILITHIUM
    c = count_mults()
    for _ in range(2000):
        a, b = RNG.randrange(p.q), RNG.randrange(p.q)
        w = to_mont(RNG.randrange(1, p.q), p)
        out = unified_bfu_step(BfuIo(in1=a, in2=b, in3=w), MODE_NTT,
                               "dilithium", p)
        assert out == ct_butterfly(a, b, w, p)
        out = unified_bfu_step(BfuIo(in1=a, in2=b, in3=w), MODE_INTT,
                               "dilithium", p)
        assert out == gs_butterfly_halving(a, b, w, p)
        out = unified_bfu_step(BfuIo(in1=a, in3=w), MODE_PWM,
                               "dilithium", p)
        assert out == (dilithium_pwm(a, w, p), 0)
    assert c.dilithium_mults == 3 * 2000 and c.kyber_mults == 0


def test_unified_step_mode_scheme_guards():
    lanes = (BfuIo(), BfuIo())
    with pytest.raises(ValueError):
        unified_bfu_step(lanes, "fft", "kyber", KYBER)
    with pytest.raises(ValueError):
        unified_bfu_step(BfuIo(), MODE_PWM, "kyber", KYBER)
    with pytest.raises(ValueError):
        unified_bfu_step(BfuIo(), MODE_PWM0, "dilithium", DILITHIUM)
    with pytest.raises(ValueError):
        unified_bfu_step(lanes, MODE_NTT, "falcon", KYBER)
    # the scheme names its parameters: Kyber lanes with Dilithium's q
    # returned a 12-bit lane holding 8136695
    with pytest.raises(ValueError):
        unified_bfu_step((BfuIo(1, 2, 3), BfuIo(4, 5, 6)), MODE_NTT,
                         "kyber", DILITHIUM)
    with pytest.raises(ValueError):
        unified_bfu_step(BfuIo(1, 2, 3), MODE_NTT, "dilithium", KYBER)


def test_unified_pwm1_needs_carry():
    with pytest.raises(ValueError):
        unified_bfu_step(BfuIo(), MODE_PWM1, "kyber", KYBER)


def test_fast_ntt_matches_direct():
    for scheme, p in SCHEMES.items():
        for _ in range(20):
            a = Polynomial.random(scheme, RNG)
            fast = fast_ntt(a, p)
            assert fast.domain == DOMAIN_NTT_BR
            want = direct_ntt(a, p)
            assert fast.coeffs == want.coeffs
            back = run_op(CoreConfig.for_design("d3"), scheme, OP_INTT, fast)
            assert back[0].coeffs == a.coeffs


def test_intt_matches_direct_on_every_design():
    for scheme, p in SCHEMES.items():
        fas = [Polynomial.random(scheme, RNG, domain=DOMAIN_NTT_BR)
               for _ in range(20)]
        for design, dg in DESIGNS.items():
            if scheme not in dg.schemes:
                continue
            cfg = CoreConfig.for_design(design)
            for fa in fas:
                got = run_op(cfg, scheme, OP_INTT, fa)[0]
                want = direct_intt(fa, p)
                assert got.coeffs == want.coeffs, (design, scheme)


def test_fast_transform_domain_guards():
    a = Polynomial.random("kyber", RNG)
    for design, dg in DESIGNS.items():
        if "kyber" in dg.schemes:
            with pytest.raises(ValueError):
                run_op(CoreConfig.for_design(design), "kyber", OP_INTT, a)
    f = fast_ntt(a, KYBER)
    with pytest.raises(ValueError):
        fast_ntt(f, KYBER)
    with pytest.raises(ValueError):
        fast_ntt(Polynomial.random("dilithium", RNG), KYBER)


def test_fast_ntt_zero_propagation():
    for scheme, p in SCHEMES.items():
        z = Polynomial((0,) * 256, scheme)
        assert fast_ntt(z, p).coeffs == (0,) * 256


def test_mode_list_is_stable():
    assert SCHEME_MODES == {"kyber": ("ntt", "intt", "pwm0", "pwm1"),
                            "dilithium": ("ntt", "intt", "pwm")}
