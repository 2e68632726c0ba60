"""Butterfly datapath: CT/GS butterflies, PWM stages, and the unified core.

The unified butterfly unit owns two 23x12 multipliers and a dual-lane
modular adder/subtractor.  Per cycle it behaves as either

  * two independent 12-bit butterfly lanes (Kyber NTT/INTT), or
  * one fused 23-bit butterfly (Dilithium), the two 23x12 partial
    products recombined by shift-add before modular reduction, or
  * one Kyber coefficient-pair product spread across both lanes
    (PWM0 then PWM1: 2 multiplications per stage, 4 per pair).

Standalone reference behavior lives in the plain functions
(ct_butterfly, gs_butterfly_halving, kyber_pwm_pair, dilithium_pwm);
unified_bfu_step must match them bit for bit, which the tests enforce.
The fast in-place transforms at the bottom are built purely from these
butterflies and are the bridge between the O(n^2) oracles and the
cycle-level simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core_arith import (
    DILITHIUM_SINGLE,
    KYBER_PAIR,
    ModulusParams,
    mod_add,
    mod_add_half,
    mod_sub,
    mont_mul,
    mont_redc,
    pack_lanes,
    shared_add_sub,
    unpack_lanes,
)
from .ntt_reference import (
    DOMAIN_NORMAL,
    DOMAIN_NTT_BR,
    Polynomial,
    forward_zetas,
    inverse_zetas,
)

MODE_NTT = "ntt"
MODE_INTT = "intt"
MODE_PWM0 = "pwm0"  # Kyber pair product, first stage
MODE_PWM1 = "pwm1"  # Kyber pair product, second stage
MODE_PWM = "pwm"    # Dilithium coefficient product, single stage
BFU_MODES = (MODE_NTT, MODE_INTT, MODE_PWM0, MODE_PWM1, MODE_PWM)


@dataclass(frozen=True)
class ControlWord:
    """Mux-select bit vector for one configurable butterfly core."""

    bits: str

    def __post_init__(self) -> None:
        if not self.bits or set(self.bits) - {"0", "1"}:
            raise ValueError(f"control word must be a 0/1 string: {self.bits!r}")

    @property
    def width(self) -> int:
        return len(self.bits)


# Mux-select vectors for the two 12-bit butterfly cores: the first core
# takes 12 select bits, its partner 6 (it shares the remaining routing).
# Carried as opaque configuration — the model keys its datapath off the
# mode symbol and proves equivalence against the standalone ops, since
# the per-bit mux wiring is not recoverable at word level.
CONTROL_WORDS: dict[str, tuple[ControlWord, ControlWord]] = {
    MODE_NTT: (ControlWord("000000001001"), ControlWord("000101")),
    MODE_INTT: (ControlWord("001011110100"), ControlWord("111010")),
    MODE_PWM0: (ControlWord("110100001010"), ControlWord("001100")),
    MODE_PWM1: (ControlWord("000010011000"), ControlWord("011100")),
}


@dataclass
class BfuIo:
    """One butterfly core's port set.

    in1/in2 carry the coefficient pair, in3 carries the twiddle factor or
    a third coefficient, and in4 is used only by the PWM modes.  out1/out2
    are filled by the step functions.
    """

    in1: int = 0
    in2: int = 0
    in3: int = 0
    in4: int = 0
    out1: int | None = None
    out2: int | None = None


class MultCounter:
    """Instrumentation: logical multiplications issued per scheme."""

    def __init__(self) -> None:
        self.kyber_mults = 0
        self.dilithium_mults = 0


def dual_lane_mult(x: int, y: int, mode: str,
                   counter: MultCounter | None = None) -> tuple[int, int]:
    """One pass through the shared multiplier pair (two 23x12 blocks).

    Kyber: x and y are packed lane words; each block multiplies one
    12-bit lane independently -> (x0*y0, x1*y1), two multiplications.
    Dilithium: y is split into 12-bit limbs, each block forms one 23x12
    partial product, and the partials are recombined by shift-add ->
    (x*y, 0), one (logical) multiplication.
    """
    if mode == KYBER_PAIR:
        x0, x1 = unpack_lanes(x)
        y0, y1 = unpack_lanes(y)
        p0 = x0 * y0
        p1 = x1 * y1
        if counter is not None:
            counter.kyber_mults += 2
        return p0, p1
    assert mode == DILITHIUM_SINGLE
    assert 0 <= x < (1 << 23) and 0 <= y < (1 << 24)
    p_lo = x * (y & 0xFFF)       # 23x12
    p_hi = x * (y >> 12)         # 23x12
    p = p_lo + (p_hi << 12)
    assert p == x * y
    if counter is not None:
        counter.dilithium_mults += 1
    return p, 0


# ---------------------------------------------------------------------------
# Standalone butterfly / PWM behavior (the per-lane reference).
# ---------------------------------------------------------------------------

def ct_butterfly(a: int, b: int, w: int, p: ModulusParams) -> tuple[int, int]:
    """Cooley-Tukey step: (a + w*b, a - w*b) mod q, w Montgomery-scaled."""
    t = mont_mul(b, w, p)
    return mod_add(a, t, p.q), mod_sub(a, t, p.q)


def gs_butterfly_halving(a: int, b: int, w_half: int,
                         p: ModulusParams) -> tuple[int, int]:
    """Gentleman-Sande step with the stage halving folded in.

    w_half is the Montgomery form of (twiddle**-1 * 2**-1), straight from
    the inverse table, so this computes ((a+b)/2, (a-b)*w/2) and a full
    set of stages needs no trailing n**-1 multiplication.
    """
    return (
        mod_add_half(a, b, p.q),
        mont_mul(mod_sub(a, b, p.q), w_half, p),
    )


@dataclass(frozen=True)
class PwmCarry:
    """Kyber PWM0 -> PWM1 hand-off: two raw products plus the two sums."""

    m00: int
    m11: int
    s_a: int
    s_b: int


def kyber_pwm_pair(stage: str, a_pair: tuple[int, int],
                   b_pair: tuple[int, int], psi: int, p: ModulusParams,
                   carry_state: PwmCarry | None = None):
    """One pipelined stage of the Kyber degree-1 product (Karatsuba form).

    PWM0 multiplies a0*b0 and a1*b1 and forms both operand sums; PWM1
    multiplies (a0+a1)(b0+b1) and psi*(a1*b1) and assembles

        res0 = a0*b0 + psi*(a1*b1)
        res1 = (a0+a1)(b0+b1) - a0*b0 - a1*b1

    — 4 multiplications per pair instead of the naive 5.  b_pair and psi
    are Montgomery-scaled so every product lands back in the normal
    domain.  PWM0 returns a PwmCarry; PWM1 consumes it and returns
    (res0, res1).
    """
    if stage == MODE_PWM0:
        a0, a1 = a_pair
        b0, b1 = b_pair
        m00 = mont_mul(a0, b0, p)
        m11 = mont_mul(a1, b1, p)
        return PwmCarry(m00=m00, m11=m11,
                        s_a=mod_add(a0, a1, p.q), s_b=mod_add(b0, b1, p.q))
    if stage != MODE_PWM1:
        raise ValueError(f"not a Kyber PWM stage: {stage!r}")
    if carry_state is None:
        raise ValueError("PWM1 issued without a matching PWM0 carry state")
    msum = mont_mul(carry_state.s_a, carry_state.s_b, p)
    mpsi = mont_mul(psi, carry_state.m11, p)
    res0 = mod_add(carry_state.m00, mpsi, p.q)
    res1 = mod_sub(mod_sub(msum, carry_state.m00, p.q), carry_state.m11, p.q)
    return res0, res1


def dilithium_pwm(a: int, b: int, p: ModulusParams) -> int:
    """Coefficient product a*b mod q; b Montgomery-scaled by convention."""
    return mont_mul(a, b, p)


# ---------------------------------------------------------------------------
# The unified step: both lanes at once, shared adder and multiplier pair.
# ---------------------------------------------------------------------------

def _check_ctrl(mode: str, ctrl) -> None:
    if ctrl is None:
        return
    expect = CONTROL_WORDS[mode]
    if tuple(ctrl) != expect:
        raise ValueError(f"control words {ctrl} do not select mode {mode!r}")


def unified_bfu_step(io, mode: str, scheme: str, p: ModulusParams,
                     ctrl=None, carry=None,
                     counter: MultCounter | None = None):
    """Advance the unified butterfly unit by one cycle.

    scheme="kyber", mode ntt/intt: ``io`` is a pair of BfuIo records, one
    independent butterfly per lane; returns the pair with outputs filled.
    scheme="kyber", mode pwm0/pwm1: both lanes cooperate on ONE
    coefficient pair; ``io`` is a single BfuIo with
    (in1,in2,in3,in4) = (a0, a1, b0, b1) for pwm0 and in3 = psi for pwm1
    (the twiddle port's second job); pwm0 returns a PwmCarry, pwm1
    returns the finished BfuIo.
    scheme="dilithium": lanes fuse into one wide butterfly; ``io`` is a
    single BfuIo; mode pwm multiplies in1 by in3.

    ``ctrl``, when supplied for a Kyber mode, must be the matching
    CONTROL_WORDS pair.  Raises ValueError on any other combination.
    """
    if mode not in BFU_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if scheme == "kyber":
        if mode == MODE_PWM:
            raise ValueError("single-stage pwm is the dilithium mode")
        _check_ctrl(mode, ctrl)
        if mode == MODE_NTT:
            lane0, lane1 = io
            # Both twiddle products share the multiplier pair ...
            prod0, prod1 = dual_lane_mult(pack_lanes(lane0.in2, lane1.in2),
                                          pack_lanes(lane0.in3, lane1.in3),
                                          KYBER_PAIR, counter)
            t0 = mont_redc(prod0, p)
            t1 = mont_redc(prod1, p)
            # ... and the +/- pair each shares the two-lane adder.
            sums = shared_add_sub(pack_lanes(lane0.in1, lane1.in1),
                                  pack_lanes(t0, t1), KYBER_PAIR, "add", p)
            diffs = shared_add_sub(pack_lanes(lane0.in1, lane1.in1),
                                   pack_lanes(t0, t1), KYBER_PAIR, "sub", p)
            o0 = unpack_lanes(sums)
            o1 = unpack_lanes(diffs)
            return (replace(lane0, out1=o0[0], out2=o1[0]),
                    replace(lane1, out1=o0[1], out2=o1[1]))
        if mode == MODE_INTT:
            lane0, lane1 = io
            sums = shared_add_sub(pack_lanes(lane0.in1, lane1.in1),
                                  pack_lanes(lane0.in2, lane1.in2),
                                  KYBER_PAIR, "add", p)
            diffs = shared_add_sub(pack_lanes(lane0.in1, lane1.in1),
                                   pack_lanes(lane0.in2, lane1.in2),
                                   KYBER_PAIR, "sub", p)
            s0, s1 = unpack_lanes(sums)
            d0, d1 = unpack_lanes(diffs)
            dw0, dw1 = dual_lane_mult(pack_lanes(d0, d1),
                                      pack_lanes(lane0.in3, lane1.in3),
                                      KYBER_PAIR, counter)
            return (replace(lane0, out1=mod_add_half(s0, 0, p.q),
                            out2=mont_redc(dw0, p)),
                    replace(lane1, out1=mod_add_half(s1, 0, p.q),
                            out2=mont_redc(dw1, p)))
        if mode == MODE_PWM0:
            a0, a1, b0, b1 = io.in1, io.in2, io.in3, io.in4
            raw00, raw11 = dual_lane_mult(pack_lanes(a0, a1),
                                          pack_lanes(b0, b1),
                                          KYBER_PAIR, counter)
            # One shared add produces both operand sums at once.
            sums = shared_add_sub(pack_lanes(a0, b0), pack_lanes(a1, b1),
                                  KYBER_PAIR, "add", p)
            s_a, s_b = unpack_lanes(sums)
            return PwmCarry(m00=mont_redc(raw00, p), m11=mont_redc(raw11, p),
                            s_a=s_a, s_b=s_b)
        # MODE_PWM1
        if carry is None:
            raise ValueError("PWM1 issued without a matching PWM0 carry state")
        raw_sum, raw_psi = dual_lane_mult(pack_lanes(carry.s_a, io.in3),
                                          pack_lanes(carry.s_b, carry.m11),
                                          KYBER_PAIR, counter)
        # Lane roles: (s_a * s_b, psi * m11) — note lane1 multiplies in3.
        msum = mont_redc(raw_sum, p)
        mpsi = mont_redc(raw_psi, p)
        res0 = mod_add(carry.m00, mpsi, p.q)
        res1 = mod_sub(mod_sub(msum, carry.m00, p.q), carry.m11, p.q)
        return replace(io, out1=res0, out2=res1)

    if scheme != "dilithium":
        raise ValueError(f"unknown scheme {scheme!r}")
    if mode in (MODE_PWM0, MODE_PWM1):
        raise ValueError("staged pwm0/pwm1 are the kyber modes")
    if ctrl is not None:
        raise ValueError("no published control encoding for the wide mode")
    if mode == MODE_NTT:
        prod, _ = dual_lane_mult(io.in2, io.in3, DILITHIUM_SINGLE, counter)
        t = mont_redc(prod, p)
        return replace(io,
                       out1=shared_add_sub(io.in1, t, DILITHIUM_SINGLE, "add", p),
                       out2=shared_add_sub(io.in1, t, DILITHIUM_SINGLE, "sub", p))
    if mode == MODE_INTT:
        s = shared_add_sub(io.in1, io.in2, DILITHIUM_SINGLE, "add", p)
        d = shared_add_sub(io.in1, io.in2, DILITHIUM_SINGLE, "sub", p)
        prod, _ = dual_lane_mult(d, io.in3, DILITHIUM_SINGLE, counter)
        return replace(io, out1=mod_add_half(s, 0, p.q),
                       out2=mont_redc(prod, p))
    # MODE_PWM
    prod, _ = dual_lane_mult(io.in1, io.in3, DILITHIUM_SINGLE, counter)
    return replace(io, out1=mont_redc(prod, p), out2=0)


# ---------------------------------------------------------------------------
# Fast in-place transforms assembled from the butterflies.
# ---------------------------------------------------------------------------

def _layer_lengths(p: ModulusParams, forward: bool):
    lens = []
    length = 128
    while length >= p.min_len:
        lens.append(length)
        length //= 2
    return lens if forward else lens[::-1]


def fast_ntt(a: Polynomial, p: ModulusParams) -> Polynomial:
    """In-place forward transform: normal domain in, bit-reversed out.

    Kyber stops at length 2 (7 layers, pairs survive); Dilithium runs to
    length 1 (8 layers).  Group k of the length-L layer uses twiddle
    index 128//L + start//(2L) into forward_zetas.
    """
    if a.scheme != p.scheme:
        raise ValueError("polynomial/params scheme mismatch")
    if a.domain != DOMAIN_NORMAL:
        raise ValueError("fast_ntt expects a normal-domain polynomial")
    c = list(a.coeffs)
    zetas = forward_zetas(p)
    for length in _layer_lengths(p, forward=True):
        for start in range(0, 256, 2 * length):
            z = zetas[128 // length + start // (2 * length)]
            for j in range(start, start + length):
                c[j], c[j + length] = ct_butterfly(c[j], c[j + length], z, p)
    return a.with_coeffs(c, domain=DOMAIN_NTT_BR)


def fast_intt(a: Polynomial, p: ModulusParams) -> Polynomial:
    """Inverse of fast_ntt: bit-reversed in, normal domain out.

    Runs the layers in reverse with the pre-halved inverse twiddles; the
    7 or 8 per-stage halvings accumulate to exactly n'**-1, so there is
    no separate scaling pass.
    """
    if a.scheme != p.scheme:
        raise ValueError("polynomial/params scheme mismatch")
    if a.domain != DOMAIN_NTT_BR:
        raise ValueError("fast_intt expects bit-reversed spectral input")
    c = list(a.coeffs)
    izetas = inverse_zetas(p)
    for length in _layer_lengths(p, forward=False):
        for start in range(0, 256, 2 * length):
            z = izetas[128 // length + start // (2 * length)]
            for j in range(start, start + length):
                c[j], c[j + length] = gs_butterfly_halving(c[j], c[j + length],
                                                           z, p)
    return a.with_coeffs(c, domain=DOMAIN_NORMAL)
