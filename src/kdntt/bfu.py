"""Butterfly datapath: CT/GS butterflies, PWM stages, and the unified core.

The unified butterfly unit owns two 23x12 multipliers and a dual-lane
modular adder/subtractor.  Per cycle it behaves as either

  * two independent 12-bit butterfly lanes (Kyber NTT/INTT), or
  * one fused 23-bit butterfly (Dilithium), the two 23x12 partial
    products recombined by shift-add before modular reduction, or
  * one Kyber coefficient-pair product spread across both lanes
    (PWM0 then PWM1: 2 multiplications per stage, 4 per pair).

SCHEME_MODES is the one rule for which of those modes a scheme has;
the model selects its datapath by mode name, so the published
mux-select bits of the Kyber modes are not part of it (the tests keep
them).

Standalone reference behavior lives in the plain functions
(ct_butterfly, gs_butterfly_halving, kyber_pwm_pair, dilithium_pwm);
unified_bfu_step must match them bit for bit, which the tests enforce.
All four compute inline in one frame, with every range check of the
mont_mul, mod_add, mod_sub and mod_add_half calls they replace; the
test_bfu tests test_butterflies_equal_wide_integer_arithmetic and
test_pointwise_products_equal_wide_integer_arithmetic tie them to
big-integer arithmetic mod q.
The scalar driver (pipeline_sim's execute step) calls these per-lane
functions, not unified_bfu_step: a Kyber unified step costs about
4.6 us for its two lanes, against 0.36 us per lane for ct_butterfly,
and its pwm0 and pwm1 about 5.7 us per pair, against 1.7 us for
kyber_pwm_pair's two stages (best of five runs of 20 000 calls,
CPython 3.11.7, 2-vCPU x86_64).
That split is safe only once the two are proven to compute the same
function on every input; until then the tests compare them on samples.
The unit keeps no tally of its multiplications: every product goes
through one dual_lane_mult pass, looked up by name at call time, so the
tests count them by wrapping it (2 per Kyber pass, 1 per Dilithium).
fast_ntt at the bottom is not a separate transform: it is one
pipeline_sim.run_op call on d3, imported inside the function because
pipeline_sim imports this module.  It is kept only for perfbench's
micro items, which time it; everything else runs run_op or run_batch.
"""

from __future__ import annotations

from typing import NamedTuple

from .core_arith import (
    DILITHIUM_SINGLE,
    KYBER_PAIR,
    ModulusParams,
    Polynomial,
    mod_add,
    mod_add_half,
    mod_sub,
    mont_redc,
    pack_lanes,
    shared_add_sub,
    unpack_lanes,
)

MODE_NTT = "ntt"
MODE_INTT = "intt"
MODE_PWM0 = "pwm0"  # Kyber pair product, first stage
MODE_PWM1 = "pwm1"  # Kyber pair product, second stage
MODE_PWM = "pwm"    # Dilithium coefficient product, single stage
SCHEME_MODES = {
    "kyber": (MODE_NTT, MODE_INTT, MODE_PWM0, MODE_PWM1),
    "dilithium": (MODE_NTT, MODE_INTT, MODE_PWM),
}


class BfuIo(NamedTuple):
    """One butterfly core's input ports.

    in1/in2 carry the coefficient pair, in3 carries the twiddle factor or
    a third coefficient, and in4 is used only by the PWM modes.
    """

    in1: int = 0
    in2: int = 0
    in3: int = 0
    in4: int = 0


def dual_lane_mult(x: int, y: int, mode: str) -> tuple[int, int]:
    """One pass through the shared multiplier pair (two 23x12 blocks).

    Block i multiplies by part i of y, its 12-bit half.  Kyber: x and y
    are packed lane words and block i takes lane i of x -> (x0*y0,
    x1*y1), two multiplications.  Dilithium: both blocks take all of x
    and the partials recombine by shift-add -> (x*y, 0), one (logical)
    multiplication.
    """
    if mode not in (KYBER_PAIR, DILITHIUM_SINGLE):
        raise ValueError(f"unknown multiplier mode {mode!r}")
    assert 0 <= x < 1 << (24 if mode == KYBER_PAIR else 23) \
        and 0 <= y < 1 << 24, "operand out of range"
    y0, y1 = y & 0xFFF, y >> 12
    if mode == KYBER_PAIR:
        return (x & 0xFFF) * y0, (x >> 12) * y1
    return x * y0 + (x * y1 << 12), 0


# ---------------------------------------------------------------------------
# Standalone butterfly / PWM behavior (the per-lane reference).
# ---------------------------------------------------------------------------

def ct_butterfly(a: int, b: int, w: int, p: ModulusParams) -> tuple[int, int]:
    """Cooley-Tukey step: (a + w*b, a - w*b) mod q, w Montgomery-scaled."""
    q = p.q
    assert 0 <= a < q and 0 <= b < q and 0 <= w < q
    t = b * w
    t = (t + ((t & p.mask) * p.q_prime & p.mask) * q) >> p.r_bits
    t = t - q if t >= q else t
    assert 0 <= t < q
    s, d = a + t, a - t
    return (s - q if s >= q else s), (d + q if d < 0 else d)


def gs_butterfly_halving(a: int, b: int, w_half: int,
                         p: ModulusParams) -> tuple[int, int]:
    """Gentleman-Sande step with the stage halving folded in.

    w_half is the Montgomery form of (twiddle**-1 * 2**-1), straight from
    the inverse table, so this computes ((a+b)/2, (a-b)*w/2) and a full
    set of stages needs no trailing n**-1 multiplication.
    """
    q = p.q
    assert 0 <= a < q and 0 <= b < q and 0 <= w_half < q
    s = a + b
    if s & 1:
        s = s - q if s >= q else s + q
    d = a - b
    if d < 0:
        d += q
    assert 0 <= d < q
    t = d * w_half
    t = (t + ((t & p.mask) * p.q_prime & p.mask) * q) >> p.r_bits
    return s >> 1, (t - q if t >= q else t)


class PwmCarry(NamedTuple):
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
    q = p.q
    if stage == MODE_PWM0:
        a0, a1 = a_pair
        b0, b1 = b_pair
        assert 0 <= a0 < q and 0 <= a1 < q and 0 <= b0 < q and 0 <= b1 < q
        t = a0 * b0
        m00 = (t + ((t & p.mask) * p.q_prime & p.mask) * q) >> p.r_bits
        t = a1 * b1
        m11 = (t + ((t & p.mask) * p.q_prime & p.mask) * q) >> p.r_bits
        s_a, s_b = a0 + a1, b0 + b1
        return PwmCarry(m00 - q if m00 >= q else m00,
                        m11 - q if m11 >= q else m11,
                        s_a - q if s_a >= q else s_a,
                        s_b - q if s_b >= q else s_b)
    if stage != MODE_PWM1:
        raise ValueError(f"not a Kyber PWM stage: {stage!r}")
    if carry_state is None:
        raise ValueError("PWM1 issued without a matching PWM0 carry state")
    m00, m11, s_a, s_b = carry_state
    assert 0 <= psi < q and 0 <= m00 < q and 0 <= m11 < q \
        and 0 <= s_a < q and 0 <= s_b < q
    t = s_a * s_b
    t = (t + ((t & p.mask) * p.q_prime & p.mask) * q) >> p.r_bits
    d = (t - q if t >= q else t) - m00
    d = (d + q if d < 0 else d) - m11
    t = psi * m11
    t = (t + ((t & p.mask) * p.q_prime & p.mask) * q) >> p.r_bits
    s = m00 + (t - q if t >= q else t)
    return (s - q if s >= q else s), (d + q if d < 0 else d)


def dilithium_pwm(a: int, b: int, p: ModulusParams) -> int:
    """Coefficient product a*b mod q; b Montgomery-scaled by convention."""
    q = p.q
    assert 0 <= a < q and 0 <= b < q
    t = a * b
    t = (t + ((t & p.mask) * p.q_prime & p.mask) * q) >> p.r_bits
    return t - q if t >= q else t


# ---------------------------------------------------------------------------
# The unified step: both lanes at once, shared adder and multiplier pair.
# ---------------------------------------------------------------------------

def unified_bfu_step(io, mode: str, scheme: str, p: ModulusParams, carry=None):
    """Advance the unified butterfly unit by one cycle.

    Each mode returns what its standalone reference returns.
    scheme="kyber", mode ntt/intt: ``io`` is a pair of BfuIo records, one
    independent butterfly per lane; returns one (out1, out2) per lane.
    scheme="kyber", mode pwm0/pwm1: both lanes cooperate on ONE
    coefficient pair; ``io`` is a single BfuIo with
    (in1,in2,in3,in4) = (a0, a1, b0, b1) for pwm0 and in3 = psi for pwm1
    (the twiddle port's second job); pwm0 returns a PwmCarry, pwm1
    returns (res0, res1).
    scheme="dilithium": lanes fuse into one wide butterfly; ``io`` is a
    single BfuIo and ntt/intt return (out1, out2); mode pwm multiplies
    in1 by in3 and returns (product, 0).

    Raises ValueError unless p is the scheme's parameter set and mode is
    one of SCHEME_MODES[scheme].
    """
    if scheme != p.scheme or mode not in SCHEME_MODES.get(scheme, ()):
        raise ValueError(f"no {mode!r} mode for scheme {scheme!r} "
                         f"on {p.scheme} parameters")
    if scheme == "kyber":
        if mode == MODE_PWM0:
            a0, a1, b0, b1 = io.in1, io.in2, io.in3, io.in4
            raw00, raw11 = dual_lane_mult(pack_lanes(a0, a1),
                                          pack_lanes(b0, b1), KYBER_PAIR)
            # One shared add produces both operand sums at once.
            sums = shared_add_sub(pack_lanes(a0, b0), pack_lanes(a1, b1),
                                  KYBER_PAIR, "add", p)
            s_a, s_b = unpack_lanes(sums)
            return PwmCarry(m00=mont_redc(raw00, p), m11=mont_redc(raw11, p),
                            s_a=s_a, s_b=s_b)
        if mode == MODE_PWM1:
            if carry is None:
                raise ValueError("PWM1 issued without a matching PWM0 carry "
                                 "state")
            raw_sum, raw_psi = dual_lane_mult(
                pack_lanes(carry.s_a, io.in3),
                pack_lanes(carry.s_b, carry.m11), KYBER_PAIR)
            # Lane roles: (s_a * s_b, psi * m11) — note lane1 multiplies in3.
            msum = mont_redc(raw_sum, p)
            mpsi = mont_redc(raw_psi, p)
            res0 = mod_add(carry.m00, mpsi, p.q)
            res1 = mod_sub(mod_sub(msum, carry.m00, p.q), carry.m11, p.q)
            return res0, res1
        lane0, lane1 = io
        a = pack_lanes(lane0.in1, lane1.in1)
        b = pack_lanes(lane0.in2, lane1.in2)
        w = pack_lanes(lane0.in3, lane1.in3)
        if mode == MODE_NTT:
            # Both twiddle products share the multiplier pair ...
            prod0, prod1 = dual_lane_mult(b, w, KYBER_PAIR)
            t = pack_lanes(mont_redc(prod0, p), mont_redc(prod1, p))
            # ... and the +/- pair each shares the two-lane adder.
            o1 = unpack_lanes(shared_add_sub(a, t, KYBER_PAIR, "add", p))
            o2 = unpack_lanes(shared_add_sub(a, t, KYBER_PAIR, "sub", p))
            return tuple(zip(o1, o2))
        # MODE_INTT
        s0, s1 = unpack_lanes(shared_add_sub(a, b, KYBER_PAIR, "add", p))
        d0, d1 = unpack_lanes(shared_add_sub(a, b, KYBER_PAIR, "sub", p))
        dw0, dw1 = dual_lane_mult(pack_lanes(d0, d1), w, KYBER_PAIR)
        return ((mod_add_half(s0, 0, p.q), mont_redc(dw0, p)),
                (mod_add_half(s1, 0, p.q), mont_redc(dw1, p)))

    if mode == MODE_NTT:
        prod, _ = dual_lane_mult(io.in2, io.in3, DILITHIUM_SINGLE)
        t = mont_redc(prod, p)
        return (shared_add_sub(io.in1, t, DILITHIUM_SINGLE, "add", p),
                shared_add_sub(io.in1, t, DILITHIUM_SINGLE, "sub", p))
    if mode == MODE_INTT:
        s = shared_add_sub(io.in1, io.in2, DILITHIUM_SINGLE, "add", p)
        d = shared_add_sub(io.in1, io.in2, DILITHIUM_SINGLE, "sub", p)
        prod, _ = dual_lane_mult(d, io.in3, DILITHIUM_SINGLE)
        return mod_add_half(s, 0, p.q), mont_redc(prod, p)
    # MODE_PWM
    prod, _ = dual_lane_mult(io.in1, io.in3, DILITHIUM_SINGLE)
    return mont_redc(prod, p), 0


# ---------------------------------------------------------------------------
# The forward transform that perfbench times: the simulated core itself.
# ---------------------------------------------------------------------------

def fast_ntt(a: Polynomial, p: ModulusParams) -> Polynomial:
    """Forward transform on the simulated d3 core: normal domain in,
    bit-reversed out.  Kept only for perfbench's micro items; other
    callers run run_op or run_batch."""
    from .pipeline_sim import CoreConfig, run_op
    return run_op(CoreConfig.for_design("d3"), p.scheme, "ntt", a)[0]
