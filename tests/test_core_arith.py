"""Unit tests for the word-level arithmetic primitives.

The heavyweight exhaustive/statistical sweeps live in test_acceptance.py;
here we pin the documented examples, boundary cases, and rejection of
malformed inputs, plus moderately sized random cross-checks.
"""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kdntt
from kdntt.core_arith import (
    DILITHIUM,
    DILITHIUM_SINGLE,
    GUARD_SEL,
    KYBER,
    KYBER_PAIR,
    SCHEMES,
    ModulusParams,
    _add_sub_lanes,
    _carry_chain,
    _redc,
    from_mont,
    mod_add,
    mod_add_array,
    mod_add_half,
    mod_add_half_array,
    mod_sub,
    mod_sub_array,
    mont_mul,
    mont_mul_array,
    mont_redc,
    pack_lanes,
    shared_add_sub,
    to_mont,
    unpack_lanes,
)
from kdntt.memory_map import MemoryGeometry
from kdntt.ntt_reference import Polynomial
from kdntt.pipeline_sim import CoreConfig

RNG = random.Random(20260819)


def test_scheme_constants():
    assert KYBER.q == 3329 and KYBER.root == 17 and KYBER.layers == 7
    assert DILITHIUM.q == 8380417 and DILITHIUM.root == 1753
    assert DILITHIUM.q == 2**23 - 2**13 + 1
    assert DILITHIUM.layers == 8
    assert KYBER.r == 4096 and DILITHIUM.r == 2**23
    # q' satisfies q*q' == -1 (mod R) by construction; spot the known values.
    assert KYBER.q_prime == 3327
    assert DILITHIUM.q_prime == 8380415
    assert KYBER.min_len == 2 and DILITHIUM.min_len == 1
    # every width follows from q and the root's order
    for p, want in ((KYBER, (12, 12, 12, 7)), (DILITHIUM, (23, 23, 24, 8))):
        assert (p.coeff_bits, p.r_bits, p.slot_bits, p.layers) == want
        assert p.r > p.q  # R = 2**bit_length(q), so never too small
    with pytest.raises(TypeError):  # derived, never passed in
        ModulusParams("kyber", 3329, 17, 256, q_prime=5)
    with pytest.raises(TypeError):
        ModulusParams("kyber", 3329, 17, 256, 7, 12, 12, 12)
    with pytest.raises(ValueError, match="order 256"):  # 3**128 != -1
        ModulusParams("kyber", 3329, 3, 256)
    with pytest.raises(ValueError, match="order 512"):  # 17**256 == 1
        ModulusParams("kyber", 3329, 17, 512)
    # 234**13 == -1, but an order of 26 fixes no layer count
    with pytest.raises(ValueError, match="power-of-two order 26"):
        ModulusParams("kyber", 3329, 234, 26)


def test_scheme_constant_checks_survive_python_O():
    src = str(Path(kdntt.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "from kdntt.core_arith import ModulusParams\n"
         "for args in ((3329, 3, 256), (3329, 17, 512)):\n"
         "    try:\n"
         "        ModulusParams('kyber', *args)\n"
         "    except ValueError as e:\n"
         "        print('rejected:', e)\n"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("rejected:") == 2, proc.stdout


def test_root_orders():
    # Kyber's 17 is a 256th root (17^128 == -1); Dilithium's 1753 a 512th.
    assert pow(17, 128, 3329) == 3328
    assert pow(1753, 256, 8380417) == 8380416


def test_mont_identities():
    for p in SCHEMES.values():
        assert mont_mul(0, p.q - 1, p) == 0
        assert to_mont(1, p) == p.r_mod_q
        assert from_mont(to_mont(123, p), p) == 123
    # R * R * R^-1 == R: the element R mod q is a fixed point of squaring.
    assert KYBER.r_mod_q == 767
    assert mont_mul(767, 767, KYBER) == 767


def test_mont_mul_random_vs_wide_int():
    for p in SCHEMES.values():
        rinv = pow(p.r, -1, p.q)
        for _ in range(20_000):
            a = RNG.randrange(p.q)
            b = RNG.randrange(p.q)
            assert mont_mul(a, b, p) == a * b * rinv % p.q
            assert mont_mul(a, to_mont(b, p), p) == a * b % p.q


def test_mont_redc_full_range_edges():
    for p in SCHEMES.values():
        rinv = pow(p.r, -1, p.q)
        for t in (0, 1, p.q - 1, p.q, p.r - 1, p.r, p.r * p.q - 1):
            assert mont_redc(t, p) == t * rinv % p.q


def test_montgomery_reduction_on_every_residue():
    """_redc, the body of mont_redc and mont_mul_array, on every input
    0 <= t < R*q, by its parts.  m depends only on t mod R, so one sweep
    over every residue r in [0, R) checks that m makes r + m*q a
    multiple of R, and then t + m*q is one for every t with that residue:
    the shift drops no bit, and u*R == t (mod q).  As m < R and t < R*q,
    u = (t + m*q) / R < 2q, so one subtraction at u >= q brings every u
    into [0, q); it is checked at u = q - 1, q and 2q - 1 (t = u*R, where
    m = 0).  The sweep runs _redc on every residue too, in chunks of
    2**20 int64 values (Dilithium's R is 2**23)."""
    import numpy as np
    for p in SCHEMES.values():
        rinv = pow(p.r, -1, p.q)
        for start in range(0, p.r, 1 << 20):
            r = np.arange(start, min(start + (1 << 20), p.r), dtype=np.int64)
            m = ((r & p.mask) * p.q_prime) & p.mask  # as _redc forms it
            assert not ((r + m * p.q) & p.mask).any(), (p.scheme, start)
            assert np.array_equal(_redc(r, p), r * rinv % p.q)
        t = [u << p.r_bits for u in (p.q - 1, p.q, 2 * p.q - 1)]
        want = [p.q - 1, 0, p.q - 1]
        assert [_redc(x, p) for x in t] == want
        assert _redc(np.array(t, dtype=np.int64), p).tolist() == want


def test_mod_add_examples():
    assert mod_add(0, 0, 3329) == 0
    # 2000+1400 = 3400: top bit of the 12-bit sum is NOT set even though
    # the sum exceeds q, so a plain bit-12 test would miss the reduction.
    assert mod_add(2000, 1400, 3329) == 71
    assert mod_add(3328, 3328, 3329) == 3327


def test_mod_sub_examples():
    assert mod_sub(5, 5, 3329) == 0
    assert mod_sub(1, 2, 3329) == 3328
    assert mod_sub(1, 2, 8380417) == 8380416


def test_mod_add_half_examples():
    assert mod_add_half(0, 0, 3329) == 0
    assert mod_add_half(3, 4, 3329) == 1668      # (7+3329)/2
    assert mod_add_half(2000, 2000, 3329) == 2000  # even sum, direct shift
    # The tie sum == q is odd (q odd) and must land on 0.
    assert mod_add_half(1, 3328, 3329) == 0
    assert mod_add_half(1664, 1665, 3329) == 0


def test_mod_ops_random_all_schemes():
    for p in SCHEMES.values():
        q = p.q
        inv2 = p.inv2
        for _ in range(20_000):
            a = RNG.randrange(q)
            b = RNG.randrange(q)
            assert mod_add(a, b, q) == (a + b) % q
            assert mod_sub(a, b, q) == (a - b) % q
            assert mod_add_half(a, b, q) == (a + b) * inv2 % q


def test_dilithium_add_sub_bulk():
    # The module contract asks for >= 1e7 random Dilithium pairs.
    q = DILITHIUM.q
    rng = random.Random(0xD1)
    bits = rng.getrandbits
    checked = 0
    for _ in range(10_000_000):
        a = bits(23) % q
        b = bits(23) % q
        if mod_add(a, b, q) != (a + b) % q:
            raise AssertionError(f"add broken at ({a}, {b})")
        if mod_sub(a, b, q) != (a - b) % q:
            raise AssertionError(f"sub broken at ({a}, {b})")
        checked += 1
    assert checked == 10_000_000


def _array_forms_equal_scalar(p, a, b):
    """Each array form on int64 arrays of operand pairs equals its
    scalar primitive on every pair."""
    pairs = list(zip(a.tolist(), b.tolist()))
    for array_form, scalar, arg in (
            (mont_mul_array, mont_mul, p), (mod_add_array, mod_add, p.q),
            (mod_sub_array, mod_sub, p.q),
            (mod_add_half_array, mod_add_half, p.q)):
        got = array_form(a, b, arg).tolist()
        want = [scalar(x, y, arg) for x, y in pairs]
        if got != want:
            k = next(k for k, (g, w) in enumerate(zip(got, want)) if g != w)
            raise AssertionError(f"{array_form.__name__}{pairs[k]} "
                                 f"[{p.scheme}] = {got[k]}, not {want[k]}")


def test_array_forms_on_every_kyber_pair():
    """All q**2 Kyber pairs, a block of rows at a time: add, sub and
    halving add against the formulas c4 holds the scalar forms to on
    the same pairs, mont_mul against a*b*R**-1 mod q; then all four
    against the scalar forms themselves on a seeded sample."""
    import numpy as np
    p, q = KYBER, KYBER.q
    rinv = pow(p.r, -1, q)
    b = np.arange(q, dtype=np.int64)[None, :]
    for start in range(0, q, 256):
        a = np.arange(start, min(start + 256, q), dtype=np.int64)[:, None]
        s = a + b
        assert np.array_equal(mod_add_array(a, b, q), s % q)
        assert np.array_equal(mod_sub_array(a, b, q), (a - b) % q)
        assert np.array_equal(mod_add_half_array(a, b, q), s * p.inv2 % q)
        assert np.array_equal(mont_mul_array(a, b, p), a * b * rinv % q)
    rng = np.random.default_rng(0xA77)
    _array_forms_equal_scalar(p, *rng.integers(0, q, (2, 100_000)))


def test_array_forms_on_dilithium_samples():
    """10**6 seeded Dilithium pairs plus every pair of the edge values
    0, 1, q - 2 and q - 1, against the scalar forms."""
    import numpy as np
    q = DILITHIUM.q
    edges = np.array([0, 1, q - 2, q - 1], dtype=np.int64)
    a, b = np.random.default_rng(0xD11).integers(0, q, (2, 1_000_000))
    _array_forms_equal_scalar(DILITHIUM,
                              np.concatenate((a, np.repeat(edges, 4))),
                              np.concatenate((b, np.tile(edges, 4))))


def test_array_forms_on_dilithium_boundaries():
    """mod_add_array, mod_sub_array and mod_add_half_array equal Python's
    % on every Dilithium operand pair, by cases.  For a, b in [0, q),
    s = a + b lies in [0, 2q - 2] and d = a - b in [-(q - 1), q - 1].
    Each form is one comparison and a 0/1 correction by q:
    - add returns s below q and s - q from q on; each is s mod q on its
      side, so the form is right unless the comparison splits at the
      wrong sum, which the sums q - 1, q and q + 1 pin;
    - sub returns d from 0 on and d + q below 0, pinned by d = -1, 0, 1;
    - the halving add returns s/2 for an even s, (s + q)/2 for an odd s
      below q and (s - q)/2 for an odd s from q on (q is odd, so both
      are whole); each is s * 2**-1 mod q in [0, q), and the odd sums
      q - 2 and q, beside the even q - 1 and q + 1, pin the split.
    The operands 0 and q - 1 and the extreme sums 0 and 2q - 2 bound
    every intermediate, far inside int64."""
    import numpy as np
    q = DILITHIUM.q
    half = pow(2, -1, q)
    edges = (0, 1, 2, q // 2, q // 2 + 1, q - 3, q - 2, q - 1)
    pairs = {(x, y) for x in edges for y in edges}
    for x in edges:
        for y in {x - 1, x, x + 1} | {s - x for s in range(q - 2, q + 2)}:
            if 0 <= y < q:
                pairs |= {(x, y), (y, x)}
    a, b = np.array(sorted(pairs), dtype=np.int64).T
    assert {q - 2, q - 1, q, q + 1, 0, 2 * q - 2} <= set((a + b).tolist())
    assert {-1, 0, 1} <= set((a - b).tolist())
    for form, want in ((mod_add_array, lambda x, y: (x + y) % q),
                       (mod_sub_array, lambda x, y: (x - y) % q),
                       (mod_add_half_array,
                        lambda x, y: (x + y) * half % q)):
        got = form(a, b, q).tolist()
        assert got == [want(x, y) for x, y in zip(a.tolist(), b.tolist())], \
            form.__name__


def test_pack_unpack_lanes():
    assert pack_lanes(0, 0) == 0
    assert pack_lanes(0xFFF, 0) == 0xFFF
    assert pack_lanes(0, 1) == 1 << 12
    assert unpack_lanes(pack_lanes(123, 456)) == (123, 456)
    if sys.flags.optimize == 0:  # -O strips the lane-range assert
        with pytest.raises(AssertionError):
            pack_lanes(4096, 0)
        with pytest.raises(AssertionError):
            pack_lanes(0, -1)


def test_guard_sel_covers_all_cases():
    assert set(GUARD_SEL) == {
        ("add", KYBER_PAIR), ("sub", KYBER_PAIR),
        ("add", DILITHIUM_SINGLE), ("sub", DILITHIUM_SINGLE),
    }
    # Kyber sub and Dilithium add share the inserted-1 pattern; the other
    # two share the inserted-0 pattern.
    assert GUARD_SEL[("sub", KYBER_PAIR)] == GUARD_SEL[("add", DILITHIUM_SINGLE)]
    assert GUARD_SEL[("add", KYBER_PAIR)] == GUARD_SEL[("sub", DILITHIUM_SINGLE)]


def test_shared_add_sub_documented_lanes():
    x = pack_lanes(3328, 5)
    y = pack_lanes(1, 10)
    out = shared_add_sub(x, y, KYBER_PAIR, "add", KYBER)
    # lane 0 wraps to 0; its carry must not leak into lane 1's 15
    assert unpack_lanes(out) == (0, 15)
    assert shared_add_sub(pack_lanes(0, 0), pack_lanes(0, 0),
                          KYBER_PAIR, "add", KYBER) == 0
    assert shared_add_sub(1, 2, DILITHIUM_SINGLE, "sub", DILITHIUM) == 8380416


def test_shared_add_sub_random_lanes():
    q = KYBER.q
    for _ in range(20_000):
        x0, x1, y0, y1 = (RNG.randrange(q) for _ in range(4))
        for op, ref in (("add", mod_add), ("sub", mod_sub)):
            out = shared_add_sub(pack_lanes(x0, x1), pack_lanes(y0, y1),
                                 KYBER_PAIR, op, KYBER)
            assert unpack_lanes(out) == (ref(x0, y0, q), ref(x1, y1, q))
    q = DILITHIUM.q
    for _ in range(20_000):
        x = RNG.randrange(q)
        y = RNG.randrange(q)
        assert shared_add_sub(x, y, DILITHIUM_SINGLE, "add", DILITHIUM) == \
            mod_add(x, y, q)
        assert shared_add_sub(x, y, DILITHIUM_SINGLE, "sub", DILITHIUM) == \
            mod_sub(x, y, q)


def test_shared_add_sub_boundary_lanes():
    """All combinations of extreme lane values, both ops."""
    edge = (0, 1, KYBER.q - 1)
    for x0 in edge:
        for x1 in edge:
            for y0 in edge:
                for y1 in edge:
                    for op, ref in (("add", mod_add), ("sub", mod_sub)):
                        out = shared_add_sub(
                            pack_lanes(x0, x1), pack_lanes(y0, y1),
                            KYBER_PAIR, op, KYBER)
                        assert unpack_lanes(out) == (
                            ref(x0, y0, KYBER.q), ref(x1, y1, KYBER.q))
    edge = (0, 1, 0xFFF, 0x1000, DILITHIUM.q - 1)
    for x in edge:
        for y in edge:
            assert shared_add_sub(x, y, DILITHIUM_SINGLE, "add", DILITHIUM) \
                == mod_add(x, y, DILITHIUM.q)
            assert shared_add_sub(x, y, DILITHIUM_SINGLE, "sub", DILITHIUM) \
                == mod_sub(x, y, DILITHIUM.q)


def test_adder_body_on_every_kyber_lane_pair():
    """Every Kyber lane pair, add and sub, through the adder's body on
    int64 arrays, against (x + y) mod q and (x - y) mod q.

    Three sweeps per op cover every pair of packed words.  Lane 0 sees
    no lane-1 bit, since a carry only moves up: one sweep takes all q**2
    lane-0 pairs with lane 1 at 0.  Lane 1 sees lane 0 only through the
    guard column, whose carry-out GUARD_SEL fixes per op (add: 0 + 0 +
    carry never carries out; sub: 1 + 1 + carry always does, the +1 of
    lane 1's two's complement), whatever carry the column takes in.  So
    two sweeps take all q**2 lane-1 pairs, with lane 0 set so that the
    column takes in a carry and, separately, none: a lane-0 sum that
    overflows 12 bits or not, a lane-0 difference that does not borrow
    or does."""
    import numpy as np
    q = KYBER.q
    b = np.arange(q, dtype=np.int64)[None, :]
    for op, ref, lane0_pairs in (("add", np.add, ((q - 1, q - 1), (0, 0))),
                                 ("sub", np.subtract, ((0, 0), (0, 1)))):
        for start in range(0, q, 256):
            a = np.arange(start, min(start + 256, q), dtype=np.int64)[:, None]
            want = ref(a, b) % q
            got = _add_sub_lanes(a, b, op, KYBER_PAIR, q)
            assert np.array_equal(got, want), (op, start)
            for x0, y0 in lane0_pairs:
                got = _add_sub_lanes(a << 12 | x0, b << 12 | y0, op,
                                     KYBER_PAIR, q)
                assert np.array_equal(got, want << 12 | ref(x0, y0) % q), \
                    (op, start, x0, y0)


def test_adder_body_on_every_dilithium_pair():
    """Every Dilithium operand pair, add and sub, through the adder's body
    on int64 arrays, by halves: q**2 pairs are too many to enumerate.

    Write x = x_hi*2**12 + x_lo and y likewise (x_hi, y_hi < 2**11), and
    raw for the chain's output with its guard slot (bit 12) dropped, as
    _add_sub_lanes drops it.  The claim is raw == x + y for add and
    raw == 2**24 + x - y for sub (bit 24 the no-borrow).  The chain is one
    binary addition whose columns 0..12 see only the low halves and the
    guard bits, so raw's low 12 bits and the 0/1 carry c out of the guard
    column depend on (x_lo, y_lo) alone, and raw >> 12 on (x_hi, y_hi, c)
    alone.  Three sweeps per op:
    1. every low pair (2**24) with both high halves 0 gives the claimed
       raw: its low 12 bits, and in raw >> 12 the carry (add) or
       no-borrow (sub) that the guard slot passes up;
    2. every high pair (2**22), under a low pair that passes c = 1 and
       one that passes c = 0 (both read in sweep 1), gives the claimed
       raw, so raw >> 12 is right for each (x_hi, y_hi, c).  It is also
       one-to-one in c at x_hi = y_hi = 0, so sweep 1 read every low
       pair's c as claimed, and raw is right on all q**2 pairs;
    3. the output is the op's correction of raw alone, so one pair for
       every reachable raw value (x + y in 0..2q-2, x - y in
       -(q-1)..q-1) through _add_sub_lanes gives (x + y) mod q and
       (x - y) mod q.
    No assert of shared_add_sub takes part: the body has none."""
    import numpy as np
    q, mode = DILITHIUM.q, DILITHIUM_SINGLE

    def raw(x, y, op):
        s = _carry_chain(x, y, op, mode)
        return s >> 13 << 12 | s & 0xFFF

    lo = np.arange(1 << 12, dtype=np.int64)
    hi = np.arange(1 << 11, dtype=np.int64) << 12
    for op, claim, low_pairs in (
            ("add", lambda x, y: x + y, ((4095, 1), (0, 0))),
            ("sub", lambda x, y: (1 << 24) + x - y, ((0, 0), (0, 1)))):
        for start in range(0, 1 << 12, 256):
            x = lo[start:start + 256, None]
            assert np.array_equal(raw(x, lo, op), claim(x, lo)), (op, start)
        for x_lo, y_lo in low_pairs:  # c = 1, then c = 0
            for start in range(0, 1 << 11, 256):
                x, y = hi[start:start + 256, None] | x_lo, hi | y_lo
                assert np.array_equal(raw(x, y, op), claim(x, y)), \
                    (op, start, x_lo, y_lo)
    for start in range(0, 2 * q - 1, 1 << 20):
        r = np.arange(start, min(start + (1 << 20), 2 * q - 1))
        x = np.minimum(r, q - 1)
        assert np.array_equal(_add_sub_lanes(x, r - x, "add", mode, q),
                              r % q), ("add", start)
        d = r - (q - 1)
        x = np.maximum(d, 0)
        assert np.array_equal(_add_sub_lanes(x, x - d, "sub", mode, q),
                              d % q), ("sub", start)


def test_shared_add_sub_rejects_malformed():
    if sys.flags.optimize == 0:  # -O strips the lane-range asserts
        with pytest.raises(AssertionError):
            shared_add_sub(pack_lanes(3329, 0), pack_lanes(0, 0),
                           KYBER_PAIR, "add", KYBER)  # lane >= q
        with pytest.raises(AssertionError):
            shared_add_sub(-4096, 0, KYBER_PAIR, "sub", KYBER)  # lane 1 < 0
        with pytest.raises(AssertionError):
            shared_add_sub(DILITHIUM.q, 0, DILITHIUM_SINGLE, "add",
                           DILITHIUM)
    with pytest.raises(ValueError):
        shared_add_sub(0, 0, KYBER_PAIR, "add", DILITHIUM)  # scheme mismatch
    with pytest.raises(ValueError):
        shared_add_sub(0, 0, DILITHIUM_SINGLE, "xor", DILITHIUM)


def test_out_of_range_inputs_rejected():
    if sys.flags.optimize == 0:  # -O strips the hot-path range asserts
        with pytest.raises(AssertionError):
            mod_add(3329, 0, 3329)
        with pytest.raises(AssertionError):
            mod_sub(0, -1, 3329)
        with pytest.raises(AssertionError):
            mont_mul(KYBER.q, 1, KYBER)
        with pytest.raises(AssertionError):
            mont_redc(KYBER.r * KYBER.q, KYBER)



# (a value, an equal one built apart, a differing one, a field) for each
# of the four checked value types, which share core_arith._Frozen.
FROZEN_CASES = [
    (ModulusParams("kyber", q=3329, root=17, root_order=256), KYBER,
     DILITHIUM, "q"),
    (Polynomial([0] * 256, "kyber"), Polynomial((0,) * 256, "kyber"),
     Polynomial((0,) * 256, "kyber", "ntt-br"), "coeffs"),
    (MemoryGeometry("dilithium", 2), MemoryGeometry("dilithium", 2),
     MemoryGeometry("dilithium", 4), "t"),
    (CoreConfig("d2", 3), CoreConfig("d2", 3), CoreConfig("d3", 3),
     "pipeline_depth"),
]


@pytest.mark.parametrize("a, b, other, field", FROZEN_CASES,
                         ids=[type(a).__name__ for a, *_ in FROZEN_CASES])
def test_checked_value_types_are_frozen_values(a, b, other, field):
    """Assignment and deletion raise AttributeError and change nothing;
    equal fields give == and an equal hash, while another type with the
    same fields does not compare equal; the value survives pickle,
    deepcopy and eval(repr(...)); its fields sit in an instance dict
    (no NamedTuple, no __slots__), where hot loops read them fastest."""
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and not a == other
    value = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, value)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, field) is value and a == b and "extra" not in vars(a)

    twin = object.__new__(type("Twin", (type(a),), {}))
    vars(twin).update(vars(a))
    assert a != twin and twin != a
    assert a != tuple(getattr(a, f) for f in a._fields)

    for c in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a),
              eval(repr(a), {type(a).__name__: type(a)})):
        assert type(c) is type(a) and c == a and hash(c) == hash(a)
        assert vars(c) == vars(a)
    assert not isinstance(a, tuple) and not hasattr(type(a), "__slots__")
    assert field in vars(a)
