"""Bit-exact modular arithmetic for the two schemes' datapaths.

Everything here mirrors what the word-level hardware actually computes:
Montgomery multiplication with a power-of-two radix, single-conditional
modular add/sub, the halving adder used by inverse-transform butterflies,
and the shared dual-lane adder/subtractor that runs either two 12-bit
Kyber operations or one 24-bit Dilithium operation through a single carry
chain with a guard bit at position 12.

Coefficients are unsigned ints in [0, q) at every operation boundary.
Range checks are ``assert`` statements, so they vanish under ``python -O``
(the hardware has no such checks; the model keeps them for test builds).
A mode or op that names no datapath raises ValueError, also under -O.
"""

from __future__ import annotations

from dataclasses import dataclass, field

N = 256  # ring degree, common to both schemes

KYBER_PAIR = "kyber-pair"
DILITHIUM_SINGLE = "dilithium-single"

_LANE_BITS = 12
_GUARD_POS = _LANE_BITS  # the extra bit sits between the two 12-bit lanes
_WINDOW_MASK = (1 << (2 * _LANE_BITS + 1)) - 1  # 25-bit adder window

# Guard-slot bits (a-side, b-side) per operation, as fed to the carry chain.
# The b-side bit is packed *before* the operand inversion that implements
# subtraction, so for "sub" the wire value the adder sees is its complement.
# Kyber needs the boundary to either absorb the lane-0 carry (add) or inject
# an unconditional +1 into lane 1 (the second two's-complement correction,
# sub); Dilithium needs the opposite: propagate on add, pass !borrow on sub.
GUARD_SEL = {
    ("sub", KYBER_PAIR): (1, 0),
    ("add", DILITHIUM_SINGLE): (1, 0),
    ("add", KYBER_PAIR): (0, 0),
    ("sub", DILITHIUM_SINGLE): (0, 0),
}


@dataclass(frozen=True)
class ModulusParams:
    """Per-scheme arithmetic constants.

    Only q and the root are chosen; every width is derived once here,
    so hot loops see plain attributes.  A coefficient and the Montgomery
    radix take q's bit length (so R > q), a memory slot whole 12-bit
    lanes, and a transform one butterfly layer per halving of the root's
    order down to 4.  ``root`` generates the twiddle group: for
    Dilithium it is a 2n-th root of unity (root**n == -1 mod q), for
    Kyber only an n-th root exists (root**(n/2) == -1 mod q).
    """

    scheme: str
    q: int
    root: int
    root_order: int  # 2n for Dilithium (512), n for Kyber (256)
    # derived in __post_init__, never passed in:
    coeff_bits: int = field(init=False)  # arithmetic width of a coefficient
    r_bits: int = field(init=False)  # Montgomery radix R = 2**r_bits
    slot_bits: int = field(init=False)  # storage slot width in memory words
    layers: int = field(init=False)  # 7 (incomplete) or 8 (complete)
    r: int = field(init=False)
    mask: int = field(init=False)
    q_prime: int = field(init=False)  # -q**-1 mod R: q*q_prime == R-1 (mod R)
    r_mod_q: int = field(init=False)
    r2_mod_q: int = field(init=False)
    inv2: int = field(init=False)  # 2**-1 mod q
    # shortest butterfly distance: 2 (Kyber) or 1 (Dilithium)
    min_len: int = field(init=False)

    def __post_init__(self) -> None:
        # The root has the claimed power-of-two order: root**(o/2) == -1.
        o = self.root_order
        if o & (o - 1) or pow(self.root, o // 2, self.q) != self.q - 1:
            raise ValueError(f"root {self.root} does not have power-of-two "
                             f"order {o} mod {self.q}")
        bits = self.q.bit_length()
        r = 1 << bits
        layers = self.root_order.bit_length() - 2
        for name, value in (
                ("coeff_bits", bits), ("r_bits", bits),
                ("slot_bits", -(-bits // _LANE_BITS) * _LANE_BITS),
                ("layers", layers), ("r", r), ("mask", r - 1),
                ("q_prime", (-pow(self.q, -1, r)) % r),
                ("r_mod_q", r % self.q), ("r2_mod_q", r * r % self.q),
                ("inv2", (self.q + 1) // 2), ("min_len", N >> layers)):
            object.__setattr__(self, name, value)


KYBER = ModulusParams("kyber", q=3329, root=17, root_order=256)
# q = 2**23 - 2**13 + 1
DILITHIUM = ModulusParams("dilithium", q=8380417, root=1753, root_order=512)

SCHEMES = {"kyber": KYBER, "dilithium": DILITHIUM}


def mont_redc(t: int, p: ModulusParams) -> int:
    """Montgomery reduction: t -> t * R**-1 mod q, for 0 <= t < R*q."""
    assert 0 <= t < p.r * p.q
    m = ((t & p.mask) * p.q_prime) & p.mask
    u = (t + m * p.q) >> p.r_bits
    return u - p.q if u >= p.q else u


def mont_mul(a: int, b: int, p: ModulusParams) -> int:
    """a * b * R**-1 mod q.  Both inputs in [0, q)."""
    assert 0 <= a < p.q and 0 <= b < p.q
    t = a * b
    m = ((t & p.mask) * p.q_prime) & p.mask
    u = (t + m * p.q) >> p.r_bits
    return u - p.q if u >= p.q else u


def to_mont(a: int, p: ModulusParams) -> int:
    """Scale into the Montgomery domain: a -> a * R mod q."""
    return mont_mul(a, p.r2_mod_q, p)


def from_mont(a: int, p: ModulusParams) -> int:
    """Undo the Montgomery scaling: a*R -> a mod q."""
    return mont_redc(a, p)


def mod_add(a: int, b: int, q: int) -> int:
    """(a + b) mod q via one conditional subtraction."""
    assert 0 <= a < q and 0 <= b < q
    s = a + b
    return s - q if s >= q else s


def mod_sub(a: int, b: int, q: int) -> int:
    """(a - b) mod q; the correction is selected by the difference's sign."""
    assert 0 <= a < q and 0 <= b < q
    d = a - b
    return d + q if d < 0 else d


def mod_add_half(a: int, b: int, q: int) -> int:
    """((a + b) / 2) mod q for odd q — the inverse-butterfly halving adder.

    Even sums shift right directly (s/2 and (s-q+q)/2 coincide).  Odd sums
    take +q or -q first to become even; the tie s == q is odd and lands in
    the -q branch, giving 0 as required.
    """
    assert 0 <= a < q and 0 <= b < q
    s = a + b
    if s & 1:
        s = s - q if s >= q else s + q
    return s >> 1


# Branch-free forms of mont_mul, mod_add, mod_sub and mod_add_half for
# whole arrays of coefficients at once: operators only, each comparison
# selecting its correction by a 0/1 factor, so an int64 numpy array (or a
# plain int) works.  They have no range checks and share no code with
# the scalar forms above, whose per-call cost the golden model pays on
# every butterfly.  Dilithium's t + m*q stays below 2**47, so int64 is
# exact.

def mont_mul_array(a, b, p: ModulusParams):
    t = a * b
    m = ((t & p.mask) * p.q_prime) & p.mask
    u = (t + m * p.q) >> p.r_bits
    return u - p.q * (u >= p.q)


def mod_add_array(a, b, q: int):
    s = a + b
    return s - q * (s >= q)


def mod_sub_array(a, b, q: int):
    d = a - b
    return d + q * (d < 0)


def mod_add_half_array(a, b, q: int):
    s = a + b
    return (s + (s & 1) * (q - 2 * q * (s >= q))) >> 1


def pack_lanes(lo: int, hi: int) -> int:
    """Pack two 12-bit lane values into one 24-bit word (lo in bits 0..11)."""
    assert 0 <= lo < (1 << _LANE_BITS) and 0 <= hi < (1 << _LANE_BITS)
    return (hi << _LANE_BITS) | lo


def unpack_lanes(word: int) -> tuple[int, int]:
    """Split a 24-bit word into its (lo, hi) 12-bit lanes."""
    return word & ((1 << _LANE_BITS) - 1), word >> _LANE_BITS


def _carry_chain(x: int, y: int, op: str, mode: str) -> int:
    """One pass through the shared 25-bit adder.

    ``x``/``y`` are 24-bit operand words (two Kyber lanes, or one Dilithium
    value occupying bits 0..22).  The guard bit from GUARD_SEL is spliced in
    at position 12 of each operand; subtraction complements the whole y
    window (guard included) and injects carry-in 1.
    """
    sel_a, sel_b = GUARD_SEL[(op, mode)]
    lo_mask = (1 << _GUARD_POS) - 1
    xw = ((x >> _GUARD_POS) << (_GUARD_POS + 1)) | (sel_a << _GUARD_POS) | (x & lo_mask)
    yw = ((y >> _GUARD_POS) << (_GUARD_POS + 1)) | (sel_b << _GUARD_POS) | (y & lo_mask)
    cin = 0
    if op == "sub":
        yw = ~yw & _WINDOW_MASK
        cin = 1
    return xw + yw + cin  # up to 26 bits with the final carry-out


def shared_add_sub(x: int, y: int, mode: str, op: str, p: ModulusParams) -> int:
    """The shared dual-lane modular adder/subtractor.

    In KYBER_PAIR mode ``x`` and ``y`` each pack two independent 12-bit
    coefficients and the result packs the two lane-wise modular results;
    the guard bit keeps the lanes' carries/borrows from leaking into each
    other.  In DILITHIUM_SINGLE mode the operands are single 23-bit
    coefficients and the guard bit *forwards* the low half's carry/borrow
    so the two halves of the carry chain act as one 24-bit unit.

    Functionally identical to per-lane mod_add/mod_sub of the matching
    width; the point of this routine is to model the single carry chain.
    """
    if op not in ("add", "sub"):
        raise ValueError(f"unknown op {op!r}")
    if mode != (KYBER_PAIR if p.scheme == "kyber" else DILITHIUM_SINGLE):
        raise ValueError(f"no {mode!r} mode on {p.scheme} parameters")
    if mode == KYBER_PAIR:
        x0, x1 = unpack_lanes(x)
        y0, y1 = unpack_lanes(y)
        assert x0 < p.q and x1 < p.q and y0 < p.q and y1 < p.q, "lane out of range"
        s = _carry_chain(x, y, op, mode)
        if op == "add":
            # Lane sums are 13 bits; lane 0's carry surfaces in the (zero)
            # guard slot, lane 1's in the window's carry-out.
            raw0 = s & 0x1FFF
            raw1 = s >> (_GUARD_POS + 1)
            out0 = raw0 - p.q if raw0 >= p.q else raw0
            out1 = raw1 - p.q if raw1 >= p.q else raw1
        else:
            # The a-side guard turns the lane-0 carry-out into an
            # unconditional +1 for lane 1 (its own two's-complement +1),
            # leaving S[12] = !borrow0 and the carry-out = !borrow1.
            raw0 = s & 0xFFF
            raw1 = (s >> (_GUARD_POS + 1)) & 0xFFF
            out0 = raw0 if (s >> _GUARD_POS) & 1 else raw0 + p.q - (1 << _LANE_BITS)
            out1 = raw1 if s >> (2 * _LANE_BITS + 1) else raw1 + p.q - (1 << _LANE_BITS)
            out0 &= 0xFFF
            out1 &= 0xFFF
        assert out0 == (
            mod_add(x0, y0, p.q) if op == "add" else mod_sub(x0, y0, p.q)
        )
        assert out1 == (
            mod_add(x1, y1, p.q) if op == "add" else mod_sub(x1, y1, p.q)
        )
        return pack_lanes(out0, out1)

    assert 0 <= x < p.q and 0 <= y < p.q, "lane out of range"
    s = _carry_chain(x, y, op, mode)
    # Reassemble, dropping the guard position: bits 0..11 plus bits 13..
    raw = ((s >> (_GUARD_POS + 1)) << _GUARD_POS) | (s & ((1 << _GUARD_POS) - 1))
    if op == "add":
        value = raw & 0xFFFFFF
        out = value - p.q if value >= p.q else value
    else:
        no_borrow = raw >> 24  # carry-out of the full 24-bit chain
        value = raw & 0xFFFFFF
        out = value if no_borrow else (value + p.q) & 0xFFFFFF
    assert out == (mod_add(x, y, p.q) if op == "add" else mod_sub(x, y, p.q))
    return out
