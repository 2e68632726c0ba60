"""Bit-exact modular arithmetic for the two schemes' datapaths.

Everything here mirrors what the word-level hardware actually computes:
Montgomery multiplication with a power-of-two radix, single-conditional
modular add/sub, the halving adder used by inverse-transform butterflies,
and the shared dual-lane adder/subtractor that runs either two 12-bit
Kyber operations or one 24-bit Dilithium operation through a single carry
chain with a guard bit at position 12.  Each w-bit lane leaves the chain
with the bit above it (a sum's carry, a difference's no-borrow), and one
rule per op corrects every lane: a sum sheds q once, r - q*(r >= q); a
difference that borrowed takes q back, (r + q*(1 - (r >> w))) & (2**w-1).
That body, _add_sub_lanes, is operators only (no branch on data, no
assert), so it runs on ints in shared_add_sub and on int64 arrays in
the tests' sweeps of every Kyber lane pair.

Coefficients are unsigned ints in [0, q) at every operation boundary.
Range checks are ``assert`` statements, so they vanish under ``python -O``
(the hardware has no such checks; the model keeps them for test builds).
A mode or op that names no datapath raises ValueError, also under -O.

_Frozen, the base of the checked value types (ModulusParams, Polynomial,
MemoryGeometry, CoreConfig), and the NamedTuple records spare a cold CLI
start the import of dataclasses; _Frozen keeps fields in an instance
dict, where hot loops read them fastest.  The bottom module also holds
the value type Polynomial, with its domains, draw and column form, and
_check_operand_tags, the one check of an operand's scheme and domain.
"""

from __future__ import annotations

import operator
import random

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


class _Frozen:
    """An immutable value over the names in _fields, which __init__
    stores with vars(self).update: assignment and deletion raise."""

    def __setattr__(self, name: str, _value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._key() == other._key() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class ModulusParams(_Frozen):
    """Per-scheme arithmetic constants.

    Only q and the root are chosen; every width is derived once here,
    so hot loops see plain attributes.  A coefficient and the Montgomery
    radix take q's bit length (so R > q), a memory slot whole 12-bit
    lanes, and a transform one butterfly layer per halving of the root's
    order down to 4.  ``root`` generates the twiddle group: for
    Dilithium it is a 2n-th root of unity (root**n == -1 mod q), for
    Kyber only an n-th root exists (root**(n/2) == -1 mod q).
    """

    _fields = ("scheme", "q", "root", "root_order")
    scheme: str
    q: int
    root: int
    root_order: int  # 2n for Dilithium (512), n for Kyber (256)
    # derived in __init__, never passed in:
    coeff_bits: int  # arithmetic width of a coefficient
    r_bits: int  # Montgomery radix R = 2**r_bits
    slot_bits: int  # storage slot width in memory words
    layers: int  # 7 (incomplete) or 8 (complete)
    r: int
    mask: int
    q_prime: int  # -q**-1 mod R: q*q_prime == R-1 (mod R)
    r_mod_q: int
    r2_mod_q: int
    inv2: int  # 2**-1 mod q
    min_len: int  # shortest butterfly distance: 2 (Kyber) or 1 (Dilithium)
    lane_dtype: str  # the array forms' residues and sums, below 2q
    product_dtype: str  # their products' t + m*q, below q*q + R*q

    def __init__(self, scheme: str, q: int, root: int,
                 root_order: int) -> None:
        # The root has the claimed power-of-two order: root**(o/2) == -1.
        o = root_order
        if o & (o - 1) or pow(root, o // 2, q) != q - 1:
            raise ValueError(f"root {root} does not have power-of-two "
                             f"order {o} mod {q}")
        bits = q.bit_length()
        r = 1 << bits
        layers = o.bit_length() - 2
        vars(self).update(
            scheme=scheme, q=q, root=root, root_order=o,
            coeff_bits=bits, r_bits=bits,
            slot_bits=-(-bits // _LANE_BITS) * _LANE_BITS,
            layers=layers, r=r, mask=r - 1, q_prime=(-pow(q, -1, r)) % r,
            r_mod_q=r % q, r2_mod_q=r * r % q, inv2=(q + 1) // 2,
            min_len=N >> layers, lane_dtype="uint32",
            product_dtype="uint32" if q * (q + r) <= 1 << 32 else "uint64")


KYBER = ModulusParams("kyber", q=3329, root=17, root_order=256)
# q = 2**23 - 2**13 + 1
DILITHIUM = ModulusParams("dilithium", q=8380417, root=1753, root_order=512)

SCHEMES = {"kyber": KYBER, "dilithium": DILITHIUM}

DOMAIN_NORMAL = "normal"
DOMAIN_NTT_BR = "ntt-br"  # the FIPS 203/204 NTT order, as the core emits
DOMAINS = (DOMAIN_NORMAL, DOMAIN_NTT_BR)


class Polynomial(_Frozen):
    """A length-256 coefficient vector tagged with scheme and ordering."""

    _fields = ("coeffs", "scheme", "domain")
    coeffs: tuple[int, ...]
    scheme: str
    domain: str

    def __init__(self, coeffs, scheme: str,
                 domain: str = DOMAIN_NORMAL) -> None:
        _check_tags(scheme, domain)
        try:
            coeffs = tuple(coeffs)
            if any(type(c) is bool for c in coeffs):  # index(True) == 1
                raise TypeError
            coeffs = tuple(map(operator.index, coeffs))
        except TypeError:
            raise ValueError("coefficients must be integers") from None
        if len(coeffs) != N:
            raise ValueError(f"expected {N} coefficients, got {len(coeffs)}")
        q = SCHEMES[scheme].q
        for i, c in enumerate(coeffs):
            if not 0 <= c < q:
                raise ValueError(f"coefficient {i} = {c} out of range [0, {q})")
        vars(self).update(coeffs=coeffs, scheme=scheme, domain=domain)

    @property
    def params(self) -> ModulusParams:
        return SCHEMES[self.scheme]

    @classmethod
    def _trusted(cls, coeffs: tuple[int, ...], scheme: str,
                 domain: str) -> "Polynomial":
        """A polynomial from values the caller built in [0, q) as Python
        ints, under a valid scheme and domain: none of it is checked."""
        a = object.__new__(cls)
        vars(a).update(coeffs=coeffs, scheme=scheme, domain=domain)
        return a

    @classmethod
    def random(cls, scheme: str, rng: random.Random,
               domain: str = DOMAIN_NORMAL) -> "Polynomial":
        """256 uniform coefficients, the values of 256 rng.randrange(q)
        calls, leaving rng in the same state (see _draw_coefficients)."""
        _check_tags(scheme, domain)
        coeffs = _draw_coefficients(SCHEMES[scheme].q, rng)
        return cls._trusted(tuple(coeffs), scheme, domain)


def _draw_coefficients(q: int, rng: random.Random) -> list[int]:
    """The values of 256 rng.randrange(q) calls, leaving rng in the same
    state: randrange(q) takes getrandbits(q.bit_length()), the top bits
    of one Mersenne Twister word, until that is below q.  Drawing as many
    words as values are still missing never reads past the 256th's."""
    k = q.bit_length()
    out = []
    while len(out) < N:
        out += [v for _ in range(N - len(out))
                if (v := rng.getrandbits(k)) < q]
    return out


def _check_tags(scheme: str, domain: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}")


def _check_operand_tags(polys, scheme: str, domain: str) -> None:
    """ValueError unless every one of polys is of scheme and in domain."""
    if any(a.scheme != scheme for a in polys):
        raise ValueError(f"operand scheme does not match {scheme}")
    if any(a.domain != domain for a in polys):
        raise ValueError(f"expected {domain}-domain operands")


def bit_reverse(i: int, width: int) -> int:
    """Reverse the low ``width`` bits of ``i``."""
    if not 0 <= i < (1 << width):
        raise ValueError(f"{i} does not fit in {width} bits")
    out = 0
    for _ in range(width):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


def as_columns(polys) -> np.ndarray:
    """The polynomials' coefficients as an int64 (256, len(polys)) array,
    a column per polynomial."""
    import numpy as np
    return np.array([a.coeffs for a in polys], np.int64).T


def _from_columns(cols: np.ndarray, scheme: str,
                 domain: str) -> list[Polynomial]:
    """One polynomial per column of an array whose entries are in [0, q)."""
    return [Polynomial._trusted(tuple(c), scheme, domain)
            for c in cols.T.tolist()]


def _redc(t, p: ModulusParams):
    """mont_redc past its check, operators only, so signed arrays pass
    too: m makes t + m*q a multiple of R, and t < R*q gives u < 2q.
    mont_mul_array repeats m and the shift but ends in a borrow-select."""
    m = ((t & p.mask) * p.q_prime) & p.mask
    u = (t + m * p.q) >> p.r_bits
    return u - p.q * (u >= p.q)


def mont_redc(t: int, p: ModulusParams) -> int:
    """Montgomery reduction: t -> t * R**-1 mod q, for 0 <= t < R*q."""
    assert 0 <= t < p.r * p.q
    return _redc(t, p)


def mont_mul(a: int, b: int, p: ModulusParams) -> int:
    """a * b * R**-1 mod q.  Both inputs in [0, q)."""
    assert 0 <= a < p.q and 0 <= b < p.q
    t = a * b
    m = ((t & p.mask) * p.q_prime) & p.mask
    u = (t + m * p.q) >> p.r_bits
    return u - p.q if u >= p.q else u


def to_mont(a: int, p: ModulusParams) -> int:
    """Scale into the Montgomery domain: a -> a * R mod q, mont_mul by
    R**2 mod q in one frame (that constant is below q by construction)."""
    q = p.q
    assert 0 <= a < q
    t = a * p.r2_mod_q
    t = (t + ((t & p.mask) * p.q_prime & p.mask) * q) >> p.r_bits
    return t - q if t >= q else t


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
# unsigned arrays, correcting as the datapath's adders do: s - q wraps
# above s exactly when s < q, so np.minimum(s, s - q) is s mod q for
# s < 2q, and d = a - b wraps exactly when a < b, when d + q is smaller.
# That select is wrong on ints and signed arrays, so they take only
# p.lane_dtype arrays, cast every constant to it and share no code with
# the scalar forms; a product widens to p.product_dtype.  No range checks.
# The golden model calls none of the scalar forms: to_mont and bfu's
# two butterflies and two pointwise products inline them, one frame each.

def mont_mul_array(a, b, p: ModulusParams):
    import numpy as np
    wide = p.product_dtype
    t = a.astype(wide, copy=False) * b.astype(wide, copy=False)
    c = t.dtype.type  # _redc's m and shift, in place, then the select
    m = (t & c(p.mask)) * c(p.q_prime) & c(p.mask)
    m *= c(p.q)
    m += t
    m >>= c(p.r_bits)
    u = m.astype(a.dtype, copy=False)
    return np.minimum(u, u - u.dtype.type(p.q), out=u)


def mod_add_array(a, b, q: int):
    import numpy as np
    s = a + b
    return np.minimum(s, s - s.dtype.type(q))


def mod_sub_array(a, b, q: int):
    import numpy as np
    d = a - b
    return np.minimum(d, d + d.dtype.type(q))


def mod_add_half_array(a, b, q: int):
    import numpy as np
    s = a + b
    c = s.dtype.type  # s >> 1 plus s's low bit times 2**-1, below 2q
    h = (s >> c(1)) + (s & c(1)) * c((q + 1) // 2)
    return np.minimum(h, h - c(q))


def pack_lanes(lo: int, hi: int) -> int:
    """Pack two 12-bit lane values into one 24-bit word (lo in bits 0..11)."""
    assert 0 <= lo < (1 << _LANE_BITS) and 0 <= hi < (1 << _LANE_BITS)
    return (hi << _LANE_BITS) | lo


def unpack_lanes(word: int) -> tuple[int, int]:
    """Split a 24-bit word into its (lo, hi) 12-bit lanes."""
    return word & ((1 << _LANE_BITS) - 1), word >> _LANE_BITS


def _carry_chain(x, y, op: str, mode: str):
    """One pass through the shared 25-bit adder.

    ``x``/``y`` are 24-bit operand words (two Kyber lanes, or one Dilithium
    value occupying bits 0..22).  The guard bit from GUARD_SEL is spliced in
    at position 12 of each operand; subtraction complements the whole y
    window (guard included) and injects carry-in 1.
    """
    sel_a, sel_b = GUARD_SEL[(op, mode)]
    xw = (x >> _GUARD_POS << (_GUARD_POS + 1)) | (sel_a << _GUARD_POS) | (x & 0xFFF)
    yw = (y >> _GUARD_POS << (_GUARD_POS + 1)) | (sel_b << _GUARD_POS) | (y & 0xFFF)
    if op == "sub":
        return xw + (~yw & _WINDOW_MASK) + 1
    return xw + yw  # up to 26 bits with the final carry-out


# The adder's one correction rule per op (see the module docstring).
_CORRECT = {"add": lambda r, _w, q: r - q * (r >= q),
            "sub": lambda r, w, q: (r + q * (1 - (r >> w))) & ((1 << w) - 1)}


def _add_sub_lanes(x, y, op: str, mode: str, q: int):
    """shared_add_sub past its checks: the chain, then op's correction
    on every lane the chain yields."""
    s, fix = _carry_chain(x, y, op, mode), _CORRECT[op]
    if mode == KYBER_PAIR:  # bits 0..12 and 13..25
        return fix(s & 0x1FFF, 12, q) | fix(s >> 13, 12, q) << 12
    return fix((s >> 13 << 12) | (s & 0xFFF), 24, q)  # guard slot dropped


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
    q = p.q
    if mode == KYBER_PAIR:
        assert 0 <= x >> 12 < q and 0 <= y >> 12 < q \
            and x & 0xFFF < q and y & 0xFFF < q, "lane out of range"
    else:
        assert 0 <= x < q and 0 <= y < q, "lane out of range"
    return _add_sub_lanes(x, y, op, mode, q)
