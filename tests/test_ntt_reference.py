"""Tests for the slow oracle layer: direct transforms, schoolbook
multiplication, the Kyber degree-1 basecase, and the FIPS 203/204
evaluation points of the one spectral order."""

import hashlib
import random

import numpy as np
import pytest

from kdntt.core_arith import DILITHIUM, KYBER, N, SCHEMES
from kdntt.ntt_reference import (
    DOMAIN_NORMAL,
    DOMAIN_NTT_BR,
    Polynomial,
    as_columns,
    bit_reverse,
    direct_intt,
    direct_intt_columns,
    direct_ntt,
    direct_ntt_columns,
    reference_pwm,
    reference_pwm_columns,
    schoolbook_columns,
    schoolbook_negacyclic,
)
from oracles import kyber_basecase_ref

RNG = random.Random(0x17)


def _delta(scheme: str, index: int = 0) -> Polynomial:
    """X**index: coefficient 1 at index, 0 elsewhere."""
    return Polynomial([int(i == index) for i in range(N)], scheme)


def _schoolbook_slow(a: Polynomial, b: Polynomial) -> Polynomial:
    """Pure-Python schoolbook, over exact integers, that the vectorized
    one is cross-checked against."""
    q = a.params.q
    out = [0] * N
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j, bj in enumerate(b.coeffs):
            k = i + j
            if k < N:
                out[k] = (out[k] + ai * bj) % q
            else:
                out[k - N] = (out[k - N] - ai * bj) % q
    return Polynomial(out, a.scheme, a.domain)


def test_bit_reverse_values():
    assert bit_reverse(1, 3) == 4  # 001 -> 100
    assert bit_reverse(0, 8) == 0
    assert bit_reverse(1, 8) == 128
    assert bit_reverse(0b1101, 4) == 0b1011
    for w in (7, 8):
        for i in range(1 << w):
            assert bit_reverse(bit_reverse(i, w), w) == i
            # independent oracle: reverse the zero-padded bit string
            assert bit_reverse(i, w) == int(format(i, f"0{w}b")[::-1], 2)
    for i, w in ((300, 8), (128, 7), (-1, 8)):
        with pytest.raises(ValueError, match="bits"):
            bit_reverse(i, w)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        Polynomial((0,) * 255, "kyber", DOMAIN_NORMAL)
    with pytest.raises(ValueError):
        Polynomial((3329,) + (0,) * 255, "kyber", DOMAIN_NORMAL)
    with pytest.raises(ValueError):
        Polynomial((0,) * 256, "kyber", "frequency")
    with pytest.raises(ValueError):
        Polynomial((0,) * 256, "ntru", DOMAIN_NORMAL)
    with pytest.raises(ValueError, match="integers"):
        Polynomial((2.5,) * 256, "kyber", DOMAIN_NORMAL)
    with pytest.raises(ValueError, match="integers"):
        Polynomial([True] * 256, "kyber")  # operator.index(True) == 1
    # Any integer sequence is stored as a tuple of ints: equal and hashable.
    listed = Polynomial([0] * 256, "kyber")
    assert type(listed.coeffs) is tuple
    assert listed == Polynomial((0,) * 256, "kyber")
    assert hash(listed) == hash(Polynomial((0,) * 256, "kyber"))


def test_direct_ntt_trivial_inputs():
    for scheme in SCHEMES:
        z = Polynomial((0,) * 256, scheme)
        out = direct_ntt(z, SCHEMES[scheme])
        assert out.coeffs == (0,) * 256 and out.domain == DOMAIN_NTT_BR
    # delta at 0 hits only the gamma^0 * omega^0 terms of each sub-transform
    d = direct_ntt(_delta("dilithium"), DILITHIUM)
    assert d.coeffs == (1,) * 256
    k = direct_ntt(_delta("kyber"), KYBER)
    assert k.coeffs == tuple(1 if i % 2 == 0 else 0 for i in range(256))


def test_direct_intt_trivial_inputs():
    ones = Polynomial((1,) * 256, "dilithium", DOMAIN_NTT_BR)
    back = direct_intt(ones, DILITHIUM)
    assert back.coeffs == (1,) + (0,) * 255
    zero = Polynomial((0,) * 256, "kyber", DOMAIN_NTT_BR)
    assert direct_intt(zero, KYBER).coeffs == (0,) * 256


def test_direct_roundtrip_and_linearity():
    for scheme, p in SCHEMES.items():
        for _ in range(25):
            a = Polynomial.random(scheme, RNG)
            b = Polynomial.random(scheme, RNG)
            fa = direct_ntt(a, p)
            assert direct_intt(fa, p).coeffs == a.coeffs
            fb = direct_ntt(b, p)
            s = Polynomial(((x + y) % p.q for x, y in zip(a.coeffs, b.coeffs)),
                           scheme)
            assert direct_ntt(s, p).coeffs == \
                tuple((x + y) % p.q for x, y in zip(fa.coeffs, fb.coeffs))


# The standards' primitive roots: FIPS 203 (ML-KEM) zeta = 17 of order
# 256, FIPS 204 (ML-DSA) zeta = 1753 of order 512.
FIPS_ZETA = {"kyber": 17, "dilithium": 1753}


def test_direct_ntt_is_the_fips_203_204_ntt():
    """Entry k of direct_ntt (for Kyber, both coefficients of pair k) is
    each coefficient stream evaluated at zeta**(2*bitrev(k)+1), bitrev on
    7 bits for ML-KEM and 8 for ML-DSA.  Horner's rule with pow, so no
    part of the matrix code is reused."""
    for scheme, p in SCHEMES.items():
        a = Polynomial.random(scheme, RNG)
        got = direct_ntt(a, p).coeffs
        streams = [a.coeffs[s::p.min_len] for s in range(p.min_len)]
        for k in (0, 1, 2, 3, 5, 64, 100, (1 << p.layers) - 1):
            x = pow(FIPS_ZETA[scheme], 2 * bit_reverse(k, p.layers) + 1, p.q)
            for s, stream in enumerate(streams):
                acc = 0
                for c in reversed(stream):
                    acc = (acc * x + c) % p.q
                assert got[k * p.min_len + s] == acc, (scheme, k, s)


def test_direct_transforms_are_exact_at_the_centring_extremes():
    """The direct transforms sum float64 products of residues centred
    into (-q/2, q/2].  Columns of all (q-1)/2 and all (q+1)/2 straddle
    the centring boundary and give the largest centred terms; all q-1
    and all q-2 give the largest uncentred ones (q-1 is a multiple of
    2**8 (Kyber) and 2**13 (Dilithium), so only the odd q-2 also shows an
    uncentred sum past 2**53 rounding).  For both schemes and directions,
    every entry equals the defining sum mod q worked out here in pure
    Python with pow: Horner at each point for the forward transform, the
    inverse's sum term by term.  The column oracles return int64, and
    direct_ntt/direct_intt Python ints, so no float reaches a Polynomial."""
    for scheme, p in SCHEMES.items():
        q, m, half = p.q, p.min_len, p.root_order // 2
        values = (q - 1, q - 2, (q - 1) // 2, (q + 1) // 2)
        x = np.array([[v] * 256 for v in values], np.int64).T
        fwd, inv = direct_ntt_columns(x, p), direct_intt_columns(x, p)
        n_inv = pow(half, -1, q)
        points = [pow(FIPS_ZETA[scheme], 2 * bit_reverse(k, p.layers) + 1, q)
                  for k in range(half)]
        for j, v in enumerate(values):
            for k, point in enumerate(points):
                acc = 0
                for _ in range(half):
                    acc = (acc * point + v) % q
                assert all(fwd[k * m + s, j] == acc for s in range(m))
            for i in range(half):
                want = sum(v * pow(pt, -i, q) for pt in points) * n_inv % q
                assert all(inv[i * m + s, j] == want for s in range(m))
        a = Polynomial((q - 1,) * 256, scheme)
        b = Polynomial(((q + 1) // 2,) * 256, scheme)
        cols = (fwd, inv, schoolbook_columns(x, x, p),
                reference_pwm_columns(x, x, p))
        assert all(c.dtype == np.int64 for c in cols)
        for poly in (direct_ntt(a, p), direct_intt(direct_ntt(b, p), p)):
            assert all(type(c) is int for c in poly.coeffs)


def test_schoolbook_identity_and_wraparound():
    for scheme in SCHEMES:
        a = Polynomial.random(scheme, RNG)
        one = _delta(scheme)
        assert schoolbook_negacyclic(a, one).coeffs == a.coeffs
        # X * X^255 = X^256 = -1
        x = _delta(scheme, index=1)
        x255 = _delta(scheme, index=255)
        prod = schoolbook_negacyclic(x, x255)
        q = SCHEMES[scheme].q
        assert prod.coeffs == (q - 1,) + (0,) * 255


def test_schoolbook_is_exact_at_the_centring_extremes():
    """schoolbook_columns convolves float64 residues centred into
    (-q/2, q/2], exact while an output's 256 terms sum below 2**53.  On
    constant columns of 0, q-1, q-2, (q-1)/2 and (q+1)/2 squared, and
    (q-1)/2 times (q+1)/2, it equals the pure-Python schoolbook for both
    schemes, and returns int64.  (q-1)/2 and (q+1)/2 straddle the
    centring boundary and give the largest centred terms; uncentred,
    all-(q-2) columns give Dilithium sums past 2**53 that round."""
    for scheme, p in SCHEMES.items():
        q = p.q
        values = (0, q - 1, q - 2, (q - 1) // 2, (q + 1) // 2)
        pairs = [(v, v) for v in values] + [((q - 1) // 2, (q + 1) // 2)]
        x, y = (np.array([[pair[s]] * N for pair in pairs], np.int64).T
                for s in (0, 1))
        got = schoolbook_columns(x, y, p)
        assert got.dtype == np.int64
        for j, (u, v) in enumerate(pairs):
            want = _schoolbook_slow(Polynomial((u,) * N, scheme),
                                    Polynomial((v,) * N, scheme))
            assert tuple(got[:, j]) == want.coeffs, (scheme, u, v)


def test_schoolbook_matches_slow_path():
    for scheme in SCHEMES:
        for _ in range(5):
            a = Polynomial.random(scheme, RNG)
            b = Polynomial.random(scheme, RNG)
            assert schoolbook_negacyclic(a, b).coeffs == \
                _schoolbook_slow(a, b).coeffs


def test_schoolbook_rejects_mismatch():
    a = Polynomial.random("kyber", RNG)
    b = Polynomial.random("dilithium", RNG)
    with pytest.raises(ValueError):
        schoolbook_negacyclic(a, b)
    with pytest.raises(ValueError):
        schoolbook_negacyclic(a, direct_ntt(a, KYBER))


def test_kyber_basecase_examples():
    assert kyber_basecase_ref((1, 0), (1, 0), 17) == (1, 0)
    assert kyber_basecase_ref((0, 1), (0, 1), 17) == (17, 0)
    # brute-force quadratic-ring oracle on random pairs
    q = 3329
    for _ in range(2000):
        a0, a1, b0, b1 = (RNG.randrange(q) for _ in range(4))
        psi = RNG.randrange(1, q)
        want = ((a0 * b0 + a1 * b1 * psi) % q, (a0 * b1 + a1 * b0) % q)
        assert kyber_basecase_ref((a0, a1), (b0, b1), psi) == want
    for args in (((q, 0), (1, 0), 17), ((0, 1), (0, -1), 17),
                 ((1, 0), (1, 0), q)):
        with pytest.raises(ValueError, match="basecase operands"):
            kyber_basecase_ref(*args)


def test_reference_pwm_is_the_kyber_basecase_pair_by_pair():
    """reference_pwm's array expression and kyber_basecase_ref state one
    formula twice; they agree on every pair of random spectra."""
    for _ in range(10):
        fa, fb = (Polynomial.random("kyber", RNG, DOMAIN_NTT_BR)
                  for _ in range(2))
        got = reference_pwm(fa, fb).coeffs
        for i in range(128):
            psi = pow(KYBER.root, 2 * bit_reverse(i, 7) + 1, KYBER.q)
            assert got[2 * i: 2 * i + 2] == kyber_basecase_ref(
                fa.coeffs[2 * i: 2 * i + 2], fb.coeffs[2 * i: 2 * i + 2], psi)


def test_column_oracles_equal_per_polynomial_calls():
    """A many-column call of each column oracle equals the per-polynomial
    oracle on each column; the schoolbook also equals the pure-Python one."""
    for scheme, p in SCHEMES.items():
        As = [Polynomial.random(scheme, RNG) for _ in range(5)]
        Bs = [Polynomial.random(scheme, RNG) for _ in range(5)]
        a, b = as_columns(As), as_columns(Bs)
        fa, fb = direct_ntt_columns(a, p), direct_ntt_columns(b, p)
        prod, pw = schoolbook_columns(a, b, p), reference_pwm_columns(fa, fb, p)
        back = direct_intt_columns(fa, p)
        for j, (x, y) in enumerate(zip(As, Bs)):
            fx, fy = direct_ntt(x, p), direct_ntt(y, p)
            assert tuple(fa[:, j]) == fx.coeffs
            assert tuple(back[:, j]) == x.coeffs
            assert tuple(pw[:, j]) == reference_pwm(fx, fy).coeffs
            assert tuple(prod[:, j]) == _schoolbook_slow(x, y).coeffs


def test_random_draws_the_randrange_values_and_verify_trials_are_pinned():
    """Polynomial.random returns the values of 256 rng.randrange(q) calls
    and leaves rng where they leave it, so verify's trials are those of
    the per-coefficient draw: for each scheme and trial i of seed 0, a
    then b from random.Random(f"0/{scheme}/{i}"), hashed to the digest
    that draw gave."""
    for scheme, p in SCHEMES.items():
        for seed in range(200):
            fast, slow = random.Random(seed), random.Random(seed)
            assert Polynomial.random(scheme, fast).coeffs == \
                tuple(slow.randrange(p.q) for _ in range(256))
            assert fast.random() == slow.random()
    h = hashlib.sha256()
    for scheme in ("kyber", "dilithium"):
        for i in range(25):
            rng = random.Random(f"0/{scheme}/{i}")
            for _ in "ab":
                coeffs = Polynomial.random(scheme, rng).coeffs
                h.update(",".join(map(str, coeffs)).encode() + b";")
    assert h.hexdigest() == \
        "a5464f87bc00a497318c0fcf8a4efab833cab61c810c39038ca8bc8fdbe26ac6"


def test_convolution_theorem_both_orders():
    """intt(pwm(ntt(a), ntt(b))) == schoolbook(a, b), with the pointwise
    product taken in both operand orders."""
    for scheme, p in SCHEMES.items():
        for _ in range(10):
            a = Polynomial.random(scheme, RNG)
            b = Polynomial.random(scheme, RNG)
            want = schoolbook_negacyclic(a, b)
            fa = direct_ntt(a, p)
            fb = direct_ntt(b, p)
            prod = reference_pwm(fa, fb)
            assert direct_intt(prod, p).coeffs == want.coeffs
            assert reference_pwm(fb, fa).coeffs == prod.coeffs


def test_reference_pwm_domain_rules():
    a = Polynomial.random("kyber", RNG)
    with pytest.raises(ValueError):
        reference_pwm(a, a)  # normal domain is not a spectral domain
    fa = direct_ntt(a, KYBER)
    with pytest.raises(ValueError):
        reference_pwm(fa, a)  # one operand is not spectral

