"""Tests for the slow oracle layer: direct transforms, schoolbook
multiplication, the Kyber degree-1 basecase, and order permutations."""

import random

import pytest

from kdntt.core_arith import DILITHIUM, KYBER, SCHEMES
from kdntt.ntt_reference import (
    DOMAIN_NORMAL,
    DOMAIN_NTT,
    DOMAIN_NTT_BR,
    Polynomial,
    _schoolbook_slow,
    bit_reverse,
    bit_reverse_permutation,
    direct_intt,
    direct_ntt,
    kyber_basecase_ref,
    poly_add,
    poly_sub,
    reference_pwm,
    schoolbook_negacyclic,
)

RNG = random.Random(0x17)


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


def test_bit_reverse_permutation_involution():
    for scheme in ("dilithium", "kyber"):
        a = Polynomial.random(scheme, RNG, domain=DOMAIN_NTT)
        twice = bit_reverse_permutation(bit_reverse_permutation(a))
        assert twice.coeffs == a.coeffs
        assert bit_reverse_permutation(a).domain == DOMAIN_NTT_BR
    # Dilithium's 8-bit view moves single coefficients.
    a = Polynomial.delta("dilithium", index=3, domain=DOMAIN_NTT)
    assert bit_reverse_permutation(a).coeffs[bit_reverse(3, 8)] == 1


def test_bit_reverse_permutation_kyber_moves_pairs():
    # Kyber's 7-bit view permutes 128 two-coefficient chunks as units.
    a = Polynomial.delta("kyber", index=2, domain=DOMAIN_NTT)   # pair 1, slot 0
    b = bit_reverse_permutation(a)
    assert b.coeffs[2 * bit_reverse(1, 7)] == 1
    assert sum(b.coeffs) == 1
    a = Polynomial.delta("kyber", index=3, domain=DOMAIN_NTT)   # pair 1, slot 1
    b = bit_reverse_permutation(a)
    assert b.coeffs[2 * bit_reverse(1, 7) + 1] == 1


def test_bit_reverse_permutation_rejects_bad_width():
    a = Polynomial.random("kyber", RNG, domain=DOMAIN_NTT)
    with pytest.raises(TypeError):  # the scheme fixes the width
        bit_reverse_permutation(a, 8)
    with pytest.raises(ValueError):
        bit_reverse_permutation(Polynomial.random("kyber", RNG))


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
    # Any integer sequence is stored as a tuple of ints: equal and hashable.
    listed = Polynomial([0] * 256, "kyber")
    assert type(listed.coeffs) is tuple
    assert listed == Polynomial.zero("kyber")
    assert hash(listed) == hash(Polynomial.zero("kyber"))


def test_direct_ntt_trivial_inputs():
    for scheme in SCHEMES:
        z = Polynomial.zero(scheme)
        out = direct_ntt(z, SCHEMES[scheme])
        assert out.coeffs == (0,) * 256 and out.domain == DOMAIN_NTT
    # delta at 0 hits only the gamma^0 * omega^0 terms of each sub-transform
    d = direct_ntt(Polynomial.delta("dilithium"), DILITHIUM)
    assert d.coeffs == (1,) * 256
    k = direct_ntt(Polynomial.delta("kyber"), KYBER)
    assert k.coeffs == tuple(1 if i % 2 == 0 else 0 for i in range(256))


def test_direct_intt_trivial_inputs():
    ones = Polynomial((1,) * 256, "dilithium", DOMAIN_NTT)
    back = direct_intt(ones, DILITHIUM)
    assert back.coeffs == (1,) + (0,) * 255
    assert direct_intt(Polynomial.zero("kyber", DOMAIN_NTT), KYBER).coeffs \
        == (0,) * 256


def test_direct_roundtrip_and_linearity():
    for scheme, p in SCHEMES.items():
        for _ in range(25):
            a = Polynomial.random(scheme, RNG)
            b = Polynomial.random(scheme, RNG)
            fa = direct_ntt(a, p)
            assert direct_intt(fa, p).coeffs == a.coeffs
            fb = direct_ntt(b, p)
            assert poly_add(fa, fb).coeffs == \
                direct_ntt(poly_add(a, b), p).coeffs


def test_schoolbook_identity_and_wraparound():
    for scheme in SCHEMES:
        a = Polynomial.random(scheme, RNG)
        one = Polynomial.delta(scheme)
        assert schoolbook_negacyclic(a, one).coeffs == a.coeffs
        # X * X^255 = X^256 = -1
        x = Polynomial.delta(scheme, index=1)
        x255 = Polynomial.delta(scheme, index=255)
        prod = schoolbook_negacyclic(x, x255)
        q = SCHEMES[scheme].q
        assert prod.coeffs == (q - 1,) + (0,) * 255


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


def test_convolution_theorem_both_orders():
    """intt(pwm(ntt(a), ntt(b))) == schoolbook(a, b), in standard order and
    (via the permutation) in bit-reversed order."""
    for scheme, p in SCHEMES.items():
        for _ in range(10):
            a = Polynomial.random(scheme, RNG)
            b = Polynomial.random(scheme, RNG)
            want = schoolbook_negacyclic(a, b)
            fa = direct_ntt(a, p)
            fb = direct_ntt(b, p)
            prod = reference_pwm(fa, fb)
            assert direct_intt(prod, p).coeffs == want.coeffs
            # same through the bit-reversed domain
            fa_br = bit_reverse_permutation(fa)
            fb_br = bit_reverse_permutation(fb)
            prod_br = reference_pwm(fa_br, fb_br)
            assert bit_reverse_permutation(prod_br).coeffs == prod.coeffs


def test_reference_pwm_domain_rules():
    a = Polynomial.random("kyber", RNG)
    with pytest.raises(ValueError):
        reference_pwm(a, a)  # normal domain is not a spectral domain
    fa = direct_ntt(a, KYBER)
    with pytest.raises(ValueError):
        reference_pwm(fa, bit_reverse_permutation(fa))  # mixed orders


def test_poly_add_sub_roundtrip():
    for scheme in SCHEMES:
        a = Polynomial.random(scheme, RNG)
        b = Polynomial.random(scheme, RNG)
        assert poly_sub(poly_add(a, b), b).coeffs == a.coeffs
        assert poly_add(poly_sub(a, b), b).coeffs == a.coeffs
