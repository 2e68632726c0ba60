"""Slow, obviously-correct reference transforms and oracles.

Everything in this module is O(n**2) and written for clarity: direct
evaluation of the transforms from their defining sums, schoolbook
negacyclic multiplication, and the Kyber degree-1 basecase product.
The fast paths (bfu, pipeline_sim) are always tested against these.

Order conventions.  ``ntt`` (standard order) indexes spectral values by
ascending evaluation point: entry j corresponds to the root gamma**(2j+1)
(for Kyber, pair j of the interleaved even/odd sub-transforms).  The fast
in-place transforms produce ``ntt-br`` (bit-reversed) order instead:
elementwise reversal on 8 bits for Dilithium, pairwise on 7 bits for
Kyber.  ``bit_reverse_permutation`` converts between the two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core_arith import (
    N,
    SCHEMES,
    ModulusParams,
    mod_add,
    mod_sub,
    to_mont,
)

DOMAIN_NORMAL = "normal"
DOMAIN_NTT = "ntt"  # standard (ascending evaluation-point) order
DOMAIN_NTT_BR = "ntt-br"  # bit-reversed order, as the fast/hardware path emits
DOMAINS = (DOMAIN_NORMAL, DOMAIN_NTT, DOMAIN_NTT_BR)


@dataclass(frozen=True)
class Polynomial:
    """A length-256 coefficient vector tagged with scheme and ordering."""

    coeffs: tuple[int, ...]
    scheme: str
    domain: str = DOMAIN_NORMAL

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        if len(self.coeffs) != N:
            raise ValueError(f"expected {N} coefficients, got {len(self.coeffs)}")
        q = SCHEMES[self.scheme].q
        for i, c in enumerate(self.coeffs):
            if not 0 <= c < q:
                raise ValueError(f"coefficient {i} = {c} out of range [0, {q})")

    @property
    def params(self) -> ModulusParams:
        return SCHEMES[self.scheme]

    def with_coeffs(self, coeffs, domain: str | None = None) -> "Polynomial":
        return Polynomial(tuple(int(c) for c in coeffs), self.scheme,
                          self.domain if domain is None else domain)

    @classmethod
    def zero(cls, scheme: str, domain: str = DOMAIN_NORMAL) -> "Polynomial":
        return cls((0,) * N, scheme, domain)

    @classmethod
    def delta(cls, scheme: str, index: int = 0, value: int = 1,
              domain: str = DOMAIN_NORMAL) -> "Polynomial":
        coeffs = [0] * N
        coeffs[index] = value
        return cls(tuple(coeffs), scheme, domain)

    @classmethod
    def random(cls, scheme: str, rng: random.Random,
               domain: str = DOMAIN_NORMAL) -> "Polynomial":
        q = SCHEMES[scheme].q
        return cls(tuple(rng.randrange(q) for _ in range(N)), scheme, domain)


def bit_reverse(i: int, width: int) -> int:
    """Reverse the low ``width`` bits of ``i``."""
    assert 0 <= i < (1 << width)
    out = 0
    for _ in range(width):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


def bit_reverse_permutation(a: Polynomial) -> Polynomial:
    """Swap a spectral polynomial between standard and bit-reversed order.

    The scheme fixes the ordering: blocks of min_len coefficients move as
    units, indexed on ``layers`` bits — all 256 entries on 8 bits for
    Dilithium's full transform, the 128 degree-1 *pairs* on 7 bits for
    Kyber's incomplete one.  Involution.
    """
    if a.domain == DOMAIN_NORMAL:
        raise ValueError("bit reversal applies to spectral (ntt/ntt-br) data")
    p = a.params
    blk = p.min_len
    out = [0] * N
    for i in range(N // blk):
        j = bit_reverse(i, p.layers) * blk
        out[j: j + blk] = a.coeffs[i * blk: i * blk + blk]
    flipped = DOMAIN_NTT_BR if a.domain == DOMAIN_NTT else DOMAIN_NTT
    return a.with_coeffs(out, domain=flipped)


# ---------------------------------------------------------------------------
# Twiddle tables (Montgomery-scaled), shared by the fast paths and the ROMs.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def forward_zetas(p: ModulusParams) -> tuple[int, ...]:
    """forward_zetas(p)[k] = (root**bitrev(k)) * R mod q.

    Index k is the butterfly-group index used by every forward layer:
    layer of length L uses k = 128//L + group.  Entry 0 decodes to 1.
    """
    width = p.layers
    return tuple(
        to_mont(pow(p.root, bit_reverse(k, width), p.q), p)
        for k in range(1 << width)
    )


@lru_cache(maxsize=None)
def inverse_zetas(p: ModulusParams) -> tuple[int, ...]:
    """Inverse twiddles with the stage halving folded in.

    Entry k = (root**-bitrev(k)) * 2**-1 * R mod q, so a Gentleman-Sande
    butterfly multiplies by w**-1/2 in one go and the per-stage halvings
    accumulate to exactly n'**-1 over all layers — no separate scaling
    pass exists anywhere.
    """
    width = p.layers
    return tuple(
        to_mont(pow(p.root, -bit_reverse(k, width), p.q) * p.inv2 % p.q, p)
        for k in range(1 << width)
    )


@lru_cache(maxsize=None)
def basemul_zetas(p: ModulusParams) -> tuple[int, ...]:
    """Kyber PWM roots, bit-reversed order: psi_i = root**(2*bitrev7(i)+1).

    Montgomery-scaled so the products they feed stay domain-correct.
    Dilithium's pointwise multiply needs no per-pair root; empty there.
    """
    if p.scheme != "kyber":
        return ()
    return tuple(
        to_mont(pow(p.root, 2 * bit_reverse(i, 7) + 1, p.q), p)
        for i in range(128)
    )


# ---------------------------------------------------------------------------
# Direct O(n^2) transforms.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _direct_matrices(p: ModulusParams) -> tuple[np.ndarray, np.ndarray]:
    """(forward, inverse) evaluation matrices in standard spectral order.

    forward[j, i] = root**(i*(2j+1)); inverse folds n'**-1 in.  Entries and
    coefficients are < 2**23, so a 256-term dot product stays < 2**54 and
    int64 accumulation is exact.
    """
    half = p.root_order // 2  # points per sub-transform: 128 (K), 256 (D)
    powers = [pow(p.root, e, p.q) for e in range(p.root_order)]
    idx = np.arange(half, dtype=np.int64)
    exps = np.outer(2 * idx + 1, idx) % p.root_order
    fwd = np.array(powers, dtype=np.int64)[exps]
    n_inv = pow(half, -1, p.q)
    inv_powers = [pow(p.root, -e, p.q) * n_inv % p.q for e in range(p.root_order)]
    inv = np.array(inv_powers, dtype=np.int64)[exps.T]
    return fwd, inv


def direct_ntt(a: Polynomial, p: ModulusParams) -> Polynomial:
    """Evaluate the forward transform straight from its defining sum.

    Dilithium: out[j] = sum_i a[i] * root**(i*(2j+1)), a full 256-point
    negacyclic transform.  Kyber: the same 128-point formula applied
    independently to the even and odd coefficient streams, results
    interleaved in place.  Output is standard spectral order.
    """
    if a.scheme != p.scheme:
        raise ValueError("polynomial/params scheme mismatch")
    if a.domain != DOMAIN_NORMAL:
        raise ValueError("direct_ntt expects a normal-domain polynomial")
    fwd, _ = _direct_matrices(p)
    c = np.array(a.coeffs, dtype=np.int64)
    if p.scheme == "dilithium":
        out = (fwd @ c) % p.q
    else:
        out = np.empty(N, dtype=np.int64)
        out[0::2] = (fwd @ c[0::2]) % p.q
        out[1::2] = (fwd @ c[1::2]) % p.q
    return a.with_coeffs(out, domain=DOMAIN_NTT)


def direct_intt(a: Polynomial, p: ModulusParams) -> Polynomial:
    """Inverse of direct_ntt, with the explicit n'**-1 scaling built in."""
    if a.scheme != p.scheme:
        raise ValueError("polynomial/params scheme mismatch")
    if a.domain != DOMAIN_NTT:
        raise ValueError("direct_intt expects standard spectral order")
    _, inv = _direct_matrices(p)
    c = np.array(a.coeffs, dtype=np.int64)
    if p.scheme == "dilithium":
        out = (inv @ c) % p.q
    else:
        out = np.empty(N, dtype=np.int64)
        out[0::2] = (inv @ c[0::2]) % p.q
        out[1::2] = (inv @ c[1::2]) % p.q
    return a.with_coeffs(out, domain=DOMAIN_NORMAL)


def schoolbook_negacyclic(a: Polynomial, b: Polynomial) -> Polynomial:
    """c_k = sum_{i+j=k} a_i b_j - sum_{i+j=k+n} a_i b_j  (mod q).

    The end-to-end ground truth: multiplication in Z_q[x]/(X^256 + 1) by
    plain convolution with the wrap-around terms negated.
    """
    if a.scheme != b.scheme:
        raise ValueError("scheme mismatch")
    if a.domain != DOMAIN_NORMAL or b.domain != DOMAIN_NORMAL:
        raise ValueError("schoolbook multiplication needs normal-domain inputs")
    q = a.params.q
    # Largest term: 256 * (q-1)**2 < 2**54 for Dilithium — int64 is exact.
    conv = np.convolve(np.array(a.coeffs, dtype=np.int64),
                       np.array(b.coeffs, dtype=np.int64))
    out = conv[:N].copy()
    out[: N - 1] -= conv[N:]
    return a.with_coeffs(out % q)


def _schoolbook_slow(a: Polynomial, b: Polynomial) -> Polynomial:
    """Pure-python schoolbook used to cross-check the vectorized one."""
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
    return a.with_coeffs(out)


def kyber_basecase_ref(a_pair: tuple[int, int], b_pair: tuple[int, int],
                       psi: int) -> tuple[int, int]:
    """Degree-1 product mod (X**2 - psi), Kyber's PWM basecase.

    res0 = a0*b0 + a1*b1*psi, res1 = a0*b1 + a1*b0.  Plain wide-integer
    arithmetic; psi in the normal domain.
    """
    q = 3329
    a0, a1 = a_pair
    b0, b1 = b_pair
    assert all(0 <= v < q for v in (a0, a1, b0, b1, psi))
    res0 = (a0 * b0 + a1 * b1 % q * psi) % q
    res1 = (a0 * b1 + a1 * b0) % q
    return res0, res1


def reference_pwm(a: Polynomial, b: Polynomial) -> Polynomial:
    """Pointwise product of two spectral polynomials (plain arithmetic).

    Works in either spectral order as long as both inputs share it.  For
    Kyber, pair i is multiplied mod (X**2 - psi) where psi's exponent
    follows the ordering: 2i+1 in standard order, 2*bitrev7(i)+1 in
    bit-reversed order.
    """
    if a.scheme != b.scheme or a.domain != b.domain:
        raise ValueError("operands must share scheme and spectral order")
    if a.domain == DOMAIN_NORMAL:
        raise ValueError("pointwise multiplication operates on spectral data")
    p = a.params
    if p.scheme == "dilithium":
        out = [ai * bi % p.q for ai, bi in zip(a.coeffs, b.coeffs)]
        return a.with_coeffs(out)
    out = [0] * N
    for i in range(128):
        e = 2 * i + 1 if a.domain == DOMAIN_NTT else 2 * bit_reverse(i, 7) + 1
        psi = pow(p.root, e, p.q)
        out[2 * i], out[2 * i + 1] = kyber_basecase_ref(
            (a.coeffs[2 * i], a.coeffs[2 * i + 1]),
            (b.coeffs[2 * i], b.coeffs[2 * i + 1]),
            psi,
        )
    return a.with_coeffs(out)


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    """Coefficient-wise modular sum (used by linearity properties)."""
    if a.scheme != b.scheme or a.domain != b.domain:
        raise ValueError("operands must share scheme and domain")
    q = a.params.q
    return a.with_coeffs(mod_add(x, y, q) for x, y in zip(a.coeffs, b.coeffs))


def poly_sub(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.scheme != b.scheme or a.domain != b.domain:
        raise ValueError("operands must share scheme and domain")
    q = a.params.q
    return a.with_coeffs(mod_sub(x, y, q) for x, y in zip(a.coeffs, b.coeffs))
