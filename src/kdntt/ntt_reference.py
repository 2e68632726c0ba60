"""Slow, obviously-correct reference transforms and oracles.

Everything in this module is O(n**2) and written for clarity: direct
evaluation of the transforms from their defining sums, schoolbook
negacyclic multiplication, and the Kyber degree-1 basecase product.
The fast paths (bfu, pipeline_sim) are always tested against these.
numpy is imported only inside the functions that use it, never at module
level, so the CLI's simulator commands start without paying for it.

Spectral order.  The one spectral domain, ``ntt-br``, is the NTT of
FIPS 203 (ML-KEM) and FIPS 204 (ML-DSA): entry k (for Kyber, pair k of
the interleaved even/odd sub-transforms) is the value at
root**(2*bitrev(k)+1), with bitrev on ``layers`` bits (8 for Dilithium,
7 for Kyber).  The in-place transforms and the simulated core emit the
same order, so the oracles state the standards' defining formula, and
ML-KEM/ML-DSA NTT vectors compare with the core's output directly.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import lru_cache

from .core_arith import (
    N,
    SCHEMES,
    ModulusParams,
    to_mont,
)

DOMAIN_NORMAL = "normal"
DOMAIN_NTT_BR = "ntt-br"  # the FIPS 203/204 NTT order, as the core emits
DOMAINS = (DOMAIN_NORMAL, DOMAIN_NTT_BR)


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
        try:
            coeffs = tuple(map(operator.index, self.coeffs))
        except TypeError:
            raise ValueError("coefficients must be integers") from None
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != N:
            raise ValueError(f"expected {N} coefficients, got {len(coeffs)}")
        q = SCHEMES[self.scheme].q
        for i, c in enumerate(coeffs):
            if not 0 <= c < q:
                raise ValueError(f"coefficient {i} = {c} out of range [0, {q})")

    @property
    def params(self) -> ModulusParams:
        return SCHEMES[self.scheme]

    def with_coeffs(self, coeffs, domain: str | None = None) -> "Polynomial":
        return Polynomial(coeffs, self.scheme,
                          self.domain if domain is None else domain)

    @classmethod
    def zero(cls, scheme: str, domain: str = DOMAIN_NORMAL) -> "Polynomial":
        return cls((0,) * N, scheme, domain)

    @classmethod
    def delta(cls, scheme: str, index: int = 0, value: int = 1,
              domain: str = DOMAIN_NORMAL) -> "Polynomial":
        if not 0 <= index < N:
            raise ValueError(f"delta index {index} outside [0, {N})")
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
    if not 0 <= i < (1 << width):
        raise ValueError(f"{i} does not fit in {width} bits")
    out = 0
    for _ in range(width):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


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
    """(forward, inverse) evaluation matrices in ``ntt-br`` order.

    forward[k, i] = root**(i*(2*bitrev(k)+1)); inverse folds n'**-1 in.
    Entries and coefficients are < 2**23, so a 256-term dot product stays
    < 2**54 and int64 accumulation is exact.
    """
    import numpy as np
    half = p.root_order // 2  # points per sub-transform: 128 (K), 256 (D)
    powers = [pow(p.root, e, p.q) for e in range(p.root_order)]
    points = [2 * bit_reverse(k, p.layers) + 1 for k in range(half)]
    exps = np.outer(points, np.arange(half, dtype=np.int64)) % p.root_order
    fwd = np.array(powers, dtype=np.int64)[exps]
    n_inv = pow(half, -1, p.q)
    inv_powers = [pow(p.root, -e, p.q) * n_inv % p.q for e in range(p.root_order)]
    inv = np.array(inv_powers, dtype=np.int64)[exps.T]
    return fwd, inv


def _evaluate(a: Polynomial, p: ModulusParams, matrix: np.ndarray,
              domains: tuple[str, str]) -> Polynomial:
    """Apply matrix to each of the min_len interleaved coefficient
    streams (two for Kyber, one for Dilithium), results interleaved in
    place.  The input must be in domains[0]; the result is domains[1]."""
    if a.scheme != p.scheme:
        raise ValueError("polynomial/params scheme mismatch")
    if a.domain != domains[0]:
        raise ValueError(f"expected a {domains[0]!r} polynomial, "
                         f"got {a.domain!r}")
    import numpy as np
    streams = np.array(a.coeffs, dtype=np.int64).reshape(-1, p.min_len)
    return a.with_coeffs(((matrix @ streams) % p.q).ravel(),
                         domain=domains[1])


def direct_ntt(a: Polynomial, p: ModulusParams) -> Polynomial:
    """Evaluate the forward transform straight from its defining sum.

    Dilithium: out[k] = sum_i a[i] * root**(i*(2*bitrev8(k)+1)), a full
    256-point negacyclic transform.  Kyber: the same formula on 7 bits
    applied independently to the even and odd coefficient streams,
    results interleaved in place.  This is FIPS 204's and FIPS 203's NTT.
    """
    return _evaluate(a, p, _direct_matrices(p)[0],
                     (DOMAIN_NORMAL, DOMAIN_NTT_BR))


def direct_intt(a: Polynomial, p: ModulusParams) -> Polynomial:
    """Inverse of direct_ntt, with the explicit n'**-1 scaling built in."""
    return _evaluate(a, p, _direct_matrices(p)[1],
                     (DOMAIN_NTT_BR, DOMAIN_NORMAL))


def schoolbook_negacyclic(a: Polynomial, b: Polynomial) -> Polynomial:
    """c_k = sum_{i+j=k} a_i b_j - sum_{i+j=k+n} a_i b_j  (mod q).

    The end-to-end ground truth: multiplication in Z_q[x]/(X^256 + 1) by
    plain convolution with the wrap-around terms negated.
    """
    if a.scheme != b.scheme:
        raise ValueError("scheme mismatch")
    if a.domain != DOMAIN_NORMAL or b.domain != DOMAIN_NORMAL:
        raise ValueError("schoolbook multiplication needs normal-domain inputs")
    import numpy as np
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

    For Kyber, pair i is multiplied mod (X**2 - psi) with
    psi = root**(2*bitrev7(i)+1): FIPS 203's MultiplyNTTs.
    """
    if a.scheme != b.scheme:
        raise ValueError("operands must share a scheme")
    if a.domain != DOMAIN_NTT_BR or b.domain != DOMAIN_NTT_BR:
        raise ValueError("pointwise multiplication operates on spectral data")
    p = a.params
    if p.scheme == "dilithium":
        out = [ai * bi % p.q for ai, bi in zip(a.coeffs, b.coeffs)]
        return a.with_coeffs(out)
    out = [0] * N
    for i in range(128):
        psi = pow(p.root, 2 * bit_reverse(i, 7) + 1, p.q)
        out[2 * i], out[2 * i + 1] = kyber_basecase_ref(
            (a.coeffs[2 * i], a.coeffs[2 * i + 1]),
            (b.coeffs[2 * i], b.coeffs[2 * i + 1]),
            psi,
        )
    return a.with_coeffs(out)
