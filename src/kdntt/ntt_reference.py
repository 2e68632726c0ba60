"""Slow, obviously-correct reference transforms and oracles.

Everything in this module is O(n**2) and written for clarity: direct
evaluation of the transforms from their defining sums, schoolbook
negacyclic multiplication, and the pointwise product of two spectra
(for Kyber, FIPS 203's degree-1 basecase on each pair).
The fast paths (bfu, pipeline_sim) are always tested against these.
Each oracle is written once, over an int64 (256, batch) array with a
column per polynomial, so verify checks a whole batch in one call;
direct_ntt, direct_intt, schoolbook_negacyclic and reference_pwm are
one-column calls of those bodies.  The oracles stay naive: no
butterfly and no Montgomery arithmetic.  The direct transforms (one
matrix product) and the schoolbook (one convolution per column) work in
float64 on residues centred into (-q/2, q/2]: a term is below 2**44 and
a sum of up to 256 terms below 2**52 < 2**53, so both are exact.
numpy is imported only inside the functions that use it, never at
module level, so the CLI's simulator commands start without paying for
it.  The module imports only core_arith, where Polynomial lives.

Spectral order.  The one spectral domain, ``ntt-br``, is the NTT of
FIPS 203 (ML-KEM) and FIPS 204 (ML-DSA): entry k (for Kyber, pair k of
the interleaved even/odd sub-transforms) is the value at
root**(2*bitrev(k)+1), with bitrev on ``layers`` bits (8 for Dilithium,
7 for Kyber).  The in-place transforms and the simulated core emit the
same order, so the oracles state the standards' defining formula, and
ML-KEM/ML-DSA NTT vectors compare with the core's output directly.
"""

from __future__ import annotations

from functools import lru_cache

from .core_arith import (
    DOMAIN_NORMAL,
    DOMAIN_NTT_BR,
    N,
    ModulusParams,
    Polynomial,
    _check_operand_tags,
    _from_columns,
    as_columns,
    bit_reverse,
    to_mont,
)


# ---------------------------------------------------------------------------
# The ROM twiddles (Montgomery-scaled), kept here while perfbench reads them.
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
# The oracles.  Each is written once, over an int64 (256, batch) array with
# a column per polynomial; the per-polynomial functions are one-column calls.
# ---------------------------------------------------------------------------

def _one_column(body, p, d_in: str, d_out: str, *polys) -> Polynomial:
    """A column oracle on p's d_in polynomials as one-column arrays."""
    _check_operand_tags(polys, p.scheme, d_in)
    (out,) = _from_columns(body(*(as_columns([a]) for a in polys), p),
                          p.scheme, d_out)
    return out


@lru_cache(maxsize=None)
def _direct_matrices(p: ModulusParams) -> tuple[np.ndarray, np.ndarray]:
    """(forward, inverse) evaluation matrices in ``ntt-br`` order.

    forward[k, i] = root**(i*(2*bitrev(k)+1)); inverse folds n'**-1 in.
    Entries and coefficients are centred float64 in (-q/2, q/2], below
    2**22 in size: a term is < 2**44 and a partial sum of up to 256 terms
    < 2**52 < 2**53, exact in any summation order, with or without FMA.
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
    return _centred(fwd, p.q), _centred(inv, p.q)


def _centred(x: np.ndarray, q: int) -> np.ndarray:
    """Residues in [0, q) as float64 values in (-q/2, q/2]."""
    return (x - q * (x > q // 2)).astype("float64")


def _evaluate(x: np.ndarray, p: ModulusParams,
              matrix: np.ndarray) -> np.ndarray:
    """Apply matrix to each of the min_len interleaved coefficient streams
    (two for Kyber, one for Dilithium) of every column, results
    interleaved in place: (256, batch) is read as (256/min_len,
    min_len*batch), one matrix column per stream of a polynomial."""
    streams = _centred(x.reshape(-1, p.min_len * x.shape[1]), p.q)
    return ((matrix @ streams).astype("int64") % p.q).reshape(x.shape)


def direct_ntt_columns(x: np.ndarray, p: ModulusParams) -> np.ndarray:
    """direct_ntt of every column of x."""
    return _evaluate(x, p, _direct_matrices(p)[0])


def direct_intt_columns(x: np.ndarray, p: ModulusParams) -> np.ndarray:
    """direct_intt of every column of x."""
    return _evaluate(x, p, _direct_matrices(p)[1])


def direct_ntt(a: Polynomial, p: ModulusParams) -> Polynomial:
    """Evaluate the forward transform straight from its defining sum.

    Dilithium: out[k] = sum_i a[i] * root**(i*(2*bitrev8(k)+1)), a full
    256-point negacyclic transform.  Kyber: the same formula on 7 bits
    applied independently to the even and odd coefficient streams,
    results interleaved in place.  This is FIPS 204's and FIPS 203's NTT.
    """
    return _one_column(direct_ntt_columns, p, DOMAIN_NORMAL, DOMAIN_NTT_BR, a)


def direct_intt(a: Polynomial, p: ModulusParams) -> Polynomial:
    """Inverse of direct_ntt, with the explicit n'**-1 scaling built in."""
    return _one_column(direct_intt_columns, p, DOMAIN_NTT_BR, DOMAIN_NORMAL, a)


def schoolbook_columns(x: np.ndarray, y: np.ndarray,
                       p: ModulusParams) -> np.ndarray:
    """schoolbook_negacyclic of every column pair of x and y."""
    import numpy as np
    x, y = _centred(x, p.q), _centred(y, p.q)
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        # Centred terms are below 2**44 in size and an output sums 256 of
        # them, below 2**52 < 2**53: float64 is exact in any order.
        conv = np.convolve(x[:, j], y[:, j])
        out[:, j] = conv[:N]
        out[: N - 1, j] -= conv[N:]
    return out.astype("int64") % p.q


def schoolbook_negacyclic(a: Polynomial, b: Polynomial) -> Polynomial:
    """c_k = sum_{i+j=k} a_i b_j - sum_{i+j=k+n} a_i b_j  (mod q).

    The end-to-end ground truth: multiplication in Z_q[x]/(X^256 + 1) by
    plain convolution with the wrap-around terms negated.
    """
    return _one_column(schoolbook_columns, a.params, DOMAIN_NORMAL,
                       DOMAIN_NORMAL, a, b)


@lru_cache(maxsize=None)
def _basemul_psi(p: ModulusParams) -> np.ndarray:
    """Kyber's pair roots psi_i = root**(2*bitrev7(i)+1) as a column."""
    import numpy as np
    return np.array([[pow(p.root, 2 * bit_reverse(i, p.layers) + 1, p.q)]
                     for i in range(N // 2)], np.int64)


def reference_pwm_columns(x: np.ndarray, y: np.ndarray,
                          p: ModulusParams) -> np.ndarray:
    """reference_pwm of every column pair of x and y."""
    if p.scheme == "dilithium":
        return x * y % p.q
    import numpy as np
    q, psi = p.q, _basemul_psi(p)
    out = np.empty_like(x)
    a0, a1, b0, b1 = x[0::2], x[1::2], y[0::2], y[1::2]
    out[0::2] = (a0 * b0 + a1 * b1 % q * psi) % q
    out[1::2] = (a0 * b1 + a1 * b0) % q
    return out


def reference_pwm(a: Polynomial, b: Polynomial) -> Polynomial:
    """Pointwise product of two spectral polynomials (plain arithmetic).

    For Kyber, pair i is multiplied mod (X**2 - psi) with
    psi = root**(2*bitrev7(i)+1): FIPS 203's MultiplyNTTs.
    """
    return _one_column(reference_pwm_columns, a.params, DOMAIN_NTT_BR,
                       DOMAIN_NTT_BR, a, b)
