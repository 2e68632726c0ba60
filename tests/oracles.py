"""Oracles that only the tests read, kept out of the package."""

from kdntt.core_arith import SCHEMES


def kyber_basecase_ref(a_pair: tuple[int, int], b_pair: tuple[int, int],
                       psi: int) -> tuple[int, int]:
    """Degree-1 product mod (X**2 - psi), Kyber's PWM basecase.

    res0 = a0*b0 + a1*b1*psi, res1 = a0*b1 + a1*b0.  Plain wide-integer
    arithmetic; psi in the normal domain.  reference_pwm_columns states
    the same formula over arrays.
    """
    q = SCHEMES["kyber"].q
    a0, a1 = a_pair
    b0, b1 = b_pair
    if not all(0 <= v < q for v in (a0, a1, b0, b1, psi)):
        raise ValueError(f"basecase operands must be in [0, {q})")
    res0 = (a0 * b0 + a1 * b1 % q * psi) % q
    res1 = (a0 * b1 + a1 * b0) % q
    return res0, res1
