"""Shared fixtures."""

import types

import pytest

from kdntt import bfu
from kdntt.core_arith import KYBER_PAIR


@pytest.fixture
def count_mults(monkeypatch):
    """count_mults() starts a fresh tally of the unified unit's
    multiplications and returns it.  It wraps kdntt.bfu.dual_lane_mult,
    which unified_bfu_step looks up at call time: a Kyber pass adds 2 to
    kyber_mults (one product per lane), a Dilithium pass 1 to
    dilithium_mults (its two 23x12 partials make one product)."""
    mult = bfu.dual_lane_mult

    def start():
        tally = types.SimpleNamespace(kyber_mults=0, dilithium_mults=0)

        def counted(x, y, mode):
            out = mult(x, y, mode)
            if mode == KYBER_PAIR:
                tally.kyber_mults += 2
            else:
                tally.dilithium_mults += 1
            return out

        monkeypatch.setattr(bfu, "dual_lane_mult", counted)
        return tally

    return start
