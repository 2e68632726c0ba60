"""Bit-exact unified NTT polynomial multiplication for Kyber and Dilithium.

The package has three layers:

- arithmetic and the Polynomial value type (core_arith), and the slow,
  obviously-correct oracles over them (ntt_reference);
- the hardware datapath model (bfu, memory_map): the unified butterfly
  unit, twiddle/address ROM generation, and the conflict-free two-bank
  access schedule;
- the cycle-accurate simulator (pipeline_sim) and a CLI (cli) on top.

``from kdntt import`` gives the checked API: the drivers (run_op,
run_polymul, run_batch, latency_model), CoreConfig and SimReport with
the ops, Polynomial and the scheme parameters, the four oracles, and
the ROM and BRAM tools.  Each rejects a bad input with ValueError, also
under ``python -O``.  The per-lane primitives, the schedule builders and
the unified unit stay module functions (kdntt.core_arith, kdntt.bfu,
kdntt.memory_map) whose range checks are asserts, so they are unchecked
under -O: checking them always would cost run_polymul about 13%
(CPython 3.11.7, 2-vCPU x86_64; README gives the figures).
"""

from .core_arith import (
    DILITHIUM,
    DOMAIN_NORMAL,
    DOMAIN_NTT_BR,
    DOMAINS,
    KYBER,
    ModulusParams,
    N,
    Polynomial,
    SCHEMES,
)
from .ntt_reference import (
    direct_intt,
    direct_ntt,
    reference_pwm,
    schoolbook_negacyclic,
)
from .memory_map import (
    DESIGNS,
    BramEstimate,
    DesignGeometry,
    MemoryGeometry,
    TwiddleRom,
    build_rom_images,
    build_twiddle_rom,
    estimate_bram_usage,
)
from .pipeline_sim import (
    OP_INTT,
    OP_NTT,
    OP_POLYMUL,
    OP_PWM,
    SIM_OPS,
    CoreConfig,
    SimReport,
    latency_model,
    run_batch,
    run_op,
    run_polymul,
)

__version__ = "0.1.0"

__all__ = [
    "BramEstimate", "CoreConfig", "DESIGNS", "DILITHIUM", "DOMAINS",
    "DOMAIN_NORMAL", "DOMAIN_NTT_BR", "DesignGeometry", "KYBER",
    "MemoryGeometry", "ModulusParams", "N", "OP_INTT", "OP_NTT",
    "OP_POLYMUL", "OP_PWM", "Polynomial", "SCHEMES", "SIM_OPS",
    "SimReport", "TwiddleRom", "build_rom_images", "build_twiddle_rom",
    "direct_intt", "direct_ntt", "estimate_bram_usage", "latency_model",
    "reference_pwm", "run_batch", "run_op", "run_polymul",
    "schoolbook_negacyclic",
]
