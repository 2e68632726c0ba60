"""Bit-exact unified NTT polynomial multiplication for Kyber and Dilithium.

The package has three layers:

- arithmetic and the Polynomial value type (core_arith), and the slow,
  obviously-correct oracles over them (ntt_reference);
- the hardware datapath model (bfu, memory_map): the unified butterfly
  unit, twiddle/address ROM generation, and the conflict-free two-bank
  access schedule;
- the cycle-accurate simulator (pipeline_sim) and a CLI (cli) on top.
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
    bit_reverse,
    from_mont,
    mod_add,
    mod_add_half,
    mod_sub,
    mont_mul,
    mont_redc,
    shared_add_sub,
    to_mont,
)
from .ntt_reference import (
    direct_intt,
    direct_ntt,
    reference_pwm,
    schoolbook_negacyclic,
)
from .bfu import (
    BfuIo,
    ct_butterfly,
    dilithium_pwm,
    fast_ntt,
    gs_butterfly_halving,
    kyber_pwm_pair,
    unified_bfu_step,
)
from .memory_map import (
    DESIGNS,
    BramEstimate,
    DesignGeometry,
    MemoryGeometry,
    TwiddleRom,
    build_rom_images,
    build_twiddle_rom,
    check_conflict_free,
    estimate_bram_usage,
    generate_addresses,
    initial_layout,
    transformed_layout,
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
    "BfuIo", "BramEstimate", "CoreConfig", "DESIGNS", "DILITHIUM", "DOMAINS",
    "DOMAIN_NORMAL", "DOMAIN_NTT_BR", "DesignGeometry", "KYBER",
    "MemoryGeometry", "ModulusParams", "N", "OP_INTT", "OP_NTT",
    "OP_POLYMUL", "OP_PWM", "Polynomial", "SCHEMES", "SIM_OPS",
    "SimReport", "TwiddleRom", "bit_reverse", "build_rom_images",
    "build_twiddle_rom", "check_conflict_free", "ct_butterfly",
    "dilithium_pwm", "direct_intt", "direct_ntt", "estimate_bram_usage",
    "fast_ntt", "from_mont", "generate_addresses", "gs_butterfly_halving",
    "initial_layout", "kyber_pwm_pair", "latency_model", "mod_add",
    "mod_add_half", "mod_sub", "mont_mul", "mont_redc", "reference_pwm",
    "run_batch", "run_op", "run_polymul", "schoolbook_negacyclic",
    "shared_add_sub", "to_mont", "transformed_layout", "unified_bfu_step",
]
