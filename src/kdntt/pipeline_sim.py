"""Cycle-accurate execution of transforms and products on a configured core.

Every scheduled cycle reads one word from each bank of a
memory_map.BankMemory, feeds the butterfly lanes, and writes the results
back to the same two rows; the bank memory delays each write by
pipeline_depth cycles and records any read of a row whose write is
still in flight as a hazard (the read sees the stale word, exactly like
the hardware would).  One loop runs every transform stage, word-pairing
and in-word alike: only the stage's butterfly list over the cycle's
two words differs.  Operands are addressed by region (a in 0, b in 1);
the bank memory alone decides where a region sits.

Latency accounting follows the convention of the published cycle
counts: busy_cycles counts issued butterfly/product cycles only
(forward or inverse transform = layers x d, pointwise = 4d for the
pair scheme, 2d for the single scheme), while pipeline fill/drain
stalls between dependent phases are reported separately as
fill_drain_cycles.  A full multiplication is NTT + PWM + INTT on the
a-operand stream; the b operand's forward transform is executed for
functional fidelity but excluded from both counters, matching the
published totals (448+256+448 and 1024+256+1024), which treat the
second operand as arriving pre-transformed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core_arith import SCHEMES, ModulusParams
from .ntt_reference import DOMAIN_NORMAL, DOMAIN_NTT_BR, Polynomial
from .bfu import (
    MODE_PWM0,
    MODE_PWM1,
    ct_butterfly,
    dilithium_pwm,
    gs_butterfly_halving,
    kyber_pwm_pair,
)
from .memory_map import (
    BANK_A,
    BANK_B,
    DESIGNS,
    BankMemory,
    Hazard,
    MemoryGeometry,
    build_twiddle_rom,
    estimate_bram_usage,
    initial_layout,
    pack_word,
    run_stages,
    scheme_program,
    transformed_layout,
    unpack_word,
)

OP_NTT = "ntt"
OP_INTT = "intt"
OP_PWM = "pwm"
OP_POLYMUL = "polymul"
SIM_OPS = (OP_NTT, OP_INTT, OP_PWM)


@dataclass(frozen=True)
class CoreConfig:
    """A shipped core design run at a pipeline depth."""

    design: str
    pipeline_depth: int

    def __post_init__(self) -> None:
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")
        bound = DESIGNS[self.design].max_pipeline_depth
        if (not isinstance(self.pipeline_depth, int)
                or not 1 <= self.pipeline_depth <= bound):
            raise ValueError(
                f"pipeline depth {self.pipeline_depth!r} is not an integer "
                f"in [1, {bound}] "
                f"for {self.design} (bound is half the smallest region depth)")

    @classmethod
    def for_design(cls, design: str,
                   pipeline_depth: int | None = None) -> "CoreConfig":
        if design not in DESIGNS:
            raise ValueError(f"unknown design {design!r}")
        return cls(design=design,
                   pipeline_depth=DESIGNS[design].pipeline_depth
                   if pipeline_depth is None else pipeline_depth)

    @property
    def kyber_bfus(self) -> int | None:
        return DESIGNS[self.design].kyber_t

    @property
    def dilithium_bfus(self) -> int | None:
        return DESIGNS[self.design].dilithium_t

    def geometry(self, scheme: str) -> MemoryGeometry:
        return DESIGNS[self.design].geometry(scheme)

    @property
    def schemes(self) -> tuple[str, ...]:
        return DESIGNS[self.design].schemes


@dataclass(frozen=True)
class SimReport:
    op: str
    scheme: str
    busy_cycles: int
    fill_drain_cycles: int
    hazards: tuple[Hazard, ...]
    bram_estimate: float

    @property
    def bfu_utilization(self) -> float:
        return 1.0 if self.busy_cycles else 0.0

    def to_text(self) -> str:
        return "\n".join([
            f"op={self.op}",
            f"scheme={self.scheme}",
            f"busy_cycles={self.busy_cycles}",
            f"fill_drain_cycles={self.fill_drain_cycles}",
            f"hazards={len(self.hazards)}",
            f"bfu_utilization={self.bfu_utilization:g}",
            f"bram_estimate={self.bram_estimate:g}",
        ]) + "\n"


def _butterflies(kind: str, span: int, t: int):
    """A stage's (lo slot, hi slot, twiddle offset) list over the 2t slots
    of a cycle's two words.  A mirror stage pairs slot s of the low word
    with slot s of the high one under one twiddle; an in-word stage of
    length L pairs slots inside each block of 2L, one twiddle per block
    counted across both words."""
    ell = t if kind == "mirror" else span
    return [(i, i + ell, i // (2 * ell))
            for i in range(2 * t) if i % (2 * ell) < ell]


def _run_transform(m: BankMemory, p: ModulusParams, geom: MemoryGeometry,
                   phase: str, region: int, twiddles) -> None:
    """Execute one ntt or intt phase through run_stages, a stage at a
    time: each cycle runs the stage's butterflies over its (low, high)
    words."""
    t, sb = geom.t, geom.slot_bits
    forward = phase == OP_NTT
    table = twiddles[0] if forward else twiddles[1]
    step = ct_butterfly if forward else gs_butterfly_halving

    def cycle(_stage, e, low, high):
        x = unpack_word(low, t, sb) + unpack_word(high, t, sb)
        for i, j, k in bfly:
            x[i], x[j] = step(x[i], x[j], table[e.tw_index + k], p)
        return pack_word(x[:t], sb), pack_word(x[t:], sb)

    for stage in getattr(scheme_program(geom), phase):
        bfly = _butterflies(stage.kind, stage.span, t)
        run_stages(m, (stage,), region, cycle)


def _run_pwm(m: BankMemory, p: ModulusParams, geom: MemoryGeometry,
             twiddles) -> None:
    """Pointwise stage: operand a in region 0, operand b in region 1.

    Dilithium multiplies and writes back in one cycle per word; Kyber
    spends a product cycle and then a combine cycle on each word.
    """
    t, sb = geom.t, geom.slot_bits
    psi = twiddles[2]
    kyber = p.scheme == "kyber"
    carries = None
    for i, e in enumerate(scheme_program(geom).pwm[0].entries):
        role = BANK_B if e.read_swap else BANK_A
        if kyber and i % 2:  # combine stage: psi products, assemble
            out = []
            for j, carry in enumerate(carries):
                out.extend(kyber_pwm_pair(MODE_PWM1, (0, 0), (0, 0),
                                          psi[e.tw_index + j], p,
                                          carry_state=carry))
            m.write(0, role, e.addr_a, pack_word(out, sb))
            carries = None
        else:  # read both operand words
            a = unpack_word(m.read(0, role, e.addr_a), t, sb)
            b = unpack_word(m.read(1, role, e.addr_b), t, sb)
            if kyber:
                carries = [
                    kyber_pwm_pair(MODE_PWM0, (a[2 * j], a[2 * j + 1]),
                                   (b[2 * j], b[2 * j + 1]), 0, p)
                    for j in range(t // 2)
                ]
            else:
                out = [dilithium_pwm(ai, bi, p) for ai, bi in zip(a, b)]
                m.write(0, role, e.addr_a, pack_word(out, sb))
        m.tick()


def _report(op, scheme, busy, fill_drain, m: BankMemory, cfg: CoreConfig,
            allow_hazards: bool) -> SimReport:
    if m.hazards and not allow_hazards:
        h = m.hazards[0]
        raise RuntimeError(
            f"memory hazard at cycle {h.cycle}: bank {h.bank} row {h.row} "
            f"read before its write lands at {h.lands_at}")
    return SimReport(op=op, scheme=scheme, busy_cycles=busy,
                     fill_drain_cycles=fill_drain,
                     hazards=tuple(m.hazards),
                     bram_estimate=estimate_bram_usage(cfg.design).total_units)


# op -> (input domain, output domain, program phases).  A domain fixes the
# bank layout the operands are loaded in or the result is read back from.
_OPS = {
    OP_NTT: (DOMAIN_NORMAL, DOMAIN_NTT_BR, (OP_NTT,)),
    OP_INTT: (DOMAIN_NTT_BR, DOMAIN_NORMAL, (OP_INTT,)),
    OP_PWM: (DOMAIN_NTT_BR, DOMAIN_NTT_BR, (OP_PWM,)),
    OP_POLYMUL: (DOMAIN_NORMAL, DOMAIN_NORMAL, (OP_NTT, OP_PWM, OP_INTT)),
}


def _layout(domain: str, d: int):
    return initial_layout(d) if domain == DOMAIN_NORMAL else transformed_layout(d)


def _run(cfg: CoreConfig, scheme: str, op: str, a: Polynomial,
         b: Polynomial | None, rom_override,
         allow_hazards: bool) -> tuple[Polynomial, SimReport]:
    """Load a (region 0) and b (region 1, Montgomery-scaled), run the
    op's phases with a drain after each, and read a's region back."""
    if scheme not in cfg.schemes:
        raise ValueError(f"design {cfg.design} has no {scheme} lanes")
    operands = (a,) if b is None else (a, b)
    if any(x.scheme != scheme for x in operands):
        raise ValueError("operand scheme does not match the run")
    d_in, d_out, phases = _OPS[op]
    if any(x.domain != d_in for x in operands):
        raise ValueError(f"{op} expects {d_in}-domain operands")
    p = SCHEMES[scheme]
    geom = cfg.geometry(scheme)
    tw = build_twiddle_rom(scheme)
    if rom_override is not None:
        if (tuple(map(len, rom_override)) != tuple(map(len, tw)) or not
                all(isinstance(v, int) and 0 <= v < p.q
                    for table in rom_override for v in table)):
            raise ValueError(f"rom_override must hold integer tables of "
                             f"lengths {tuple(map(len, tw))} in [0, {p.q})")
        tw = rom_override
    m = BankMemory(geom.d, cfg.pipeline_depth)
    layout_in = _layout(d_in, geom.d)
    m.load(a.coeffs, geom, 0, layout_in)
    if b is not None:
        m.load(b.coeffs, geom, 1, layout_in, mont=p)
    busy = fill_drain = 0
    for phase in phases:
        start = m.cycle
        if phase == OP_PWM:
            _run_pwm(m, p, geom, tw)
        else:
            _run_transform(m, p, geom, phase, 0, tw)
        busy += m.cycle - start
        if phase == OP_NTT and b is not None:
            # NTT(b) preparation: counted in neither total (see the
            # module docstring) and not drained apart from NTT(a).
            _run_transform(m, p, geom, OP_NTT, 1, tw)
        fill_drain += m.drain()
    out = a.with_coeffs(m.extract(geom, _layout(d_out, geom.d)),
                        domain=d_out)
    return out, _report(op, scheme, busy, fill_drain, m, cfg, allow_hazards)


def run_op(cfg: CoreConfig, scheme: str, op: str, a: Polynomial,
           b: Polynomial | None = None, rom_override=None,
           allow_hazards: bool = False) -> tuple[Polynomial, SimReport]:
    """Run a single forward/inverse transform or pointwise multiply.

    Input domain contract: ntt takes a normal-domain polynomial and
    yields bit-reversed spectral order; intt the reverse; pwm takes two
    bit-reversed spectral polynomials (b is Montgomery-prescaled at
    load, mirroring how a second operand would arrive pre-transformed).
    ntt and intt do not use b.
    """
    if op not in SIM_OPS:
        raise ValueError(f"unknown op {op!r}")
    if b is not None and b.scheme != scheme:
        raise ValueError("operand scheme does not match the run")
    if op == OP_PWM and b is None:
        raise ValueError("pwm needs two operands")
    return _run(cfg, scheme, op, a, b if op == OP_PWM else None,
                rom_override, allow_hazards)


def run_polymul(cfg: CoreConfig, scheme: str, a: Polynomial, b: Polynomial,
                rom_override=None,
                allow_hazards: bool = False) -> tuple[Polynomial, SimReport]:
    """Full negacyclic product on the core: NTT(a), PWM, INTT.

    Both inputs are normal-domain polynomials.  The b operand is loaded
    into region 1 and forward-transformed in place by the same program;
    those preparation cycles are excluded from both busy_cycles and
    fill_drain_cycles per the pre-transformed-operand accounting (see
    module docstring).  The result equals schoolbook_negacyclic(a, b)
    exactly.
    """
    return _run(cfg, scheme, OP_POLYMUL, a, b, rom_override, allow_hazards)


def latency_model(cfg: CoreConfig, scheme: str, op: str) -> int:
    """Busy-cycle count of an op: the length of its program phases."""
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    prog = scheme_program(cfg.geometry(scheme))
    return sum(prog.cycles(phase) for phase in _OPS[op][2])
