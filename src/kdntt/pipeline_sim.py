"""Cycle-accurate execution of transforms and products on a configured core.

The machine owns two bank arrays and a pending-write queue.  Every
scheduled cycle reads one word from each bank, feeds the butterfly
lanes, and queues the write-back to the same two rows; queued writes
become visible pipeline_depth cycles after issue, and a read that
touches a row whose write is still in flight is recorded as a hazard
(the read sees the stale word, exactly like the hardware would).

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

from .core_arith import SCHEMES, ModulusParams, to_mont
from .ntt_reference import (
    DOMAIN_NORMAL,
    DOMAIN_NTT_BR,
    Polynomial,
    basemul_zetas,
    forward_zetas,
    inverse_zetas,
)
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
    Hazard,
    MemoryGeometry,
    estimate_bram_usage,
    initial_layout,
    pack_word,
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
    """A shipped core configuration: lane counts plus pipeline depth."""

    design: str
    kyber_bfus: int | None
    dilithium_bfus: int | None
    pipeline_depth: int

    def __post_init__(self) -> None:
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")
        dg = DESIGNS[self.design]
        if (self.kyber_bfus, self.dilithium_bfus) != (dg.kyber_t, dg.dilithium_t):
            raise ValueError(f"lane counts do not match design {self.design}")
        bound = dg.max_pipeline_depth
        if not 1 <= self.pipeline_depth <= bound:
            raise ValueError(
                f"pipeline depth {self.pipeline_depth} outside [1, {bound}] "
                f"for {self.design} (bound is half the smallest region depth)")

    @classmethod
    def for_design(cls, design: str,
                   pipeline_depth: int | None = None) -> "CoreConfig":
        if design not in DESIGNS:
            raise ValueError(f"unknown design {design!r}")
        dg = DESIGNS[design]
        return cls(design=design, kyber_bfus=dg.kyber_t,
                   dilithium_bfus=dg.dilithium_t,
                   pipeline_depth=dg.pipeline_depth
                   if pipeline_depth is None else pipeline_depth)

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
    bfu_utilization: float
    bram_estimate: float

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


class _Machine:
    """Two banks plus the delayed write-back queue."""

    def __init__(self, d: int, pipeline_depth: int) -> None:
        self.d = d
        self.depth = pipeline_depth
        self.banks = [[0] * (2 * d), [0] * (2 * d)]
        self.pending: dict[tuple[int, int], tuple[int, int]] = {}
        self.cycle = 0
        self.hazards: list[Hazard] = []
        self.swap_banks = False  # role->physical flip for the b-operand pass

    def _phys(self, role: int) -> int:
        return role ^ 1 if self.swap_banks else role

    def _commit_if_landed(self, loc: tuple[int, int]) -> None:
        entry = self.pending.get(loc)
        if entry is not None and entry[0] <= self.cycle:
            self.banks[loc[0]][loc[1]] = entry[1]
            del self.pending[loc]

    def read(self, role: int, row: int) -> int:
        loc = (self._phys(role), row)
        self._commit_if_landed(loc)
        entry = self.pending.get(loc)
        if entry is not None:
            self.hazards.append(Hazard(self.cycle, loc[0], loc[1], entry[0]))
        return self.banks[loc[0]][loc[1]]

    def write(self, role: int, row: int, word: int) -> None:
        loc = (self._phys(role), row)
        self._commit_if_landed(loc)
        self.pending[loc] = (self.cycle + self.depth, word)

    def tick(self) -> None:
        self.cycle += 1

    def drain(self) -> int:
        """Advance time until every queued write has landed."""
        start = self.cycle
        if self.pending:
            self.cycle = max(self.cycle,
                             max(t for t, _ in self.pending.values()))
        for loc in list(self.pending):
            self._commit_if_landed(loc)
        assert not self.pending
        return self.cycle - start

    def load(self, coeffs, geom: MemoryGeometry, region: int,
             layout, mont: ModulusParams | None = None) -> None:
        t, sb = geom.t, geom.slot_bits
        la, lb = layout
        vals = list(coeffs)
        if mont is not None:
            vals = [to_mont(v, mont) for v in vals]
        off = region * geom.d
        for r in range(geom.d):
            for bank, lay in ((BANK_A, la), (BANK_B, lb)):
                w = lay[r]
                self.banks[self._phys(bank)][off + r] = pack_word(
                    vals[t * w: t * w + t], sb)

    def extract(self, geom: MemoryGeometry, region: int, layout) -> list[int]:
        t, sb = geom.t, geom.slot_bits
        la, lb = layout
        out = [0] * (2 * geom.d * t)
        off = region * geom.d
        for r in range(geom.d):
            for bank, lay in ((BANK_A, la), (BANK_B, lb)):
                loc = (self._phys(bank), off + r)
                self._commit_if_landed(loc)
                assert loc not in self.pending, "extract before drain"
                w = lay[r]
                out[t * w: t * w + t] = unpack_word(self.banks[loc[0]][loc[1]],
                                                    t, sb)
        return out


def _run_transform(m: _Machine, p: ModulusParams, geom: MemoryGeometry,
                   forward: bool, region: int, twiddles) -> int:
    """Execute one full transform pass; returns its busy-cycle count."""
    t, d, sb = geom.t, geom.d, geom.slot_bits
    table = twiddles[0] if forward else twiddles[1]
    prog = scheme_program(geom)
    stages = prog.ntt if forward else prog.intt
    off = region * d
    busy = 0
    step = ct_butterfly if forward else gs_butterfly_halving
    for stage in stages:
        if stage.kind == "mirror":
            for e in stage.entries:
                wa = m.read(BANK_A, off + e.addr_a)
                wb = m.read(BANK_B, off + e.addr_b)
                lo_w, hi_w = (wb, wa) if e.read_swap else (wa, wb)
                lo = unpack_word(lo_w, t, sb)
                hi = unpack_word(hi_w, t, sb)
                z = table[e.tw_index]
                for s in range(t):
                    lo[s], hi[s] = step(lo[s], hi[s], z, p)
                out_lo, out_hi = pack_word(lo, sb), pack_word(hi, sb)
                if e.write_swap:
                    out_lo, out_hi = out_hi, out_lo
                m.write(BANK_A, off + e.addr_a, out_lo)
                m.write(BANK_B, off + e.addr_b, out_hi)
                m.tick()
                busy += 1
        else:  # in-word stage: one row of each bank, blocks inside words
            ell = stage.span
            for e in stage.entries:
                k = e.tw_index
                for bank, row in ((BANK_A, e.addr_a), (BANK_B, e.addr_b)):
                    slots = unpack_word(m.read(bank, off + row), t, sb)
                    for blk in range(t // (2 * ell)):
                        z = table[k]
                        k += 1
                        base = blk * 2 * ell
                        for i in range(base, base + ell):
                            slots[i], slots[i + ell] = step(slots[i],
                                                            slots[i + ell],
                                                            z, p)
                    m.write(bank, off + row, pack_word(slots, sb))
                m.tick()
                busy += 1
    return busy


def _run_pwm(m: _Machine, p: ModulusParams, geom: MemoryGeometry,
             twiddles) -> int:
    """Pointwise stage: operand a in region 0, operand b in region 1."""
    t, d, sb = geom.t, geom.d, geom.slot_bits
    psi = twiddles[2]
    entries = scheme_program(geom).pwm[0].entries
    busy = 0
    if p.scheme == "dilithium":
        for e in entries:
            a_bank, b_bank = (BANK_B, BANK_A) if e.read_swap else (BANK_A, BANK_B)
            a = unpack_word(m.read(a_bank, e.addr_a), t, sb)
            b = unpack_word(m.read(b_bank, d + e.addr_b), t, sb)
            out = [dilithium_pwm(ai, bi, p) for ai, bi in zip(a, b)]
            m.write(a_bank, e.addr_a, pack_word(out, sb))
            m.tick()
            busy += 1
        return busy
    carries = None
    for i, e in enumerate(entries):
        a_bank, b_bank = (BANK_B, BANK_A) if e.read_swap else (BANK_A, BANK_B)
        if i % 2 == 0:  # product stage: read both operand words
            a = unpack_word(m.read(a_bank, e.addr_a), t, sb)
            b = unpack_word(m.read(b_bank, d + e.addr_b), t, sb)
            carries = [
                kyber_pwm_pair(MODE_PWM0, (a[2 * j], a[2 * j + 1]),
                               (b[2 * j], b[2 * j + 1]), 0, p)
                for j in range(t // 2)
            ]
        else:  # combine stage: psi products, assemble, write back
            out = []
            for j, carry in enumerate(carries):
                res = kyber_pwm_pair(MODE_PWM1, (0, 0), (0, 0),
                                     psi[e.tw_index + j], p, carry_state=carry)
                out.extend(res)
            m.write(a_bank, e.addr_a, pack_word(out, sb))
            carries = None
        m.tick()
        busy += 1
    return busy


def _twiddles(p: ModulusParams, override=None):
    if override is not None:
        return override
    return forward_zetas(p), inverse_zetas(p), basemul_zetas(p)


def _report(op, scheme, busy, fill_drain, m: _Machine, cfg: CoreConfig,
            allow_hazards: bool) -> SimReport:
    if m.hazards and not allow_hazards:
        h = m.hazards[0]
        raise RuntimeError(
            f"memory hazard at cycle {h.cycle}: bank {h.bank} row {h.row} "
            f"read before its write lands at {h.lands_at}")
    return SimReport(op=op, scheme=scheme, busy_cycles=busy,
                     fill_drain_cycles=fill_drain,
                     hazards=tuple(m.hazards),
                     bfu_utilization=1.0 if busy else 0.0,
                     bram_estimate=estimate_bram_usage(cfg.design).total_units)


def run_op(cfg: CoreConfig, scheme: str, op: str, a: Polynomial,
           b: Polynomial | None = None, rom_override=None,
           allow_hazards: bool = False) -> tuple[Polynomial, SimReport]:
    """Run a single forward/inverse transform or pointwise multiply.

    Input domain contract: ntt takes a normal-domain polynomial and
    yields bit-reversed spectral order; intt the reverse; pwm takes two
    bit-reversed spectral polynomials (b is Montgomery-prescaled at
    load, mirroring how a second operand would arrive pre-transformed).
    """
    if op not in SIM_OPS:
        raise ValueError(f"unknown op {op!r}")
    if scheme not in cfg.schemes:
        raise ValueError(f"design {cfg.design} has no {scheme} lanes")
    if a.scheme != scheme or (b is not None and b.scheme != scheme):
        raise ValueError("operand scheme does not match the run")
    p = SCHEMES[scheme]
    geom = cfg.geometry(scheme)
    tw = _twiddles(p, rom_override)
    m = _Machine(geom.d, cfg.pipeline_depth)
    if op == OP_NTT:
        if a.domain != DOMAIN_NORMAL:
            raise ValueError("ntt expects a normal-domain input")
        m.load(a.coeffs, geom, 0, initial_layout(geom.d))
        busy = _run_transform(m, p, geom, True, 0, tw)
        fill_drain = m.drain()
        out = a.with_coeffs(m.extract(geom, 0, transformed_layout(geom.d)),
                            domain=DOMAIN_NTT_BR)
    elif op == OP_INTT:
        if a.domain != DOMAIN_NTT_BR:
            raise ValueError("intt expects bit-reversed spectral input")
        m.load(a.coeffs, geom, 0, transformed_layout(geom.d))
        busy = _run_transform(m, p, geom, False, 0, tw)
        fill_drain = m.drain()
        out = a.with_coeffs(m.extract(geom, 0, initial_layout(geom.d)),
                            domain=DOMAIN_NORMAL)
    else:
        if b is None:
            raise ValueError("pwm needs two operands")
        if a.domain != DOMAIN_NTT_BR or b.domain != DOMAIN_NTT_BR:
            raise ValueError("pwm expects bit-reversed spectral operands")
        lay = transformed_layout(geom.d)
        m.load(a.coeffs, geom, 0, lay)
        m.swap_banks = True
        m.load(b.coeffs, geom, 1, lay, mont=p)
        m.swap_banks = False
        busy = _run_pwm(m, p, geom, tw)
        fill_drain = m.drain()
        out = a.with_coeffs(m.extract(geom, 0, lay), domain=DOMAIN_NTT_BR)
    return out, _report(op, scheme, busy, fill_drain, m, cfg, allow_hazards)


def run_polymul(cfg: CoreConfig, scheme: str, a: Polynomial, b: Polynomial,
                rom_override=None,
                allow_hazards: bool = False) -> tuple[Polynomial, SimReport]:
    """Full negacyclic product on the core: NTT(a), PWM, INTT.

    Both inputs are normal-domain polynomials.  The b operand is loaded
    mirrored into region 1 and forward-transformed in place with the
    bank roles swapped; those preparation cycles are excluded from both
    busy_cycles and fill_drain_cycles per the pre-transformed-operand
    accounting (see module docstring).  The result equals
    schoolbook_negacyclic(a, b) exactly.
    """
    if scheme not in cfg.schemes:
        raise ValueError(f"design {cfg.design} has no {scheme} lanes")
    if a.scheme != scheme or b.scheme != scheme:
        raise ValueError("operand scheme does not match the run")
    if a.domain != DOMAIN_NORMAL or b.domain != DOMAIN_NORMAL:
        raise ValueError("polymul expects normal-domain operands")
    p = SCHEMES[scheme]
    geom = cfg.geometry(scheme)
    tw = _twiddles(p, rom_override)
    m = _Machine(geom.d, cfg.pipeline_depth)
    m.load(a.coeffs, geom, 0, initial_layout(geom.d))
    m.swap_banks = True
    m.load(b.coeffs, geom, 1, initial_layout(geom.d), mont=p)
    m.swap_banks = False

    busy = _run_transform(m, p, geom, True, 0, tw)     # NTT(a), counted
    m.swap_banks = True
    _run_transform(m, p, geom, True, 1, tw)            # NTT(b), preparation
    m.swap_banks = False
    fill_drain = m.drain()
    busy += _run_pwm(m, p, geom, tw)
    fill_drain += m.drain()
    busy += _run_transform(m, p, geom, False, 0, tw)   # INTT, counted
    fill_drain += m.drain()
    out = a.with_coeffs(m.extract(geom, 0, initial_layout(geom.d)))
    return out, _report(OP_POLYMUL, scheme, busy, fill_drain, m, cfg,
                        allow_hazards)


def latency_model(cfg: CoreConfig, scheme: str, op: str) -> int:
    """Busy-cycle count of an op: the length of its program phases."""
    prog = scheme_program(cfg.geometry(scheme))
    if op in SIM_OPS:
        return prog.cycles(op)
    if op == OP_POLYMUL:
        return sum(prog.cycles(phase) for phase in SIM_OPS)
    raise ValueError(f"unknown op {op!r}")
