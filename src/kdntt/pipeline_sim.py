"""Cycle-accurate execution of transforms and products on a configured core.

An op runs in two steps.  The compile step, once per (geometry,
pipeline depth, op), replays the op's program through
memory_map.run_stages on a BankMemory whose rows hold word ids instead
of words, each written word taking a fresh id, and builds the plan from
the replay's record: per stage, the ids its cycles read, their twiddle
bases and the words it wrote.  The bank memory delays each write by
pipeline_depth cycles and records a read of a row whose write is still
in flight as a hazard; the read sees the stale id, as the hardware
would see the stale word.  No address, routing flag or landing cycle
depends on the data, so the plan, the cycle counts and the hazards are
all fixed by those three.  The execute step then runs only arithmetic:
it walks the plan over a list of coefficients, one loop for every
transform stage, word-pairing and in-word alike, with only the stage's
butterfly list differing.  Operands are addressed by region (a in 0, b
in 1); the bank memory alone decides where a region sits.

Two drivers execute a plan, after one shared prologue (_prepare: the
operand, scheme, domain and rom_override checks, the plan lookup and
the refusal of a hazardous plan before any arithmetic; only the scalar
driver can be told to run one anyway).  run_op and run_polymul run one
operand set through _execute, one butterfly call per butterfly.
run_batch runs many through the same plan a whole stage at a time, over
one int64 numpy array with a column per operand set, using core_arith's
branch-free array forms; in a warm process it is the faster driver even
for one product.  The scalar driver stays because the CLI must start
without numpy, and because it calls the bfu butterflies that the
golden-polymul benchmark counts.  It is not rebuilt on the array forms:
making the scalar primitives accept arrays slowed run_polymul by 8-25%.
So the two share the plan and the checks but no arithmetic.
Stage-at-a-time execution is exact because no stage reads a word that
the same stage writes (a conflict-free program reads each row once per
stage); _compile checks this on every plan it builds.

Latency accounting follows the convention of the published cycle
counts: busy_cycles counts issued butterfly/product cycles only
(forward or inverse transform = layers x d, pointwise = 4d for the
pair scheme, 2d for the single scheme), while pipeline fill/drain
stalls between dependent phases are reported separately as
fill_drain_cycles.  A full multiplication is NTT + PWM + INTT on the
a-operand stream; the b operand's forward transform is executed for
functional fidelity but excluded from both counters, matching the
published totals (448+256+448 and 1024+256+1024), which treat the
second operand as arriving pre-transformed.  "Fully pipelined" is read
per phase: a phase issues one entry per clock, and the drain after each
phase (3*(depth-1) per polymul) is an accounting rule.  The banks need
only the final drain: ntt, NTT(b), pwm and intt replayed back to back
through run_stages with no drain between raise no hazard for any
shipped (design, scheme) at depths 1, shipped and d/2.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import NamedTuple

from .core_arith import (
    SCHEMES,
    ModulusParams,
    mod_add_array,
    mod_add_half_array,
    mod_sub_array,
    mont_mul_array,
    to_mont,
)
from .ntt_reference import (
    DOMAIN_NORMAL,
    DOMAIN_NTT_BR,
    Polynomial,
    _from_columns,
    as_columns,
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
    DESIGNS,
    BankMemory,
    Hazard,
    MemoryGeometry,
    build_twiddle_rom,
    estimate_bram_usage,
    initial_layout,
    run_stages,
    scheme_program,
    transformed_layout,
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
                or isinstance(self.pipeline_depth, bool)
                or not 1 <= self.pipeline_depth <= bound):
            raise ValueError(
                f"pipeline depth {self.pipeline_depth!r} is not an integer "
                f"in [1, {bound}] "
                f"for {self.design} (bound is half the smallest region depth)")

    @classmethod
    def for_design(cls, design: str) -> "CoreConfig":
        """The design at its shipped pipeline depth."""
        if design not in DESIGNS:
            raise ValueError(f"unknown design {design!r}")
        return cls(design, DESIGNS[design].pipeline_depth)

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
        """Busy share of all cycles: a busy cycle occupies every lane (t
        butterflies, t products or t/2 Kyber pairs over both lanes), and
        a fill/drain cycle none."""
        total = self.busy_cycles + self.fill_drain_cycles
        return self.busy_cycles / total if total else 0.0

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


class _Plan(NamedTuple):
    # Per stage: (phase, butterfly list or None for pwm, the word
    # offsets its cycles read, in pairs, and each read's twiddle base).
    stages: tuple[tuple[str, list | None, array, array], ...]
    writes: tuple[int, ...]  # words each stage writes, in id order
    busy: int
    fill_drain: int
    hazards: tuple[Hazard, ...]
    out: tuple[int, ...]     # region 0's word offsets, in word order


@lru_cache(maxsize=64)  # all 32 shipped (design, scheme, op), twice
def _compile(geom: MemoryGeometry, depth: int, op: str) -> _Plan:
    """The op's phases run on banks holding word ids: a's word w is id w,
    b's (for pwm and polymul) id 2d + w, and each written word takes the
    next id, so _execute keeps every word in one list in id order."""
    t, d = geom.t, geom.d
    d_in, d_out, phases = _OPS[op]
    with_b = OP_PWM in phases
    prog = scheme_program(geom)
    m = BankMemory(d, depth)
    m.load(0, _layout(d_in, d), range(2 * d))
    if with_b:
        m.load(1, _layout(d_in, d), range(2 * d, 4 * d))
    first = 2 * d * (1 + with_b)
    ids = count(first)
    stages, writes = [], []
    busy = fill_drain = 0
    for phase in phases:
        program = getattr(prog, phase)
        start = m.cycle
        record = run_stages(m, program, 0, ids)
        busy += m.cycle - start
        if phase == OP_NTT and with_b:
            # NTT(b) preparation: counted in neither total (see the
            # module docstring) and not drained apart from NTT(a).
            record += run_stages(m, program, 1, ids)
            program *= 2
        fill_drain += m.drain()
        for stage, (reads, tws, w) in zip(program, record):
            # run_batch computes a whole stage before the next one, so no
            # stage may read a word the same stage writes (a conflict-free
            # program reads each row once per stage, and a stale read sees
            # an older id).
            if max(reads) >= first:
                raise RuntimeError(f"a {op} stage reads a word it writes")
            first += w
            stages.append((phase, None if stage.kind == "pwm"
                           else _butterflies(stage.kind, stage.span, t),
                           array("I", [t * i for i in reads]),
                           array("I", tws)))
            writes.append(w)
    out = tuple(t * i for i in m.extract(_layout(d_out, d)))
    return _Plan(tuple(stages), tuple(writes), busy, fill_drain,
                 tuple(m.hazards), out)


def _execute(plan: _Plan, p: ModulusParams, t: int, tw, a: Polynomial,
             b: Polynomial | None) -> list[int]:
    """The plan's arithmetic over one list of words in id order, word
    id i being vals[t*i: t*i + t].  The butterflies are looked up by
    name on every call, so a replaced module function is what runs."""
    vals = list(a.coeffs)
    if b is not None:
        vals += [to_mont(v, p) for v in b.coeffs]
    for phase, bfly, reads, bases in plan.stages:
        pairs = iter(reads)
        if phase == OP_PWM and p.scheme == "kyber":
            for i, j, base in zip(pairs, pairs, bases):
                x, y = vals[i: i + t], vals[j: j + t]
                carries = [kyber_pwm_pair(MODE_PWM0, (x[k], x[k + 1]),
                                          (y[k], y[k + 1]), 0, p)
                           for k in range(0, t, 2)]
                for k, carry in enumerate(carries):
                    vals += kyber_pwm_pair(MODE_PWM1, (0, 0), (0, 0),
                                           tw[2][base + k], p,
                                           carry_state=carry)
        elif phase == OP_PWM:
            for i, j in zip(pairs, pairs):
                vals += [dilithium_pwm(u, v, p)
                         for u, v in zip(vals[i: i + t], vals[j: j + t])]
        else:
            forward = phase == OP_NTT
            table = tw[0] if forward else tw[1]
            step = ct_butterfly if forward else gs_butterfly_halving
            for lo, hi, base in zip(pairs, pairs, bases):
                x = vals[lo: lo + t] + vals[hi: hi + t]
                for i, j, k in bfly:
                    x[i], x[j] = step(x[i], x[j], table[base + k], p)
                vals += x
    return [c for i in plan.out for c in vals[i: i + t]]


def _prepare(cfg: CoreConfig, scheme: str, op: str, As, Bs, rom_override,
             allow_hazards: bool):
    """The one prologue of both drivers: check the operands (As, and Bs
    for an op with pwm, paired by position), take the op's plan for this
    geometry and depth (compiled on first use) and refuse a hazardous
    one, all before any arithmetic runs.  Returns the plan, the scheme's
    parameters, the words' width t, the twiddle tables and the report."""
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    if scheme not in cfg.schemes:
        raise ValueError(f"design {cfg.design} has no {scheme} lanes")
    d_in, d_out, phases = _OPS[op]
    if (Bs is not None) != (OP_PWM in phases):  # an op with pwm takes b
        raise ValueError(f"{op} needs two operands" if Bs is None
                         else f"{op} takes one operand")
    if not As:
        raise ValueError(f"{op} got no operands")
    if Bs is not None and len(Bs) != len(As):
        raise ValueError(f"{op} got {len(As)} a operands "
                         f"but {len(Bs)} b operands")
    operands = As if Bs is None else (*As, *Bs)
    if any(x.scheme != scheme for x in operands):
        raise ValueError("operand scheme does not match the run")
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
    plan = _compile(geom, cfg.pipeline_depth, op)
    if plan.hazards and not allow_hazards:
        h = plan.hazards[0]
        raise RuntimeError(
            f"memory hazard at cycle {h.cycle}: bank {h.bank} row {h.row} "
            f"read before its write lands at {h.lands_at}")
    return plan, p, geom.t, tw, SimReport(
        op=op, scheme=scheme, busy_cycles=plan.busy,
        fill_drain_cycles=plan.fill_drain, hazards=plan.hazards,
        bram_estimate=estimate_bram_usage(cfg.design).total_units)


def _run(cfg: CoreConfig, scheme: str, op: str, a: Polynomial,
         b: Polynomial | None, rom_override,
         allow_hazards: bool) -> tuple[Polynomial, SimReport]:
    """One operand set through _prepare and the scalar executor."""
    plan, p, t, tw, report = _prepare(
        cfg, scheme, op, (a,), None if b is None else (b,), rom_override,
        allow_hazards)
    out = Polynomial._trusted(tuple(_execute(plan, p, t, tw, a, b)), scheme,
                              _OPS[op][1])
    return out, report


def run_op(cfg: CoreConfig, scheme: str, op: str, a: Polynomial,
           b: Polynomial | None = None, rom_override=None,
           allow_hazards: bool = False) -> tuple[Polynomial, SimReport]:
    """Run a single forward/inverse transform or pointwise multiply.

    Input domain contract: ntt takes a normal-domain polynomial and
    yields bit-reversed spectral order; intt the reverse; pwm takes two
    bit-reversed spectral polynomials (b is Montgomery-prescaled at
    load, mirroring how a second operand would arrive pre-transformed).
    ntt and intt take no b.
    """
    if op not in SIM_OPS:
        raise ValueError(f"unknown op {op!r}")
    return _run(cfg, scheme, op, a, b, rom_override, allow_hazards)


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


def run_batch(cfg: CoreConfig, scheme: str, op: str, As, Bs=None,
              rom_override=None) -> tuple[list[Polynomial], SimReport]:
    """Run one op (ntt, intt, pwm or polymul) on many operand sets at once.

    As (and Bs, for pwm and polymul, paired with As by position) are
    sequences of polynomials under run_op's and run_polymul's domain
    contracts.  Returns one output per a operand, each equal to what
    run_op or run_polymul returns for it, and the plan's report, which
    every operand set shares.  A hazardous plan is refused, as run_op
    refuses it without allow_hazards.
    """
    import numpy as np

    plan, p, t, tw, report = _prepare(cfg, scheme, op, As, Bs, rom_override,
                                      False)
    q, n, batch = p.q, len(As[0].coeffs), len(As)
    # Word id i is rows t*i .. t*i + t - 1 of vals, one column per
    # operand set, as in _execute's list.
    vals = np.empty((n * (1 + (Bs is not None)) + t * sum(plan.writes),
                     batch), np.int64)
    vals[:n] = as_columns(As)
    pos = n
    if Bs is not None:
        vals[n:2 * n] = mont_mul_array(as_columns(Bs), p.r2_mod_q, p)
        pos = 2 * n
    tables = [np.array(table, np.int64) for table in tw]
    slots = np.arange(t)
    for (phase, bfly, reads, bases), w in zip(plan.stages, plan.writes):
        offsets = np.frombuffer(reads, np.uintc)
        lo, hi = offsets[0::2, None], offsets[1::2, None]
        base = np.frombuffer(bases, np.uintc)[:, None]
        out = vals[pos: pos + t * w]
        pos += t * w
        if bfly is None and p.scheme == "kyber":
            # PWM0 then PWM1 of kyber_pwm_pair on every coefficient pair
            # (slots 2k, 2k + 1), psi from basemul entry base + k.
            ev = slots[0::2]
            a0, a1 = vals[lo + ev], vals[lo + ev + 1]
            b0, b1 = vals[hi + ev], vals[hi + ev + 1]
            psi = tables[2][base + ev // 2][..., None]
            m00, m11 = mont_mul_array(a0, b0, p), mont_mul_array(a1, b1, p)
            msum = mont_mul_array(mod_add_array(a0, a1, q),
                                  mod_add_array(b0, b1, q), p)
            out = out.reshape(-1, t // 2, 2, batch)
            out[:, :, 0] = mod_add_array(m00, mont_mul_array(psi, m11, p), q)
            out[:, :, 1] = mod_sub_array(mod_sub_array(msum, m00, q), m11, q)
        elif bfly is None:
            out.reshape(-1, t, batch)[:] = mont_mul_array(
                vals[lo + slots], vals[hi + slots], p)
        else:
            words_in = np.concatenate((lo + slots, hi + slots), axis=1)
            i, j, k = np.array(bfly).T
            x, y = vals[words_in[:, i]], vals[words_in[:, j]]
            out = out.reshape(-1, 2 * t, batch)
            if phase == OP_NTT:
                m = mont_mul_array(y, tables[0][base + k][..., None], p)
                out[:, i] = mod_add_array(x, m, q)
                out[:, j] = mod_sub_array(x, m, q)
            else:
                out[:, i] = mod_add_half_array(x, y, q)
                out[:, j] = mont_mul_array(mod_sub_array(x, y, q),
                                           tables[1][base + k][..., None], p)
    result = vals[(np.array(plan.out)[:, None] + slots).ravel()]
    return _from_columns(result, scheme, _OPS[op][1]), report


def latency_model(cfg: CoreConfig, scheme: str, op: str) -> int:
    """Busy-cycle count of an op: the length of its program phases."""
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    prog = scheme_program(cfg.geometry(scheme))
    return sum(prog.cycles(phase) for phase in _OPS[op][2])
