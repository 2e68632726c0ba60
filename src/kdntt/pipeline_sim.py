"""Cycle-accurate execution of transforms and products on a configured core.

An op runs in two steps.  The compile step, once per (geometry, pipeline
depth, op), replays the op's program through memory_map.run_stages on a
BankMemory whose rows hold words as the value positions they carry:
every value the op computes has a position in one list (a's
coefficients, b's, then each plan stage's outputs in order).  The bank
memory delays each write by pipeline_depth cycles and records a read of
a row whose write is still in flight as a hazard, and a plan with one
is never lowered or run.  No address, routing flag or landing
cycle depends on the data, so the plan, the cycle counts and the hazards
are all fixed by those three.  The replay hands the compile step each
cycle's words in issue order; the step lists each butterfly's or
product's two operand positions and twiddle index and returns the words
written, placed next in the stage's outputs.  Every run of a phase
lowers its stage k into the plan's stage k.  A polymul's forward stage
k is NTT(a)'s stage k and then NTT(b)'s, so its plan has one stage per
butterfly layer and the pwm stage, 15 for Kyber and 17 for Dilithium.
verify's plan (op VERIFY_OPS, a table of runs) runs its four checks' ops
the same way, side by side, each on banks of its own: polymul, ntt, intt
and pwm, each loading only input blocks, intt and pwm the oracle's
spectrum of a.  It has the polymul's stage count.  Only _compile knows
how a word's t slots are laid out and which slots a butterfly pairs.
The execute step then runs only arithmetic, one loop per stage kind.
Operands are addressed by region (a in 0, b in 1); the bank memory
alone decides where a region sits.

Two drivers execute a plan, after one shared prologue (_prepare: the
scheme and rom_override checks, the plan lookup and the refusal of a
hazardous plan, an over-deep pipeline and not a KiD core, before any
arithmetic) and the operand checks (_check_operands).
run_op and run_polymul run one operand set through _execute, one
butterfly call per butterfly.  run_batch runs many through
_execute_columns, which takes the same plan a whole stage at a time
over (256, batch) arrays with a column per operand set, using
core_arith's borrow-select array forms on a uint32 value store and its
gathers; in a warm process it is the faster driver even for one
product.  The CLI's verify calls _execute_columns directly on
the arrays it draws, so its trials never become polynomials, and on
its one plan.  The scalar driver stays because the CLI must start
without numpy, and because it calls the bfu butterflies that the
golden-polymul benchmark counts.  It is not rebuilt on the array forms:
making the scalar primitives accept arrays slowed run_polymul by 8-25%.
So the two share the plan and the checks but no arithmetic.
Stage-at-a-time execution is exact because no stage reads a word that
the same stage writes (a conflict-free program reads each row once per
stage), so every operand position lies below the stage's outputs;
_compile checks this on every plan it lowers.

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
shipped (design, scheme) at depths 1, shipped and d/2
(test_polymul_phases_need_only_the_final_drain).
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import NamedTuple

from .core_arith import (
    DOMAIN_NORMAL,
    DOMAIN_NTT_BR,
    N,
    SCHEMES,
    ModulusParams,
    Polynomial,
    _Frozen,
    _check_operand_tags,
    _from_columns,
    as_columns,
    mod_add_array,
    mod_add_half_array,
    mod_sub_array,
    mont_mul_array,
    to_mont,
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
    BankMemory,
    Hazard,
    MemoryGeometry,
    build_twiddle_rom,
    design_geometry,
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
# verify's one plan: its checks' ops in report order, each with the input
# blocks it loads as a (and b) of a, da, b and fb, da and fb being the
# oracle's spectra; b's come last, as _execute_columns prescales all of b.
VERIFY_OPS = ((OP_POLYMUL, (0, 2)), (OP_NTT, (0,)), (OP_INTT, (1,)),
              (OP_PWM, (1, 3)))


class CoreConfig(_Frozen):
    """A shipped core design run at a pipeline depth."""

    _fields = ("design", "pipeline_depth")
    design: str
    pipeline_depth: int

    def __init__(self, design: str, pipeline_depth: int) -> None:
        bound = design_geometry(design).max_pipeline_depth
        if (not isinstance(pipeline_depth, int)
                or isinstance(pipeline_depth, bool)
                or not 1 <= pipeline_depth <= bound):
            raise ValueError(
                f"pipeline depth {pipeline_depth!r} is not an integer "
                f"in [1, {bound}] "
                f"for {design} (bound is half the smallest region depth)")
        vars(self).update(design=design, pipeline_depth=pipeline_depth)

    @classmethod
    def for_design(cls, design: str) -> "CoreConfig":
        """The design at its shipped pipeline depth."""
        return cls(design, design_geometry(design).pipeline_depth)

    def geometry(self, scheme: str) -> MemoryGeometry:
        return design_geometry(self.design).geometry(scheme)

    @property
    def schemes(self) -> tuple[str, ...]:
        return design_geometry(self.design).schemes


class SimReport(NamedTuple):
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


def _butterflies(stage, t: int):
    """A stage's (lo slot, hi slot, twiddle offset) list over the 2t slots
    of a cycle's two words.  A mirror stage pairs slot s of the low word
    with slot s of the high one under one twiddle; an in-word stage of
    length L pairs slots inside each block of 2L, one twiddle per block
    counted across both words."""
    ell = t if stage.kind == "mirror" else stage.span
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
    # Per stage: (phase, xs, ys, ws): the positions of each butterfly's
    # or product's two operands in the op's value list and its twiddle
    # index (a Kyber pair's two products share one psi index).  A
    # polymul's forward stage lists a's butterflies, then b's.
    stages: tuple[tuple[str, array, array, array], ...]
    size: int                # values the op computes, inputs included
    busy: int
    fill_drain: int
    hazards: tuple[Hazard, ...]
    out: array               # the result's positions, 256 per op, in order


@lru_cache(maxsize=64)  # 32 shipped single-op plans and 8 verify plans
def _compile(geom: MemoryGeometry, depth: int, op) -> _Plan:
    """Each of the op's runs (VERIFY_OPS' table, or the op alone on input
    blocks 0 and, with pwm, 1) loads its blocks into banks of its own,
    whose words are the t value-list positions they carry (block k's
    word w carries 256k + t*w on).  Each phase runs on every run that
    has it, NTT(b) as a run of its own on region 1, and plan stage k is
    every run's stage k in turn.  step lists the operands and twiddle
    indices of the words run_stages hands it and returns the words
    written: the stage's next outputs, in the order both executors
    append them.  A hazardous plan, which _prepare refuses, keeps no
    stages and an empty out."""
    t, d = geom.t, geom.d
    runs = (((op, (0, 1) if OP_PWM in _OPS[op][2] else (0,)),)
            if op in _OPS else op)
    blocks = 1 + max(s for _, srcs in runs for s in srcs)
    words = [range(t * w, t * w + t) for w in range(2 * d * blocks)]
    mems = [BankMemory(d, depth) for _ in runs]
    for m, (name, srcs) in zip(mems, runs):
        for region, src in enumerate(srcs):
            m.load(region, _layout(_OPS[name][0], d),
                   words[2 * d * src: 2 * d * src + 2 * d])
    prog = scheme_program(geom)
    size = N * blocks
    stages = []
    busy = fill_drain = 0
    for phase in _OPS[OP_POLYMUL][2]:  # every op's phases, in order
        program = getattr(prog, phase)
        ran = [(m, region) for m, (name, srcs) in zip(mems, runs)
               if phase in _OPS[name][2]
               for region in range(len(srcs) if phase == OP_NTT else 1)]
        if not ran:
            continue
        width = N * len(ran)  # values per plan stage
        bfly = [None if st.kind == "pwm" else _butterflies(st, t)
                for st in program]
        xs, ys, ws = ([array("I") for _ in program] for _ in range(3))

        def step(k, lo, hi, tw):  # a cycle's (pwm: a word's) words
            x, y, w = xs[k], ys[k], ws[k]
            pos = size + width * k  # stage k's outputs start here
            if bfly[k] is None:  # t products of words lo (a) and hi (b)
                pos += len(x)
                x.extend(lo)
                y.extend(hi)
                if geom.scheme == "kyber":  # slots 2k, 2k + 1: pair k
                    w.extend(range(tw, tw + t // 2))
                return range(pos, pos + t)
            pos += 2 * len(x)
            slots = [*lo, *hi]
            for u, v, s in bfly[k]:
                x.append(slots[u])
                y.append(slots[v])
                w.append(tw + s)
                slots[u], slots[v] = pos, pos + 1
                pos += 2
            return slots[:t], slots[t:]

        for m, region in ran:
            start = m.cycle
            run_stages(m, program, region, step)
            if not region:  # NTT(b), on region 1, is in neither total
                busy += m.cycle - start
        fill_drain += sum(m.drain() for m, region in ran if not region)
        lowered = not any(m.hazards for m in mems)
        for k in range(len(program)):
            # a stage may not read its own writes: run_batch runs it at once
            if lowered and max(max(xs[k]), max(ys[k])) >= size + width * k:
                raise RuntimeError(f"a {phase} stage reads a word it writes")
            stages.append((phase, xs[k], ys[k], ws[k]))
        size += width * len(program)
    hazards = tuple(h for m in mems for h in m.hazards)
    if hazards:
        return _Plan((), size, busy, fill_drain, hazards, array("I"))
    out = array("I", [s for m, (name, _) in zip(mems, runs)
                      for w in m.extract(_layout(_OPS[name][1], d))
                      for s in w])
    return _Plan(tuple(stages), size, busy, fill_drain, hazards, out)


def _execute(plan: _Plan, p: ModulusParams, tw, a: Polynomial,
             b: Polynomial | None) -> list[int]:
    """The plan's arithmetic over one list of values, each output
    appended as it is computed.  The butterflies are looked up by name
    on every call, so a replaced module function is what runs."""
    vals = list(a.coeffs)
    if b is not None:
        vals += [to_mont(v, p) for v in b.coeffs]
    for phase, xs, ys, ws in plan.stages:
        if phase == OP_PWM and p.scheme == "kyber":
            for x0, x1, y0, y1, w in zip(xs[0::2], xs[1::2], ys[0::2],
                                         ys[1::2], ws):
                carry = kyber_pwm_pair(MODE_PWM0, (vals[x0], vals[x1]),
                                       (vals[y0], vals[y1]), 0, p)
                vals += kyber_pwm_pair(MODE_PWM1, (0, 0), (0, 0), tw[2][w],
                                       p, carry_state=carry)
        elif phase == OP_PWM:
            for x, y in zip(xs, ys):
                vals.append(dilithium_pwm(vals[x], vals[y], p))
        else:
            forward = phase == OP_NTT
            table = tw[0] if forward else tw[1]
            step = ct_butterfly if forward else gs_butterfly_halving
            for x, y, w in zip(xs, ys, ws):
                vals += step(vals[x], vals[y], table[w], p)
    return [vals[i] for i in plan.out]


def _prepare(cfg: CoreConfig, scheme: str, op: str, rom_override):
    """The prologue of every run, before any operand is seen: take the
    scheme's geometry (which refuses a scheme the design has no lanes
    of), check rom_override, take the op's plan for this geometry and
    depth (built on first use) and refuse a hazardous one.  op is one of
    _OPS, which the public drivers check, or VERIFY_OPS.  Returns the
    plan, the scheme's parameters and the twiddle tables."""
    geom = cfg.geometry(scheme)
    p = SCHEMES[scheme]
    tw = build_twiddle_rom(scheme)
    if rom_override is not None:
        try:  # three sequences of integers (not bools) in [0, q)
            override = tuple(map(tuple, rom_override))
        except TypeError:
            override = ()
        if (tuple(map(len, override)) != tuple(map(len, tw)) or not
                all(type(v) is int and 0 <= v < p.q
                    for table in override for v in table)):
            raise ValueError(f"rom_override must hold integer tables of "
                             f"lengths {tuple(map(len, tw))} in [0, {p.q})")
        tw = override
    plan = _compile(geom, cfg.pipeline_depth, op)
    if plan.hazards:
        h = plan.hazards[0]
        raise RuntimeError(
            f"memory hazard at cycle {h.cycle}: bank {h.bank} row {h.row} "
            f"read before its write lands at {h.lands_at}")
    return plan, p, tw


def _report(cfg: CoreConfig, scheme: str, op: str, plan: _Plan) -> SimReport:
    return SimReport(op, scheme, plan.busy, plan.fill_drain, plan.hazards,
                     estimate_bram_usage(cfg.design).total_units)


def _check_operands(scheme: str, op: str, As, Bs) -> None:
    """Check an op's operands: As, and Bs for an op with pwm, paired by
    position, of the run's scheme and the op's input domain."""
    d_in, _, phases = _OPS[op]
    if (Bs is not None) != (OP_PWM in phases):  # an op with pwm takes b
        raise ValueError(f"{op} needs two operands" if Bs is None
                         else f"{op} takes one operand")
    if not As:
        raise ValueError(f"{op} got no operands")
    if Bs is not None and len(Bs) != len(As):
        raise ValueError(f"{op} got {len(As)} a operands "
                         f"but {len(Bs)} b operands")
    _check_operand_tags(As if Bs is None else (*As, *Bs), scheme, d_in)


def _run(cfg: CoreConfig, scheme: str, op: str, a: Polynomial,
         b: Polynomial | None, rom_override) -> tuple[Polynomial, SimReport]:
    """One operand set through _prepare and the scalar executor."""
    plan, p, tw = _prepare(cfg, scheme, op, rom_override)
    _check_operands(scheme, op, (a,), None if b is None else (b,))
    out = Polynomial._trusted(tuple(_execute(plan, p, tw, a, b)), scheme,
                              _OPS[op][1])
    return out, _report(cfg, scheme, op, plan)


def run_op(cfg: CoreConfig, scheme: str, op: str, a: Polynomial,
           b: Polynomial | None = None,
           rom_override=None) -> tuple[Polynomial, SimReport]:
    """Run a single forward/inverse transform or pointwise multiply.

    Input domain contract: ntt takes a normal-domain polynomial and
    yields bit-reversed spectral order; intt the reverse; pwm takes two
    bit-reversed spectral polynomials (b is Montgomery-prescaled at
    load, mirroring how a second operand would arrive pre-transformed).
    ntt and intt take no b.
    """
    if op not in SIM_OPS:
        raise ValueError(f"unknown op {op!r}")
    return _run(cfg, scheme, op, a, b, rom_override)


def run_polymul(cfg: CoreConfig, scheme: str, a: Polynomial, b: Polynomial,
                rom_override=None) -> tuple[Polynomial, SimReport]:
    """Full negacyclic product on the core: NTT(a), PWM, INTT.

    Both inputs are normal-domain polynomials.  The b operand is loaded
    into region 1 and forward-transformed in place by the same program;
    those preparation cycles are excluded from both busy_cycles and
    fill_drain_cycles per the pre-transformed-operand accounting (see
    module docstring).  The result equals schoolbook_negacyclic(a, b)
    exactly.
    """
    return _run(cfg, scheme, OP_POLYMUL, a, b, rom_override)


def _execute_columns(plan: _Plan, p: ModulusParams, tables, a, b):
    """The plan's arithmetic a whole stage at a time, over integer (256,
    batch) arrays a and b (None for ntt and intt) with a column per
    operand set, under run_op's domain contracts, and the twiddle tables
    as integer sequences.  a and b may stack more rows (verify's a, then
    da; b, then fb), all of b's Montgomery-prescaled at load.  The store,
    and so every operand of the array forms, is p.lane_dtype (unsigned),
    as every value is a residue below q < 2**23.  Returns the int64
    (len(plan.out), batch) result.  Nothing is checked: _prepare and the
    caller vouch for the plan and the values."""
    import numpy as np

    q, lane = p.q, p.lane_dtype
    tables = [np.asarray(t, lane) for t in tables]
    # Row i of vals is position i of _execute's list, one column per
    # operand set; each stage fills the next block of rows.
    vals = np.empty((plan.size, a.shape[1]), lane)
    vals[:len(a)] = a
    pos = len(a) if b is None else len(a) + len(b)
    if b is not None:
        vals[len(a):pos] = mont_mul_array(
            b.astype(lane), np.asarray(p.r2_mod_q, lane), p)
    for phase, xs, ys, ws in plan.stages:
        x = vals.take(np.frombuffer(xs, np.uintc), 0)
        y = vals.take(np.frombuffer(ys, np.uintc), 0)
        w = np.frombuffer(ws, np.uintc)
        # A product has one output, a butterfly two.
        out = vals[pos: pos + len(xs) * (1 + (phase != OP_PWM))]
        pos += len(out)
        if phase == OP_PWM and p.scheme == "kyber":
            # PWM0 then PWM1 of kyber_pwm_pair on every coefficient pair.
            a0, a1, b0, b1 = x[0::2], x[1::2], y[0::2], y[1::2]
            m00, m11 = mont_mul_array(a0, b0, p), mont_mul_array(a1, b1, p)
            msum = mont_mul_array(mod_add_array(a0, a1, q),
                                  mod_add_array(b0, b1, q), p)
            out[0::2] = mod_add_array(
                m00, mont_mul_array(tables[2][w, None], m11, p), q)
            out[1::2] = mod_sub_array(mod_sub_array(msum, m00, q), m11, q)
        elif phase == OP_PWM:
            out[:] = mont_mul_array(x, y, p)
        elif phase == OP_NTT:
            m = mont_mul_array(y, tables[0][w, None], p)
            out[0::2] = mod_add_array(x, m, q)
            out[1::2] = mod_sub_array(x, m, q)
        else:
            out[0::2] = mod_add_half_array(x, y, q)
            out[1::2] = mont_mul_array(mod_sub_array(x, y, q),
                                       tables[1][w, None], p)
    return vals.take(np.frombuffer(plan.out, np.uintc), 0).astype(np.int64)


def run_batch(cfg: CoreConfig, scheme: str, op: str, As, Bs=None,
              rom_override=None) -> tuple[list[Polynomial], SimReport]:
    """Run one op (ntt, intt, pwm or polymul) on many operand sets at once.

    As (and Bs, for pwm and polymul, paired with As by position) are
    iterables of polynomials under run_op's and run_polymul's domain
    contracts.  Returns one output per a operand, each equal to what
    run_op or run_polymul returns for it, and the plan's report, which
    every operand set shares.  A hazardous plan is refused before any
    arithmetic, as run_op and run_polymul refuse it.
    """
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    As, Bs = tuple(As), None if Bs is None else tuple(Bs)
    plan, p, tw = _prepare(cfg, scheme, op, rom_override)
    _check_operands(scheme, op, As, Bs)
    out = _execute_columns(plan, p, tw, as_columns(As),
                           None if Bs is None else as_columns(Bs))
    return (_from_columns(out, scheme, _OPS[op][1]),
            _report(cfg, scheme, op, plan))


def latency_model(cfg: CoreConfig, scheme: str, op: str) -> int:
    """Busy-cycle count of an op: the length of its program phases."""
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    prog = scheme_program(cfg.geometry(scheme))
    return sum(prog.cycles(phase) for phase in _OPS[op][2])
