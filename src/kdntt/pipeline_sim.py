"""Cycle-accurate execution of transforms and products on a configured core.

An op runs in two steps.  The compile step, once per (geometry, pipeline
depth, op), replays the op's program through memory_map.run_stages on a
BankMemory whose rows hold word ids instead of words, each written word
taking a fresh id.  The bank memory delays each write by pipeline_depth
cycles and records a read of a row whose write is still in flight as a
hazard; the read sees the stale id, as the hardware would see the stale
word.  No address, routing flag or landing cycle depends on the data, so
the plan, the cycle counts and the hazards are all fixed by those three.
The plan is the replay's record compiled down to operand positions:
every value the op computes has a position in one list (a's
coefficients, b's, then each plan stage's outputs in order), and a
stage lists each butterfly's or product's two operand positions and
twiddle index.  Every run of a phase lowers its stage k into the plan's
stage k.  A polymul's forward stage k is NTT(a)'s stage k and then
NTT(b)'s, so its plan has one stage per butterfly layer and the pwm
stage, 15 for Kyber and 17 for Dilithium.  verify's plan (op
VERIFY_OPS) runs its four checks' ops the same way, side by side, each
on banks of its own: polymul, ntt, intt and pwm, where intt and pwm
load the ids of the ntt's result.  It has the polymul's stage count.
Only _compile knows how a word's t slots are laid out and which slots
a butterfly pairs.  The execute step then runs only arithmetic, one
loop per stage kind.  Operands are addressed by region (a in 0, b in
1); the bank memory alone decides where a region sits.

Two drivers execute a plan, after one shared prologue (_prepare: the
scheme and rom_override checks, the plan lookup and the refusal of a
hazardous plan before any arithmetic; only the scalar driver can be
told to run one anyway) and the operand checks (_check_operands).
run_op and run_polymul run one operand set through _execute, one
butterfly call per butterfly.  run_batch runs many through
_execute_columns, which takes the same plan a whole stage at a time
over (256, batch) arrays with a column per operand set, using
core_arith's branch-free array forms on int64 operands gathered from
an int32 value store; in a warm process it is the faster driver even
for one product.  The CLI's verify calls _execute_columns directly on
the arrays it draws, so its trials never become polynomials, and on
its one plan.  The scalar driver stays because the CLI must start
without numpy, and because it calls the bfu butterflies that the
golden-polymul benchmark counts.  It is not rebuilt on the array forms:
making the scalar primitives accept arrays slowed run_polymul by 8-25%.
So the two share the plan and the checks but no arithmetic.
Stage-at-a-time execution is exact because no stage reads a word that
the same stage writes (a conflict-free program reads each row once per
stage), so every operand position lies below the stage's outputs;
_compile checks this on every plan it builds.

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
from functools import lru_cache
from itertools import count
from typing import NamedTuple

from .core_arith import (
    DOMAIN_NORMAL,
    DOMAIN_NTT_BR,
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
# verify's checks in report order; as _prepare's op, their one plan
VERIFY_OPS = (OP_POLYMUL, OP_NTT, OP_INTT, OP_PWM)


class CoreConfig(_Frozen):
    """A shipped core design run at a pipeline depth."""

    _fields = ("design", "pipeline_depth")
    design: str
    pipeline_depth: int

    def __init__(self, design: str, pipeline_depth: int) -> None:
        if design not in DESIGNS:
            raise ValueError(f"unknown design {design!r}")
        bound = DESIGNS[design].max_pipeline_depth
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
        if design not in DESIGNS:
            raise ValueError(f"unknown design {design!r}")
        return cls(design, DESIGNS[design].pipeline_depth)

    def geometry(self, scheme: str) -> MemoryGeometry:
        return DESIGNS[self.design].geometry(scheme)

    @property
    def schemes(self) -> tuple[str, ...]:
        return DESIGNS[self.design].schemes


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
# A multi-op plan's ops and what each loads as a (and b): a block of the
# plan's inputs (a = 0, b = 1, fb = 2) or an earlier op's result.
_MULTI_OPS = {VERIFY_OPS: ((OP_POLYMUL, (0, 1)), (OP_NTT, (0,)),
                           (OP_INTT, (OP_NTT,)), (OP_PWM, (OP_NTT, 2)))}


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
def _compile(geom: MemoryGeometry, depth: int,
             op: str | tuple[str, ...]) -> _Plan:
    """The op's phases run on banks holding word ids: input block k's
    word w is id 2dk + w, and each written word takes the next id, so
    every replayed stage's 2d words take the next 2d ids.  A multi-op
    plan (_MULTI_OPS) runs each op on banks of its own, all drawing ids
    from one count, and an op that loads an earlier op's result loads
    the ids that op's banks hold.  Each phase runs on every op that has
    it, and the plan's stage k is every run's stage k in turn: a
    polymul's forward stage k is NTT(a)'s, then NTT(b)'s.  words[i]
    holds where word id i's t slots sit in the value list: the input
    blocks' coefficients first, then each plan stage's outputs in the
    order its runs, cycles and butterflies (or products) produce them,
    so words is filled by id, not in id order."""
    t, d = geom.t, geom.d
    runs = _MULTI_OPS.get(op) or (
        (op, (0, 1) if OP_PWM in _OPS[op][2] else (0,)),)
    blocks = 1 + max(s for _, srcs in runs for s in srcs if type(s) is int)
    prog = scheme_program(geom)
    mems = {}

    def result(name):  # the op's result as word ids, in word order
        return mems[name].extract(_layout(_OPS[name][1], d))

    words = [range(t * i, t * i + t) for i in range(2 * d * blocks)]
    size = t * len(words)
    ids = count(len(words))
    stages = []
    busy = fill_drain = 0
    for phase in _OPS[OP_POLYMUL][2]:  # every op's phases, in order
        program = getattr(prog, phase)
        ran = []  # (op, record) per run, in the order they take ids
        first = len(words)  # the id the phase's first written word takes
        for name, srcs in runs:
            if phase not in _OPS[name][2]:
                continue
            m = mems.get(name)
            if m is None:  # the op's first phase: load its inputs
                m = mems[name] = BankMemory(d, depth)
                for region, src in enumerate(srcs):
                    m.load(region, _layout(_OPS[name][0], d),
                           range(2 * d * src, 2 * d * src + 2 * d)
                           if type(src) is int else result(src))
            start = m.cycle
            ran.append((name, run_stages(m, program, 0, ids)))
            busy += m.cycle - start
            if phase == OP_NTT and len(srcs) == 2:
                # NTT(b) preparation: counted in neither total (see the
                # module docstring) and not drained apart from NTT(a).
                ran.append((name, run_stages(m, program, 1, ids)))
            fill_drain += m.drain()
        if not ran:
            continue
        words += [None] * (2 * d * len(program) * len(ran))
        for k, stage in enumerate(program):
            xs, ys, ws = array("I"), array("I"), array("I")
            bfly = None if stage.kind == "pwm" else _butterflies(stage, t)
            for r, (name, record) in enumerate(ran):
                reads, tws = record[k]
                wid = first + 2 * d * (r * len(program) + k)
                # run_batch computes a whole stage at once, so no stage may
                # read a word it writes (a stale read sees an older id).  A
                # run reads only its own region: check it on its own writes.
                if max(reads) >= wid:
                    raise RuntimeError(f"a {name} stage reads a word it writes")
                new = []  # the run's written words, in id order
                pairs = iter(reads)
                for lo, hi, tw in zip(pairs, pairs, tws):
                    if bfly is None:
                        xs.extend(words[lo])
                        ys.extend(words[hi])
                        if geom.scheme == "kyber":  # slots 2k, 2k + 1: pair k
                            ws.extend(range(tw, tw + t // 2))
                        new.append(range(size, size + t))
                        size += t
                        continue
                    slots = [*words[lo], *words[hi]]
                    for i, j, s in bfly:
                        xs.append(slots[i])
                        ys.append(slots[j])
                        ws.append(tw + s)
                        slots[i], slots[j] = size, size + 1
                        size += 2
                    new += slots[:t], slots[t:]  # the low id, then the high
                words[wid: wid + len(new)] = new
            stages.append((phase, xs, ys, ws))
    out = array("I", [s for name, _ in runs for i in result(name)
                      for s in words[i]])
    return _Plan(tuple(stages), size, busy, fill_drain,
                 tuple(h for name, _ in runs for h in mems[name].hazards), out)


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


def _prepare(cfg: CoreConfig, scheme: str, op: str, rom_override,
             allow_hazards: bool):
    """The prologue of every run, before any operand is seen: check the
    scheme and rom_override, take the op's plan for this geometry and
    depth (built on first use) and refuse a hazardous one.  op is one of
    _OPS, which the public drivers check, or VERIFY_OPS.  Returns the
    plan, the scheme's parameters, the twiddle tables and the report."""
    if scheme not in cfg.schemes:
        raise ValueError(f"design {cfg.design} has no {scheme} lanes")
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
    plan = _compile(cfg.geometry(scheme), cfg.pipeline_depth, op)
    if plan.hazards and not allow_hazards:
        h = plan.hazards[0]
        raise RuntimeError(
            f"memory hazard at cycle {h.cycle}: bank {h.bank} row {h.row} "
            f"read before its write lands at {h.lands_at}")
    return plan, p, tw, SimReport(
        op=op, scheme=scheme, busy_cycles=plan.busy,
        fill_drain_cycles=plan.fill_drain, hazards=plan.hazards,
        bram_estimate=estimate_bram_usage(cfg.design).total_units)


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
         b: Polynomial | None, rom_override,
         allow_hazards: bool) -> tuple[Polynomial, SimReport]:
    """One operand set through _prepare and the scalar executor."""
    plan, p, tw, report = _prepare(cfg, scheme, op, rom_override,
                                   allow_hazards)
    _check_operands(scheme, op, (a,), None if b is None else (b,))
    out = Polynomial._trusted(tuple(_execute(plan, p, tw, a, b)), scheme,
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


def _execute_columns(plan: _Plan, p: ModulusParams, tables, a, b):
    """The plan's arithmetic a whole stage at a time, over int64 (256,
    batch) arrays a and b (None for ntt and intt) with a column per
    operand set, under run_op's domain contracts, and the twiddle tables
    as int64 arrays.  b may stack more rows (verify's b, then fb), all
    Montgomery-prescaled at load.  The store is int32, as every value is
    a residue below q < 2**23, and each gather widens to int64.  Returns
    the int64 (len(plan.out), batch) result.  Nothing is checked:
    _prepare and the caller vouch for the plan and the values."""
    import numpy as np

    q = p.q
    # Row i of vals is position i of _execute's list, one column per
    # operand set; each stage fills the next block of rows.
    vals = np.empty((plan.size, a.shape[1]), np.int32)
    vals[:len(a)] = a
    pos = len(a) if b is None else len(a) + len(b)
    if b is not None:
        vals[len(a):pos] = mont_mul_array(b, p.r2_mod_q, p)
    for phase, xs, ys, ws in plan.stages:
        x = vals.take(np.frombuffer(xs, np.uintc), 0).astype(np.int64)
        y = vals.take(np.frombuffer(ys, np.uintc), 0).astype(np.int64)
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
    every operand set shares.  A hazardous plan is refused, as run_op
    refuses it without allow_hazards.
    """
    import numpy as np

    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    As, Bs = tuple(As), None if Bs is None else tuple(Bs)
    plan, p, tw, report = _prepare(cfg, scheme, op, rom_override, False)
    _check_operands(scheme, op, As, Bs)
    out = _execute_columns(plan, p, [np.array(t, np.int64) for t in tw],
                           as_columns(As),
                           None if Bs is None else as_columns(Bs))
    return _from_columns(out, scheme, _OPS[op][1]), report


def latency_model(cfg: CoreConfig, scheme: str, op: str) -> int:
    """Busy-cycle count of an op: the length of its program phases."""
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    prog = scheme_program(cfg.geometry(scheme))
    return sum(prog.cycles(phase) for phase in _OPS[op][2])
