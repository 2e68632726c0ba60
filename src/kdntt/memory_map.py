"""Conflict-free two-bank memory scheduling, ROM images, BRAM accounting.

Memory model.  Coefficients live in two simple dual-port banks (one read
port + one write port each).  A word holds t adjacent coefficients in
fixed-width slots; each operand polynomial occupies a region of
d = 256/(2t) rows per bank.  Operand a sits in region 0 with bank A
holding words 0..d-1 in order and bank B holding words d..2d-1 in
REVERSE order (row r keeps word 2d-1-r); operand b sits in region 1.
The mirrored split is what lets every butterfly stage read its two
partner words from different banks in the same cycle.  BankMemory is
the one model of the banks: it maps a (region, role, row) address to a
physical bank and row, a write lands pipeline_depth cycles after issue,
and reading a row whose write is still in flight is a hazard.  A phase
is a tuple of StageSchedules, and run_stages is the one replay of a
phase on the banks, whose record the simulator's compile step,
check_conflict_free (returning the hazards) and the tests' pairing
oracle read.

Transform scheduling.  Word-level stages pair words (x, x+p) for spans
p = d, d/2, ..., 1, one stage per layer.  Within a span-p row group the
schedule alternates a mirror pattern — rows (u, p-1-u) then (p-1-u, u) —
which keeps both the current reads and the in-flight writes of the
previous stage on opposite banks.  Results are written back to the very
two locations a cycle read (arriving pipeline_depth cycles later), with
per-cycle routing flags choosing which output lands in which bank so
that the next stage again finds partners mirrored.  The first stage
additionally emits the second half of its cycles in reversed order;
that single amendment is what makes the whole program hazard-free for
every pipeline depth up to exactly d/2 (and no further).  Layers too
fine to pair whole words (span below one word) run as in-place
single-row sweeps; the pointwise stage reads operand words of a and b
pairwise from opposite banks.

The generator tracks bank occupancy explicitly and derives every flag
from the tracked layout, asserting the pairing invariants as it goes.
The inverse schedule is the forward one replayed backwards with the
read/write roles of the flags exchanged, so a transform followed by its
inverse leaves the memory exactly in the starting arrangement.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from itertools import count
from typing import NamedTuple

from .core_arith import N, SCHEMES, _Frozen, from_mont
from .ntt_reference import basemul_zetas, forward_zetas, inverse_zetas

CH_NTT = 0
CH_INTT = 1

BANK_A = 0
BANK_B = 1

# One physical 18Kb block-RAM primitive is modeled as two independent
# 9Kb halves: a memory needs enough halves to cover its width (36-bit
# max data width per 18Kb unit) and its total bit volume.
_BRAM_BITS = 18432
_BRAM_MAX_WIDTH = 36


class MemoryGeometry(_Frozen):
    """Shape of one scheme's view of the coefficient banks."""

    _fields = ("scheme", "t")
    scheme: str
    t: int                 # butterfly lanes = coefficients per word

    def __init__(self, scheme: str, t: int) -> None:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        # A word holds a shortest butterfly, and a region d >= 2 rows.
        lo = SCHEMES[scheme].min_len
        if (not isinstance(t, int) or isinstance(t, bool)
                or t & (t - 1) or not lo <= t <= N // 4):
            raise ValueError(f"lane count must be a power of two in "
                             f"[{lo}, {N // 4}] for {scheme}")
        vars(self).update(scheme=scheme, t=t)

    @property
    def d(self) -> int:
        """Rows per operand region (two regions per bank): 256/(2t)."""
        return N // (2 * self.t)

    @property
    def slot_bits(self) -> int:
        return SCHEMES[self.scheme].slot_bits

    @property
    def word_width(self) -> int:
        """Bits per memory word."""
        return self.t * self.slot_bits


class CycleEntry(NamedTuple):
    """One scheduled cycle: two row addresses plus routing flags.

    addr_a / addr_b are region-relative rows for banks A and B.
    read_swap = 1 means bank A currently holds the HIGH partner word;
    write_swap = 1 means the low output is routed to bank B.  tw_index
    is the logical twiddle index consumed by this cycle's butterflies.
    """

    addr_a: int
    addr_b: int
    read_swap: int
    write_swap: int
    tw_index: int


class StageSchedule(NamedTuple):
    kind: str              # "mirror" (word pairing), "intra" (in-word), "pwm"
    span: int              # word distance p, or in-word length, or 0 for pwm
    entries: tuple[CycleEntry, ...]


def initial_layout(d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Word occupancy at load time: A[r] = word r, B[r] = word 2d-1-r."""
    return tuple(range(d)), tuple(2 * d - 1 - r for r in range(d))


def transformed_layout(d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Occupancy after a forward pass: A[r] = word 2r, B[r] = word 2r+1."""
    return tuple(2 * r for r in range(d)), tuple(2 * r + 1 for r in range(d))


def _forward_stages(d: int, stage1_reversal: bool):
    """Tracked-layout generation of the forward word-level schedule."""
    la = list(range(d))
    lb = [2 * d - 1 - r for r in range(d)]
    stages = []
    p = d
    first = True
    while p >= 1:
        entries = []
        for g in range(d // p):
            base = g * p
            if p == 1:
                wa, wb = la[base], lb[base]
                low, high = (wa, wb) if wa % 2 == 0 else (wb, wa)
                assert high == low + 1
                entries.append(CycleEntry(base, base, int(wa == high), 0,
                                          d + low // 2))
                la[base], lb[base] = low, high  # low word settles in bank A
                continue
            for u in range(p // 2):
                for ra, rb in ((base + u, base + p - 1 - u),
                               (base + p - 1 - u, base + u)):
                    wa, wb = la[ra], lb[rb]
                    low, high = (wa, wb) if wa % (2 * p) < p else (wb, wa)
                    assert high == low + p and low % (2 * p) < p
                    assert low // (2 * p) == g, "row group != twiddle group"
                    # The low output must land in the child stage's low
                    # half of this row group, whichever bank that row is.
                    low_to_a = (ra - base) < p // 2
                    if low_to_a:
                        la[ra], lb[rb] = low, high
                    else:
                        la[ra], lb[rb] = high, low
                    entries.append(CycleEntry(ra, rb, int(wa == high),
                                              int(not low_to_a),
                                              d // p + g))
        if first and stage1_reversal:
            entries = entries[: d // 2] + entries[d // 2:][::-1]
        stages.append(StageSchedule("mirror", p, tuple(entries)))
        first = False
        p //= 2
    assert la == [2 * r for r in range(d)]
    assert lb == [2 * r + 1 for r in range(d)]
    return tuple(stages)


def _inverse(stages) -> tuple[StageSchedule, ...]:
    """The inverse of a forward phase: its stages in reverse order, each
    entry's read_swap and write_swap exchanged.  It starts from the
    layout the forward phase leaves and restores the one it started
    from, so no extra permutation pass exists anywhere."""
    return tuple(
        StageSchedule(st.kind, st.span, tuple(
            CycleEntry(e.addr_a, e.addr_b, e.write_swap, e.read_swap,
                       e.tw_index) for e in st.entries))
        for st in reversed(stages))


def generate_addresses(ch: int, d: int, stage1_reversal: bool = True
                       ) -> tuple[StageSchedule, ...]:
    """Build the word-level stages of a forward (ch=0) or inverse (ch=1)
    transform over 2d words.

    The forward schedule emits log2(2d) stages of d cycles; stage 1's
    second half is emitted in reverse (disable via stage1_reversal to
    reproduce the hazard it prevents).  The inverse schedule is
    _inverse of the forward one without the reversal.
    """
    if d < 2 or d & (d - 1):
        raise ValueError("region depth must be a power of two >= 2")
    if ch not in (CH_NTT, CH_INTT):
        raise ValueError("ch selects 0 (forward) or 1 (inverse)")
    if ch == CH_NTT:
        return _forward_stages(d, stage1_reversal)
    return _inverse(_forward_stages(d, False))


def intra_word_stages(geom: MemoryGeometry) -> tuple[StageSchedule, ...]:
    """Stages for layers narrower than a word: one in-place row sweep each.

    Row j holds words (2j, 2j+1) after the word-level stages; a length-L
    layer uses t/L consecutive twiddle indices per row starting at
    128/L + t*j/L (stored per cycle as the base), in descending L.
    """
    lo, t, d = SCHEMES[geom.scheme].min_len, geom.t, geom.d
    return tuple(
        StageSchedule("intra", ell, tuple(
            CycleEntry(j, j, 0, 0, 128 // ell + t * j // ell)
            for j in range(d)))
        for ell in (t >> k for k in range(1, (t // lo).bit_length())))


def pwm_schedule(geom: MemoryGeometry) -> StageSchedule:
    """Pointwise-stage addressing: operand words a_w and b_w pairwise.

    The stage runs on the post-transform layout (even words in bank A
    at row w/2, odd words in bank B).  Word w of operand b is read at
    the same role and row in region 1, so one cycle reads both (see
    BankMemory).  Kyber spends two cycles per word (product stage then
    combine stage, 4d total) and uses psi indices from t/2 * w;
    Dilithium one cycle per word (2d total).
    """
    kyber = geom.scheme == "kyber"
    entries = []
    for w in range(2 * geom.d):
        row = w // 2
        a_in_b = w & 1
        tw = (geom.t // 2) * w if kyber else 0
        e = CycleEntry(row, row, a_in_b, a_in_b, tw)
        entries.append(e)
        if kyber:
            entries.append(e)  # second cycle: combine + write-back
    return StageSchedule("pwm", 0, tuple(entries))


class SchemeProgram(NamedTuple):
    """One scheme's whole controller program, phase by phase.

    The single source of the stage order and of every cycle count: the
    simulator executes these stages, the address ROM stores their
    entries in ntt, intt, pwm order, and latency_model and the BRAM
    estimate read their lengths.
    """

    ntt: tuple[StageSchedule, ...]
    intt: tuple[StageSchedule, ...]
    pwm: tuple[StageSchedule, ...]

    def cycles(self, phase: str) -> int:
        return sum(len(st.entries) for st in getattr(self, phase))

    @property
    def entries(self) -> tuple[CycleEntry, ...]:
        """Every cycle entry in address-ROM order."""
        return tuple(e for phase in (self.ntt, self.intt, self.pwm)
                     for st in phase for e in st.entries)


@lru_cache(maxsize=None)
def scheme_program(geom: MemoryGeometry) -> SchemeProgram:
    """The program of one scheme geometry, built once and shared.

    The intt phase is _inverse of the forward phase without the stage-1
    reversal, mirror and in-word stages alike."""
    intra = intra_word_stages(geom)
    return SchemeProgram(
        ntt=generate_addresses(CH_NTT, geom.d) + intra,
        intt=_inverse(_forward_stages(geom.d, False) + intra),
        pwm=(pwm_schedule(geom),))


# ---------------------------------------------------------------------------
# Word packing and bank memory.
# ---------------------------------------------------------------------------

def pack_word(coeffs, slot_bits: int) -> int:
    word = 0
    for s, c in enumerate(coeffs):
        if not 0 <= c < (1 << slot_bits):
            raise ValueError(f"{c} does not fit a {slot_bits}-bit slot")
        word |= c << (s * slot_bits)
    return word


def unpack_word(word: int, t: int, slot_bits: int) -> list[int]:
    mask = (1 << slot_bits) - 1
    return [(word >> (s * slot_bits)) & mask for s in range(t)]

class Hazard(NamedTuple):
    cycle: int
    bank: int
    row: int
    lands_at: int          # when the in-flight write lands


class BankMemory:
    """The two coefficient banks and their delayed write-back.

    Each bank has 2d rows, one d-row region per operand, and callers
    address a word by (region, role, row).  Operand b in region 1 is
    mirrored across the banks, so role BANK_A of region 1 is physical
    bank B: the physical bank is role ^ region and the physical row
    region * d + row.  That is what lets one pointwise cycle read a_w
    and b_w from opposite banks at the same row.

    Each physical row keeps one write record: banks holds the last word
    written to it, old the word a read sees until that write lands, and
    lands the cycle it lands at (issue cycle + pipeline_depth); settled
    is when the memory's last write lands.  A read before the landing
    cycle is recorded as a Hazard (physical bank and row) and sees the
    older word, as the hardware would.  A write to a row whose previous
    write has landed first moves that word into old; a write to a row
    whose previous write is still in flight replaces it, and the
    replaced write never lands.
    """

    def __init__(self, d: int, pipeline_depth: int) -> None:
        if (not isinstance(pipeline_depth, int)
                or isinstance(pipeline_depth, bool) or pipeline_depth < 1):
            raise ValueError(f"pipeline depth must be an integer >= 1, "
                             f"got {pipeline_depth!r}")
        self.d = d
        self.depth = pipeline_depth
        self.banks = [[0] * (2 * d), [0] * (2 * d)]
        self.old = [[0] * (2 * d), [0] * (2 * d)]
        self.lands = [[0] * (2 * d), [0] * (2 * d)]
        self.cycle = self.settled = 0
        self.hazards: list[Hazard] = []

    def read(self, region: int, role: int, row: int) -> int:
        bank, row = role ^ region, region * self.d + row
        lands = self.lands[bank][row]
        if self.cycle < lands:
            self.hazards.append(Hazard(self.cycle, bank, row, lands))
            return self.old[bank][row]
        return self.banks[bank][row]

    def write(self, region: int, role: int, row: int, word: int) -> None:
        bank, row = role ^ region, region * self.d + row
        if self.lands[bank][row] <= self.cycle:
            self.old[bank][row] = self.banks[bank][row]
        self.banks[bank][row] = word
        self.lands[bank][row] = self.settled = self.cycle + self.depth

    def tick(self) -> None:
        self.cycle += 1

    def drain(self) -> int:
        """Advance time until every write has landed; the cycles it took."""
        start, self.cycle = self.cycle, max(self.cycle, self.settled)
        return self.cycle - start

    def load(self, region: int, layout, words) -> None:
        """Place a region's words: role BANK_A row r gets
        words[layout[0][r]] and role BANK_B row r words[layout[1][r]]."""
        off = region * self.d
        for role, order in zip((BANK_A, BANK_B), layout):
            self.banks[role ^ region][off: off + self.d] = [
                words[w] for w in order]

    def extract(self, layout) -> list:
        """Region 0's words in word order, read back through the layout
        load places them by; every write must have landed."""
        assert self.cycle >= self.settled, "extract before drain"
        out = [0] * (2 * self.d)
        for bank, order in zip(self.banks, layout):
            for r, w in enumerate(order):
                out[w] = bank[r]
        return out


# ---------------------------------------------------------------------------
# Twiddle ROM.
# ---------------------------------------------------------------------------

class TwiddleRom(NamedTuple):
    """Logical twiddle store: forward, pre-halved inverse, and psi tables.

    Values are Montgomery-scaled; psi is empty for a scheme without a
    degree-1 basecase.  The image packs the three tables back to back
    (see _twiddle_regions), and the simulator indexes them by position,
    so a plain (forward, inverse, psi) tuple stands in for one.
    """

    forward: tuple[int, ...]
    inverse: tuple[int, ...]
    psi: tuple[int, ...]


@lru_cache(maxsize=None)
def build_twiddle_rom(scheme: str) -> TwiddleRom:
    p = SCHEMES[scheme]
    rom = TwiddleRom(forward_zetas(p), inverse_zetas(p), basemul_zetas(p))
    assert from_mont(rom.forward[0], p) == 1
    return rom


# ---------------------------------------------------------------------------
# Conflict checking.
# ---------------------------------------------------------------------------

def run_stages(m: BankMemory, stages, region: int, ids) -> list:
    """Run stages on m, one tick per entry, writing the next ids from ids:
    the one replay of any phase, and the only reader of its addresses
    and flags.  Returns, per stage, the ids its cycles read (in pairs)
    and each pair's twiddle index.

    A transform cycle reads both rows of region, orders them (low, high)
    by read_swap, and writes two ids back, the low one's routed by
    write_swap.  A pwm word spans len(entries) // (2d) entries (two for
    Kyber, one for Dilithium): its first reads a from region 0 and b
    from the same role and row of region 1, the role being bank B's when
    read_swap is set, and its last writes the product over a."""
    record = []
    for stage in stages:
        reads, tws = [], []
        per_word = len(stage.entries) // (2 * m.d)
        for i, e in enumerate(stage.entries):
            if stage.kind == "pwm":
                role = BANK_B if e.read_swap else BANK_A
                if i % per_word == 0:
                    reads += (m.read(0, role, e.addr_a),
                              m.read(1, role, e.addr_b))
                    tws.append(e.tw_index)
                if i % per_word == per_word - 1:
                    m.write(0, role, e.addr_a, next(ids))
            else:
                lo = m.read(region, BANK_A, e.addr_a)
                hi = m.read(region, BANK_B, e.addr_b)
                reads += (hi, lo) if e.read_swap else (lo, hi)
                tws.append(e.tw_index)
                lo, hi = next(ids), next(ids)
                if e.write_swap:
                    lo, hi = hi, lo
                m.write(region, BANK_A, e.addr_a, lo)
                m.write(region, BANK_B, e.addr_b, hi)
            m.tick()
        record.append((reads, tws))
    return record


def check_conflict_free(stages, pipeline_depth: int) -> tuple[Hazard, ...]:
    """Replay a transform phase (every stage one entry per row, which
    fixes d) through run_stages and return its hazards; none is clean.

    Each cycle reads both of its rows and writes them back; the writes
    land pipeline_depth cycles later, and reading a row whose write is
    still in flight is a hazard.  Stages run back to back with no gaps —
    that is the whole point of the schedule.
    """
    m = BankMemory(len(stages[0].entries), pipeline_depth)
    run_stages(m, stages, 0, count())
    return tuple(m.hazards)


# ---------------------------------------------------------------------------
# Core configurations and BRAM accounting.
# ---------------------------------------------------------------------------

class DesignGeometry(NamedTuple):
    """One shipped core configuration's memory plan."""

    name: str
    kyber_t: int | None
    dilithium_t: int | None
    pipeline_depth: int
    shared_banks: bool     # one bank pair serving both schemes

    def geometry(self, scheme: str) -> MemoryGeometry:
        t = self.kyber_t if scheme == "kyber" else self.dilithium_t
        if t is None:
            raise ValueError(f"{self.name} does not support {scheme}")
        return MemoryGeometry(scheme, t)

    @property
    def schemes(self) -> tuple[str, ...]:
        out = []
        if self.kyber_t is not None:
            out.append("kyber")
        if self.dilithium_t is not None:
            out.append("dilithium")
        return tuple(out)

    @property
    def bank_width(self) -> int:
        return max(self.geometry(s).word_width for s in self.schemes)

    @property
    def bank_rows(self) -> int:
        return max(2 * self.geometry(s).d for s in self.schemes)

    @property
    def max_pipeline_depth(self) -> int:
        return min(self.geometry(s).d for s in self.schemes) // 2


DESIGNS: dict[str, DesignGeometry] = {dg.name: dg for dg in (
    DesignGeometry("standalone-kyber", 2, None, 11, False),
    DesignGeometry("standalone-dilithium", None, 1, 15, False),
    DesignGeometry("d1", 2, 1, 15, False),
    DesignGeometry("d2", 4, 2, 15, True),
    DesignGeometry("d3", 8, 4, 8, True),
)}


def _twiddle_regions(dg: DesignGeometry) -> dict[str, tuple[int, int, int]]:
    """Each scheme's (first word, values per word, words) in the twiddle image.

    The image concatenates the schemes' TwiddleRom tables, packing as
    many coeff_bits-wide values as fit per word, value i at bit i*coeff_bits.
    """
    regions, offset = {}, 0
    for s in dg.schemes:
        per_word = dg.bank_width // SCHEMES[s].coeff_bits
        words = math.ceil(sum(map(len, build_twiddle_rom(s))) / per_word)
        regions[s] = (offset, per_word, words)
        offset += words
    return regions


def _addr_fields(dg: DesignGeometry, scheme: str) -> tuple[int, int, int]:
    """(row bits, twiddle-index bits, width) of one scheme's address word.

    The word is addr_A | addr_B | read_swap | write_swap (| twiddle
    index), most significant field first.  Separate-bank designs use
    region-relative rows and a counter-driven twiddle ROM; shared-bank
    designs address whole banks and add an explicit twiddle-index field,
    since one merged program serves both schemes' region layouts.
    """
    if not dg.shared_banks:
        rb = int(math.log2(dg.geometry(scheme).d))
        return rb, 0, 2 * rb + 2
    tw_words = sum(w for _, _, w in _twiddle_regions(dg).values())
    rb, tw_bits = int(math.log2(dg.bank_rows)), math.ceil(math.log2(tw_words))
    return rb, tw_bits, 2 * rb + 2 + tw_bits


class BramMemory(NamedTuple):
    label: str
    depth: int
    width: int

    @property
    def halves(self) -> int:
        """9Kb halves covering both the width and the bit volume."""
        return max(math.ceil(self.width / _BRAM_MAX_WIDTH),
                   math.ceil(self.width * self.depth / _BRAM_BITS))

    @property
    def units(self) -> float:
        return self.halves / 2


class BramEstimate(NamedTuple):
    design: str
    memories: tuple[BramMemory, ...]

    @property
    def total_units(self) -> float:
        return sum(m.units for m in self.memories)


@lru_cache(maxsize=None)
def estimate_bram_usage(design: str) -> BramEstimate:
    """18Kb-unit cost of a design's banks and ROMs, half-unit granularity.

    Shared-bank designs have one bank pair, twiddle ROM and address ROM
    serving every scheme; separate-bank designs one set per scheme.  ROM
    depths are the lengths of the images build_rom_images emits.
    """
    if design not in DESIGNS:
        raise ValueError(f"unknown design {design!r}")
    dg = DESIGNS[design]
    tw = _twiddle_regions(dg)
    groups = ([("", dg.schemes)] if dg.shared_banks
              else [(f"{s} ", (s,)) for s in dg.schemes])
    mems: list[BramMemory] = []
    for prefix, schemes in groups:
        geoms = [dg.geometry(s) for s in schemes]
        rows = max(2 * g.d for g in geoms)
        width = max(g.word_width for g in geoms)
        mems += [BramMemory(f"{prefix}bank A", rows, width),
                 BramMemory(f"{prefix}bank B", rows, width),
                 BramMemory(f"{prefix}twiddle rom",
                            sum(tw[s][2] for s in schemes), width),
                 BramMemory(f"{prefix}address rom",
                            sum(len(scheme_program(g).entries) for g in geoms),
                            max(_addr_fields(dg, s)[2] for s in schemes))]
    return BramEstimate(design, tuple(mems))


# ---------------------------------------------------------------------------
# ROM image emission.
# ---------------------------------------------------------------------------

def rom_image_lines(words, width: int) -> list[str]:
    """Hex lines, one word per line, most-significant nibble first.
    Raises ValueError for a word that does not fit ``width`` bits."""
    digits = math.ceil(width / 4)
    lines = []
    for w in words:
        if not 0 <= w < (1 << width):
            raise ValueError(f"ROM word {w:#x} does not fit {width} bits")
        lines.append(f"{w:0{digits}x}")
    return lines


def build_rom_images(design: str) -> dict:
    """Pack a design's twiddle and address ROMs into emission-ready words.

    Returns {"twiddle": (lines, width), "addr": (lines, width),
    "manifest": {key: value}}.  The twiddle image holds each scheme's
    forward/inverse(/psi) value run (see _twiddle_regions); the address
    image holds each scheme's program entries, one per word (see
    _addr_fields).
    """
    if design not in DESIGNS:
        raise ValueError(f"unknown design {design!r}")
    dg = DESIGNS[design]
    width = dg.bank_width
    manifest: dict[str, object] = {
        "design": design,
        "schemes": ",".join(dg.schemes),
        "bank_rows": dg.bank_rows,
        "bank_width": width,
        "format": "hex, one word per line, most-significant nibble first",
    }

    tw_words: list[int] = []
    for s, (offset, per_word, _words) in _twiddle_regions(dg).items():
        bits = SCHEMES[s].coeff_bits
        values = sum(build_twiddle_rom(s), ())
        manifest[f"{s}_twiddle_offset"] = offset
        manifest[f"{s}_twiddle_values_per_word"] = per_word
        for base in range(0, len(values), per_word):
            tw_words.append(pack_word(values[base: base + per_word], bits))
    manifest["twiddle_words"] = len(tw_words)

    addr_words: list[int] = []
    for s in dg.schemes:
        g = dg.geometry(s)
        rb, tw_bits, _width = _addr_fields(dg, s)
        manifest[f"{s}_addr_offset"] = len(addr_words)
        manifest[f"{s}_d"] = g.d
        manifest[f"{s}_t"] = g.t
        for e in scheme_program(g).entries:
            w = e.addr_a
            w = (w << rb) | e.addr_b
            w = (w << 1) | e.read_swap
            w = (w << 1) | e.write_swap
            if tw_bits:
                w = (w << tw_bits) | e.tw_index
            addr_words.append(w)
    addr_width = max(_addr_fields(dg, s)[2] for s in dg.schemes)
    manifest["addr_words"] = len(addr_words)
    manifest["addr_width"] = addr_width

    return {
        "twiddle": (rom_image_lines(tw_words, width), width),
        "addr": (rom_image_lines(addr_words, addr_width), addr_width),
        "manifest": manifest,
    }


_HEX_WORD = re.compile("[0-9a-fA-F]+")


def decode_twiddle_image(text: str, design: str, scheme: str) -> TwiddleRom:
    """Parse a twiddle image back into one scheme's TwiddleRom.

    The inverse of build_rom_images' twiddle packing for one scheme of a
    design; blank lines are skipped.  Raises ValueError, naming the
    line, for a word that is not ASCII hex digits, has a bit set above
    its packed values or holds a value outside [0, q), and for an image
    whose word count is not the design's own, or for a design without scheme.
    """
    if design not in DESIGNS or scheme not in DESIGNS[design].schemes:
        raise ValueError(f"design {design!r} has no {scheme!r} twiddles")
    p = SCHEMES[scheme]
    rom = build_twiddle_rom(scheme)
    regions = _twiddle_regions(DESIGNS[design])
    offset, per_word, n_words = regions[scheme]
    words = []
    for n, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if ln:
            if not _HEX_WORD.fullmatch(ln):
                raise ValueError(f"line {n}: not a hex word: {ln!r}")
            words.append((n, int(ln, 16)))
    need = sum(w for _, _, w in regions.values())
    if len(words) != need:
        raise ValueError(f"too {'short' if len(words) < need else 'long'} "
                         f"for the {design} twiddles: {len(words)} words, "
                         f"the image has {need}")
    used_bits = per_word * p.coeff_bits
    values = []
    for n, w in words[offset: offset + n_words]:
        if w >> used_bits:
            raise ValueError(f"line {n}: word has bits set above the "
                             f"{used_bits} that hold {scheme} twiddles")
        for v in unpack_word(w, per_word, p.coeff_bits):
            if v >= p.q:
                raise ValueError(f"line {n}: {scheme} twiddle {v} outside "
                                 f"[0, {p.q})")
            values.append(v)
    nf, ni, npsi = map(len, rom)
    return TwiddleRom(tuple(values[:nf]), tuple(values[nf: nf + ni]),
                      tuple(values[nf + ni: nf + ni + npsi]))
