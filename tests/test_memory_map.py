"""Tests for the two-bank address scheduling, the hazard checker, twiddle
ROM construction, coefficient packing, and the BRAM estimator."""

import hashlib
import math
import random

import pytest

from kdntt.core_arith import KYBER, SCHEMES, from_mont
from kdntt.ntt_reference import bit_reverse
from kdntt.memory_map import (
    CH_INTT,
    CH_NTT,
    DESIGNS,
    BANK_A,
    BANK_B,
    BankMemory,
    Hazard,
    MemoryGeometry,
    build_rom_images,
    build_twiddle_rom,
    check_conflict_free,
    decode_twiddle_image,
    estimate_bram_usage,
    generate_addresses,
    initial_layout,
    intra_word_stages,
    pwm_schedule,
    rom_image_lines,
    run_stages,
    scheme_program,
    transformed_layout,
    pack_word,
    unpack_word,
)

RNG = random.Random(0x3329)

WORD_COUNTS = [2, 4, 8, 16, 32, 64, 128]  # 2d words; d per region


def test_geometry_for_all_shipped_configs():
    expect = {
        ("standalone-kyber", "kyber"): (2, 24, 64),
        ("standalone-dilithium", "dilithium"): (1, 24, 128),
        ("d1", "kyber"): (2, 24, 64),
        ("d1", "dilithium"): (1, 24, 128),
        ("d2", "kyber"): (4, 48, 32),
        ("d2", "dilithium"): (2, 48, 64),
        ("d3", "kyber"): (8, 96, 16),
        ("d3", "dilithium"): (4, 96, 32),
    }
    for (design, scheme), (t, width, d) in expect.items():
        g = DESIGNS[design].geometry(scheme)
        assert (g.t, g.word_width, g.d) == (t, width, d)
    with pytest.raises(ValueError):
        DESIGNS["standalone-kyber"].geometry("dilithium")


def test_layout_definitions():
    assert initial_layout(4) == ((0, 1, 2, 3), (7, 6, 5, 4))
    assert transformed_layout(4) == ((0, 2, 4, 6), (1, 3, 5, 7))


def test_stage1_pairs_and_last_half_reversal():
    st = generate_addresses(CH_NTT, 8)[0]
    assert st.kind == "mirror" and st.span == 8
    got = [(e.addr_a, e.addr_b) for e in st.entries]
    # opens with the mirror walk, then the second half runs reversed
    assert got[:4] == [(0, 7), (7, 0), (1, 6), (6, 1)]
    assert got[4:] == [(4, 3), (3, 4), (5, 2), (2, 5)]


def test_stage2_documented_pattern():
    # second stage begins {0, d/2-1}, {d/2-1, 0}, {1, d/2-2}, ...
    for d in (8, 16, 32, 64, 128):
        s = generate_addresses(CH_NTT, d)
        got = [(e.addr_a, e.addr_b) for e in s[1].entries[:4]]
        h = d // 2
        assert got == [(0, h - 1), (h - 1, 0), (1, h - 2), (h - 2, 1)]


def enumerate_stage_pairs(ch: int, stages):
    """The pairing oracle: word-index partner pairs per stage.  It runs
    run_stages from banks holding word indices in direction ch's start
    layout, each written word its own index, and lists the (low, high)
    words each cycle reads, the view that proves schedule completeness
    against a reference transform trace."""
    d = len(stages[0].entries)
    start, end = ((initial_layout, transformed_layout) if ch == CH_NTT
                  else (transformed_layout, initial_layout))
    m = BankMemory(d, 1)
    m.load(0, start(d), range(2 * d))
    out = [[] for _ in stages]

    def step(k, _i, lo, hi, _tw):
        out[k].append((lo, hi))
        return lo, hi

    run_stages(m, stages, 0, step)
    m.drain()
    assert m.extract(end(d)) == list(range(2 * d))
    return out


def test_forward_pairing_completeness_exhaustive():
    """Every word step pairs exactly {(x, x+p) : x mod 2p < p}, all d."""
    for d in WORD_COUNTS:
        s = generate_addresses(CH_NTT, d)
        mirror = [st for st in s if st.kind == "mirror"]
        assert len(mirror) == int(math.log2(d)) + 1
        for st, pairs in zip(s, enumerate_stage_pairs(CH_NTT, s)):
            p = st.span
            want = {(x, x + p) for x in range(2 * d) if x % (2 * p) < p}
            assert set(pairs) == want and len(pairs) == len(want)


def test_inverse_pairing_completeness_exhaustive():
    for d in WORD_COUNTS:
        # inverse runs transformed -> load layout, ready for the next op
        s = generate_addresses(CH_INTT, d)
        for st, pairs in zip(s, enumerate_stage_pairs(CH_INTT, s)):
            p = st.span
            want = {(x, x + p) for x in range(2 * d) if x % (2 * p) < p}
            assert set(pairs) == want


def test_inverse_is_stage_reversed_forward():
    for d in (8, 64):
        fwd = generate_addresses(CH_NTT, d)
        inv = generate_addresses(CH_INTT, d)
        assert [st.span for st in inv] == [st.span for st in reversed(fwd)]


def test_conflict_free_all_depths_within_bound():
    for d in WORD_COUNTS:
        for ch in (CH_NTT, CH_INTT):
            s = generate_addresses(ch, d)
            for depth in range(1, d // 2 + 1):
                assert not check_conflict_free(s, depth)
            if d >= 4:
                assert check_conflict_free(s, d // 2 + 1)


def test_shipped_depths_are_conflict_free():
    for dg in DESIGNS.values():
        for scheme in dg.schemes:
            d = dg.geometry(scheme).d
            assert dg.pipeline_depth <= d // 2
            for ch in (CH_NTT, CH_INTT):
                s = generate_addresses(ch, d)
                assert not check_conflict_free(s, dg.pipeline_depth)


def test_gate_replays_whole_scheme_phases():
    """check_conflict_free over a shipped scheme's whole ntt or intt
    phase, in-word stages included: clean at every depth up to d/2,
    hazardous one past it."""
    for dg in DESIGNS.values():
        for scheme in dg.schemes:
            g = dg.geometry(scheme)
            prog = scheme_program(g)
            for stages in (prog.ntt, prog.intt):
                for depth in range(1, g.d // 2 + 1):
                    assert not check_conflict_free(stages, depth)
                assert check_conflict_free(stages, g.d // 2 + 1)


def test_gate_rejects_depth_below_one():
    s = generate_addresses(CH_NTT, 8)
    for depth in (0, -3, 1.5, True):
        with pytest.raises(ValueError, match="pipeline depth"):
            check_conflict_free(s, depth)


def test_reversal_is_needed_at_bound():
    """The stage-1 last-half reversal is what buys the forward pass its
    depth-d/2 margin: turning it off leaves hazards from depth 2 up.  The
    inverse pass replays that stage last, so nothing reads behind its
    writes and it is depth-clean either way; we only require that the
    reversal never hurts it."""
    for d in (4, 8, 16, 32, 64, 128):
        plain = generate_addresses(CH_NTT, d, stage1_reversal=False)
        assert check_conflict_free(plain, d // 2)
        if d >= 4:
            assert check_conflict_free(plain, 2)
        for ch in (CH_NTT, CH_INTT):
            assert not check_conflict_free(generate_addresses(ch, d), d // 2)


def test_programs_are_pinned():
    """The exact entries of every generate_addresses schedule (d 2..128,
    both directions, stage-1 reversal on and off) and of scheme_program
    for all 13 valid (scheme, t) hash to fixed digests, so a rewrite of
    the schedule builders must leave every program bit-identical."""
    h = hashlib.sha256()
    for d in WORD_COUNTS:
        for ch in (CH_NTT, CH_INTT):
            for reversal in (True, False):
                st = generate_addresses(ch, d, reversal)
                # The digest was first taken over this wrapper text.
                h.update(f"AddressSchedule(ch={ch}, d={d}, stages={st!r})"
                         .encode())
    assert h.hexdigest() == ("2bd8bfe60bba3441b3226c00d0defecc"
                             "49bbf569940efd97019d9ad21a94f487")
    h = hashlib.sha256()
    geoms = [MemoryGeometry(scheme, t) for scheme, p in SCHEMES.items()
             for t in (1, 2, 4, 8, 16, 32, 64) if t >= p.min_len]
    assert len(geoms) == 13
    for g in geoms:
        h.update(repr(scheme_program(g)).encode())
    assert h.hexdigest() == ("4096e476b073f7d97b44aa42906cce95"
                             "54d8f756c1304d6dc59be08206698fd6")


def test_gate_hazards_are_pinned():
    """check_conflict_free's exact hazard lists, not just its clean flags:
    every generate_addresses schedule (d 2..128, both directions, stage-1
    reversal on and off) and the ntt and intt phases of scheme_program
    for all 13 valid (scheme, t), each at depths 1, 2, d/2, d/2+1, d/2+5
    and d, hash to one fixed digest.  A rewrite of the bank model must
    report every hazard at the same cycle, row and landing cycle."""
    scheds = [((d, ch, rev), d, generate_addresses(ch, d, rev))
              for d in WORD_COUNTS for ch in (CH_NTT, CH_INTT)
              for rev in (True, False)]
    for scheme, p in SCHEMES.items():
        for t in (1, 2, 4, 8, 16, 32, 64):
            if t >= p.min_len:
                g = MemoryGeometry(scheme, t)
                prog = scheme_program(g)
                scheds += [((scheme, t, ch), g.d, st)
                           for ch, st in ((CH_NTT, prog.ntt),
                                          (CH_INTT, prog.intt))]
    h, reports = hashlib.sha256(), 0
    for key, d, s in scheds:
        for depth in sorted({1, 2, d // 2, d // 2 + 1, d // 2 + 5, d}):
            hazards = check_conflict_free(s, depth)
            h.update(repr((key, depth, [(x.cycle, x.bank, x.row, x.lands_at)
                                        for x in hazards])).encode())
            reports += 1
    assert reports == 292
    assert h.hexdigest() == ("d5dffc81c165d084c3cc05d70bfee93a"
                             "29e7b70970073d5813f008603d1cbae5")


def test_reversal_noop_for_two_words():
    # d = 2 has a single pair per half; reversal changes nothing.
    a = generate_addresses(CH_NTT, 2, stage1_reversal=True)
    b = generate_addresses(CH_NTT, 2, stage1_reversal=False)
    assert [st.entries for st in a] == [st.entries for st in b]


def test_intra_word_stage_indices():
    # Kyber t=4 (d2): one in-word stage at length 2 touching every row.
    stages = intra_word_stages(MemoryGeometry("kyber", 4))
    assert [st.span for st in stages] == [2]
    assert [e.addr_a for e in stages[0].entries] == list(range(32))
    ks = [e.tw_index for e in stages[0].entries]
    assert ks[0] == 64 and len(set(ks)) == 32  # one group index per row
    # Dilithium t=4 (d3): lengths 2 then 1.
    stages = intra_word_stages(MemoryGeometry("dilithium", 4))
    assert [st.span for st in stages] == [2, 1]
    inv = scheme_program(MemoryGeometry("dilithium", 4)).intt
    assert [st.span for st in inv if st.kind == "intra"] == [1, 2]
    # t=1: no in-word layers at all
    assert intra_word_stages(MemoryGeometry("dilithium", 1)) == ()


def test_pwm_schedule_layouts():
    # post-transform layout: word w lives at row w//2, bank w&1
    st = pwm_schedule(MemoryGeometry("dilithium", 1))
    assert st.kind == "pwm" and len(st.entries) == 2 * 128
    st = pwm_schedule(MemoryGeometry("kyber", 2))
    assert len(st.entries) == 4 * 64  # two cycles per word pair
    rows = [e.addr_a for e in st.entries]
    assert rows[0] == 0 and max(rows) == 63
    # psi indices step by pairs-per-word
    tws = [e.tw_index for e in st.entries]
    assert tws[:4] == [0, 0, 1, 1]
    assert max(tws) == 127


def test_pack_unpack_words():
    assert pack_word([5, 7], 12) == 5 | (7 << 12)
    assert unpack_word(5 | (7 << 12), 2, 12) == [5, 7]
    vals = [RNG.randrange(1 << 12) for _ in range(8)]
    assert unpack_word(pack_word(vals, 12), 8, 12) == vals
    # an over-wide or negative value would corrupt the neighbouring slot
    for bad in ([5000, 1], [-1, 0]):
        with pytest.raises(ValueError):
            pack_word(bad, 12)


def test_pack_coefficients_roundtrip():
    for design, scheme in (("standalone-kyber", "kyber"),
                           ("d2", "dilithium"), ("d3", "kyber")):
        geom = DESIGNS[design].geometry(scheme)
        coeffs = [RNG.randrange(SCHEMES[scheme].q) for _ in range(256)]
        t, sb = geom.t, geom.slot_bits
        m = BankMemory(geom.d, 1)
        m.load(0, initial_layout(geom.d),
               [pack_word(coeffs[t * w: t * w + t], sb)
                for w in range(2 * geom.d)])
        assert len(m.banks[BANK_A]) == len(m.banks[BANK_B]) == 2 * geom.d
        back = [c for word in m.extract(initial_layout(geom.d))
                for c in unpack_word(word, t, sb)]
        assert back == coeffs
        # B holds the upper words mirrored: row 0 carries the last word
        top_word = coeffs[(2 * geom.d - 1) * geom.t:]
        assert unpack_word(m.read(0, BANK_B, 0), geom.t,
                           geom.slot_bits) == top_word


def test_bank_write_record_rule():
    """A write lands pipeline_depth cycles after issue; a read before
    that sees the older word and is a Hazard; a write issued while the
    row's previous write is in flight replaces it, and the replaced
    write never lands."""
    m = BankMemory(2, 3)
    m.load(0, initial_layout(2), [10, 20, 30, 40])
    orig = m.read(0, BANK_A, 1)
    m.write(0, BANK_A, 1, 111)                    # issued at 0, lands at 3
    m.tick()
    assert m.read(0, BANK_A, 1) == orig
    assert m.hazards == [Hazard(1, BANK_A, 1, 3)]
    m.tick()
    m.tick()
    assert m.read(0, BANK_A, 1) == 111            # cycle 3: landed
    assert len(m.hazards) == 1
    m.write(0, BANK_A, 1, 222)                    # issued at 3, lands at 6
    m.tick()
    m.write(0, BANK_A, 1, 333)                    # issued at 4, replaces 222
    m.tick()
    m.tick()
    assert m.read(0, BANK_A, 1) == 111            # cycle 6: 222 never lands
    assert m.hazards[-1] == Hazard(6, BANK_A, 1, 7)
    assert m.drain() == 1 and m.cycle == 7
    assert m.read(0, BANK_A, 1) == 333
    assert m.drain() == 0 and m.cycle == 7
    # Region 1, role BANK_A, row r is physical bank B, row d + r.
    m.write(1, BANK_A, 0, 444)
    assert m.drain() == 3
    assert m.banks[BANK_B][2] == 444 and m.read(0, BANK_B, 0) != 444
    assert m.read(1, BANK_A, 0) == 444


def test_twiddle_rom_structure():
    for scheme, p in SCHEMES.items():
        rom = build_twiddle_rom(scheme)
        per_transform = 1 << p.layers
        assert len(rom.forward) == per_transform
        assert from_mont(rom.forward[0], p) == 1
        # gamma^(n/2) == -1 spot check through the Montgomery scaling
        if scheme == "kyber":
            assert from_mont(rom.forward[1], p) == pow(17, 64, 3329)
            assert len(sum(rom, ())) == 384
        else:
            assert len(sum(rom, ())) == 512
        # inverse entries are pre-halved inverses of the forward entries
        for k in (1, 2, 3, 77):
            f = from_mont(rom.forward[k], p)
            i = from_mont(rom.inverse[k], p)
            assert i * 2 * f % p.q == 1


def test_kyber_psi_table():
    rom = build_twiddle_rom("kyber")
    for i in range(128):
        want = pow(17, 2 * bit_reverse(i, 7) + 1, 3329)
        assert from_mont(rom.psi[i], KYBER) == want
    # consecutive entries negate each other: exponents differ by 128 and
    # gamma^128 == -1
    assert from_mont(rom.psi[1], KYBER) == 3329 - from_mont(rom.psi[0], KYBER)


def test_bram_totals_and_splits():
    totals = {name: estimate_bram_usage(name).total_units for name in DESIGNS}
    assert totals == {
        "standalone-kyber": 2.0,
        "standalone-dilithium": 2.5,
        "d1": 4.5,
        "d2": 4.5,
        "d3": 5.5,
    }
    by_label = {m.label: m for m in estimate_bram_usage("d3").memories}
    assert by_label["bank A"].units == 1.5
    assert by_label["twiddle rom"].units == 1.5
    assert by_label["address rom"].units == 1.0
    sd = {m.label: m for m in estimate_bram_usage("standalone-dilithium").memories}
    assert sd["dilithium address rom"].units == 1.0  # 2304 x 16 = exactly 36Kb
    assert sd["dilithium address rom"].depth == 2304
    with pytest.raises(ValueError, match="unknown design 'bogus'"):
        estimate_bram_usage("bogus")


def test_bram_unified_vs_separate_memory_sets():
    d1 = estimate_bram_usage("d1")
    sk = estimate_bram_usage("standalone-kyber")
    sd = estimate_bram_usage("standalone-dilithium")
    assert d1.total_units == sk.total_units + sd.total_units
    d2 = estimate_bram_usage("d2")
    assert len(d2.memories) == 4  # shared banks + shared roms


def test_rom_image_lines_format():
    lines = rom_image_lines([0, 0xABC, 0xF], 12)
    assert lines == ["000", "abc", "00f"]
    lines = rom_image_lines([1 << 21], 22)
    assert lines == ["200000"]
    with pytest.raises(ValueError, match="does not fit 12 bits"):
        rom_image_lines([1 << 12], 12)  # word wider than declared
    with pytest.raises(ValueError, match="does not fit 4 bits"):
        rom_image_lines([-1], 4)


def test_build_rom_images_deterministic_and_consistent():
    for design in DESIGNS:
        im1 = build_rom_images(design)
        im2 = build_rom_images(design)
        assert im1["twiddle"] == im2["twiddle"]
        assert im1["addr"] == im2["addr"]
        man = im1["manifest"]
        assert man["twiddle_words"] == len(im1["twiddle"][0])
        assert man["addr_words"] == len(im1["addr"][0])
        tw_lines, tw_width = im1["twiddle"]
        assert all(len(ln) == math.ceil(tw_width / 4) for ln in tw_lines)
    with pytest.raises(ValueError, match="unknown design 'bogus'"):
        build_rom_images("bogus")


def test_rom_image_twiddles_parse_back():
    """The packed image decodes to exactly build_twiddle_rom's values,
    by hand and through decode_twiddle_image."""
    for design, dg in DESIGNS.items():
        images = build_rom_images(design)
        lines, width = images["twiddle"]
        man = images["manifest"]
        for scheme in dg.schemes:
            p = SCHEMES[scheme]
            per_word = man[f"{scheme}_twiddle_values_per_word"]
            off = man[f"{scheme}_twiddle_offset"]
            rom = build_twiddle_rom(scheme)
            values = sum(rom, ())
            vals = []
            for ln in lines[off:]:
                w = int(ln, 16)
                for i in range(per_word):
                    vals.append((w >> (i * p.coeff_bits)) & ((1 << p.coeff_bits) - 1))
                if len(vals) >= len(values):
                    break
            assert tuple(vals[: len(values)]) == values
            assert decode_twiddle_image("\n".join(lines), design,
                                        scheme) == rom
    for design, scheme in (("standalone-kyber", "dilithium"),
                           ("bogus", "kyber")):
        with pytest.raises(ValueError, match=f"{design}.*{scheme}"):
            decode_twiddle_image("0\n", design, scheme)


def test_addr_rom_dimensions():
    # standalone Dilithium: 2304 entries x 16 bits; d3 shared: 864 x 22
    man = build_rom_images("standalone-dilithium")["manifest"]
    assert man["addr_words"] == 2304 and man["addr_width"] == 16
    man = build_rom_images("d3")["manifest"]
    assert man["addr_words"] == 864 and man["addr_width"] == 22
    man = build_rom_images("d2")["manifest"]
    assert man["addr_words"] == 1728 and man["addr_width"] == 25


def test_generate_addresses_input_validation():
    with pytest.raises(ValueError):
        generate_addresses(CH_NTT, 3)
    with pytest.raises(ValueError):
        generate_addresses(CH_NTT, 0)
    with pytest.raises(ValueError):
        generate_addresses(7, 8)


def test_memory_geometry_validation():
    g = MemoryGeometry("kyber", 2)
    assert g.d == 64 and g.word_width == 24
    with pytest.raises(TypeError):  # d and word_width follow from t
        MemoryGeometry("kyber", 2, 24, 64)
    with pytest.raises(ValueError):
        MemoryGeometry(scheme="kyber", t=3)
    with pytest.raises(ValueError, match="unknown scheme 'ntru'"):
        MemoryGeometry("ntru", 2)
    # t runs from the scheme's shortest butterfly (min_len) to 64 (d = 2)
    for scheme, lo in (("kyber", 2), ("dilithium", 1)):
        assert MemoryGeometry(scheme, lo).d == 128 // lo
        assert MemoryGeometry(scheme, 64).d == 2
        for t in (lo // 2, 128, -2, True, 2.0):
            with pytest.raises(ValueError, match="lane count"):
                MemoryGeometry(scheme, t)
