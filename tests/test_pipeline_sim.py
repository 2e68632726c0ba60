"""Tests for the cycle-accurate core model: configuration invariants,
latency accounting, hazard behavior, and bit-exactness against the slow
oracles on a sample of runs (the full statistical sweep is in
test_acceptance.py)."""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kdntt
from kdntt.core_arith import SCHEMES
from kdntt.ntt_reference import (
    DOMAIN_NTT_BR,
    Polynomial,
    reference_pwm,
    schoolbook_negacyclic,
)
from kdntt.bfu import fast_intt, fast_ntt
from kdntt.memory_map import (
    CH_NTT,
    DESIGNS,
    Hazard,
    build_rom_images,
    build_twiddle_rom,
    check_conflict_free,
    estimate_bram_usage,
    generate_addresses,
)
from kdntt.pipeline_sim import (
    OP_INTT,
    OP_NTT,
    OP_POLYMUL,
    OP_PWM,
    SIM_OPS,
    CoreConfig,
    SimReport,
    latency_model,
    run_op,
    run_polymul,
)

RNG = random.Random(0x515)

# (design, scheme) -> published busy cycles for ntt / intt / pwm / polymul
PUBLISHED_LATENCY = {
    ("standalone-kyber", "kyber"): (448, 448, 256, 1152),
    ("standalone-dilithium", "dilithium"): (1024, 1024, 256, 2304),
    ("d1", "kyber"): (448, 448, 256, 1152),
    ("d1", "dilithium"): (1024, 1024, 256, 2304),
    ("d2", "kyber"): (224, 224, 128, 576),
    ("d2", "dilithium"): (512, 512, 128, 1152),
    ("d3", "kyber"): (112, 112, 64, 288),
    ("d3", "dilithium"): (256, 256, 64, 576),
}


def test_for_design_matches_shipped_table():
    cfg = CoreConfig.for_design("d2")
    assert (cfg.kyber_bfus, cfg.dilithium_bfus, cfg.pipeline_depth) == (4, 2, 15)
    assert CoreConfig.for_design("standalone-kyber").pipeline_depth == 11
    assert CoreConfig.for_design("d3").pipeline_depth == 8
    assert CoreConfig.for_design("d1").schemes == ("kyber", "dilithium")
    assert CoreConfig.for_design("standalone-dilithium").schemes == ("dilithium",)


def test_config_validation():
    with pytest.raises(ValueError):
        CoreConfig.for_design("d4")
    with pytest.raises(TypeError):
        CoreConfig(design="d2", kyber_bfus=8, dilithium_bfus=2, pipeline_depth=15)
    with pytest.raises(ValueError):
        CoreConfig.for_design("d2", pipeline_depth=0)
    # bound is half the smallest region depth: d3 kyber has d=16 -> max 8
    with pytest.raises(ValueError):
        CoreConfig.for_design("d3", pipeline_depth=9)
    assert CoreConfig.for_design("d3", pipeline_depth=8).pipeline_depth == 8


def test_latency_model_published_values():
    for (design, scheme), row in PUBLISHED_LATENCY.items():
        cfg = CoreConfig.for_design(design)
        got = tuple(latency_model(cfg, scheme, op)
                    for op in (OP_NTT, OP_INTT, OP_PWM, OP_POLYMUL))
        assert got == row, (design, scheme, got)


def test_rom_depths_and_latency_agree_with_images():
    for design, dg in DESIGNS.items():
        man = build_rom_images(design)["manifest"]
        mems = estimate_bram_usage(design).memories
        for label, key in (("address rom", "addr_words"),
                           ("twiddle rom", "twiddle_words")):
            depth = sum(m.depth for m in mems if m.label.endswith(label))
            assert depth == man[key], (design, label)
        cfg = CoreConfig.for_design(design)
        ends = [man[f"{s}_addr_offset"] for s in dg.schemes[1:]]
        for scheme, end in zip(dg.schemes, ends + [man["addr_words"]]):
            span = end - man[f"{scheme}_addr_offset"]
            assert sum(latency_model(cfg, scheme, op)
                       for op in SIM_OPS) == span, (design, scheme)


def test_measured_busy_equals_model():
    for (design, scheme), row in PUBLISHED_LATENCY.items():
        cfg = CoreConfig.for_design(design)
        a = Polynomial.random(scheme, RNG)
        b = Polynomial.random(scheme, RNG)
        p = SCHEMES[scheme]
        fa, fb = fast_ntt(a, p), fast_ntt(b, p)
        for op, operand, second, want in (
                (OP_NTT, a, None, row[0]),
                (OP_INTT, fa, None, row[1]),
                (OP_PWM, fa, fb, row[2])):
            _, rep = run_op(cfg, scheme, op, operand, second)
            assert rep.busy_cycles == want
        _, rep = run_polymul(cfg, scheme, a, b)
        assert rep.busy_cycles == row[3]


def test_latency_is_data_independent():
    cfg = CoreConfig.for_design("d2")
    reports = []
    for seed in (1, 2):
        rng = random.Random(seed)
        a = Polynomial.random("kyber", rng)
        b = Polynomial.random("kyber", rng)
        _, rep = run_polymul(cfg, "kyber", a, b)
        reports.append((rep.busy_cycles, rep.fill_drain_cycles))
    assert reports[0] == reports[1]


def test_fill_drain_accounting():
    # pipeline depth P costs P-1 idle cycles per drain; polymul drains
    # three times (after transforms, after pwm, after the inverse)
    for design in DESIGNS:
        cfg = CoreConfig.for_design(design)
        for scheme in cfg.schemes:
            a = Polynomial.random(scheme, RNG)
            _, rep = run_op(cfg, scheme, OP_NTT, a)
            assert rep.fill_drain_cycles == cfg.pipeline_depth - 1
            b = Polynomial.random(scheme, RNG)
            _, rep = run_polymul(cfg, scheme, a, b)
            assert rep.fill_drain_cycles == 3 * (cfg.pipeline_depth - 1)


def test_run_op_results_match_oracles():
    for design in ("d1", "d3"):
        cfg = CoreConfig.for_design(design)
        for scheme in cfg.schemes:
            p = SCHEMES[scheme]
            a = Polynomial.random(scheme, RNG)
            b = Polynomial.random(scheme, RNG)
            out, _ = run_op(cfg, scheme, OP_NTT, a)
            assert out.coeffs == fast_ntt(a, p).coeffs
            assert out.domain == DOMAIN_NTT_BR
            back, _ = run_op(cfg, scheme, OP_INTT, out)
            assert back.coeffs == a.coeffs
            fa, fb = fast_ntt(a, p), fast_ntt(b, p)
            pw, _ = run_op(cfg, scheme, OP_PWM, fa, fb)
            assert pw.coeffs == reference_pwm(fa, fb).coeffs


def test_run_polymul_matches_schoolbook():
    for design in DESIGNS:
        cfg = CoreConfig.for_design(design)
        for scheme in cfg.schemes:
            a = Polynomial.random(scheme, RNG)
            b = Polynomial.random(scheme, RNG)
            out, rep = run_polymul(cfg, scheme, a, b)
            assert out.coeffs == schoolbook_negacyclic(a, b).coeffs
            assert out.domain == "normal"
            assert not rep.hazards and rep.bfu_utilization == 1.0


def test_run_op_domain_and_scheme_guards():
    cfg = CoreConfig.for_design("d1")
    a = Polynomial.random("kyber", RNG)
    with pytest.raises(ValueError):
        run_op(cfg, "kyber", OP_INTT, a)          # normal-domain input
    with pytest.raises(ValueError):
        run_op(cfg, "kyber", OP_NTT, fast_ntt(a, SCHEMES["kyber"]))
    with pytest.raises(ValueError):
        run_op(cfg, "dilithium", OP_NTT, a)       # scheme mismatch
    with pytest.raises(ValueError):
        run_op(cfg, "kyber", OP_POLYMUL, a)       # not a single-pass op
    with pytest.raises(ValueError):
        run_op(CoreConfig.for_design("standalone-kyber"),
               "dilithium", OP_NTT, a)
    with pytest.raises(ValueError):
        run_op(cfg, "kyber", OP_PWM, fast_ntt(a, SCHEMES["kyber"]),
               a)                                  # second operand not spectral


def test_overdeep_pipeline_shows_hazards():
    """Falsification check: the simulator's hazard tracking is live.  A
    depth past d/2 (rejected by the constructor, forced here) must both
    flag hazards and corrupt the result."""
    cfg = CoreConfig.for_design("standalone-kyber")  # kyber d = 64
    object.__setattr__(cfg, "pipeline_depth", 33)
    a = Polynomial.random("kyber", RNG)
    with pytest.raises(RuntimeError):
        run_op(cfg, "kyber", OP_NTT, a)
    out, rep = run_op(cfg, "kyber", OP_NTT, a, allow_hazards=True)
    assert rep.hazards
    assert out.coeffs != fast_ntt(a, SCHEMES["kyber"]).coeffs


def test_simulator_and_gate_share_one_hazard_rule():
    """Single-lane ntt programs are mirror stages only, so at an
    over-deep pipeline the simulator must report exactly the hazards
    that check_conflict_free finds in the forward schedule.  A polymul
    runs NTT(b) on region 1 right after NTT(a), so its region-1 hazards
    are the ntt's moved to the mirrored bank, the region-1 rows and the
    cycles after NTT(a); d3 kyber adds in-word stages to that check."""
    rng = random.Random(0x6A7E)
    for design, scheme in (("standalone-kyber", "kyber"),
                           ("standalone-dilithium", "dilithium"),
                           ("d3", "kyber")):
        a, b = Polynomial.random(scheme, rng), Polynomial.random(scheme, rng)
        d = DESIGNS[design].geometry(scheme).d
        for depth in (d // 2 + 1, d):
            cfg = CoreConfig.for_design(design)
            object.__setattr__(cfg, "pipeline_depth", depth)
            _, rep = run_op(cfg, scheme, OP_NTT, a, allow_hazards=True)
            if design != "d3":  # programs of mirror stages only
                gate = check_conflict_free(generate_addresses(CH_NTT, d),
                                           depth)
                assert rep.hazards and rep.hazards == gate.hazards, \
                    (design, depth)
            shift = latency_model(cfg, scheme, OP_NTT)
            moved = [Hazard(h.cycle + shift, h.bank ^ 1, h.row + d,
                            h.lands_at + shift) for h in rep.hazards]
            _, full = run_polymul(cfg, scheme, a, b, allow_hazards=True)
            assert moved and [h for h in full.hazards if h.row >= d] == moved, \
                (design, depth)


def test_simulator_behaviour_is_pinned():
    """Outputs, busy and fill/drain cycles and hazards of every op,
    design and scheme at legal and over-deep depths (188 runs) hash to
    a fixed digest, so a rewrite of the executor or the bank model must
    leave them bit-identical."""
    rng = random.Random(0x5EED)
    h = hashlib.sha256()
    runs = 0
    for design, dg in DESIGNS.items():
        for scheme in dg.schemes:
            d = dg.geometry(scheme).d
            a, b = (Polynomial.random(scheme, rng) for _ in range(2))
            sa, sb = (Polynomial.random(scheme, rng, DOMAIN_NTT_BR)
                      for _ in range(2))
            for depth in sorted({1, dg.pipeline_depth, d // 2, d // 2 + 1,
                                 d // 2 + 5, d}):
                cfg = CoreConfig.for_design(design)
                object.__setattr__(cfg, "pipeline_depth", depth)
                for op, x, y in ((OP_NTT, a, None), (OP_INTT, sa, None),
                                 (OP_PWM, sa, sb), (OP_POLYMUL, a, b)):
                    if op == OP_POLYMUL:
                        out, rep = run_polymul(cfg, scheme, x, y,
                                               allow_hazards=True)
                    else:
                        out, rep = run_op(cfg, scheme, op, x, y,
                                          allow_hazards=True)
                    h.update(repr((
                        out.coeffs, rep.busy_cycles, rep.fill_drain_cycles,
                        [(z.cycle, z.bank, z.row, z.lands_at)
                         for z in rep.hazards])).encode())
                    runs += 1
    assert runs == 188
    assert h.hexdigest() == ("5a1de78b1b96828941ba8a7e26d9d546"
                             "0720f7eacccfec6d0a30b63f6136918a")


def test_deepest_legal_pipeline_is_clean():
    for design in DESIGNS:
        dg = DESIGNS[design]
        cfg = CoreConfig.for_design(design, pipeline_depth=dg.max_pipeline_depth)
        for scheme in cfg.schemes:
            a = Polynomial.random(scheme, RNG)
            b = Polynomial.random(scheme, RNG)
            out, rep = run_polymul(cfg, scheme, a, b)
            assert not rep.hazards
            assert out.coeffs == schoolbook_negacyclic(a, b).coeffs


def test_rom_override_identity_roundtrip():
    from kdntt.ntt_reference import basemul_zetas, forward_zetas, inverse_zetas
    cfg = CoreConfig.for_design("standalone-kyber")
    p = SCHEMES["kyber"]
    a = Polynomial.random("kyber", RNG)
    override = (forward_zetas(p), inverse_zetas(p), basemul_zetas(p))
    got, _ = run_op(cfg, "kyber", OP_NTT, a, rom_override=override)
    assert got.coeffs == fast_ntt(a, p).coeffs


def test_rom_override_corruption_changes_result():
    from kdntt.ntt_reference import basemul_zetas, forward_zetas, inverse_zetas
    cfg = CoreConfig.for_design("standalone-dilithium")
    p = SCHEMES["dilithium"]
    a = Polynomial.random("dilithium", RNG)
    fwd = list(forward_zetas(p))
    fwd[3] ^= 1
    override = (tuple(fwd), inverse_zetas(p), basemul_zetas(p))
    got, rep = run_op(cfg, "dilithium", OP_NTT, a, rom_override=override)
    assert not rep.hazards  # addressing is unaffected ...
    assert got.coeffs != fast_ntt(a, p).coeffs  # ... but the data is wrong


def test_rom_override_out_of_range_or_short_is_rejected():
    """A library override gets the checks an image does: each table as
    long as the built-in one, every twiddle in [0, q)."""
    cfg = CoreConfig.for_design("standalone-kyber")
    rom = build_twiddle_rom("kyber")
    a = Polynomial.random("kyber", RNG)
    b = Polynomial.random("kyber", RNG)
    for override in ((rom.forward[:1] + (4095,) + rom.forward[2:],
                      rom.inverse, rom.psi),
                     (rom.forward[:10], rom.inverse, rom.psi),
                     (rom.forward, rom.inverse, rom.psi + (0,)),
                     (rom.forward, rom.inverse)):
        with pytest.raises(ValueError, match="rom_override"):
            run_polymul(cfg, "kyber", a, b, rom_override=override)
        with pytest.raises(ValueError, match="rom_override"):
            run_op(cfg, "kyber", OP_NTT, a, rom_override=override)


def test_rom_override_check_survives_python_O():
    src = str(Path(kdntt.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import random\n"
         "from kdntt import CoreConfig, Polynomial, build_twiddle_rom, "
         "run_polymul\n"
         "rom = build_twiddle_rom('kyber')\n"
         "rng = random.Random(1)\n"
         "a, b = (Polynomial.random('kyber', rng) for _ in 'ab')\n"
         "bad = (rom.forward[:1] + (4095,) + rom.forward[2:], "
         "rom.inverse, rom.psi)\n"
         "try:\n"
         "    run_polymul(CoreConfig.for_design('standalone-kyber'), "
         "'kyber', a, b, rom_override=bad)\n"
         "except ValueError as e:\n"
         "    print('rejected:', e)\n"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected:"), proc.stdout


def test_report_text_format():
    cfg = CoreConfig.for_design("d3")
    a = Polynomial.random("kyber", RNG)
    _, rep = run_op(cfg, "kyber", OP_NTT, a)
    assert isinstance(rep, SimReport)
    text = rep.to_text()
    assert "op=ntt\n" in text
    assert "busy_cycles=112\n" in text
    assert "hazards=0\n" in text
    assert text.endswith("bram_estimate=5.5\n")


def test_sim_ops_tuple():
    assert SIM_OPS == ("ntt", "intt", "pwm")
    assert OP_POLYMUL not in SIM_OPS


def test_config_is_frozen():
    cfg = CoreConfig.for_design("d1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.pipeline_depth = 3
