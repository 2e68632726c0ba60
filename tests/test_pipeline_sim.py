"""Tests for the cycle-accurate core model: configuration invariants,
latency accounting, hazard behavior, and bit-exactness against the slow
oracles on a sample of runs (the full statistical sweep is in
test_acceptance.py)."""

import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import kdntt
from kdntt.core_arith import SCHEMES
from kdntt.ntt_reference import (
    DOMAIN_NTT_BR,
    Polynomial,
    direct_intt,
    direct_ntt,
    reference_pwm,
    schoolbook_negacyclic,
)
from kdntt.memory_map import (
    CH_NTT,
    DESIGNS,
    BankMemory,
    Hazard,
    build_rom_images,
    build_twiddle_rom,
    check_conflict_free,
    estimate_bram_usage,
    generate_addresses,
    run_stages,
    scheme_program,
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
    run_batch,
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
    assert (cfg.geometry("kyber").t, cfg.geometry("dilithium").t,
            cfg.pipeline_depth) == (4, 2, 15)
    assert CoreConfig.for_design("standalone-kyber").pipeline_depth == 11
    assert CoreConfig.for_design("d3").pipeline_depth == 8
    assert CoreConfig.for_design("d1").schemes == ("kyber", "dilithium")
    assert CoreConfig.for_design("standalone-dilithium").schemes == ("dilithium",)


def test_config_validation():
    with pytest.raises(ValueError):
        CoreConfig.for_design("d4")
    with pytest.raises(ValueError, match="unknown design 'd4'"):
        CoreConfig("d4", 1)
    with pytest.raises(TypeError):
        CoreConfig(design="d2", kyber_bfus=8, dilithium_bfus=2, pipeline_depth=15)
    with pytest.raises(ValueError):
        CoreConfig("d2", 0)
    # bound is half the smallest region depth: d3 kyber has d=16 -> max 8
    with pytest.raises(ValueError):
        CoreConfig("d3", 9)
    with pytest.raises(ValueError):  # was accepted, busy_cycles=288.0
        CoreConfig("d3", 7.5)
    with pytest.raises(ValueError):  # was accepted, fill_drain_cycles=0
        CoreConfig("d3", True)
    assert CoreConfig("d3", 8).pipeline_depth == 8


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
        fa, fb = direct_ntt(a, p), direct_ntt(b, p)
        for op, operand, second, want in (
                (OP_NTT, a, None, row[0]),
                (OP_INTT, fa, None, row[1]),
                (OP_PWM, fa, fb, row[2])):
            _, rep = run_op(cfg, scheme, op, operand, second)
            assert rep.busy_cycles == want
        _, rep = run_polymul(cfg, scheme, a, b)
        assert rep.busy_cycles == row[3]


def _refusal(hazard: Hazard) -> str:
    """The message every driver refuses a hazardous plan with."""
    return (f"memory hazard at cycle {hazard.cycle}: bank {hazard.bank} "
            f"row {hazard.row} read before its write lands at "
            f"{hazard.lands_at}")


def test_latency_is_data_independent():
    """Cycle counts, and at an over-deep pipeline (d/2 + 1) the refusal,
    are the same for two different operand pairs: a plan depends only
    on the geometry, the depth and the op."""
    cfg = CoreConfig.for_design("d2")
    deep = CoreConfig.for_design("d2")
    object.__setattr__(deep, "pipeline_depth",
                       cfg.geometry("kyber").d // 2 + 1)
    reports = []
    for seed in (1, 2):
        rng = random.Random(seed)
        a = Polynomial.random("kyber", rng)
        b = Polynomial.random("kyber", rng)
        _, rep = run_polymul(cfg, "kyber", a, b)
        with pytest.raises(RuntimeError, match="memory hazard") as over:
            run_polymul(deep, "kyber", a, b)
        reports.append((rep.busy_cycles, rep.fill_drain_cycles,
                        str(over.value)))
    assert reports[0] == reports[1]


def test_plan_follows_a_mutated_depth():
    """One config moved from its shipped depth to d/2 + 1 and back runs
    at each depth it holds: a refusal naming the first hazard, then a
    clean exact product."""
    import kdntt.pipeline_sim as ps
    rng = random.Random(0xDE97)
    cfg = CoreConfig.for_design("d3")
    geom = cfg.geometry("kyber")
    shipped, d = cfg.pipeline_depth, geom.d
    a, b = Polynomial.random("kyber", rng), Polynomial.random("kyber", rng)
    _, rep = run_polymul(cfg, "kyber", a, b)
    assert not rep.hazards
    object.__setattr__(cfg, "pipeline_depth", d // 2 + 1)
    first = ps._compile(geom, d // 2 + 1, OP_POLYMUL).hazards[0]
    with pytest.raises(RuntimeError) as refused:
        run_polymul(cfg, "kyber", a, b)
    assert str(refused.value) == _refusal(first)
    object.__setattr__(cfg, "pipeline_depth", shipped)
    out, rep = run_polymul(cfg, "kyber", a, b)
    assert not rep.hazards
    assert out.coeffs == schoolbook_negacyclic(a, b).coeffs


def test_compile_refuses_a_stage_that_reads_its_own_writes(monkeypatch):
    """The array executor runs a stage at once, so a stage may not read
    a word it writes.  standalone-kyber's first ntt stage, given a copy
    of its first entry at its end, re-reads two rows it wrote (without
    a hazard at depth 1): _compile raises instead of lowering it."""
    import kdntt.pipeline_sim as ps
    geom = DESIGNS["standalone-kyber"].geometry("kyber")
    prog = scheme_program(geom)
    first = prog.ntt[0]
    bad = first._replace(entries=first.entries + first.entries[:1])
    monkeypatch.setattr(ps, "scheme_program",
                        lambda _geom: prog._replace(ntt=(bad, *prog.ntt[1:])))
    with pytest.raises(RuntimeError, match="reads a word it writes"):
        ps._compile.__wrapped__(geom, 1, OP_NTT)


def test_executor_looks_butterflies_up_at_call_time(monkeypatch):
    """A cached plan must not capture the butterfly functions: wrappers
    installed after the plan is compiled see every call of the next
    polymul (each forward butterfly of NTT(a) and NTT(b), 128 per layer,
    each inverse one, 128 per layer, and each product: two
    kyber_pwm_pair calls per Kyber pair, one dilithium_pwm per Dilithium
    coefficient), and an over-deep run is refused before any of them
    runs."""
    import kdntt.pipeline_sim as ps
    names = ("ct_butterfly", "gs_butterfly_halving", "kyber_pwm_pair",
             "dilithium_pwm")
    rng = random.Random(0xB7F)
    for design, scheme, layers in (("standalone-kyber", "kyber", 7),
                                   ("standalone-dilithium", "dilithium", 8)):
        cfg = CoreConfig.for_design(design)
        a, b = Polynomial.random(scheme, rng), Polynomial.random(scheme, rng)
        run_polymul(cfg, scheme, a, b)
        calls = Counter()
        for name in names:
            def counting(*args, name=name, fn=getattr(ps, name), **kw):
                calls[name] += 1
                return fn(*args, **kw)

            monkeypatch.setattr(ps, name, counting)
        out, _ = run_polymul(cfg, scheme, a, b)
        pwm = {"kyber": (256, 0), "dilithium": (0, 256)}[scheme]
        assert [calls[name] for name in names] == [
            2 * layers * 128, layers * 128, *pwm], (design, calls)
        assert out.coeffs == schoolbook_negacyclic(a, b).coeffs
        calls.clear()
        object.__setattr__(cfg, "pipeline_depth",
                           cfg.geometry(scheme).d // 2 + 1)
        with pytest.raises(RuntimeError, match="memory hazard"):
            run_polymul(cfg, scheme, a, b)
        assert not calls
        monkeypatch.undo()


def test_plan_positions_are_well_formed():
    """The plan both executors read, for every shipped (design, scheme,
    op) at its shipped depth: a stage reads only positions below its own
    outputs (what lets run_batch compute it at once), the value list
    holds the inputs plus two outputs per butterfly and one per product,
    and the result is 256 distinct positions in it."""
    import kdntt.pipeline_sim as ps
    plans = 0
    for design, dg in DESIGNS.items():
        for scheme in dg.schemes:
            for op in (OP_NTT, OP_INTT, OP_PWM, OP_POLYMUL):
                plan = ps._compile(dg.geometry(scheme), dg.pipeline_depth, op)
                first = 256 * (1 + (op in (OP_PWM, OP_POLYMUL)))
                for phase, xs, ys, _ws in plan.stages:
                    assert len(xs) == len(ys) and max(*xs, *ys) < first, \
                        (design, scheme, op)
                    first += len(xs) * (1 if phase == OP_PWM else 2)
                assert plan.size == first, (design, scheme, op)
                assert len(set(plan.out)) == 256 and max(plan.out) < first
                plans += 1
    assert plans == 32


def test_polymul_plan_is_the_ntt_pwm_and_intt_plans():
    """For every shipped (design, scheme) at every depth of the 188-run
    sweep (47 points), the polymul plan's busy and fill/drain cycles
    are the ntt, pwm and intt plans' sums.  At the 23 hazard-free
    points, depth d/2 and below, the polymul plan is the ntt plan on a
    and on b, then the pwm plan, then the intt plan, under one
    relabelling of positions: ntt stage k's output j lands at 512 +
    512k + j (b's 256 later), and each later plan's inputs are the
    relabelled outputs of the one before.  The pwm plan pairs a's
    coefficient k with b's, and a Kyber pair is two adjacent positions
    under the psi of its pair index.  At depth 1, the shipped depth and
    d/2 the unit-basis test below proves the ntt and intt plans equal
    FIPS 203's and 204's transforms on every input, so with the
    pointwise product of coefficient k (pair k for Kyber, under psi k)
    the polymul is intt(ntt(a) * ntt(b)): it equals
    schoolbook_negacyclic on every input pair.  The over-deep polymul
    plans are hazardous, so they are never lowered."""
    import kdntt.pipeline_sim as ps

    def listed(stage):  # a plan stage with lists for its position arrays
        return stage[0], *map(list, stage[1:])

    points = relabelled = 0
    for design, dg in DESIGNS.items():
        for scheme in dg.schemes:
            geom = dg.geometry(scheme)
            d = geom.d
            for depth in sorted({1, dg.pipeline_depth, d // 2, d // 2 + 1,
                                 d // 2 + 5, d}):
                where = (design, scheme, depth)
                ntt, pwm, intt, mul = (ps._compile.__wrapped__(geom, depth, op)
                                       for op in (OP_NTT, OP_PWM, OP_INTT,
                                                  OP_POLYMUL))
                assert (mul.busy, mul.fill_drain) == (
                    ntt.busy + pwm.busy + intt.busy,
                    ntt.fill_drain + pwm.fill_drain + intt.fill_drain), where
                points += 1
                if mul.hazards:  # refused, so never lowered
                    continue
                layers = len(ntt.stages)
                pwm_at = 512 + 512 * layers  # the pwm stage's first output

                def of_ntt(x, b):  # ntt position on a (b = 0) or b (1)
                    if x < 256:
                        return x + 256 * b
                    k, j = divmod(x - 256, 256)
                    return 512 + 512 * k + 256 * b + j

                def of_pwm(x):
                    if x < 512:
                        return of_ntt(ntt.out[x % 256], x // 256)
                    return pwm_at + x - 512

                def of_intt(x):  # outputs follow the pwm stage's 256
                    return of_pwm(pwm.out[x]) if x < 256 else pwm_at + x

                for k, (phase, xs, ys, ws) in enumerate(ntt.stages):
                    assert listed(mul.stages[k]) == (
                        phase, *([of_ntt(v, b) for b in (0, 1) for v in vs]
                                 for vs in (xs, ys)),
                        list(ws + ws)), (*where, k)
                (phase, xs, ys, ws), = pwm.stages
                assert listed(mul.stages[layers]) == (
                    phase, [of_pwm(x) for x in xs], [of_pwm(y) for y in ys],
                    list(ws)), where
                assert sorted(xs) == list(range(256)), where
                assert list(ys) == [x + 256 for x in xs], where
                if scheme == "kyber":
                    assert all(x % 2 == 0 for x in xs[0::2]), where
                    assert list(xs[1::2]) == [x + 1 for x in xs[0::2]], where
                    assert list(ws) == [x // 2 for x in xs[0::2]], where
                assert [listed(st) for st in mul.stages[layers + 1:]] == [
                    (phase, [of_intt(x) for x in xs],
                     [of_intt(y) for y in ys], list(ws))
                    for phase, xs, ys, ws in intt.stages], where
                assert list(mul.out) == [of_intt(x) for x in intt.out], where
                relabelled += 1
    assert (points, relabelled) == (47, 23)


def test_verify_plan_equals_four_single_op_runs_at_every_depth(monkeypatch):
    """verify's one plan, _compile(geom, depth, VERIFY_OPS), for every
    shipped (design, scheme) at every depth of the 188-run sweep (1,
    shipped, d/2, d/2 + 1, d/2 + 5 and d): its busy and fill/drain
    cycles are the four plans' sums and its hazards are theirs in
    VERIFY_OPS order.  At the 23 hazard-free points, depth d/2 and
    below, its four 256-row output blocks equal, bit for bit, four
    single-op executor runs on independent blocks a, da, b and fb
    (polymul of a and b, ntt of a, intt of da and pwm of da and fb).
    At the shipped depth they run at batch 20 and at batch 1, each with
    the shipped twiddle tables and with one forward twiddle off by one;
    at the other depths, at batch 20 with the shipped tables and at
    batch 1 with the off one.  Every stage reads only positions below
    its first output, the value list holds the four input blocks plus
    the outputs, and the 1024 output positions are distinct.  The
    over-deep plans are hazardous, so they are never lowered, and at
    d/2 + 1 verify refuses the plan before any arithmetic."""
    import numpy as np
    import kdntt.cli
    import kdntt.pipeline_sim as ps
    rng = np.random.default_rng(0xC0B)
    executed = 0
    for design, dg in DESIGNS.items():
        for scheme in dg.schemes:
            geom, p = dg.geometry(scheme), SCHEMES[scheme]
            d = geom.d
            shipped = [np.array(t, np.int64)
                       for t in build_twiddle_rom(scheme)]
            for depth in sorted({1, dg.pipeline_depth, d // 2, d // 2 + 1,
                                 d // 2 + 5, d}):
                where = (design, scheme, depth)
                plans = {op: ps._compile(geom, depth, op)
                         for op, _ in ps.VERIFY_OPS}
                plan = ps._compile(geom, depth, ps.VERIFY_OPS)
                parts = plans.values()
                assert (plan.busy, plan.fill_drain, plan.hazards) == (
                    sum(q.busy for q in parts),
                    sum(q.fill_drain for q in parts),
                    sum((q.hazards for q in parts), ())), where
                if plan.hazards:  # refused, so never lowered
                    continue
                executed += 1
                first = 4 * 256
                for phase, xs, ys, _ws in plan.stages:
                    assert len(xs) == len(ys) and max(*xs, *ys) < first, \
                        where
                    first += len(xs) * (1 if phase == OP_PWM else 2)
                assert plan.size == first, where
                assert len(set(plan.out)) == 1024 and max(plan.out) < first
                off = [t.copy() for t in shipped]
                w = plans[OP_NTT].stages[0][3][0]  # the first butterfly's
                off[0][w] = (off[0][w] + 1) % p.q
                grid = ((shipped, 20), (off, 20), (shipped, 1), (off, 1))
                # the whole grid at the shipped depth, two corners elsewhere
                for tables, batch in (grid if depth == dg.pipeline_depth
                                      else grid[::3]):
                    a, da, b, fb = rng.integers(0, p.q, (4, 256, batch))

                    def run(op, x, y=None, tables=tables):
                        return ps._execute_columns(plans[op], p, tables,
                                                   x, y)

                    fa = run(OP_NTT, a)
                    want = np.vstack((run(OP_POLYMUL, a, b), fa,
                                      run(OP_INTT, da), run(OP_PWM, da, fb)))
                    got = ps._execute_columns(plan, p, tables,
                                              np.vstack((a, da)),
                                              np.vstack((b, fb)))
                    assert got.dtype == np.int64 and \
                        np.array_equal(got, want), (*where, batch)
                # the off-by-one twiddle reaches the last batch's outputs
                assert not np.array_equal(fa, ps._execute_columns(
                    plans[OP_NTT], p, shipped, a, None)), where
    assert executed == 23
    cfg = CoreConfig.for_design("d3")
    geom = cfg.geometry("kyber")
    object.__setattr__(cfg, "pipeline_depth", geom.d // 2 + 1)
    assert ps._compile(geom, cfg.pipeline_depth, ps.VERIFY_OPS).hazards
    ran = []
    monkeypatch.setattr(kdntt.cli, "_execute_columns",
                        lambda *args: ran.append(args))
    with pytest.raises(RuntimeError, match="memory hazard"):
        kdntt.cli._verify_trials(cfg, "kyber", 0, 1, None)
    assert not ran


def test_transforms_equal_the_oracles_on_the_unit_basis():
    """The core's ntt and intt equal FIPS 203's and 204's on every input,
    for every shipped (design, scheme) at depth 1, the shipped depth and
    max_pipeline_depth (44 plans).  Every primitive the executor runs is
    exact mod q on every operand in [0, q) (the sweeps in
    test_core_arith; Dilithium's add, sub and halving add by
    test_array_forms_on_dilithium_boundaries), and no address, flag or
    twiddle index depends on the data, so a plan applies a fixed chain
    of Z_q-linear steps (x + w*y, x - w*y, (x + y)/2, (x - y)*w): it is
    a Z_q-linear map of its 256 inputs.  Two linear maps that agree on
    the unit vectors e_0..e_255 agree everywhere, so one run on
    np.eye(256), a column per unit vector, proves equality on all
    q**256 inputs.

    The same argument makes pwm and polymul bilinear in (a, b).  A wrong
    bilinear core differs from schoolbook in some coefficient by a
    nonzero polynomial of degree 2 in the 512 input coefficients, which
    a uniform random pair zeroes with probability at most 2/q
    (Schwartz-Zippel).  So c2's 100 independent pairs per configuration
    pass a wrong core with probability at most (2/q)**100."""
    import numpy as np
    import kdntt.pipeline_sim as ps
    from kdntt.ntt_reference import direct_intt_columns, direct_ntt_columns
    eye = np.eye(256, dtype=np.int64)
    points = 0
    for design, dg in DESIGNS.items():
        for scheme in dg.schemes:
            geom, p = dg.geometry(scheme), SCHEMES[scheme]
            tables = [np.array(t, np.int64)
                      for t in build_twiddle_rom(scheme)]
            for depth in sorted({1, dg.pipeline_depth,
                                 dg.max_pipeline_depth}):
                for op, oracle in ((OP_NTT, direct_ntt_columns),
                                   (OP_INTT, direct_intt_columns)):
                    plan = ps._compile(geom, depth, op)
                    assert not plan.hazards
                    got = ps._execute_columns(plan, p, tables, eye, None)
                    assert np.array_equal(got, oracle(eye, p)), \
                        (design, scheme, depth, op)
                    points += 1
    assert points == 44


ARRAY_FORMS = ("mont_mul_array", "mod_add_array", "mod_sub_array",
               "mod_add_half_array")


def test_array_executor_feeds_the_forms_only_unsigned_lanes(monkeypatch):
    """The 40 shipped plans (ntt, intt, pwm, polymul and verify's, for
    every shipped (design, scheme) at its shipped depth) through
    _execute_columns with every array form wrapped.  Every array operand
    a form receives, the prescale's constant and the twiddles included,
    and every result it returns is of the scheme's lane dtype, uint32:
    the borrow-select min(v, v - q) is silently wrong on a signed array,
    so none may reach it.  The operands come in as int64, as run_batch
    and verify hand them over.  Each run is on 4 seeded random columns
    and the 9 pairings of the columns all 0, all q - 2 and all q - 1,
    and equals the column oracles: direct ntt and intt, reference pwm,
    schoolbook polymul, and for verify's plan the four of them on blocks
    a, da, b and fb."""
    import numpy as np
    import kdntt.pipeline_sim as ps
    from kdntt import ntt_reference as nr
    seen = []
    for name in ARRAY_FORMS:
        def checking(*args, name=name, fn=getattr(ps, name)):
            operands = [x for x in args if isinstance(x, np.ndarray)]
            out = fn(*args)
            seen.append((name, [x.dtype for x in (*operands, out)]))
            return out

        monkeypatch.setattr(ps, name, checking)
    oracle = {OP_NTT: nr.direct_ntt_columns, OP_INTT: nr.direct_intt_columns,
              OP_PWM: nr.reference_pwm_columns,
              OP_POLYMUL: nr.schoolbook_columns}
    rng = np.random.default_rng(0x1A7E)
    plans = 0
    for design, dg in DESIGNS.items():
        for scheme in dg.schemes:
            p, geom = SCHEMES[scheme], dg.geometry(scheme)
            lane = np.dtype(p.lane_dtype)
            assert lane == np.uint32
            tables = [np.array(t, np.int64)
                      for t in build_twiddle_rom(scheme)]
            edges = np.array([0, p.q - 2, p.q - 1])
            ea, eb = (np.repeat(edges, 3), np.tile(edges, 3))

            def columns(e):
                return np.hstack((rng.integers(0, p.q, (256, 4)),
                                  np.broadcast_to(e, (256, 9))))

            for op in (*SIM_OPS, OP_POLYMUL, ps.VERIFY_OPS):
                plan = ps._compile(geom, dg.pipeline_depth, op)
                a, b = columns(ea), columns(eb)
                seen.clear()
                if op == ps.VERIFY_OPS:
                    da, fb = columns(eb), columns(ea)
                    got = ps._execute_columns(plan, p, tables,
                                              np.vstack((a, da)),
                                              np.vstack((b, fb)))
                    want = np.vstack((oracle[OP_POLYMUL](a, b, p),
                                      oracle[OP_NTT](a, p),
                                      oracle[OP_INTT](da, p),
                                      oracle[OP_PWM](da, fb, p)))
                elif op in (OP_PWM, OP_POLYMUL):
                    got = ps._execute_columns(plan, p, tables, a, b)
                    want = oracle[op](a, b, p)
                else:
                    got = ps._execute_columns(plan, p, tables, a, None)
                    want = oracle[op](a, p)
                where = (design, scheme, str(op))
                assert np.array_equal(got, want), where
                assert seen, where
                for name, dtypes in seen:
                    assert set(dtypes) == {lane}, (*where, name, dtypes)
                plans += 1
    assert plans == 40


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


def test_polymul_phases_need_only_the_final_drain():
    """The banks need only the final drain: ntt, NTT(b), pwm and intt
    replayed back to back through run_stages on one BankMemory, with no
    drain between them, raise no hazard for every shipped (design,
    scheme) at depth 1, the shipped depth and d/2 (23 points).  Each
    phase starts with the last depth - 1 writes of the one before still
    in flight, so the drains fill_drain_cycles counts between phases
    are an accounting rule, not something the banks need."""
    def word(_k, lo, hi, _tw):
        return lo, hi

    points = 0
    for design, dg in DESIGNS.items():
        for scheme in dg.schemes:
            geom = dg.geometry(scheme)
            prog = scheme_program(geom)
            for depth in sorted({1, dg.pipeline_depth, geom.d // 2}):
                m = BankMemory(geom.d, depth)
                for program, region, step in (
                        (prog.ntt, 0, word), (prog.ntt, 1, word),
                        (prog.pwm, 0, lambda _k, a, _b, _tw: a),
                        (prog.intt, 0, word)):
                    assert m.settled - m.cycle == (depth - 1 if m.cycle
                                                   else 0)
                    run_stages(m, program, region, step)
                assert not m.hazards, (design, scheme, depth)
                points += 1
    assert points == 23


def test_run_op_results_match_oracles():
    for design in DESIGNS:
        cfg = CoreConfig.for_design(design)
        for scheme in cfg.schemes:
            p = SCHEMES[scheme]
            a = Polynomial.random(scheme, RNG)
            b = Polynomial.random(scheme, RNG)
            out, _ = run_op(cfg, scheme, OP_NTT, a)
            assert out.coeffs == direct_ntt(a, p).coeffs
            assert out.domain == DOMAIN_NTT_BR
            back, _ = run_op(cfg, scheme, OP_INTT, out)
            assert back.coeffs == a.coeffs
            fa, fb = direct_ntt(a, p), direct_ntt(b, p)
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
            assert not rep.hazards
            assert rep.bfu_utilization == rep.busy_cycles / (
                rep.busy_cycles + rep.fill_drain_cycles) < 1


def test_run_op_domain_and_scheme_guards():
    cfg = CoreConfig.for_design("d1")
    a = Polynomial.random("kyber", RNG)
    with pytest.raises(ValueError):
        run_op(cfg, "kyber", OP_INTT, a)          # normal-domain input
    with pytest.raises(ValueError):
        run_op(cfg, "kyber", OP_NTT, direct_ntt(a, SCHEMES["kyber"]))
    with pytest.raises(ValueError):
        run_op(cfg, "dilithium", OP_NTT, a)       # scheme mismatch
    with pytest.raises(ValueError):
        run_op(cfg, "kyber", OP_POLYMUL, a)       # not a single-pass op
    with pytest.raises(ValueError):
        run_op(CoreConfig.for_design("standalone-kyber"),
               "dilithium", OP_NTT, a)
    with pytest.raises(ValueError):
        run_op(cfg, "kyber", OP_PWM, direct_ntt(a, SCHEMES["kyber"]),
               a)                                  # second operand not spectral
    with pytest.raises(ValueError, match="two operands"):
        run_polymul(cfg, "kyber", a, None)       # was an all-zero product
    with pytest.raises(ValueError, match="one operand"):
        run_op(cfg, "kyber", OP_NTT, a, a)       # b was silently dropped
    fa = direct_ntt(a, SCHEMES["kyber"])
    with pytest.raises(ValueError, match="one operand"):
        run_op(cfg, "kyber", OP_INTT, fa, fa)
    # run_batch shares the checks and adds its own two
    with pytest.raises(ValueError, match="no operands"):
        run_batch(cfg, "kyber", OP_NTT, [])
    with pytest.raises(ValueError, match="2 a operands but 1 b"):
        run_batch(cfg, "kyber", OP_POLYMUL, [a, a], [a])
    # the same checks on generators, which run_batch reads only once
    with pytest.raises(ValueError, match="no operands"):
        run_batch(cfg, "kyber", OP_NTT, (x for x in []))
    with pytest.raises(ValueError, match="2 a operands but 1 b"):
        run_batch(cfg, "kyber", OP_POLYMUL, [a, a], (y for y in [a]))
    with pytest.raises(ValueError, match="one operand"):
        run_batch(cfg, "kyber", OP_NTT, [a], [a])
    with pytest.raises(ValueError, match="one operand"):
        run_batch(cfg, "kyber", OP_INTT, [fa], [fa])
    with pytest.raises(ValueError, match="two operands"):
        run_batch(cfg, "kyber", OP_PWM, [fa])
    with pytest.raises(ValueError, match="scheme"):
        run_batch(cfg, "kyber", OP_NTT, [a, Polynomial.random("dilithium",
                                                             RNG)])
    with pytest.raises(ValueError, match="normal-domain"):
        run_batch(cfg, "kyber", OP_NTT, [a, fa])
    with pytest.raises(ValueError, match="ntt-br-domain"):
        run_batch(cfg, "kyber", OP_PWM, [fa, fa], [fa, a])
    with pytest.raises(ValueError, match="unknown op"):
        run_batch(cfg, "kyber", "transpose", [a])
    with pytest.raises(ValueError, match="unknown op"):
        latency_model(cfg, "kyber", "transpose")


def _assert_batch_equals_scalar(cfg, scheme, rng, **kw):
    """run_batch on three operand sets of every op, given as lists and
    as generators, equals run_op or run_polymul on each set: outputs and
    reports."""
    a, b = ([Polynomial.random(scheme, rng) for _ in range(3)]
            for _ in range(2))
    sa, sb = ([Polynomial.random(scheme, rng, DOMAIN_NTT_BR)
               for _ in range(3)] for _ in range(2))
    for op, xs, ys in ((OP_NTT, a, None), (OP_INTT, sa, None),
                       (OP_PWM, sa, sb), (OP_POLYMUL, a, b)):
        outs, rep = run_batch(cfg, scheme, op, xs, ys, **kw)
        gen_ys = None if ys is None else (y for y in ys)
        assert run_batch(cfg, scheme, op, (x for x in xs), gen_ys,
                         **kw) == (outs, rep)
        for k, x in enumerate(xs):
            y = None if ys is None else ys[k]
            want = (run_polymul(cfg, scheme, x, y, **kw) if op == OP_POLYMUL
                    else run_op(cfg, scheme, op, x, y, **kw))
            assert (outs[k], rep) == want, (cfg, scheme, op, k)


def test_run_batch_equals_scalar_runs():
    """Every shipped design and scheme, with the built-in ROM and with a
    ROM whose tables each hold one twiddle off by one."""
    rng = random.Random(0xBA7C)
    for design, dg in DESIGNS.items():
        cfg = CoreConfig.for_design(design)
        for scheme in dg.schemes:
            _assert_batch_equals_scalar(cfg, scheme, rng)
            q = SCHEMES[scheme].q
            off = tuple(table[:1] + ((table[1] + 1) % q,) + table[2:]
                        if table else table
                        for table in build_twiddle_rom(scheme))
            _assert_batch_equals_scalar(cfg, scheme, rng, rom_override=off)


def test_unchecked_outputs_are_python_ints_below_q():
    """The simulator's and the oracles' outputs skip Polynomial's checks,
    so each must already be what the checks would leave: a tuple of 256
    Python ints (no numpy integers) in [0, q).  Operands include the
    all-(q-1) polynomial, the largest every stage can see."""
    cfg = CoreConfig.for_design("d3")
    for scheme, p in SCHEMES.items():
        top = Polynomial((p.q - 1,) * 256, scheme)
        As = [Polynomial.random(scheme, RNG), top]
        Bs = [top, Polynomial.random(scheme, RNG)]
        fas = [direct_ntt(a, p) for a in As]
        fbs = [direct_ntt(b, p) for b in Bs]
        outs = [*As, *fas, *fbs, direct_intt(fas[0], p),
                reference_pwm(fas[0], fbs[0]), reference_pwm(fas[1], fbs[1]),
                schoolbook_negacyclic(As[0], Bs[0]),
                schoolbook_negacyclic(As[1], Bs[1])]
        for op, xs, ys in ((OP_NTT, As, None), (OP_INTT, fas, None),
                           (OP_PWM, fas, fbs), (OP_POLYMUL, As, Bs)):
            outs += run_batch(cfg, scheme, op, xs, ys)[0]
            for k, x in enumerate(xs):
                y = None if ys is None else ys[k]
                outs.append((run_polymul(cfg, scheme, x, y) if op == OP_POLYMUL
                             else run_op(cfg, scheme, op, x, y))[0])
        assert len(outs) == 27
        for out in outs:
            assert type(out.coeffs) is tuple and len(out.coeffs) == 256
            assert all(type(c) is int and 0 <= c < p.q for c in out.coeffs)
            assert Polynomial(out.coeffs, out.scheme, out.domain) == out


def test_run_batch_refuses_overdeep_depths(monkeypatch):
    """At depths d/2 + 1 and 2d the ntt, intt and polymul plans have
    hazards, and every driver refuses each of them before any
    arithmetic runs: run_op (ntt, intt), run_polymul and run_batch (all
    three), with a RuntimeError naming the plan's first hazard."""
    import kdntt.pipeline_sim as ps
    rng = random.Random(0x0DEE)
    calls = []
    for name in (*ARRAY_FORMS, "ct_butterfly", "gs_butterfly_halving",
                 "kyber_pwm_pair", "dilithium_pwm"):
        monkeypatch.setattr(ps, name,
                            lambda *args, **kw: calls.append((args, kw)))
    refused = 0
    for design, dg in DESIGNS.items():
        for scheme in dg.schemes:
            geom = dg.geometry(scheme)
            a, b = (Polynomial.random(scheme, rng) for _ in range(2))
            sa = Polynomial.random(scheme, rng, DOMAIN_NTT_BR)
            for depth in (geom.d // 2 + 1, 2 * geom.d):
                cfg = CoreConfig.for_design(design)
                object.__setattr__(cfg, "pipeline_depth", depth)
                for op, run, args in (
                        (OP_NTT, run_op, (OP_NTT, a)),
                        (OP_NTT, run_batch, (OP_NTT, [a])),
                        (OP_INTT, run_op, (OP_INTT, sa)),
                        (OP_INTT, run_batch, (OP_INTT, [sa])),
                        (OP_POLYMUL, run_polymul, (a, b)),
                        (OP_POLYMUL, run_batch, (OP_POLYMUL, [a], [b]))):
                    first = ps._compile(geom, depth, op).hazards[0]
                    with pytest.raises(RuntimeError) as refusal:
                        run(cfg, scheme, *args)
                    assert str(refusal.value) == _refusal(first), \
                        (design, scheme, depth, op, run.__name__)
                    refused += 1
    assert refused == 96
    assert not calls


def test_overdeep_pipeline_shows_hazards():
    """Falsification check: the simulator's hazard tracking is live.  A
    depth past d/2 (rejected by the constructor, forced here) must flag
    hazards, and run_op refuses the run with a message naming the
    first."""
    import kdntt.pipeline_sim as ps
    cfg = CoreConfig.for_design("standalone-kyber")  # kyber d = 64
    object.__setattr__(cfg, "pipeline_depth", 33)
    a = Polynomial.random("kyber", RNG)
    hazards = ps._compile(cfg.geometry("kyber"), 33, OP_NTT).hazards
    assert hazards
    with pytest.raises(RuntimeError) as refused:
        run_op(cfg, "kyber", OP_NTT, a)
    assert str(refused.value) == _refusal(hazards[0])


def test_simulator_and_gate_share_one_hazard_rule():
    """Single-lane ntt programs are mirror stages only, so at an
    over-deep pipeline the simulator's ntt plan must list exactly the
    hazards that check_conflict_free finds in the forward schedule.  A
    polymul runs NTT(b) on region 1 right after NTT(a), so its region-1
    hazards are the ntt's moved to the mirrored bank, the region-1 rows
    and the cycles after NTT(a); d3 kyber adds in-word stages to that
    check."""
    import kdntt.pipeline_sim as ps
    for design, scheme in (("standalone-kyber", "kyber"),
                           ("standalone-dilithium", "dilithium"),
                           ("d3", "kyber")):
        geom = DESIGNS[design].geometry(scheme)
        d = geom.d
        for depth in (d // 2 + 1, d):
            ntt = ps._compile(geom, depth, OP_NTT).hazards
            if design != "d3":  # programs of mirror stages only
                gate = check_conflict_free(generate_addresses(CH_NTT, d),
                                           depth)
                assert ntt and ntt == gate, (design, depth)
            shift = latency_model(CoreConfig.for_design(design), scheme,
                                  OP_NTT)
            moved = [Hazard(h.cycle + shift, h.bank ^ 1, h.row + d,
                            h.lands_at + shift) for h in ntt]
            full = ps._compile(geom, depth, OP_POLYMUL).hazards
            assert moved and [h for h in full if h.row >= d] == moved, \
                (design, depth)


def test_simulator_behaviour_is_pinned():
    """Every op, design and scheme at legal and over-deep depths (188
    runs) hashes to a fixed digest, so a rewrite of the executor or the
    bank model must leave it bit-identical.  The 116 hazard-free runs
    (every depth up to d/2, and pwm at every depth) hash their outputs,
    busy and fill/drain cycles and hazards; the 72 hazardous ones are
    refused, and hash the refusal with their plan's cycles and
    hazards."""
    import kdntt.pipeline_sim as ps
    rng = random.Random(0x5EED)
    h = hashlib.sha256()
    runs = refused = 0
    for design, dg in DESIGNS.items():
        for scheme in dg.schemes:
            geom = dg.geometry(scheme)
            d = geom.d
            a, b = (Polynomial.random(scheme, rng) for _ in range(2))
            sa, sb = (Polynomial.random(scheme, rng, DOMAIN_NTT_BR)
                      for _ in range(2))
            for depth in sorted({1, dg.pipeline_depth, d // 2, d // 2 + 1,
                                 d // 2 + 5, d}):
                cfg = CoreConfig.for_design(design)
                object.__setattr__(cfg, "pipeline_depth", depth)
                for op, x, y in ((OP_NTT, a, None), (OP_INTT, sa, None),
                                 (OP_PWM, sa, sb), (OP_POLYMUL, a, b)):
                    plan = ps._compile(geom, depth, op)
                    try:
                        out, rep = (run_polymul(cfg, scheme, x, y)
                                    if op == OP_POLYMUL
                                    else run_op(cfg, scheme, op, x, y))
                    except RuntimeError as e:
                        assert plan.hazards, (design, scheme, depth, op)
                        h.update(repr((
                            str(e), plan.busy, plan.fill_drain,
                            [(z.cycle, z.bank, z.row, z.lands_at)
                             for z in plan.hazards])).encode())
                        refused += 1
                    else:
                        h.update(repr((
                            out.coeffs, rep.busy_cycles,
                            rep.fill_drain_cycles,
                            [(z.cycle, z.bank, z.row, z.lands_at)
                             for z in rep.hazards])).encode())
                    runs += 1
    assert (runs, refused) == (188, 72)
    assert h.hexdigest() == ("99a6f5f4d5073a5f3adea35bbb1b0420"
                             "417bcb5a7a81cee5967161ea879a8069")


def test_compiled_plans_are_pinned():
    """Every plan _compile builds for the ops of the simulator test above
    and verify's VERIFY_OPS, at the same depths (235 plans), hashes to a
    fixed digest.  Each of the 139 hazard-free plans hashes each stage's
    phase, operand positions and twiddle indices, the value count, busy
    and fill/drain cycles, hazards and result positions.  The 96
    hazardous plans are never lowered: each has no stages and no result
    and hashes its busy and fill/drain cycles and hazards.  A rewrite of
    the compile step or the bank replay must build the same plans, not
    only plans that compute the same outputs."""
    import kdntt.pipeline_sim as ps
    h = hashlib.sha256()
    plans = hazardous = 0
    for design, dg in DESIGNS.items():
        for scheme in dg.schemes:
            geom = dg.geometry(scheme)
            for depth in sorted({1, dg.pipeline_depth, geom.d // 2,
                                 geom.d // 2 + 1, geom.d // 2 + 5, geom.d}):
                for op in (OP_NTT, OP_INTT, OP_PWM, OP_POLYMUL,
                           ps.VERIFY_OPS):
                    # uncached, so the shipped plans stay in the cache
                    plan = ps._compile.__wrapped__(geom, depth, op)
                    plans += 1
                    if plan.hazards:
                        assert not plan.stages and not plan.out, \
                            (design, scheme, depth, op)
                        h.update(repr((plan.busy, plan.fill_drain,
                                       plan.hazards)).encode())
                        hazardous += 1
                        continue
                    for phase, xs, ys, ws in plan.stages:
                        h.update(phase.encode())
                        for positions in (xs, ys, ws):
                            h.update(positions.tobytes())
                    h.update(repr((plan.size, plan.busy, plan.fill_drain,
                                   plan.hazards)).encode())
                    h.update(plan.out.tobytes())
    assert (plans, hazardous) == (235, 96)
    assert h.hexdigest() == ("2147c5480e04011ec3cadf463f5adbe3"
                             "d8a32a20ecaebe2e9bf1e452d97d9081")


def test_deepest_legal_pipeline_is_clean():
    for design in DESIGNS:
        dg = DESIGNS[design]
        cfg = CoreConfig(design, dg.max_pipeline_depth)
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
    assert got.coeffs == direct_ntt(a, p).coeffs


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
    assert got.coeffs != direct_ntt(a, p).coeffs  # ... but the data is wrong


def test_rom_override_out_of_range_or_short_is_rejected():
    """A library override gets the checks an image does: three tables,
    each as long as the built-in one, every twiddle an integer (not a
    bool) in [0, q)."""
    cfg = CoreConfig.for_design("standalone-kyber")
    rom = build_twiddle_rom("kyber")
    a = Polynomial.random("kyber", RNG)
    b = Polynomial.random("kyber", RNG)
    for override in ((rom.forward[:1] + (4095,) + rom.forward[2:],
                      rom.inverse, rom.psi),
                     (rom.forward[:10], rom.inverse, rom.psi),
                     (rom.forward, rom.inverse, rom.psi + (0,)),
                     (rom.forward, rom.inverse),
                     (tuple(map(float, rom.forward)), rom.inverse, rom.psi),
                     ((True,) + rom.forward[1:], rom.inverse, rom.psi),
                     5, (5, 6, 7)):
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
         "for bad in ((rom.forward[:1] + (4095,) + rom.forward[2:], "
         "rom.inverse, rom.psi), "
         "((True,) + rom.forward[1:], rom.inverse, rom.psi), 5, (5, 6, 7)):\n"
         "    try:\n"
         "        run_polymul(CoreConfig.for_design('standalone-kyber'), "
         "'kyber', a, b, rom_override=bad)\n"
         "    except ValueError as e:\n"
         "        print('rejected:', e)\n"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4, proc.stdout
    assert all(line.startswith("rejected: rom_override") for line in lines)


def test_depth_and_bit_width_checks_survive_python_O():
    """The public guards that used to be asserts or missing: a
    bit_reverse input wider than its width, a conflict gate depth below
    1, a non-integer core pipeline depth (7.5, or a bool), a
    pack_word value wider than its slot, a unified step whose
    parameters are not its scheme's, a shared adder whose mode is not
    its parameters' scheme or whose op is neither add nor sub, an
    unknown multiplier mode, and a Kyber basecase operand not below q,
    each rejected under -O."""
    src = str(Path(kdntt.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "from kdntt import DILITHIUM, CoreConfig\n"
         "from kdntt.bfu import BfuIo, dual_lane_mult, unified_bfu_step\n"
         "from kdntt.core_arith import DILITHIUM_SINGLE, KYBER_PAIR, "
         "pack_lanes, shared_add_sub\n"
         "from kdntt.memory_map import check_conflict_free, "
         "generate_addresses, pack_word\n"
         "from kdntt.ntt_reference import bit_reverse\n"
         "from oracles import kyber_basecase_ref\n"
         "lanes = (BfuIo(1, 2, 3), BfuIo(4, 5, 6))\n"
         "for f in (lambda: bit_reverse(300, 8),\n"
         "          lambda: check_conflict_free(generate_addresses(0, 8), 0),\n"
         "          lambda: CoreConfig('d3', 7.5),\n"
         "          lambda: CoreConfig('d3', True),\n"
         "          lambda: pack_word([5000, 1], 12),\n"
         "          lambda: unified_bfu_step(lanes, 'ntt', 'kyber', "
         "DILITHIUM),\n"
         "          lambda: shared_add_sub(pack_lanes(3000, 3000), "
         "pack_lanes(1000, 1000), KYBER_PAIR, 'add', DILITHIUM),\n"
         "          lambda: shared_add_sub(0, 0, DILITHIUM_SINGLE, 'xor', "
         "DILITHIUM),\n"
         "          lambda: dual_lane_mult(5, 7, 'bogus'),\n"
         "          lambda: kyber_basecase_ref((3329, 0), (1, 0), 17)):\n"
         "    try:\n"
         "        print('accepted:', f())\n"
         "    except ValueError as e:\n"
         "        print('rejected:', e)\n"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((src, tests))})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 10 and all(ln.startswith("rejected:")
                                   for ln in lines), proc.stdout


def test_report_text_format():
    cfg = CoreConfig.for_design("d3")
    a = Polynomial.random("kyber", RNG)
    _, rep = run_op(cfg, "kyber", OP_NTT, a)
    assert isinstance(rep, SimReport)
    text = rep.to_text()
    assert "op=ntt\n" in text
    assert "busy_cycles=112\n" in text
    assert "hazards=0\n" in text
    assert "bfu_utilization=0.941176\n" in text  # 112 busy, 7 fill/drain
    assert text.endswith("bram_estimate=5.5\n")


def test_sim_ops_tuple():
    assert SIM_OPS == ("ntt", "intt", "pwm")
    assert OP_POLYMUL not in SIM_OPS


def test_config_is_frozen():
    cfg = CoreConfig.for_design("d1")
    with pytest.raises(AttributeError):
        cfg.pipeline_depth = 3
    with pytest.raises(AttributeError):
        del cfg.pipeline_depth
    assert cfg.pipeline_depth == DESIGNS["d1"].pipeline_depth == 15
