"""Tests for the cycle-accurate core model: configuration invariants,
latency accounting, hazard behavior, and bit-exactness against the slow
oracles on a sample of runs (the full statistical sweep is in
test_acceptance.py)."""

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
    direct_intt,
    direct_ntt,
    reference_pwm,
    schoolbook_negacyclic,
)
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


def test_latency_is_data_independent():
    """Cycle counts, and at an over-deep pipeline (d/2 + 1) the hazards,
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
        _, over = run_polymul(deep, "kyber", a, b, allow_hazards=True)
        reports.append((rep.busy_cycles, rep.fill_drain_cycles,
                        over.hazards))
    assert reports[0] == reports[1]
    assert reports[0][2]


def test_plan_follows_a_mutated_depth():
    """One config moved from its shipped depth to d/2 + 1 and back runs
    at each depth it holds: hazards, then a clean exact product."""
    rng = random.Random(0xDE97)
    cfg = CoreConfig.for_design("d3")
    shipped, d = cfg.pipeline_depth, cfg.geometry("kyber").d
    a, b = Polynomial.random("kyber", rng), Polynomial.random("kyber", rng)
    hazards = []
    for depth in (shipped, d // 2 + 1, shipped):
        object.__setattr__(cfg, "pipeline_depth", depth)
        out, rep = run_polymul(cfg, "kyber", a, b, allow_hazards=True)
        hazards.append(len(rep.hazards))
    assert hazards[0] == hazards[2] == 0 and hazards[1] > 0
    assert out.coeffs == schoolbook_negacyclic(a, b).coeffs


def test_executor_looks_butterflies_up_at_call_time(monkeypatch):
    """A cached plan must not capture the butterfly functions: a wrapper
    installed after the plan is compiled sees every forward butterfly of
    the next polymul (NTT(a) and NTT(b), 128 per layer), and an
    over-deep run is refused before any butterfly runs."""
    import kdntt.pipeline_sim as ps
    rng = random.Random(0xB7F)
    for design, scheme, layers in (("standalone-kyber", "kyber", 7),
                                   ("standalone-dilithium", "dilithium", 8)):
        cfg = CoreConfig.for_design(design)
        a, b = Polynomial.random(scheme, rng), Polynomial.random(scheme, rng)
        run_polymul(cfg, scheme, a, b)
        calls = []

        def counting(*args, fn=ps.ct_butterfly):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(ps, "ct_butterfly", counting)
        out, _ = run_polymul(cfg, scheme, a, b)
        assert len(calls) == 2 * layers * 128, (design, len(calls))
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


def test_polymul_plan_runs_each_forward_layer_once_over_both_operands():
    """A polymul plan lowers NTT(a)'s stage k and NTT(b)'s stage k into
    one stage, a's butterflies first.  For every shipped (design, scheme)
    it has as many ntt stages as the ntt plan, ntt stage k's twiddle
    indices are the ntt plan's stage-k indices for a and then for b, and
    its pwm and intt stages carry the pwm and intt plans' indices."""
    import kdntt.pipeline_sim as ps
    for design, dg in DESIGNS.items():
        for scheme in dg.schemes:
            plans = {op: ps._compile(dg.geometry(scheme), dg.pipeline_depth,
                                     op)
                     for op in (OP_NTT, OP_INTT, OP_PWM, OP_POLYMUL)}
            got = [(phase, ws) for phase, _, _, ws in plans[OP_POLYMUL].stages]
            ntt = [ws for _, _, _, ws in plans[OP_NTT].stages]
            assert [ws for phase, ws in got if phase == OP_NTT] == \
                [ws + ws for ws in ntt], (design, scheme)
            assert got[len(ntt):] == [
                (phase, ws) for op in (OP_PWM, OP_INTT)
                for phase, _, _, ws in plans[op].stages], (design, scheme)


def test_polymul_plan_is_the_ntt_pwm_and_intt_plans():
    """For every shipped (design, scheme) at every depth of the 188-run
    sweep, the polymul plan is the ntt plan on a and on b, then the pwm
    plan, then the intt plan, under one relabelling of positions: ntt
    stage k's output j lands at 512 + 512k + j (b's 256 later), and each
    later plan's inputs are the relabelled outputs of the one before.
    The pwm plan pairs a's coefficient k with b's, and a Kyber pair is
    two adjacent positions under the psi of its pair index.  At depth 1,
    the shipped depth and d/2 the unit-basis test below proves the ntt
    and intt plans equal FIPS 203's and 204's transforms on every input,
    so with the pointwise product of coefficient k (pair k for Kyber,
    under psi k) the polymul is intt(ntt(a) * ntt(b)): it equals
    schoolbook_negacyclic on every input pair.  The relabelling also
    holds at the over-deep depths, stale reads included."""
    import kdntt.pipeline_sim as ps

    def listed(stage):  # a plan stage with lists for its position arrays
        return stage[0], *map(list, stage[1:])

    points = 0
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
                assert (mul.busy, mul.fill_drain) == (
                    ntt.busy + pwm.busy + intt.busy,
                    ntt.fill_drain + pwm.fill_drain + intt.fill_drain), where
                points += 1
    assert points == 47


def test_verify_plan_equals_four_single_op_runs_at_every_depth(monkeypatch):
    """verify's one plan, _compile(geom, depth, VERIFY_OPS), for every
    shipped (design, scheme) at every depth of the 188-run sweep (1,
    shipped, d/2, d/2 + 1, d/2 + 5 and d): its four 256-row output
    blocks equal, bit for bit, four single-op executor runs (polymul of
    a and b, ntt of a, intt of that ntt and pwm of it with fb), stale
    reads included.  At the shipped depth they run at batch 20 and at
    batch 1, each with the shipped twiddle tables and with one forward
    twiddle off by one; at the other depths, at batch 20 with the
    shipped tables and at batch 1 with the off one.  Its busy
    and fill/drain cycles are the four plans' sums and its hazards are
    theirs in VERIFY_OPS order.  Every stage reads only positions below
    its first output, the value list holds the three inputs plus the
    outputs, and the 1024 output positions are distinct.  At d/2 + 1,
    verify refuses the plan before any arithmetic."""
    import numpy as np
    import kdntt.cli
    import kdntt.pipeline_sim as ps
    rng = np.random.default_rng(0xC0B)
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
                         for op in ps.VERIFY_OPS}
                plan = ps._compile(geom, depth, ps.VERIFY_OPS)
                parts = plans.values()
                assert (plan.busy, plan.fill_drain, plan.hazards) == (
                    sum(q.busy for q in parts),
                    sum(q.fill_drain for q in parts),
                    sum((q.hazards for q in parts), ())), where
                first = 3 * 256
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
                    a, b, fb = rng.integers(0, p.q, (3, 256, batch))

                    def run(op, x, y=None, tables=tables):
                        return ps._execute_columns(plans[op], p, tables,
                                                   x, y)

                    fa = run(OP_NTT, a)
                    want = np.vstack((run(OP_POLYMUL, a, b), fa,
                                      run(OP_INTT, fa), run(OP_PWM, fa, fb)))
                    got = ps._execute_columns(plan, p, tables, a,
                                              np.vstack((b, fb)))
                    assert got.dtype == np.int64 and \
                        np.array_equal(got, want), (*where, batch)
                # the off-by-one twiddle reaches the last batch's outputs
                assert not np.array_equal(fa, ps._execute_columns(
                    plans[OP_NTT], p, shipped, a, None)), where
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
    """At depths d/2 + 1 and 2d the ntt plan has hazards, and run_batch
    refuses it with the scalar drivers' RuntimeError before any
    arithmetic runs."""
    import kdntt.pipeline_sim as ps
    rng = random.Random(0x0DEE)
    calls = []
    monkeypatch.setattr(ps, "mont_mul_array",
                        lambda *args: calls.append(args))
    for design, dg in DESIGNS.items():
        for scheme in dg.schemes:
            d = dg.geometry(scheme).d
            a = Polynomial.random(scheme, rng)
            for depth in (d // 2 + 1, 2 * d):
                cfg = CoreConfig.for_design(design)
                object.__setattr__(cfg, "pipeline_depth", depth)
                with pytest.raises(RuntimeError, match="memory hazard"):
                    run_batch(cfg, scheme, OP_NTT, [a])
    assert not calls


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
    assert out.coeffs != direct_ntt(a, SCHEMES["kyber"]).coeffs


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
                assert rep.hazards and rep.hazards == gate, \
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


def test_compiled_plans_are_pinned():
    """Every plan _compile builds for the ops of the simulator test above
    and verify's VERIFY_OPS, at the same depths (235 plans, hazardous
    ones included), hashes to a fixed digest: each stage's phase,
    operand positions and twiddle indices, the value count, busy and
    fill/drain cycles, hazards and result positions.  A rewrite of the
    compile step or the bank replay must build the same plans, not only
    plans that compute the same outputs."""
    import kdntt.pipeline_sim as ps
    h = hashlib.sha256()
    plans = 0
    for design, dg in DESIGNS.items():
        for scheme in dg.schemes:
            geom = dg.geometry(scheme)
            for depth in sorted({1, dg.pipeline_depth, geom.d // 2,
                                 geom.d // 2 + 1, geom.d // 2 + 5, geom.d}):
                for op in (OP_NTT, OP_INTT, OP_PWM, OP_POLYMUL,
                           ps.VERIFY_OPS):
                    # uncached, so the shipped plans stay in the cache
                    plan = ps._compile.__wrapped__(geom, depth, op)
                    for phase, xs, ys, ws in plan.stages:
                        h.update(phase.encode())
                        for positions in (xs, ys, ws):
                            h.update(positions.tobytes())
                    h.update(repr((plan.size, plan.busy, plan.fill_drain,
                                   plan.hazards)).encode())
                    h.update(plan.out.tobytes())
                    plans += 1
    assert plans == 235
    assert h.hexdigest() == ("fc4cc5c675d940d218295b24416e15ce"
                             "e97c4c71285aeea55f6bd7dce643efaf")


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
         "from kdntt import (DILITHIUM, BfuIo, CoreConfig, "
         "check_conflict_free, generate_addresses, shared_add_sub, "
         "unified_bfu_step)\n"
         "from kdntt.bfu import dual_lane_mult\n"
         "from kdntt.core_arith import DILITHIUM_SINGLE, KYBER_PAIR, "
         "pack_lanes\n"
         "from kdntt.memory_map import pack_word\n"
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
