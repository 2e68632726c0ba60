"""End-to-end tests of the command-line interface: file formats, exit
codes per error class, determinism, and ROM fault injection."""

import hashlib
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import kdntt
from kdntt.cli import VERIFY_BATCH, main, read_poly, write_poly
from kdntt.ntt_reference import (
    Polynomial,
    as_columns,
    direct_ntt,
    reference_pwm,
    schoolbook_negacyclic,
)
from kdntt.core_arith import DILITHIUM, SCHEMES
from kdntt.pipeline_sim import VERIFY_OPS

RNG = random.Random(0xC11)
SRC = str(Path(kdntt.__file__).resolve().parents[1])


def _poly_file(tmp_path, name, scheme="kyber", domain="normal", coeffs=None):
    if coeffs is None:
        a = Polynomial.random(scheme, RNG, domain=domain)
    else:
        a = Polynomial(tuple(coeffs), scheme, domain)
    path = tmp_path / name
    write_poly(str(path), a)
    return path, a


def test_polymul_happy_path(tmp_path):
    pa, a = _poly_file(tmp_path, "a.poly")
    pb, b = _poly_file(tmp_path, "b.poly")
    out = tmp_path / "c.poly"
    rep = tmp_path / "rep.txt"
    rc = main(["polymul", str(pa), str(pb), "--design", "standalone-kyber",
               "--out", str(out), "--report", str(rep)])
    assert rc == 0
    got = read_poly(str(out))
    assert got.coeffs == schoolbook_negacyclic(a, b).coeffs
    text = rep.read_text()
    assert "busy_cycles=1152" in text and "hazards=0" in text


def test_polymul_is_deterministic(tmp_path):
    pa, _ = _poly_file(tmp_path, "a.poly")
    pb, _ = _poly_file(tmp_path, "b.poly")
    o1, o2 = tmp_path / "c1.poly", tmp_path / "c2.poly"
    assert main(["polymul", str(pa), str(pb), "--out", str(o1)]) == 0
    assert main(["polymul", str(pa), str(pb), "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_ntt_intt_roundtrip(tmp_path):
    pa, a = _poly_file(tmp_path, "a.poly", scheme="dilithium")
    fwd = tmp_path / "fa.poly"
    back = tmp_path / "back.poly"
    assert main(["ntt", str(pa), "--design", "d2", "--out", str(fwd)]) == 0
    mid = read_poly(str(fwd))
    assert mid.domain == "ntt-br"
    assert mid.coeffs == direct_ntt(a, a.params).coeffs
    assert main(["intt", str(fwd), "--design", "d2", "--out", str(back)]) == 0
    assert back.read_bytes() == pa.read_bytes()


def test_pwm_command(tmp_path):
    pa, a = _poly_file(tmp_path, "a.poly")
    pb, b = _poly_file(tmp_path, "b.poly")
    fa, fb = tmp_path / "fa.poly", tmp_path / "fb.poly"
    assert main(["ntt", str(pa), "--out", str(fa)]) == 0
    assert main(["ntt", str(pb), "--out", str(fb)]) == 0
    out = tmp_path / "pw.poly"
    assert main(["pwm", str(fa), str(fb), "--out", str(out)]) == 0
    want = reference_pwm(direct_ntt(a, a.params), direct_ntt(b, b.params))
    assert read_poly(str(out)).coeffs == want.coeffs


def test_malformed_input_exits_2(tmp_path, capsys):
    cases = [
        "scheme=rsa n=256 domain=normal\n" + "0\n" * 256,
        "scheme=kyber n=128 domain=normal\n" + "0\n" * 256,
        "scheme=kyber n=256 domain=time\n" + "0\n" * 256,
        "scheme=kyber n=256 domain=normal\n" + "0\n" * 255,
        "scheme=kyber n=256 domain=normal\n" + "0\n" * 255 + "3329\n",
        "scheme=kyber n=256 domain=normal\n" + "0\n" * 255 + "ten\n",
        # numerals int(..., 10) takes but the format does not
        "scheme=kyber n=256 domain=normal\n" + "0\n" * 255 + "9_74\n",
        "scheme=kyber n=256 domain=normal\n" + "0\n" * 255 + "+5\n",
        "scheme=kyber n=256 domain=normal\n" + "0\n" * 255 + "\u0663\n",
        "no header at all\n",
        b"scheme=kyber n=256 domain=normal\n\xff",   # not UTF-8
    ]
    for i, text in enumerate(cases):
        path = tmp_path / f"bad{i}.poly"
        path.write_bytes(text.encode() if isinstance(text, str) else text)
        assert main(["ntt", str(path)]) == 2, f"case {i}"
        assert str(path) in capsys.readouterr().err, f"case {i}"
    # ntt-br is the one spectral domain: "ntt" is a bad header, not an
    # operand that the simulator turns away later
    path = tmp_path / "old-domain.poly"
    path.write_text("scheme=kyber n=256 domain=ntt\n" + "0\n" * 256)
    assert main(["ntt", str(path)]) == 2
    assert f"{path}:1:" in capsys.readouterr().err
    # a repeated key is a contradiction, not "the last one wins"
    path = tmp_path / "two-schemes.poly"
    path.write_text("scheme=kyber scheme=dilithium n=256 domain=normal\n"
                    + "0\n" * 256)
    assert main(["ntt", str(path), "--design", "d1"]) == 2
    assert f"{path}:1: repeated header key 'scheme'" in capsys.readouterr().err
    # a token that is not scheme=, n= or domain= is an error, not noise
    for name, head, tok in (
            ("color", "scheme=kyber n=256 domain=normal color=red", "color=red"),
            ("garbage", "scheme=kyber n=256 domain=normal garbage", "garbage"),
            ("misspelled", "scheme=kyber n=256 domain=normal domian=ntt-br",
             "domian=ntt-br")):
        path = tmp_path / f"{name}.poly"
        path.write_text(head + "\n" + "0\n" * 256)
        assert main(["ntt", str(path), "--design", "d1"]) == 2, name
        assert f"{path}:1: unknown header token {tok!r}" in \
            capsys.readouterr().err, name
    # blank lines are skipped but still counted in the line number
    path = tmp_path / "blank-lines.poly"
    path.write_text("scheme=kyber n=256 domain=normal\n\n\n"
                    + "0\n" * 255 + "99999\n")
    assert main(["ntt", str(path)]) == 2
    assert f"{path}:259: value 99999 outside [0, 3329)" in \
        capsys.readouterr().err
    # a file with no non-blank line has no header to read
    path = tmp_path / "blank.poly"
    path.write_text("\n  \n\t\n")
    assert main(["ntt", str(path)]) == 2
    assert f"{path}: empty file" in capsys.readouterr().err


def test_wrong_domain_for_op_exits_2(tmp_path):
    pa, _ = _poly_file(tmp_path, "freq.poly", domain="ntt-br")
    assert main(["ntt", str(pa)]) == 2
    pn, _ = _poly_file(tmp_path, "norm.poly")
    assert main(["intt", str(pn)]) == 2
    # pwm needs two files of the same scheme
    pk, _ = _poly_file(tmp_path, "k.poly", domain="ntt-br")
    pd, _ = _poly_file(tmp_path, "d.poly", scheme="dilithium", domain="ntt-br")
    assert main(["pwm", str(pk), str(pd)]) == 2


def test_config_errors_exit_3(tmp_path):
    pa, _ = _poly_file(tmp_path, "a.poly", scheme="dilithium")
    assert main(["ntt", str(pa), "--design", "standalone-kyber"]) == 3
    assert main(["verify", "--trials", "0"]) == 3
    assert main(["verify", "--design", "standalone-dilithium",
                 "--scheme", "kyber", "--trials", "1"]) == 3


def test_io_errors_exit_4(tmp_path):
    pa, _ = _poly_file(tmp_path, "a.poly")
    assert main(["ntt", str(tmp_path / "missing.poly")]) == 4
    # an output path under a regular file cannot be created
    assert main(["ntt", str(pa), "--out", str(pa / "x.poly")]) == 4
    assert main(["gen-roms", "--design", "d1",
                 "--outdir", str(pa / "roms")]) == 4


def test_bad_flag_values_exit_2_via_argparse():
    with pytest.raises(SystemExit) as e:
        main(["ntt", "x.poly", "--design", "d9"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["table", "--which", "power"])
    assert e.value.code == 2


def test_gen_roms_outputs(tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    assert main(["gen-roms", "--design", "d3", "--outdir", str(d1)]) == 0
    assert main(["gen-roms", "--design", "d3", "--outdir", str(d2)]) == 0
    for stem in ("d3-twiddle.hex", "d3-addr.hex", "d3-manifest.txt"):
        assert (d1 / stem).read_bytes() == (d2 / stem).read_bytes()
    manifest = (d1 / "d3-manifest.txt").read_text()
    assert "design=d3" in manifest
    assert "addr_words=864" in manifest
    # every hex line is well-formed and fixed-width
    lines = (d1 / "d3-addr.hex").read_text().split()
    assert len(lines) == 864 and len({len(ln) for ln in lines}) == 1
    int(lines[0], 16)


# sha256 of the twiddle image, address image and manifest that gen-roms
# writes, concatenated in that order: the emitted ROM bytes are pinned.
ROM_SHA256 = {
    "standalone-kyber":
        "8b2de066162b5ab8ddb594344e5a58e953dabd8cad30a8234a872221576222f7",
    "standalone-dilithium":
        "e6781fe0b3d57ddb7f46a23a08f7a85362e4c02a0f3f49a344e6a548f1c5095d",
    "d1": "ac587036d3e335e43a0307136697200476eea89ff8e8e9b35e4e233fffe53def",
    "d2": "bba7c03f18a3f2b1fe832c2b5427f79b7d2ecb36971f997762aa056043c3d182",
    "d3": "7751ff6aaef1f01f25229ec800afaa499d9bad7d1885773f662bd5ce1eaf575c",
}


def test_gen_roms_bytes_are_pinned(tmp_path):
    for design, want in ROM_SHA256.items():
        assert main(["gen-roms", "--design", design,
                     "--outdir", str(tmp_path)]) == 0
        h = hashlib.sha256()
        for stem in ("twiddle.hex", "addr.hex", "manifest.txt"):
            h.update((tmp_path / f"{design}-{stem}").read_bytes())
        assert h.hexdigest() == want, design


def test_verify_clean(capsys):
    assert main(["verify", "--design", "standalone-kyber",
                 "--trials", "2", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "ok kyber: 2/2" in out


def test_verify_runs_both_schemes_of_design(capsys):
    assert main(["verify", "--design", "d3", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "ok kyber" in out and "ok dilithium" in out


def test_verify_names_first_mismatching_coefficient(monkeypatch, capsys):
    real = kdntt.ntt_reference.direct_ntt_columns

    def off_at_7(x, p):
        f = real(x, p)
        f[7] = (f[7] + 1) % p.q
        return f

    monkeypatch.setattr(kdntt.ntt_reference, "direct_ntt_columns", off_at_7)
    assert main(["verify", "--design", "standalone-kyber",
                 "--trials", "1"]) == 1
    assert "forward transform mismatch at coefficient 7" in \
        capsys.readouterr().out


def test_verify_names_the_global_trial_past_the_first_batch(monkeypatch,
                                                            capsys):
    """Trials run in batches of VERIFY_BATCH; a product oracle wrong in one
    column of a call after the first batch must be reported under that
    trial's own index, not its column, also when the trial is alone in a
    partial last batch.  The oracle must see each batch up to the failing
    one and no batch after it."""
    real = kdntt.ntt_reference.schoolbook_columns
    for bad, trials, widths in (
            (VERIFY_BATCH + 3, VERIFY_BATCH + 7, [VERIFY_BATCH, 7]),
            (VERIFY_BATCH, VERIFY_BATCH + 1, [VERIFY_BATCH, 1]),
            (VERIFY_BATCH + 3, 2 * VERIFY_BATCH + 7,
             [VERIFY_BATCH, VERIFY_BATCH])):
        calls = []

        def wrong_once(x, y, p, bad=bad, calls=calls):
            c = real(x, y, p)
            calls.append(x.shape[1])
            if len(calls) - 1 == bad // VERIFY_BATCH:
                c[5, bad % VERIFY_BATCH] = (c[5, bad % VERIFY_BATCH] + 1) % p.q
            return c

        monkeypatch.setattr(kdntt.ntt_reference, "schoolbook_columns",
                            wrong_once)
        assert main(["verify", "--design", "d3", "--scheme", "kyber",
                     "--trials", str(trials), "--seed", "6"]) == 1
        out = capsys.readouterr().out
        assert out == (f"FAIL kyber trial {bad} (seed 6): "
                       "product mismatch at coefficient 5\n")
        assert calls == widths


def test_verify_reports_the_lowest_trial_then_the_first_check(monkeypatch,
                                                              capsys):
    """Faults put into the core's outputs (op, trial, coefficient) are
    reported as a trial-by-trial check reports them: the lowest failing
    trial, then product, forward transform, roundtrip, pointwise.  Trial
    2's roundtrip and pointwise outputs are both wrong, and the roundtrip
    is named though its coefficient is the higher; trial 3's earlier
    check and coefficient lose to the lower trial."""
    faults = [("intt", 2, 9), ("pwm", 2, 3), ("polymul", 3, 0)]
    real = kdntt.cli._execute_columns

    def faulty(plan, p, tables, a, b):
        out = real(plan, p, tables, a, b)  # one 256-row block per check
        for f_op, trial, k in faults:  # the 4 trials are one batch
            row = 256 * [op for op, _ in VERIFY_OPS].index(f_op) + k
            out[row, trial] = (out[row, trial] + 1) % DILITHIUM.q
        return out

    monkeypatch.setattr(kdntt.cli, "_execute_columns", faulty)
    assert main(["verify", "--design", "d1", "--scheme", "dilithium",
                 "--trials", "4", "--seed", "5"]) == 1
    assert capsys.readouterr().out == \
        "FAIL dilithium trial 2 (seed 5): roundtrip mismatch at coefficient 9\n"


def test_verify_draws_its_trials_as_polynomial_random_does(monkeypatch,
                                                            capsys):
    """verify's a and b columns are, trial by trial, Polynomial.random
    drawn a then b from random.Random(f"{seed}/{scheme}/{i}"), so a
    failure line alone rebuilds its trial.  27 trials make one full batch
    and one partial one."""
    real, seen = kdntt.cli._execute_columns, []

    def recording(plan, p, tables, a, b):  # a, then da; b, then fb
        seen.append((p.scheme, a[:256].copy(), b[:256].copy()))
        return real(plan, p, tables, a, b)

    monkeypatch.setattr(kdntt.cli, "_execute_columns", recording)
    for seed in (0, 6):
        seen.clear()
        assert main(["verify", "--design", "d3", "--trials", "27",
                     "--seed", str(seed)]) == 0
        capsys.readouterr()
        assert [(s, a.shape) for s, a, _ in seen] == [
            (s, (256, w)) for s in ("kyber", "dilithium")
            for w in (VERIFY_BATCH, 27 - VERIFY_BATCH)]
        for scheme in ("kyber", "dilithium"):
            a = np.hstack([a for s, a, _ in seen if s == scheme])
            b = np.hstack([b for s, _, b in seen if s == scheme])
            for i in range(27):
                rng = random.Random(f"{seed}/{scheme}/{i}")
                want = as_columns([Polynomial.random(scheme, rng)
                                   for _ in "ab"])
                assert (a[:, i] == want[:, 0]).all(), (seed, scheme, i)
                assert (b[:, i] == want[:, 1]).all(), (seed, scheme, i)


def test_draw_trials_equals_polynomial_random(monkeypatch):
    """_draw_trials' columns are Polynomial.random drawn a then b from
    each trial's rng, for 200 seeds of both schemes and trials 0..22 (a
    full batch and a partial one).  Its first getrandbits call leaves
    some Kyber trials short of 512 values, and those draw again."""
    calls = []  # getrandbits calls of each trial rng _draw_trials builds

    class CountingRandom(random.Random):
        """Counts its getrandbits calls in its own slot of calls, so
        calls made after later rngs are built still count as its own."""

        def __init__(self, x):
            super().__init__(x)
            self.slot = len(calls)
            calls.append(0)

        def getrandbits(self, k):
            calls[self.slot] += 1
            return super().getrandbits(k)

    monkeypatch.setattr(kdntt.cli, "random",
                        types.SimpleNamespace(Random=CountingRandom))
    for scheme in SCHEMES:
        calls.clear()
        for seed in range(200):
            want = []
            for i in range(VERIFY_BATCH + 3):
                rng = random.Random(f"{seed}/{scheme}/{i}")
                want += [Polynomial.random(scheme, rng) for _ in "ab"]
            want = as_columns(want)
            a, b = np.concatenate([
                kdntt.cli._draw_trials(seed, scheme, indices)
                for indices in (range(VERIFY_BATCH),
                                range(VERIFY_BATCH, VERIFY_BATCH + 3))], 2)
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, want[:, 0::2]), (scheme, seed)
            assert np.array_equal(b, want[:, 1::2]), (scheme, seed)
        assert len(calls) == 200 * (VERIFY_BATCH + 3) and min(calls) == 1
        if scheme == "kyber":
            assert max(calls) == 2


def test_verify_builds_no_polynomial(monkeypatch, capsys):
    """verify's trials stay arrays from the draw to the comparison."""
    built = []
    init, trusted = Polynomial.__init__, Polynomial._trusted.__func__

    def counting_init(self, *args, **kwargs):
        built.append("checked")
        init(self, *args, **kwargs)

    def counting_trusted(cls, *args):
        built.append("trusted")
        return trusted(cls, *args)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    monkeypatch.setattr(Polynomial, "_trusted", classmethod(counting_trusted))
    assert main(["verify", "--design", "d3", "--trials", "3"]) == 0
    assert "ok kyber" in capsys.readouterr().out
    Polynomial.random("kyber", random.Random(0))  # the counters count
    assert built == ["trusted"]


def test_no_report_carries_a_tuple_op(monkeypatch, capsys):
    """A SimReport's op is one op's name: verify's four-op plan builds
    no report, and a polymul's report names polymul."""
    import kdntt.pipeline_sim as ps
    ops = []
    real = ps.SimReport

    def recording(*args, **kwargs):
        report = real(*args, **kwargs)
        ops.append(report.op)
        return report

    monkeypatch.setattr(ps, "SimReport", recording)
    assert main(["verify", "--design", "d2", "--trials", "1"]) == 0
    assert "ok kyber" in capsys.readouterr().out
    assert [op for op in ops if type(op) is not str] == []
    rng = random.Random(0)
    ps.run_polymul(ps.CoreConfig.for_design("d2"), "kyber",
                   Polynomial.random("kyber", rng),
                   Polynomial.random("kyber", rng))
    assert ops[-1] == "polymul"  # the wrapper sees the reports built


def test_cached_parser_carries_nothing_between_calls(capsys):
    """The parser is built once per process; a verify naming one scheme
    leaves the next verify free to run both of its design's schemes."""
    assert kdntt.cli.build_parser() is kdntt.cli.build_parser()
    assert main(["verify", "--scheme", "kyber", "--design", "d3",
                 "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "ok kyber" in out and "dilithium" not in out
    assert main(["verify", "--design", "d3", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "ok kyber" in out and "ok dilithium" in out


def test_verify_detects_corrupted_rom(tmp_path, capsys):
    roms = tmp_path / "roms"
    assert main(["gen-roms", "--design", "standalone-kyber",
                 "--outdir", str(roms)]) == 0
    image = roms / "standalone-kyber-twiddle.hex"
    lines = image.read_text().split()
    w = int(lines[7], 16) ^ 0x800   # flip one bit of one packed twiddle
    lines[7] = format(w, "06x")
    bad = tmp_path / "corrupt.hex"
    bad.write_text("\n".join(lines) + "\n")

    # the pristine image parses back to the exact ROM: still passes
    assert main(["verify", "--design", "standalone-kyber", "--trials", "1",
                 "--rom-override", str(image)]) == 0
    capsys.readouterr()
    # the corrupted image must be caught by the differential trials
    assert main(["verify", "--design", "standalone-kyber", "--trials", "1",
                 "--rom-override", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_report_under_rom_faults_is_pinned():
    """For every shipped (design, scheme), each twiddle table (forward,
    inverse and, for Kyber, psi) gets two seeded one-entry changes, one
    at entry 0 and one elsewhere, and _verify_trials runs 2 trials on
    each (40 cases).  What it returns, the failure line or None, hashes
    to a fixed digest, so a rewrite of the plan or the executors names
    the same trial, check and coefficient under every fault.  Entry 0
    of the forward and inverse tables is read by no plan, so those 16
    cases pass and are pinned too."""
    from kdntt.cli import _verify_trials
    from kdntt.memory_map import DESIGNS, build_twiddle_rom
    from kdntt.pipeline_sim import CoreConfig

    rng = random.Random(0xFA17)
    h = hashlib.sha256()
    results = []
    for design in DESIGNS:
        cfg = CoreConfig.for_design(design)
        for scheme in cfg.schemes:
            tw, q = build_twiddle_rom(scheme), SCHEMES[scheme].q
            for t, table in enumerate(tw[:3 if scheme == "kyber" else 2]):
                for entry in (0, rng.randrange(1, len(table))):
                    tables = [list(x) for x in tw]
                    tables[t][entry] = (table[entry] + rng.randrange(1, q)) % q
                    results.append(_verify_trials(cfg, scheme, 3, 2, tables))
                    h.update(repr((design, scheme, t, entry,
                                   results[-1])).encode())
    assert len(results) == 40
    assert results.count(None) == 16
    assert h.hexdigest() == ("daf2533911c62b5a600fbb80b40a4cf1"
                             "a97648aeb166ee43837bd1f7a50fd632")


def test_polymul_rom_override_fault_injection(tmp_path):
    pa, _ = _poly_file(tmp_path, "a.poly")
    pb, _ = _poly_file(tmp_path, "b.poly")
    roms = tmp_path / "roms"
    assert main(["gen-roms", "--design", "d1", "--outdir", str(roms)]) == 0
    lines = (roms / "d1-twiddle.hex").read_text().split()
    lines[3] = format(int(lines[3], 16) ^ 0x1, f"0{len(lines[3])}x")
    bad = tmp_path / "bad.hex"
    bad.write_text("\n".join(lines) + "\n")
    o1, o2 = tmp_path / "good.poly", tmp_path / "evil.poly"
    assert main(["polymul", str(pa), str(pb), "--out", str(o1)]) == 0
    assert main(["polymul", str(pa), str(pb), "--out", str(o2),
                 "--rom-override", str(bad)]) == 0  # runs, but corrupted
    assert o1.read_bytes() != o2.read_bytes()


def _out_of_range_image(tmp_path):
    """standalone-kyber's twiddle image with the high Kyber field of line 2
    set to 0xfff = 4095, which is not below q = 3329."""
    roms = tmp_path / "roms"
    assert main(["gen-roms", "--design", "standalone-kyber",
                 "--outdir", str(roms)]) == 0
    lines = (roms / "standalone-kyber-twiddle.hex").read_text().split()
    lines[1] = "fff" + lines[1][3:]
    bad = tmp_path / "range.hex"
    bad.write_text("\n".join(lines) + "\n")
    short = tmp_path / "short.hex"
    short.write_text("\n".join(lines[:100]) + "\n")
    return bad, short


def test_rom_override_out_of_range_or_short_exits_2(tmp_path, capsys):
    bad, short = _out_of_range_image(tmp_path)
    pa, _ = _poly_file(tmp_path, "a.poly")
    pb, _ = _poly_file(tmp_path, "b.poly")
    out = tmp_path / "c.poly"
    assert main(["polymul", str(pa), str(pb), "--design", "standalone-kyber",
                 "--out", str(out), "--rom-override", str(bad)]) == 2
    assert f"{bad}: line 2: kyber twiddle 4095" in capsys.readouterr().err
    assert not out.exists()
    assert main(["verify", "--design", "standalone-kyber", "--trials", "1",
                 "--rom-override", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "FAIL" not in captured.out and "line 2" in captured.err
    assert main(["polymul", str(pa), str(pb), "--design", "standalone-kyber",
                 "--rom-override", str(short)]) == 2
    assert "too short" in capsys.readouterr().err
    # an image longer than the design's own: extra words after the run,
    # and d1's whole kyber + dilithium image
    image = tmp_path / "roms" / "standalone-kyber-twiddle.hex"
    long = tmp_path / "long.hex"
    long.write_text(image.read_text() + "ffffff\n" * 50)
    assert main(["gen-roms", "--design", "d1",
                 "--outdir", str(tmp_path / "roms")]) == 0
    for extra in (long, tmp_path / "roms" / "d1-twiddle.hex"):
        assert main(["polymul", str(pa), str(pb), "--design",
                     "standalone-kyber", "--out", str(out),
                     "--rom-override", str(extra)]) == 2, extra
        err = capsys.readouterr().err
        assert "too long" in err and "the image has 192" in err, err
        assert not out.exists()
    # a word with a bit above its two 12-bit fields
    lines = image.read_text().split()
    lines[1] = "1" + lines[1]
    wide = tmp_path / "wide.hex"
    wide.write_text("\n".join(lines) + "\n")
    assert main(["polymul", str(pa), str(pb), "--design", "standalone-kyber",
                 "--out", str(out), "--rom-override", str(wide)]) == 2
    assert f"{wide}: line 2: word has bits set above" in \
        capsys.readouterr().err
    assert not out.exists()
    # numerals int(..., 16) takes but the hex-word format does not
    word = image.read_text().split()[1]
    for i, numeral in enumerate(("0x" + word, "+" + word,
                                 word[:1] + "_" + word[1:])):
        lines[1] = numeral
        odd = tmp_path / f"numeral{i}.hex"
        odd.write_text("\n".join(lines) + "\n")
        assert main(["polymul", str(pa), str(pb), "--design",
                     "standalone-kyber", "--out", str(out),
                     "--rom-override", str(odd)]) == 2, numeral
        assert f"{odd}: line 2: not a hex word" in capsys.readouterr().err
        assert not out.exists()
    binary = tmp_path / "binary.hex"
    binary.write_bytes(b"\xff\xfe")
    assert main(["polymul", str(pa), str(pb), "--design", "standalone-kyber",
                 "--rom-override", str(binary)]) == 2
    assert f"{binary}: not UTF-8" in capsys.readouterr().err


def test_rom_override_range_check_survives_python_O(tmp_path):
    bad, _ = _out_of_range_image(tmp_path)
    pa, _ = _poly_file(tmp_path, "a.poly")
    pb, _ = _poly_file(tmp_path, "b.poly")
    out = tmp_path / "c.poly"
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "kdntt.cli", "polymul", str(pa),
         str(pb), "--design", "standalone-kyber", "--out", str(out),
         "--rom-override", str(bad)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "line 2" in proc.stderr and not out.exists()


def _cli_to(stdout, argv, unbuffered):
    """Run the CLI in a fresh interpreter with stdout on the given fd."""
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    return subprocess.run(
        [sys.executable, "-m", "kdntt.cli", *argv], stdout=stdout,
        stderr=subprocess.PIPE, text=True, env=env, timeout=120)


@pytest.mark.parametrize("unbuffered", ["1", None])
@pytest.mark.parametrize("argv", [["table"], ["verify", "--trials", "1"],
                                  ["ntt", "A", "--report", "-"]])
def test_closed_stdout_exits_4_without_traceback(tmp_path, argv, unbuffered):
    """Output to a pipe nobody reads is an I/O error (4), not a
    verification failure (1), and neither the command nor the
    interpreter's exit-time flush prints a traceback."""
    pa, _ = _poly_file(tmp_path, "a.poly")
    argv = [str(pa) if arg == "A" else arg for arg in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = _cli_to(write_end, argv, unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "error: stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", None])
def test_full_stdout_exits_4_without_traceback(unbuffered):
    with open("/dev/full", "w") as full:
        proc = _cli_to(full.fileno(), ["table"], unbuffered)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "error: stdout: No space left on device\n"


def _modules_loaded_by(*commands):
    """Run CLI commands in one fresh interpreter: the modules loaded
    before it imported kdntt.cli, and those loaded at the end."""
    script = ("import sys\n"
              "before = sorted(sys.modules)\n"
              "from kdntt.cli import main\n"
              "for argv in sys.argv[1:]:\n"
              "    assert main(argv.split()) == 0, argv\n"
              "print(' '.join(before))\n"
              "print(' '.join(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script, *commands],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.splitlines()[-2:]
    return set(before.split()), set(after.split())


def _numpy_loaded_after(*commands):
    """Run CLI commands in one fresh interpreter; was numpy imported?"""
    return "numpy" in _modules_loaded_by(*commands)[1]


def test_simulator_commands_never_import_numpy(tmp_path):
    """Only the slow oracles need numpy, so a cold polymul, ntt, gen-roms
    or table process never pays for its import; verify loads it."""
    ka, _ = _poly_file(tmp_path, "ka.poly")
    kb, _ = _poly_file(tmp_path, "kb.poly")
    da, _ = _poly_file(tmp_path, "da.poly", scheme="dilithium")
    db, _ = _poly_file(tmp_path, "db.poly", scheme="dilithium")
    out = tmp_path / "out.poly"
    assert not _numpy_loaded_after(
        f"polymul {ka} {kb} --design d2 --out {out}",
        f"polymul {da} {db} --design d2 --out {out} --report {tmp_path}/r",
        f"ntt {ka} --design d3 --out {out}",
        f"gen-roms --design d1 --outdir {tmp_path}/roms",
        "table --which latency",
        "table --which bram")
    assert _numpy_loaded_after("verify --design d3 --trials 1")


def test_cli_start_imports_no_dataclasses_or_inspect(tmp_path):
    """The package builds its value types without dataclasses, whose
    import pulls in inspect, ast, dis and tokenize: a cold polymul or
    gen-roms process pays for none of them.  Modules a site hook loaded
    before kdntt do not count."""
    ka, _ = _poly_file(tmp_path, "ka.poly")
    kb, _ = _poly_file(tmp_path, "kb.poly")
    before, after = _modules_loaded_by(
        f"polymul {ka} {kb} --design d3 --out {tmp_path}/o.poly "
        f"--report {tmp_path}/r",
        f"gen-roms --design d2 --outdir {tmp_path}/roms")
    assert "kdntt.cli" in after - before
    assert {"dataclasses", "inspect"} & (after - before) == set()


def test_table_latency(capsys):
    assert main(["table", "--which", "latency"]) == 0
    out = capsys.readouterr().out
    assert "1152" in out and "2304" in out
    assert "d3" in out and "112" in out
    assert len(out.strip().splitlines()) == 9  # header + 8 config rows


def test_table_bram(capsys):
    assert main(["table", "--which", "bram"]) == 0
    out = capsys.readouterr().out
    assert "4.5" in out and "5.5" in out and "2.0" in out


def test_scheme_flag_agreement_is_accepted(tmp_path, capsys):
    """The file's header fixes the scheme, so a run command takes no
    --scheme to agree or disagree with it."""
    pa, _ = _poly_file(tmp_path, "a.poly", scheme="dilithium")
    assert main(["ntt", str(pa), "--report", "-",
                 "--out", str(tmp_path / "o.poly")]) == 0
    assert "scheme=dilithium\n" in capsys.readouterr().out
    for flag in ("dilithium", "kyber"):
        with pytest.raises(SystemExit) as e:
            main(["ntt", str(pa), "--scheme", flag])
        assert e.value.code == 2


def test_report_to_stdout(tmp_path, capsys):
    pa, _ = _poly_file(tmp_path, "a.poly")
    assert main(["ntt", str(pa), "--design", "d3", "--report", "-"]) == 0
    out = capsys.readouterr().out
    assert "busy_cycles=112" in out
