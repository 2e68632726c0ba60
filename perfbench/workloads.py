"""The benchmark's workloads: seeded inputs, one op at a time, and checks.

Every workload is a closed loop with one client: the next op is made
only after the previous one has completed and been checked.  Ops come
in fixed rounds, so a run always holds the same mix of (design, scheme)
pairs or commands.  Inputs are generated here from the seed; the
package sees only the resulting ``Polynomial`` objects or ``.poly``
files.  Checks run outside the timed span.

The package is imported lazily: ``cli-cold`` must not pay for an import
before its first op, because its set-up time is the time to a first
cold CLI product.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PINNED = json.loads((HERE / "fingerprint.json").read_text())
PAIRS = tuple(tuple(k.split("/")) for k in PINNED["polymul_busy_cycles"])
DESIGN_NAMES = tuple(PINNED["bram_units"])
MODULI = {"kyber": 3329, "dilithium": 8380417}
ROM_FILES = ("twiddle.hex", "addr.hex", "manifest.txt")

# Trials per ``verify`` call: the command's own default, which is what a
# ``kdntt verify --design D`` run does.  The package README's example
# uses 100; at 1.5-4.5 s per call a run would hold too few calls for a
# tail percentile (see perfbench/README.md).
VERIFY_TRIALS = 20


def child_env() -> dict:
    """Environment for a child interpreter that imports kdntt from src/."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


MODULES = ("core_arith", "ntt_reference", "bfu", "memory_map",
           "pipeline_sim", "cli")


def kdntt_modules():
    """Import the package (from src/) and return its modules by name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kdntt.cli
    return {name: sys.modules[f"kdntt.{name}"] for name in MODULES}


def report_errors(key: str, busy: int, fill_drain: int, hazards: int,
                  modelled: int | None = None) -> list[str]:
    """Deviations of one polymul report from the pinned statistics."""
    errs = []
    published = PINNED["polymul_busy_cycles"][key]
    if busy != published:
        errs.append(f"{key}: busy_cycles {busy} != published {published}")
    if modelled is not None and modelled != busy:
        errs.append(f"{key}: latency_model {modelled} != simulated {busy}")
    pinned = PINNED["polymul_fill_drain_cycles"][key]
    if fill_drain != pinned:
        errs.append(f"{key}: fill_drain_cycles {fill_drain} != {pinned}")
    if hazards:
        errs.append(f"{key}: {hazards} hazards")
    return errs


class Op:
    """One op: ``run`` is timed, ``check`` returns the deviations."""

    __slots__ = ("cls", "run", "check")

    def __init__(self, cls: str, run, check) -> None:
        self.cls = cls
        self.run = run
        self.check = check


class GoldenPolymul:
    """Round-robin ``run_polymul`` over every (design, scheme) pair."""

    name = "golden-polymul"
    round_len = len(PAIRS)
    tail_pct = 95
    calibration = hostspeed.KERNEL
    trace_rounds = 2

    def __init__(self, seed: int, fault: str | None = None):
        self.rng = random.Random(f"{seed}/{self.name}")
        self.k = kdntt_modules()
        ps = self.k["pipeline_sim"]
        self.cfgs = {d: ps.CoreConfig.for_design(d) for d, _ in PAIRS}
        self.override = {}
        if fault == "rom":
            # One twiddle value off by one: every product must then fail.
            for s in MODULI:
                p = self.k["core_arith"].SCHEMES[s]
                nr = self.k["ntt_reference"]
                fwd = list(nr.forward_zetas(p))
                fwd[1] = (fwd[1] + 1) % p.q
                self.override[s] = (tuple(fwd), nr.inverse_zetas(p),
                                    nr.basemul_zetas(p))

    def rounds(self):
        Poly = self.k["ntt_reference"].Polynomial
        ps = self.k["pipeline_sim"]
        while True:
            for design, scheme in PAIRS:
                q = MODULI[scheme]
                a = Poly(tuple(self.rng.randrange(q) for _ in range(256)),
                         scheme)
                b = Poly(tuple(self.rng.randrange(q) for _ in range(256)),
                         scheme)
                cfg = self.cfgs[design]
                override = self.override.get(scheme)
                yield Op(f"{design}/{scheme}",
                         lambda cfg=cfg, s=scheme, a=a, b=b, o=override:
                         ps.run_polymul(cfg, s, a, b, rom_override=o),
                         lambda res, cfg=cfg, s=scheme, a=a, b=b:
                         self._check(cfg, s, a, b, res))

    def _check(self, cfg, scheme, a, b, res) -> list[str]:
        out, rep = res
        key = f"{cfg.design}/{scheme}"
        errs = []
        want = self.k["ntt_reference"].schoolbook_negacyclic(a, b)
        if out.coeffs != want.coeffs:
            errs.append(f"{key}: product differs from schoolbook")
        modelled = self.k["pipeline_sim"].latency_model(cfg, scheme, "polymul")
        return errs + report_errors(key, rep.busy_cycles,
                                    rep.fill_drain_cycles, len(rep.hazards),
                                    modelled)


class VerifyDifferential:
    """In-process ``kdntt verify`` calls, round-robin over every (design,
    scheme) pair, each call checking ``VERIFY_TRIALS`` trials."""

    name = "verify-differential"
    round_len = len(PAIRS)
    tail_pct = 75
    calibration = hostspeed.KERNEL
    trace_rounds = 1

    def __init__(self, seed: int):
        self.rng = random.Random(f"{seed}/{self.name}")
        self.k = kdntt_modules()

    def rounds(self):
        cli = self.k["cli"]
        while True:
            for design, scheme in PAIRS:
                argv = ["verify", "--design", design, "--scheme", scheme,
                        "--trials", str(VERIFY_TRIALS),
                        "--seed", str(self.rng.randrange(1 << 31))]

                def run(argv=argv):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        rc = cli.main(argv)
                    return rc, buf.getvalue()

                yield Op(f"{design}/{scheme}", run,
                         lambda res, d=design, s=scheme:
                         self._check(d, s, res))

    def _check(self, design, scheme, res) -> list[str]:
        rc, text = res
        key = f"{design}/{scheme}"
        errs = [] if rc == 0 else [f"verify {key}: exit {rc}: {text!r}"]
        ok = f"ok {scheme}: {VERIFY_TRIALS}/{VERIFY_TRIALS} trials"
        if ok not in text:
            errs.append(f"verify {key}: no {ok!r} line")
        return errs


def _read_poly_file(path: Path) -> tuple[str, list[int]]:
    lines = path.read_text().split()
    header = dict(tok.split("=", 1) for tok in lines[:3])
    return header["scheme"], [int(v) for v in lines[3:]]


def rom_digest(blobs) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def take_roms(design: str, outdir: Path) -> str:
    """Digest of the ROM files ``gen-roms`` wrote to outdir; removes them."""
    paths = [outdir / f"{design}-{f}" for f in ROM_FILES]
    digest = rom_digest(p.read_bytes() for p in paths)
    for p in paths:
        p.unlink()
    outdir.rmdir()
    return digest


class CliCold:
    """One cold ``python -m kdntt.cli`` process per op, as a testbench runs.

    Rounds alternate ``polymul`` on each (design, scheme) pair with
    ``gen-roms`` for that pair's design.  With ``traced`` set, each child
    runs the CLI under the tracer and leaves its span summary in a file.
    """

    name = "cli-cold"
    round_len = 2 * len(PAIRS)
    tail_pct = 75
    calibration = hostspeed.STARTUP
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path, traced: bool = False):
        self.rng = random.Random(f"{seed}/{self.name}")
        self.dir = workdir
        self.env = child_env()
        self.traced = traced
        self.k = None
        self.n = 0

    def _cmd(self, argv: list[str], tag: str) -> list[str]:
        if self.traced:
            return [sys.executable, str(HERE / "worker.py"), "cli-traced",
                    str(self.dir / f"{tag}.trace.json"), *argv]
        return [sys.executable, "-m", "kdntt.cli", *argv]

    def _spawn(self, argv: list[str], tag: str):
        proc = subprocess.run(self._cmd(argv, tag), env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=self.dir)
        summary = None
        if self.traced:
            path = self.dir / f"{tag}.trace.json"
            if path.exists():
                summary = json.loads(path.read_text())
                path.unlink()
        return proc, summary

    def rounds(self):
        while True:
            for design, scheme in PAIRS:
                self.n += 1
                tag = f"op{self.n}"
                q = MODULI[scheme]
                polys = []
                for side in "ab":
                    coeffs = [self.rng.randrange(q) for _ in range(256)]
                    path = self.dir / f"{tag}-{side}.poly"
                    path.write_text(f"scheme={scheme} n=256 domain=normal\n"
                                    + "\n".join(map(str, coeffs)) + "\n")
                    polys.append((path, coeffs))
                out = self.dir / f"{tag}-c.poly"
                argv = ["polymul", str(polys[0][0]), str(polys[1][0]),
                        "--design", design, "--out", str(out), "--report", "-"]
                yield Op("polymul",
                         lambda argv=argv, tag=tag: self._spawn(argv, tag),
                         lambda res, d=design, s=scheme, p=polys, o=out:
                         self._check_polymul(d, s, p, o, res))
                self.n += 1
                tag = f"op{self.n}"
                outdir = self.dir / f"{tag}-roms"
                argv = ["gen-roms", "--design", design, "--outdir", str(outdir)]
                yield Op("gen-roms",
                         lambda argv=argv, tag=tag: self._spawn(argv, tag),
                         lambda res, d=design, o=outdir:
                         self._check_roms(d, o, res))

    def _check_polymul(self, design, scheme, polys, out, res) -> list[str]:
        proc, _ = res
        key = f"{design}/{scheme}"
        if proc.returncode != 0:
            return [f"polymul {key}: exit {proc.returncode}: {proc.stderr!r}"]
        if self.k is None:
            self.k = kdntt_modules()
        nr = self.k["ntt_reference"]
        a, b = (nr.Polynomial(tuple(c), scheme) for _, c in polys)
        got_scheme, got = _read_poly_file(out)
        errs = []
        if got_scheme != scheme or \
                got != list(nr.schoolbook_negacyclic(a, b).coeffs):
            errs.append(f"polymul {key}: product differs from schoolbook")
        rep = dict(ln.split("=", 1) for ln in proc.stdout.split() if "=" in ln)
        errs += report_errors(key, int(rep["busy_cycles"]),
                              int(rep["fill_drain_cycles"]),
                              int(rep["hazards"]))
        for path in (*(p for p, _ in polys), out):
            path.unlink()
        return errs

    def _check_roms(self, design, outdir, res) -> list[str]:
        proc, _ = res
        if proc.returncode != 0:
            return [f"gen-roms {design}: exit {proc.returncode}: "
                    f"{proc.stderr!r}"]
        if take_roms(design, outdir) != PINNED["rom_sha256"][design]:
            return [f"gen-roms {design}: ROM images differ from the pinned "
                    "digest"]
        return []


WORKLOADS = {w.name: w for w in (GoldenPolymul, VerifyDifferential, CliCold)}


def fingerprint(k, workdir: Path) -> tuple[dict, list[str]]:
    """The exact simulated statistics, and their deviations from the pins.

    Runs one product per (design, scheme) pair on fixed operands, builds
    every design's BRAM estimate, and writes every design's ROM files
    with an in-process ``gen-roms`` under workdir.
    """
    ps, nr, mm = k["pipeline_sim"], k["ntt_reference"], k["memory_map"]
    rng = random.Random("fingerprint")
    errs: list[str] = []
    busy = fill = hazards = 0
    for design, scheme in PAIRS:
        cfg = ps.CoreConfig.for_design(design)
        q = MODULI[scheme]
        a, b = (nr.Polynomial(tuple(rng.randrange(q) for _ in range(256)),
                              scheme) for _ in range(2))
        out, rep = ps.run_polymul(cfg, scheme, a, b)
        key = f"{design}/{scheme}"
        if out.coeffs != nr.schoolbook_negacyclic(a, b).coeffs:
            errs.append(f"{key}: product differs from schoolbook")
        errs += report_errors(key, rep.busy_cycles, rep.fill_drain_cycles,
                              len(rep.hazards),
                              ps.latency_model(cfg, scheme, "polymul"))
        busy += rep.busy_cycles
        fill += rep.fill_drain_cycles
        hazards += len(rep.hazards)
    bram = 0.0
    digests = []
    for design in DESIGN_NAMES:
        units = mm.estimate_bram_usage(design).total_units
        if units != PINNED["bram_units"][design]:
            errs.append(f"{design}: {units} BRAM units != published "
                        f"{PINNED['bram_units'][design]}")
        bram += units
        outdir = workdir / f"fingerprint-{design}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = k["cli"].main(["gen-roms", "--design", design,
                                "--outdir", str(outdir)])
        if rc != 0:
            errs.append(f"{design}: gen-roms exit {rc}")
            continue
        digest = take_roms(design, outdir)
        if digest != PINNED["rom_sha256"][design]:
            errs.append(f"{design}: ROM images differ from the pinned digest")
        digests.append(digest)
    stats = {
        "sim.busy_cycles.total": busy,
        "sim.fill_drain_cycles.total": fill,
        "sim.hazards.total": hazards,
        "memory_map.bram_units.total": bram,
        # 48 bits of the combined digest, exact in a JSON number.
        "memory_map.rom_digest": int(rom_digest(
            d.encode() for d in digests)[:12], 16),
    }
    return stats, errs
