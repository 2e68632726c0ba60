"""Command-line front end.

Commands: polymul, ntt, intt, pwm (run the cycle-accurate core),
gen-roms (emit twiddle/address ROM images + manifest), verify
(differential testing against the slow oracles), table (latency and
BRAM summaries across the shipped configurations).

Exit codes: 0 success, 1 verification failure, 2 malformed input file,
3 configuration error, 4 I/O error.

Polynomial files are line-oriented text: a header
"scheme=<kyber|dilithium> n=256 domain=<normal|ntt-br>" followed by
exactly 256 decimal coefficients, one per line.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from functools import lru_cache

from .core_arith import DOMAINS, N, SCHEMES, Polynomial
from .memory_map import (
    DESIGNS,
    build_rom_images,
    decode_twiddle_image,
    estimate_bram_usage,
)
from .pipeline_sim import (
    OP_POLYMUL,
    SIM_OPS,
    VERIFY_OPS,
    CoreConfig,
    _execute_columns,
    _prepare,
    latency_model,
    run_op,
    run_polymul,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_IO = 4

# verify's trials per batch: its default --trials run as one batch (the
# measured point), and the arrays stay this size for any --trials.
VERIFY_BATCH = 20

# verify's checks, in the order of VERIFY_OPS' outputs and of its report
_CHECKS = ("product", "forward transform", "roundtrip", "pointwise")


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Polynomial file I/O.
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise CliError(EXIT_IO, f"{path}: {e.strerror or e}")
    except UnicodeDecodeError:
        raise CliError(EXIT_INPUT, f"{path}: not UTF-8 text")


def read_poly(path: str) -> Polynomial:
    # blank lines are skipped, but messages give the physical line number
    lines = [(i, ln.strip()) for i, ln in
             enumerate(_read_text(path).split("\n"), start=1) if ln.strip()]
    if not lines:
        raise CliError(EXIT_INPUT, f"{path}: empty file")
    h, head = lines[0]
    header = {}
    for tok in head.split():
        key, eq, value = tok.partition("=")
        if not eq or key not in ("scheme", "n", "domain"):
            raise CliError(EXIT_INPUT, f"{path}:{h}: unknown header token {tok!r}")
        if key in header:
            raise CliError(EXIT_INPUT, f"{path}:{h}: repeated header key {key!r}")
        header[key] = value
    scheme = header.get("scheme")
    domain = header.get("domain")
    if scheme not in SCHEMES:
        raise CliError(EXIT_INPUT, f"{path}:{h}: bad or missing scheme in header")
    if header.get("n") != "256":
        raise CliError(EXIT_INPUT, f"{path}:{h}: header must declare n=256")
    if domain not in DOMAINS:
        raise CliError(EXIT_INPUT, f"{path}:{h}: bad or missing domain in header")
    body = lines[1:]
    if len(body) != 256:
        raise CliError(EXIT_INPUT,
                       f"{path}: expected 256 coefficient lines, got {len(body)}")
    q = SCHEMES[scheme].q
    coeffs = []
    for i, ln in body:
        try:
            if not re.fullmatch("[0-9]+", ln):
                raise ValueError(ln)
            v = int(ln)  # also raises past int()'s digit limit
        except ValueError:
            raise CliError(EXIT_INPUT, f"{path}:{i}: not a decimal integer: {ln!r}")
        if not 0 <= v < q:
            raise CliError(EXIT_INPUT, f"{path}:{i}: value {v} outside [0, {q})")
        coeffs.append(v)
    return Polynomial(tuple(coeffs), scheme, domain)


def write_poly(path: str, a: Polynomial) -> None:
    text = "\n".join(
        [f"scheme={a.scheme} n=256 domain={a.domain}"]
        + [str(c) for c in a.coeffs]) + "\n"
    _write_text(path, text)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)  # main reports a failing stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise CliError(EXIT_IO, f"{path}: {e.strerror or e}")


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------

def _check_scheme(cfg: CoreConfig, scheme: str) -> str:
    try:
        cfg.geometry(scheme)
    except ValueError as e:
        raise CliError(EXIT_CONFIG, str(e))
    return scheme


def _rom_override(args, design: str, scheme: str):
    """Decode a (possibly corrupted) twiddle image into value tuples."""
    path = getattr(args, "rom_override", None)
    if not path:
        return None
    text = _read_text(path)
    try:
        return decode_twiddle_image(text, design, scheme)
    except ValueError as e:
        raise CliError(EXIT_INPUT, f"{path}: {e}")


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    """polymul, ntt, intt or pwm on the simulated core."""
    cfg = CoreConfig.for_design(args.design)
    polys = [read_poly(path) for path in (args.a, getattr(args, "b", None))
             if path is not None]
    schemes = {p.scheme for p in polys}  # the files' headers fix it
    if len(schemes) > 1:
        raise CliError(EXIT_INPUT, "operand files disagree on scheme")
    scheme = _check_scheme(cfg, schemes.pop())
    override = _rom_override(args, cfg.design, scheme)
    try:
        if args.command == OP_POLYMUL:
            out, report = run_polymul(cfg, scheme, *polys,
                                      rom_override=override)
        else:
            out, report = run_op(cfg, scheme, args.command, *polys,
                                 rom_override=override)
    except ValueError as e:
        raise CliError(EXIT_INPUT, str(e))
    if args.out:
        write_poly(args.out, out)
    if args.report:
        _write_text(args.report, report.to_text())
    return EXIT_OK


def cmd_gen_roms(args) -> int:
    cfg = CoreConfig.for_design(args.design)
    images = build_rom_images(cfg.design)
    try:
        os.makedirs(args.outdir, exist_ok=True)
    except OSError as e:
        raise CliError(EXIT_IO, f"{args.outdir}: {e.strerror or e}")
    base = os.path.join(args.outdir, cfg.design)
    for kind in ("twiddle", "addr"):
        lines, _width = images[kind]
        _write_text(f"{base}-{kind}.hex", "\n".join(lines) + "\n")
    manifest = images["manifest"]
    _write_text(f"{base}-manifest.txt",
                "".join(f"{k}={v}\n" for k, v in manifest.items()))
    print(f"wrote {base}-twiddle.hex, {base}-addr.hex, {base}-manifest.txt")
    return EXIT_OK


def _draw_trials(seed: int, scheme: str, indices):
    """verify's a and b, int64 (256, len(indices)) arrays: column j is
    Polynomial.random drawn a then b from trial indices[j]'s rng.  That
    rng is verify's alone, so the draw may read past the 512th value's
    word: getrandbits(32*m) returns m words, lowest first, and the first
    512 of their w >> (32 - k) below q are the values of 512
    randrange(q) calls.  m is the expected need plus a margin.  Each
    trial's rng is seeded, in index order, and makes one getrandbits
    call; one numpy pass over all those words then filters them, counts
    each trial's kept values and gathers each trial's first 512.  A
    trial left short (rare, and only Kyber's) draws m more words at a
    time from its own rng until it has 512."""
    import numpy as np
    q = SCHEMES[scheme].q
    k = q.bit_length()
    m = (2 * N << k) // q + 32
    rngs = [random.Random(f"{seed}/{scheme}/{i}") for i in indices]
    # the joined words are freed once shifted, before the filter runs
    w = np.frombuffer(b"".join(
        rng.getrandbits(32 * m).to_bytes(4 * m, "little") for rng in rngs),
        "<u4").reshape(len(rngs), m) >> 32 - k
    below = w < q
    counts = below.sum(1)
    kept = w[below]  # every trial's kept values, trial after trial
    starts = np.cumsum(counts) - counts
    for j in np.flatnonzero(counts < 2 * N):
        row = w[j][below[j]]
        while len(row) < 2 * N:
            more = rngs[j].getrandbits(32 * m).to_bytes(4 * m, "little")
            more = np.frombuffer(more, "<u4") >> 32 - k
            row = np.concatenate((row, more[more < q]))
        # the short trial's values go after the rest; its start points there
        starts[j] = len(kept)
        kept = np.concatenate((kept, row))
    out = kept[starts + np.arange(2 * N)[:, None]].astype(np.int64)
    return out.reshape(2, N, -1)


def _verify_trials(cfg: CoreConfig, scheme: str, seed: int, trials: int,
                   override) -> str | None:
    """Run verify's trials through the core in batches of VERIFY_BATCH and
    compare every output coefficient with the column oracles.  Returns the
    first failure, naming its trial, or None: the lowest failing trial,
    its first failing check (product, forward transform, roundtrip,
    pointwise) and that check's first differing coefficient.  Trials stay
    int64 (256, batch) arrays throughout; no Polynomial is built."""
    import numpy as np

    from . import ntt_reference as nr

    # one plan runs the four checks' ops: polymul(a, b), ntt(a) = fa,
    # intt(da) and pwm(da, fb), with da and fb the oracle's spectra of a
    # and b; fa equals da unless the forward-transform check fails
    plan, p, tw = _prepare(cfg, scheme, VERIFY_OPS, override)
    for start in range(0, trials, VERIFY_BATCH):
        indices = range(start, min(start + VERIFY_BATCH, trials))
        a, b = _draw_trials(seed, scheme, indices)
        da, fb = np.hsplit(nr.direct_ntt_columns(np.hstack((a, b)), p), 2)
        got = _execute_columns(plan, p, tw, np.vstack((a, da)),
                               np.vstack((b, fb)))
        # the executor's rows are product, fa, back and pointwise, N each
        want = np.vstack((nr.schoolbook_columns(a, b, p), da, a,
                          nr.reference_pwm_columns(da, fb, p)))
        wrong = got != want
        if wrong.any():
            # wrong[check, coefficient, trial]; argwhere lists hits in
            # index order, so over (trial, check, coefficient) the first
            # is the failure a trial-by-trial check reports
            trial, check, k = np.argwhere(
                wrong.reshape(len(_CHECKS), N, -1).transpose(2, 0, 1))[0]
            return (f"trial {indices[trial]} (seed {seed}): "
                    f"{_CHECKS[check]} mismatch at coefficient {k}")
    return None


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise CliError(EXIT_CONFIG, "--trials must be at least 1")
    cfg = CoreConfig.for_design(args.design)
    schemes = [args.scheme] if args.scheme else list(cfg.schemes)
    for s in schemes:
        _check_scheme(cfg, s)
    failures = 0
    for scheme in schemes:
        override = _rom_override(args, cfg.design, scheme)
        failure = _verify_trials(cfg, scheme, args.seed, args.trials, override)
        if failure:
            print(f"FAIL {scheme} {failure}")
            failures += 1
        else:
            print(f"ok {scheme}: {args.trials}/{args.trials} trials "
                  f"(design {cfg.design}, depth {cfg.pipeline_depth})")
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_table(args) -> int:
    if args.which == "latency":
        print(f"{'design':22s} {'scheme':10s} {'ntt':>6s} {'intt':>6s} "
              f"{'pwm':>6s} {'polymul':>8s}")
        for name in DESIGNS:
            cfg = CoreConfig.for_design(name)
            for scheme in cfg.schemes:
                cells = [latency_model(cfg, scheme, op)
                         for op in (*SIM_OPS, OP_POLYMUL)]
                print(f"{name:22s} {scheme:10s} {cells[0]:6d} {cells[1]:6d} "
                      f"{cells[2]:6d} {cells[3]:8d}")
    else:
        print(f"{'design':22s} {'total':>6s}  breakdown")
        for name in DESIGNS:
            est = estimate_bram_usage(name)
            parts = ", ".join(f"{m.label}={m.units:g}" for m in est.memories)
            print(f"{name:22s} {est.total_units:6.1f}  {parts}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def _add_design(sp):
    sp.add_argument("--design", default="d1", choices=sorted(DESIGNS))


@lru_cache(maxsize=None)  # one parser per process; parse_args leaves it as is
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kdntt",
        description="Bit-exact unified Kyber/Dilithium polynomial "
                    "multiplication core: simulator, ROM generator, checker.")
    sub = ap.add_subparsers(dest="command", required=True)

    for op, help_text in (
            (OP_POLYMUL, "negacyclic product of two files"),
            ("ntt", "forward transform of a file"),
            ("intt", "inverse transform of a file"),
            ("pwm", "pointwise product of two spectral files")):
        run = sub.add_parser(op, help=help_text)
        run.add_argument("a")
        if op in (OP_POLYMUL, "pwm"):
            run.add_argument("b")
        run.add_argument("--out")
        run.add_argument("--report",
                         help="write run telemetry ('-' for stdout)")
        run.add_argument("--rom-override",
                         help="twiddle image replacing the ROM")
        _add_design(run)
        run.set_defaults(func=cmd_run)

    gen = sub.add_parser("gen-roms", help="emit ROM images and manifest")
    gen.add_argument("--outdir", required=True)
    _add_design(gen)
    gen.set_defaults(func=cmd_gen_roms)

    ver = sub.add_parser("verify", help="differential test vs slow oracles")
    ver.add_argument("--trials", type=int, default=20)
    ver.add_argument("--rom-override")
    ver.add_argument("--scheme", choices=sorted(SCHEMES))
    _add_design(ver)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    tab = sub.add_parser("table", help="latency or BRAM summary")
    tab.add_argument("--which", choices=("latency", "bram"), default="latency")
    tab.set_defaults(func=cmd_table)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a failing stdout fails here, not at exit
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except OSError as e:
        # Every file a command opens reports its own errors as CliError, so
        # this is stdout: a closed pipe or a full disk.  The unwritten output
        # goes to devnull, so the interpreter's flush at exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: stdout: {e.strerror or e}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
