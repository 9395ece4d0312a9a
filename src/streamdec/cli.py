"""Command-line benchmark harness.

Subcommands: ``throughput``, ``ber``, ``compare``, ``gencode``.  Every
randomized path is seed-deterministic; with ``--csv`` the ber/compare/gencode
outputs are byte-stable across runs with the same arguments.
"""

import argparse
import os
import sys

from .bench import (
    BER_CSV_HEADER,
    COMPARE_CSV_HEADER,
    THROUGHPUT_CSV_HEADER,
    median_throughput,
    run_ber,
    run_compare_schedules,
    run_throughput,
)
from .code import (
    AlistFormatError,
    DegenerateCodeError,
    emit_alist,
    parse_alist,
    random_regular_code,
    systematic_form,
)
from .decoder import SCHEDULES, DecoderConfig


class UsageError(Exception):
    """Bad flag values or inputs; maps to exit code 2."""


def _parse_gen(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--gen expects n,m,rowdeg,seed")
    try:
        n, m, rowdeg, seed = (int(p) for p in parts)
    except ValueError:
        raise UsageError("--gen expects four integers: n,m,rowdeg,seed")
    return n, m, rowdeg, seed


def _parse_ebno(text):
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"bad --ebno list: {text!r}")
    if not values:
        raise UsageError("--ebno list is empty")
    return values


def _load_code(args):
    if args.code is not None:
        try:
            with open(args.code) as fh:
                return parse_alist(fh.read())
        except OSError as e:
            raise UsageError(f"cannot read code file: {e}")
        except AlistFormatError as e:
            raise UsageError(f"bad alist file: {e}")
    n, m, rowdeg, seed = _parse_gen(args.gen)
    try:
        return random_regular_code(n, m, rowdeg, seed=seed)
    except (ValueError, DegenerateCodeError) as e:
        raise UsageError(f"cannot generate code: {e}")


def _parse_backends(text, allow_multi):
    """--backend as a list of names; None is the process default, which
    DecoderConfig resolves and checks like any name."""
    if text in (None, "auto"):
        return [None]
    names = ["numpy", "numba"] if text == "both" else text.split(",")
    if len(names) > 1 and not allow_multi:
        raise UsageError("this subcommand takes a single --backend")
    return [name.strip() for name in names]


def _check_writable(path):
    """Refuse an output path that cannot be written, before any work."""
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if (os.path.isdir(path) or not os.path.isdir(parent)
            or not os.access(parent, os.W_OK)
            or (os.path.exists(path) and not os.access(path, os.W_OK))):
        raise UsageError(f"cannot write {path}")


def _emit(lines, csv_path):
    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {csv_path}")
    else:
        cells = [ln.split(",") for ln in lines]
        widths = [max(len(row[i]) for row in cells)
                  for i in range(len(cells[0]))]
        for row in cells:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _add_code_flags(p, gen_only=False):
    if gen_only:
        p.add_argument("--gen", required=True, metavar="n,m,rowdeg,seed")
        return
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--code", metavar="ALIST", help="parity-check file")
    grp.add_argument("--gen", metavar="n,m,rowdeg,seed",
                     help="generate a regular code")


def _add_common_flags(p, default_early_term):
    p.add_argument("--schedule", choices=SCHEDULES, default="layered")
    p.add_argument("--iters", type=int, default=10, metavar="K")
    p.add_argument("--batch", type=int, default=32, metavar="F")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--normalization", type=float, default=1.0, metavar="X")
    p.add_argument("--early-term", choices=("on", "off"),
                   default=default_early_term)
    p.add_argument("--csv", metavar="PATH", help="write CSV instead of a table")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="streamdec",
        description="Batched multi-stream LDPC decoding benchmarks.")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("throughput", help="timed decode through the engine")
    _add_code_flags(t)
    _add_common_flags(t, default_early_term="off")
    t.add_argument("--streams", type=int, default=1, metavar="W")
    excl = t.add_mutually_exclusive_group(required=True)
    excl.add_argument("--frames", type=int, metavar="N")
    excl.add_argument("--seconds", type=float, metavar="S")
    t.add_argument("--repeats", type=int, default=3)
    t.add_argument("--backend", default=None,
                   help="numpy | numba | both | comma list")

    b = sub.add_parser("ber", help="Monte-Carlo BER/FER sweep")
    _add_code_flags(b)
    _add_common_flags(b, default_early_term="on")
    b.add_argument("--ebno", required=True, metavar="LIST",
                   help="comma-separated Eb/N0 points in dB")
    b.add_argument("--frames", type=int, default=1000, metavar="N")
    b.add_argument("--all-zeros", action="store_true",
                   help="send the all-zeros codeword instead of random messages")
    b.add_argument("--noiseless", action="store_true",
                   help="skip the channel; LLRs are exact +/-4")
    b.add_argument("--backend", default=None, help="numpy | numba")

    c = sub.add_parser("compare", help="flooding vs layered convergence")
    _add_code_flags(c)
    c.add_argument("--ebno", required=True, metavar="LIST")
    c.add_argument("--frames", type=int, default=500, metavar="N")
    c.add_argument("--iters", type=int, default=10, metavar="K")
    c.add_argument("--batch", type=int, default=32, metavar="F")
    c.add_argument("--seed", type=int, default=0, metavar="S")
    c.add_argument("--normalization", type=float, default=1.0, metavar="X")
    c.add_argument("--backend", default=None, help="numpy | numba")
    c.add_argument("--csv", metavar="PATH")

    g = sub.add_parser("gencode", help="emit a generated code as alist")
    _add_code_flags(g, gen_only=True)
    g.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    return ap


def _cmd_throughput(args):
    code = _load_code(args)
    configs = [DecoderConfig(schedule=args.schedule, max_iterations=args.iters,
                             early_termination=args.early_term == "on",
                             normalization=args.normalization, backend=backend)
               for backend in _parse_backends(args.backend, allow_multi=True)]
    lines = [THROUGHPUT_CSV_HEADER]
    medians = []
    for cfg in configs:
        results = run_throughput(code, cfg, w=args.streams, f=args.batch,
                                 frames=args.frames, seconds=args.seconds,
                                 repeats=args.repeats, seed=args.seed)
        lines.extend(r.csv_row() for r in results)
        medians.append((cfg.backend, median_throughput(results)))
    _emit(lines, args.csv)
    for name, med in medians:
        print(f"# median throughput ({name}): {med:.4f} Mbps")
    return 0


def _cmd_ber(args):
    code = _load_code(args)
    cfg = DecoderConfig(schedule=args.schedule, max_iterations=args.iters,
                        early_termination=args.early_term == "on",
                        normalization=args.normalization,
                        backend=_parse_backends(args.backend, allow_multi=False)[0])
    results = run_ber(code, cfg, ebno_list=_parse_ebno(args.ebno),
                      frames=args.frames, seed=args.seed, f=args.batch,
                      all_zeros=args.all_zeros, noiseless=args.noiseless)
    k = systematic_form(code).k
    lines = [BER_CSV_HEADER]
    lines.extend(r.csv_row(code.n, code.m, k, args.schedule, cfg.backend, args.iters)
                 for r in results)
    _emit(lines, args.csv)
    return 0


def _cmd_compare(args):
    code = _load_code(args)
    # a config resolves the process default, so the CSV names the kernels run
    backend = DecoderConfig(schedule="layered", backend=_parse_backends(
        args.backend, allow_multi=False)[0]).backend
    results = run_compare_schedules(code, ebno_list=_parse_ebno(args.ebno),
                                    frames=args.frames,
                                    max_iterations=args.iters, seed=args.seed,
                                    f=args.batch,
                                    normalization=args.normalization,
                                    backend=backend)
    lines = [COMPARE_CSV_HEADER]
    lines.extend(r.csv_row(code.n, code.m, backend, args.iters) for r in results)
    _emit(lines, args.csv)
    bad = [r for r in results if r.mean_iters_layered > r.mean_iters_flooding]
    if bad:
        pts = ", ".join(f"{r.ebno_db:g} dB" for r in bad)
        print(f"error: layered needed more iterations than flooding at {pts}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_gencode(args):
    n, m, rowdeg, seed = _parse_gen(args.gen)
    try:
        code = random_regular_code(n, m, rowdeg, seed=seed)
    except (ValueError, DegenerateCodeError) as e:
        raise UsageError(f"cannot generate code: {e}")
    text = emit_alist(code)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "throughput": _cmd_throughput,
    "ber": _cmd_ber,
    "compare": _cmd_compare,
    "gencode": _cmd_gencode,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_writable(args.out if args.command == "gencode" else args.csv)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
