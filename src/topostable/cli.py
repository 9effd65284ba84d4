"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data or pipeline error. Messages go
to stderr; data goes to files or stdout.
"""

import argparse
import os
import stat
import struct
import sys

from . import __version__
from .datasets import IDX_IMAGE_MAGIC, gen_helix, gen_punctured_sphere, gen_swiss_roll, load_csv, load_idx
from .errors import TopoStableError, ZeroVarianceError
from .geodesic import residual_variance
from .graph import METHODS
from .pipeline import (
    RunConfig,
    _fmt,
    _open_out,
    compare_methods,
    isomap_embed,
    write_embedding_csv,
    write_report_csv,
    write_scatter_svg,
)

GENERATORS = {
    "helix": gen_helix,
    "swissroll": gen_swiss_roll,
    "sphere": gen_punctured_sphere,
}


def _k_list(text):
    try:
        values = [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("k list is empty")
    return values


def _add_run_flags(p, k_type, k_help):
    p.add_argument("--k", type=k_type, required=True, help=k_help)
    p.add_argument("--m", type=int, default=RunConfig.m, help="embedding dimension")
    p.add_argument("--dim-w", type=int, default=RunConfig.dim_w, help="local subspace dimension")
    p.add_argument("--delta-theta", type=float, default=RunConfig.delta_theta_deg, help="angle window half-width, degrees")


def _run_config(args, method, k):
    # RunConfig refuses what no data can fix, so the commands build their
    # configs before the input is read and refuse them as usage
    try:
        return RunConfig(method=method, k=k, m=args.m, dim_w=args.dim_w, delta_theta_deg=args.delta_theta)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _add_input_flags(p):
    p.add_argument("--in", dest="infile", required=True, help="input CSV or IDX image file")
    p.add_argument("--labels", help="IDX label file (IDX input only)")
    p.add_argument("--take-first", type=int, help="keep only the first N images (IDX input only)")
    p.add_argument("--seed", type=int, help="keep a uniform draw of --take-first images seeded by this (IDX input only)")


def build_parser():
    parser = argparse.ArgumentParser(prog="topostable", description="Isomap with angle-filtered neighbor selection")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic manifold sample as CSV")
    g.add_argument("--manifold", required=True, choices=sorted(GENERATORS))
    g.add_argument("--n", type=int, required=True, help="number of points")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="-", help="output CSV path, - for stdout")
    g.set_defaults(func=_cmd_generate)

    e = sub.add_parser("embed", help="embed a dataset and write coordinates")
    _add_input_flags(e)
    e.add_argument("--method", choices=METHODS, default="stable")
    _add_run_flags(e, int, "neighbor count")
    e.add_argument("--out", default="-", help="embedding CSV path, - for stdout")
    e.add_argument("--svg", help="optional scatter plot path")
    e.set_defaults(func=_cmd_embed)

    c = sub.add_parser("compare", help="residual-variance sweep over k for both methods")
    _add_input_flags(c)
    c.add_argument("--method", choices=[*METHODS, "both"], default="both")
    _add_run_flags(c, _k_list, "comma-separated k values")
    c.add_argument("--out", default="-", help="report CSV path, - for stdout")
    c.set_defaults(func=_cmd_compare)

    v = sub.add_parser("version", help="print the package version")
    v.set_defaults(func=_cmd_version)
    return parser


def _is_idx(path):
    with open(path, "rb") as fh:
        head = fh.read(4)
    return len(head) == 4 and struct.unpack(">I", head)[0] == IDX_IMAGE_MAGIC


class UsageError(Exception):
    """A flag, or a flag value, the command cannot use (exit code 1)."""


def _check_seed(seed):
    if seed is not None and seed < 0:
        raise UsageError(f"--seed must be non-negative, got {seed}")


def _load_input(args):
    # the format is sniffed from the first bytes and the file is then read
    # again from the start, which a pipe cannot do
    if not stat.S_ISREG(os.stat(args.infile).st_mode):
        raise UsageError(f"--in {args.infile} is not a regular file: input is read twice, so pipes and devices are refused")
    _check_seed(args.seed)
    if _is_idx(args.infile):
        if args.seed is not None and args.take_first is None:
            raise UsageError("--seed needs --take-first: it draws that many images")
        return load_idx(args.infile, labels_path=args.labels, take_first=args.take_first, seed=args.seed)
    for flag, given in (
        ("--labels", args.labels is not None),
        ("--take-first", args.take_first is not None),
        ("--seed", args.seed is not None),
    ):
        if given:
            raise UsageError(f"{flag} applies to IDX input only, and {args.infile} is not an IDX image file")
    return load_csv(args.infile)


def _cmd_generate(args):
    _check_seed(args.seed)
    sample = GENERATORS[args.manifold](args.n, args.seed)
    with _open_out(sys.stdout if args.out == "-" else args.out) as fh:
        for row in sample.data.points:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    print(f"wrote {sample.data.n} {args.manifold} points", file=sys.stderr)
    return 0


def _cmd_embed(args):
    if args.svg and args.m < 2:
        raise UsageError(f"--svg needs --m 2 or more: the scatter plot draws the first two coordinates, got --m {args.m}")
    cfg = _run_config(args, args.method, args.k)
    data = _load_input(args)
    emb, gm, graph = isomap_embed(data, cfg)
    write_embedding_csv(emb, gm.points, data.labels, sys.stdout if args.out == "-" else args.out)
    if args.svg:
        write_scatter_svg(emb, None if data.labels is None else data.labels[gm.points], args.svg)
    # the outputs stand without rv: an undefined rv (too few points, or
    # constant distances) is reported and exits 0, as compare records a
    # NaN cell
    try:
        quality = f"residual variance {residual_variance(gm, emb):.6g}"
    except (ZeroVarianceError, ValueError) as exc:
        quality = str(exc)
    print(f"embedded {gm.n}/{data.n} points, {graph.n_edges} edges, {quality}", file=sys.stderr)
    return 0


def _cmd_compare(args):
    methods = METHODS if args.method == "both" else (args.method,)
    cells = [_run_config(args, method, k) for k in args.k for method in methods]
    data = _load_input(args)
    rows = compare_methods(data, cells)
    write_report_csv(rows, sys.stdout if args.out == "-" else args.out)
    failures = [r for r in rows if r.error is not None]
    for r in failures:
        print(f"cell k={r.k} method={r.method} failed: {r.error}", file=sys.stderr)
    print(f"compared {len(rows)} cells ({len(failures)} failed)", file=sys.stderr)
    return 0


def _cmd_version(args):
    print(__version__)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TopoStableError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
