"""Command-line front end: ingest measures/sets, run analyses, emit reports.

Exit codes: 0 success, 2 validation error (malformed JSON, bad flags,
a value that an entry point of the library refuses with ValueError, a path
that cannot be read or written), 3 estimate-violated runs.
"""

from __future__ import annotations

import argparse
import errno
import json
# argparse's gettext imports locale on the first parser; load it here, so
# that no run pays for the import
import locale
import math
import os
import sys

import numpy as np

from .cover import (CoverConfig, classify_ball, covering_lemma, default_theta,
                    main_packing)
from .curves import (SnowflakeSpec, no_power_gain_matrix, no_power_gain_witness,
                     npg_reference_points, polyline_length, rademacher_norm,
                     row_normalized_det, snowflake, euclidean_normal)
from .measures import PointMeasure, dini_profile
from .report import emit_report, profile_csv
from .spaces import NormedSpace

__all__ = ["main", "run"]


def _load_measure(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})")
    try:
        return PointMeasure.from_json(doc)
    except (KeyError, ValueError) as e:
        raise ValueError(f"{path}: {e}")


# argparse types: a bad value exits 2 with argparse's error line
def _positive(text) -> float:
    """A finite number > 0."""
    x = float(text)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return x


def _count(text) -> int:
    """An integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}")
    return n


def _seed(text) -> int:
    """An integer >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text}")
    return n


def _exponent(text) -> float:
    """An l^p exponent: a number >= 1 or inf."""
    p = float(text)
    if not p >= 1.0:
        raise argparse.ArgumentTypeError(f"p must satisfy p >= 1 or p = inf, got {text}")
    return p


def _exponents(text) -> list:
    return [_exponent(s) for s in text.split(",")]


def _positives(text) -> list:
    return [_positive(s) for s in text.split(",")]


def _check_out(out_path):
    """Before the run, open's own error for an --out path that is a
    directory or lies in a missing one.  The file is not opened, so an
    existing report survives a run that then fails validation."""
    if os.path.isdir(out_path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out_path)
    if not os.path.isdir(os.path.dirname(out_path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_path)


def _write(out_path, data: bytes):
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


# the analysis flags; each measure command takes those it reads
_ANALYSIS_FLAGS = {"--alpha": {"default": "auto"}, "--delta": {"type": float},
                   "--theta": {"type": float}, "--max-depth": {"type": int, "default": 6},
                   "--seed": {"type": _seed, "default": 0}}


def _measure_parser(sub, name, summary, *flags):
    """A measure command: the input, the flags every one reads, and `flags`."""
    sp = sub.add_parser(name, help=summary)
    sp.add_argument("input")
    sp.add_argument("--space", help="space descriptor JSON (overrides the measure's)")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--chi", type=float, default=0.1)
    sp.add_argument("--out", default=None)
    for flag in flags:
        sp.add_argument(flag, **_ANALYSIS_FLAGS[flag])
    return sp


def _build_parser():
    ap = argparse.ArgumentParser(prog="betareif",
                                 description="beta-numbers and Reifenberg coverings in l^p spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    b = _measure_parser(sub, "beta", "per-atom Dini profiles (CSV)", "--alpha", "--seed")
    b.add_argument("--atom", type=int, default=None, help="profile a single atom index")
    b.add_argument("--r-lo", type=float, default=1 / 16)
    b.add_argument("--r-hi", type=float, default=2.0)
    b.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report of --atom (the all-atom table is always CSV)")

    _measure_parser(sub, "cover", "run the covering lemma (JSON report)", *_ANALYSIS_FLAGS)
    p = _measure_parser(sub, "pack", "run the packing driver (JSON report)", *_ANALYSIS_FLAGS)
    p.add_argument("--M", type=float, default=0.01)
    p.add_argument("--budget", type=int, default=4)

    s = sub.add_parser("snowflake", help="generate snowflakes and lengths")
    s.add_argument("--p", type=_exponent, default=2.0)
    s.add_argument("--mode", choices=("rademacher", "plane"), default="rademacher")
    s.add_argument("--eta", default="const:0.05",
                   help="const:v | geom:q (v*q^i) | invsqrt")
    s.add_argument("--depth", type=int, default=7)
    s.add_argument("--out", default=None)
    s.add_argument("--format", choices=("json", "csv"), default="json")

    m = sub.add_parser("smoothness", help="empirical vs analytic modulus sweep (CSV)")
    m.add_argument("--p-list", type=_exponents, default="1,1.5,2,3,4,inf")
    m.add_argument("--t-list", type=_positives, default="0.05,0.1,0.3")
    m.add_argument("--dim", type=_count, default=3)
    m.add_argument("--samples", type=_count, default=10000)
    m.add_argument("--seed", type=_seed, default=0)
    m.add_argument("--out", default=None)

    n = sub.add_parser("nopowergain", help="det certificate + exact witness (JSON)")
    n.add_argument("--eps", type=_positive, default=0.02)
    n.add_argument("--out", default=None)

    g = _measure_parser(sub, "goodball", "classify one ball (JSON)", "--theta")
    g.add_argument("--center", default=None, help="JSON list, default origin")
    g.add_argument("--r", type=_positive, default=1.0)
    return ap


def _parse_eta(spec_text: str, depth: int):
    kind, _, val = spec_text.partition(":")
    if kind in ("const", "geom"):
        try:
            v = float(val)
        except ValueError:
            raise ValueError(f"eta spec {spec_text!r} needs a number after ':'")
    if kind == "const":
        return tuple([v] * max(depth - 1, 1))
    if kind == "geom":
        return tuple(0.1 * v ** (i + 1) for i in range(max(depth - 1, 1)))
    if kind == "invsqrt":
        return tuple(0.1 / math.sqrt(i + 1) for i in range(max(depth - 1, 1)))
    raise ValueError(f"unknown eta spec {spec_text!r}")


def _space_from_args(args, default_space):
    if not args.space:
        return default_space
    try:
        space = NormedSpace.from_descriptor(json.loads(args.space))
    except (ValueError, KeyError) as e:     # json.JSONDecodeError is a ValueError
        raise ValueError(f"--space: {e}")
    if space.dim != default_space.dim:
        raise ValueError(f"--space: dim {space.dim} does not match "
                         f"the measure's dim {default_space.dim}")
    return space


def _parse_center(text: str, dim: int) -> np.ndarray:
    try:
        c = np.asarray(json.loads(text), dtype=float)
    except (TypeError, ValueError):     # json.JSONDecodeError is a ValueError
        c = None
    if c is None or c.shape != (dim,) or not np.isfinite(c).all():
        raise ValueError(f"--center must be a JSON list of {dim} finite numbers, got {text!r}")
    return c


def run(argv) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (ValueError, OSError) as e:     # a value out of range, or a path that fails
        print(f"error: {e}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if args.out:
        _check_out(args.out)
    if hasattr(args, "input"):      # the measure commands
        space0, mu, rs = _load_measure(args.input)
        space = _space_from_args(args, space0)

    if cmd == "beta":
        alpha = CoverConfig(alpha=args.alpha).resolve_alpha(space)
        if args.atom is not None:
            if not 0 <= args.atom < len(mu):
                raise ValueError(f"atom must satisfy 0 <= atom < {len(mu)}, got {args.atom}")
            prof = dini_profile(space, mu, mu.points[args.atom], args.r_lo,
                                args.r_hi, args.k, alpha, args.chi, seed=args.seed)
            _write(args.out, emit_report(prof, args.format))
            return 0
        profiles = dini_profile(space, mu, mu.points, args.r_lo, args.r_hi,
                                args.k, alpha, args.chi, seed=args.seed)
        # profile_csv's rows, each behind its atom index
        lines = ["atom,scale,beta,beta_alpha,cumulative\n"]
        for i, prof in enumerate(profiles):
            lines += [f"{i},{row}\n" for row in profile_csv(prof).splitlines()[1:]]
        _write(args.out, "".join(lines).encode())
        return 0

    if cmd in ("cover", "pack"):
        cfg = CoverConfig(chi=args.chi, delta=args.delta, alpha=args.alpha,
                          theta=args.theta, max_depth=args.max_depth, seed=args.seed)
        if cmd == "cover":
            res = covering_lemma(space, mu, rs, args.k, cfg)
            _write(args.out, emit_report(res, "json"))
            return 3 if res.estimate_violated else 0
        res = main_packing(space, mu, rs, args.k, M=args.M, cfg=cfg, budget=args.budget)
        _write(args.out, emit_report(res, "json"))
        return 3 if not res.valid else 0

    if cmd == "snowflake":
        p = args.p
        etas = _parse_eta(args.eta, args.depth)
        mode = "rademacher" if args.mode == "rademacher" else "plane_bump"
        spec = SnowflakeSpec(mode, p, etas, args.depth)
        verts = snowflake(spec)
        lengths = []
        for d in range(2, args.depth + 1):
            sub = SnowflakeSpec(mode, p, etas, d)
            lengths.append({"depth": d, "length": polyline_length(snowflake(sub), p)})
        if mode == "rademacher":
            A = verts.matrix
            vout = A.tolist()
            diffs = np.diff(A, axis=0)
            dts = np.diff(A[:, 0])
            speeds = [rademacher_norm(dv, p) / dt for dv, dt in zip(diffs, dts)]
        else:
            A = np.stack([np.asarray(v, dtype=float) for v in verts])
            vout = A.tolist()
            seg = NormedSpace(2, p).norms(np.diff(A, axis=0))
            speeds = seg.tolist()     # per-segment lengths in plane mode
        doc = {"mode": mode, "p": "inf" if p == math.inf else p, "depth": args.depth,
               "etas": list(etas[: args.depth - 1]), "vertices": vout,
               "speeds": speeds,
               "length": polyline_length(verts, p), "lengths_per_depth": lengths}
        if args.format == "csv":
            lines = ["depth,length"] + [f"{row['depth']},{row['length']:.12g}" for row in lengths]
            _write(args.out, ("\n".join(lines) + "\n").encode())
        else:
            _write(args.out, emit_report(doc, "json"))
        return 0

    if cmd == "smoothness":
        lines = ["p,t,empirical,bound"]
        for p in args.p_list:
            sp = NormedSpace(args.dim, p)
            ptag = "inf" if p == math.inf else f"{p:g}"
            for t in args.t_list:
                try:
                    with np.errstate(over="ignore", invalid="ignore"):    # a huge t: error below
                        emp = sp.modulus_smoothness_empirical(t, args.samples, args.seed)
                        bnd = sp.modulus_smoothness_bound(t)
                except OverflowError:
                    emp = bnd = math.inf
                if not (math.isfinite(emp) and math.isfinite(bnd)):
                    raise ValueError(f"--t-list: t = {t:g} overflows the modulus at "
                                           f"p = {ptag}; take a smaller t")
                lines.append(f"{ptag},{t:.12g},{emp:.12g},{bnd:.12g}")
        _write(args.out, ("\n".join(lines) + "\n").encode())
        return 0

    if cmd == "nopowergain":
        det, M = no_power_gain_matrix(npg_reference_points())
        pair, bound = no_power_gain_witness([1.0, 0.0, 0.0], euclidean_normal(), args.eps)
        doc = {"det": det, "row_normalized_det": row_normalized_det(M),
               "witness_bound": bound, "witness_pair": [list(pair[0]), list(pair[1])],
               "eps": args.eps, "measured_c": args.eps / bound if bound > 0 else None}
        _write(args.out, emit_report(doc, "json"))
        return 0

    if cmd == "goodball":
        center = _parse_center(args.center, space.dim) if args.center else np.zeros(space.dim)
        lab = classify_ball(space, mu, center, args.r, args.k, args.chi, args.theta)
        doc = lab.to_dict()
        doc["config"] = {"k": args.k, "chi": args.chi,
                         "theta": args.theta if args.theta is not None else default_theta(args.k)}
        _write(args.out, emit_report(doc, "json"))
        return 0

    raise ValueError(f"unknown command {cmd}")


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
