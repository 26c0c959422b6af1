"""Command-line surface: argument parsing and the commands.

Commands: ``sketch`` (build a blob from points/matrix/CSV), ``query``
(estimate pair distances from a blob), ``eval`` (build, compare against
the exact oracle, print a line-oriented key=value report), ``gen``
(synthetic instances), ``stats`` (header and size report of a blob).

Exit codes: 0 ok, 1 usage/input, 2 malformed bytes, 3 bad data
(duplicates, metric violations, unknown labels), 4 guarantee violation.

The commands run the build of :mod:`mcsketch.pipeline`, whose entry
points the package re-exports for library use.  The package does not
import this module, so ``python -m mcsketch.cli`` finds it unloaded and
runs it without runpy's "found in sys.modules" RuntimeWarning.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from .codec import SizeReport, deserialize, size_report
from .core import (
    DataError,
    FormatError,
    GuaranteeError,
    InputError,
    SketchError,
    SketchParams,
    load_input,
    normalize,
    oracle_all_pairs,
    write_matrix,
    write_points,
)
from .estimate import Estimator
from .pipeline import (
    build_sketch,
    gen_gaussian_clusters,
    gen_high_spread_line,
    gen_random_graph_metric,
    gen_uniform,
    prepare_points,
)
from .reduce import frechet_embed

__all__ = ["main"]


# --------------------------------------------------------------------------
# Reports.


def _section_lines(s: SizeReport) -> list[str]:
    """``section_<name>_bits=<bits>`` for every payload section, in blob order."""
    return [
        f"section_tree_shape_bits={s.tree_shape_bits}",
        f"section_long_gap_bits={s.long_gap_bits}",
        f"section_center_bits={s.center_bits}",
        f"section_ingress_bits={s.ingress_bits}",
        f"section_precision_bits={s.precision_bits}",
        f"section_displacement_bits={s.displacement_bits}",
        f"section_landmark_bits={s.landmark_bits}",
    ]


# --------------------------------------------------------------------------
# Commands.


def _parse_p(text: str) -> float:
    s = text.strip().lower()
    if s in ("inf", "infinity", "oo"):
        return math.inf
    try:
        p = float(s)
    except ValueError:
        raise InputError(f"cannot parse norm parameter {text!r}") from None
    if not p >= 1.0:
        raise InputError(f"norm parameter must be >= 1, got {p}")
    return p


def _params_from(args: argparse.Namespace) -> SketchParams:
    return SketchParams(
        epsilon=args.epsilon,
        landmarks=args.landmarks,
        jl_enabled=not args.no_jl,
        jl_seed=args.jl_seed,
    )


def _load_for_build(args: argparse.Namespace, params: SketchParams):
    """The input's points (None for a distance matrix) and norm, then the
    point set to build from."""
    p_override = _parse_p(args.p) if args.p is not None else None
    kind, payload, p = load_input(args.input, p_override)
    if kind == "matrix":
        return None, p, frechet_embed(payload)
    return payload, p, prepare_points(payload, p, params)


def cmd_sketch(args: argparse.Namespace) -> int:
    params = _params_from(args)
    _, _, ps = _load_for_build(args, params)
    result = build_sketch(ps, params)
    with open(args.output, "wb") as fh:
        fh.write(result.blob)
    sizes = size_report(result.blob)
    print(f"output={args.output}")
    print(f"n={sizes.n}")
    print(f"total_bytes={sizes.total_bytes}")
    print(f"bits_per_point={sizes.bits_per_point:.3f}")
    print(*_section_lines(sizes), sep="\n")
    print(f"build_seconds={result.build_seconds:.4f}")
    return 0


def _query_pairs(args: argparse.Namespace) -> list[tuple[int, int]]:
    """``x y``, or every pair of the ``--pairs`` file; FormatError for a
    pairs file that is not UTF-8 text."""
    if args.pairs is not None:
        pairs: list[tuple[int, int]] = []
        try:
            with open(args.pairs, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    toks = line.replace(",", " ").split()
                    if len(toks) != 2:
                        raise InputError(f"{args.pairs}:{lineno}: expected two labels")
                    try:
                        pairs.append((int(toks[0]), int(toks[1])))
                    except ValueError:
                        raise InputError(
                            f"{args.pairs}:{lineno}: labels must be integers"
                        ) from None
        except UnicodeDecodeError as exc:
            raise FormatError(f"{args.pairs}: not UTF-8 text ({exc.reason})") from None
        if not pairs:
            raise InputError(f"{args.pairs}: no pairs found")
        return pairs
    if args.x is None or args.y is None:
        raise InputError("query needs either x y or --pairs FILE")
    return [(args.x, args.y)]


def cmd_query(args: argparse.Namespace) -> int:
    blob = Path(args.blob).read_bytes()
    est = Estimator(blob, mode="landmark" if args.landmarks else "precomputed")
    for x, y in _query_pairs(args):
        try:
            print(f"{est.estimate(x, y):.12g}")
        except DataError as exc:
            raise DataError(f"pair ({x}, {y}): {exc}") from exc
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    """Build, then compare every pair's estimate against the exact oracle
    of the sketched set.  GuaranteeError (exit 4), naming the worst pair
    and before any line is printed, when one is off by more than 4*eps.
    A projected set also reports the error against the raw points."""
    params = _params_from(args)
    payload, p, ps = _load_for_build(args, params)
    result = build_sketch(ps, params)
    model = result.model
    start = time.perf_counter()
    estimates = Estimator(model).estimate_all_pairs()
    query_seconds = time.perf_counter() - start
    iu = np.triu_indices(ps.n, k=1)
    est = estimates[iu]
    true = oracle_all_pairs(ps)[iu] * ps.scale
    rel = np.abs(est - true) / true
    bound = 4.0 * model.epsilon
    worst = int(np.argmax(rel))
    max_err = float(rel[worst])
    if max_err > bound:
        x, y = int(iu[0][worst]), int(iu[1][worst])
        raise GuaranteeError(
            f"estimate for pair ({x}, {y}) off by {max_err:.6g} > 4*eps = "
            f"{bound:.6g} (estimate {est[worst]:.12g}, true {true[worst]:.12g})"
        )
    sizes = size_report(result.blob)
    lines = [
        f"n={model.n}",
        f"d={model.d}",
        f"p={model.p}",
        f"epsilon={model.epsilon}",
        f"spread={model.spread}",
        f"total_bits={sizes.total_bits}",
        f"bits_per_point={sizes.bits_per_point:.3f}",
        f"header_bits={8 * sizes.header_bytes}",
        *_section_lines(sizes),
        f"max_rel_error={max_err:.6g}",
        f"mean_rel_error={float(rel.mean()):.6g}",
        f"error_bound={bound}",
        f"build_seconds={result.build_seconds:.4f}",
        f"query_seconds={query_seconds:.4f}",
        f"jl_applied={int(ps.jl_orig_dim > 0)}",
    ]
    if ps.jl_orig_dim:  # only points are projected
        raw = normalize(payload, p)
        raw_true = oracle_all_pairs(raw)[iu] * raw.scale
        rel_raw = np.abs(est - raw_true) / raw_true
        budget = (1.0 + model.epsilon) * (1.0 + bound) - 1.0
        lines += [
            f"end_to_end_max_error={float(rel_raw.max()):.6g}",
            f"end_to_end_budget={budget:.6g}",
            f"end_to_end_frac_within={float((rel_raw <= budget).mean()):.6g}",
        ]
    print(*lines, "status=ok", sep="\n")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    n, d, seed = args.n, args.d, args.seed
    p = _parse_p(args.p) if args.p is not None else None
    if args.kind == "random-graph-metric":
        if p is not None and p != math.inf:
            raise InputError(f"a distance matrix is sketched at p = inf, not {p}")
        write_matrix(args.output, gen_random_graph_metric(n, seed))
    else:
        if args.kind == "uniform":
            coords = gen_uniform(n, d, seed)
        elif args.kind == "gaussian-clusters":
            coords = gen_gaussian_clusters(n, d, seed)
        else:  # argparse restricts the kinds
            coords = gen_high_spread_line(n, args.t, seed)
        write_points(args.output, coords, 2.0 if p is None else p)
    print(f"output={args.output}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    blob = Path(args.blob).read_bytes()
    sizes = size_report(blob)
    model = deserialize(blob)
    print(f"p={model.p}")
    print(f"n={model.n}")
    print(f"d={model.d}")
    print(f"epsilon={model.epsilon}")
    print(f"scale={model.scale}")
    print(f"spread={model.spread}")
    print(f"landmarks={int(model.landmarks is not None)}")
    print(f"jl_seed={model.jl_seed}")
    print(f"jl_orig_dim={model.jl_orig_dim}")
    print(f"nodes={model.tree.n_nodes}")
    print(f"total_bytes={sizes.total_bytes}")
    print(f"bits_per_point={sizes.bits_per_point:.3f}")
    print(*_section_lines(sizes), sep="\n")
    print(f"padding_bits={sizes.padding_bits}")
    return 0


# --------------------------------------------------------------------------
# Parser and entry point.


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse override
        raise InputError(message)


def _add_build_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("-e", "--epsilon", type=float, required=True)
    sp.add_argument(
        "-p", default=None, help="norm parameter of point inputs (a distance matrix takes inf)"
    )
    sp.add_argument("--landmarks", action="store_true")
    sp.add_argument("--no-jl", action="store_true")
    sp.add_argument("--jl-seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mcsketch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sketch", help="build a sketch blob")
    sp.add_argument("input")
    _add_build_flags(sp)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_sketch)

    sp = sub.add_parser("query", help="estimate pair distances from a blob")
    sp.add_argument("blob")
    sp.add_argument("x", nargs="?", type=int, default=None)
    sp.add_argument("y", nargs="?", type=int, default=None)
    sp.add_argument("--pairs", default=None, help="file with one 'x y' pair per line")
    sp.add_argument("--landmarks", action="store_true", help="landmark replay mode")
    sp.set_defaults(func=cmd_query)

    sp = sub.add_parser("eval", help="build and check against the oracle")
    sp.add_argument("input")
    _add_build_flags(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("gen", help="generate synthetic instances")
    sp.add_argument(
        "kind",
        choices=(
            "uniform",
            "gaussian-clusters",
            "high-spread-line",
            "random-graph-metric",
        ),
    )
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-d", type=int, default=2)
    sp.add_argument("-p", default=None)
    sp.add_argument("-t", type=int, default=64, help="spread exponent (high-spread-line)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("stats", help="print blob header and size report")
    sp.add_argument("blob")
    sp.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SketchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        codes = {FormatError: 2, DataError: 3, GuaranteeError: 4}
        return next((c for kind, c in codes.items() if isinstance(exc, kind)), 1)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
