"""Command-line surface and the high-level sketch pipeline.

Commands: ``sketch`` (build a blob from points/matrix/CSV), ``query``
(estimate pair distances from a blob), ``eval`` (build, compare against
the exact oracle, print a line-oriented key=value report), ``gen``
(synthetic instances), ``stats`` (header and size report of a blob).

Exit codes: 0 ok, 1 usage/input, 2 malformed bytes, 3 bad data
(duplicates, metric violations, unknown labels), 4 guarantee violation.

The functions ``sketch_points`` and ``sketch_metric`` are the programmatic
equivalents of ``sketch`` and are re-exported at package level for library
use; ``build_sketch``, which sketches a normalized point set and returns
every intermediate, is reached as ``mcsketch.cli.build_sketch``.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import shortest_path

from .annotate import Annotations, SurrogateTable, annotate
from .codec import SketchModel, SizeReport, deserialize, serialize, size_report
from .core import (
    DataError,
    DistanceMatrix,
    FormatError,
    GuaranteeError,
    InputError,
    PointSet,
    SketchError,
    SketchParams,
    k_parameter,
    load_input,
    normalize,
    oracle_all_pairs,
    write_matrix,
    write_points,
)
from .estimate import Estimator, estimate_bound, select_all_landmarks
from .hst import ClusterIndex, SketchTree, build_hst, compress
from .reduce import frechet_embed, project_points

__all__ = [
    "BuildResult",
    "EvalReport",
    "build_sketch",
    "sketch_points",
    "sketch_metric",
    "gen_uniform",
    "gen_gaussian_clusters",
    "gen_high_spread_line",
    "gen_random_graph_metric",
    "main",
]


# --------------------------------------------------------------------------
# Pipeline.


@dataclass
class BuildResult:
    """Everything produced while building one sketch.

    ``point_set`` is the sketched (post-projection) point set.  When it came
    from ``normalize`` it holds its (n, n) distance matrix, which
    :func:`evaluate` reads as the oracle; keeping a result keeps that matrix.
    """

    blob: bytes
    model: SketchModel
    point_set: PointSet
    jl_applied: bool
    tree: SketchTree
    clusters: ClusterIndex
    ann: Annotations
    table: SurrogateTable
    build_seconds: float


def build_sketch(
    ps: PointSet,
    params: SketchParams,
    jl_applied: bool = False,
    jl_orig_dim: int = 0,
) -> BuildResult:
    """Sketch an already-normalized point set.  Raises InputError when the
    spread and epsilon leave no finite landmark spacing K, when epsilon
    leaves a grid bound beyond int64, and when the estimates could
    overflow (:func:`~mcsketch.estimate.estimate_bound`), so that every
    blob it writes decodes."""
    start = time.perf_counter()
    kk = k_parameter(ps.spread, params.epsilon, ps.d, ps.p)
    tree0, clusters0 = build_hst(ps)
    tree, clusters = compress(tree0, clusters0, params.epsilon)
    ann, ingress, table = annotate(tree, clusters, ps, params)
    if not math.isfinite(estimate_bound(table.shift_int, table.unit, ps.scale, ps.d, ps.p)):
        raise InputError(f"coordinates too large: estimates at scale {ps.scale} may overflow")
    landmarks = sorted(select_all_landmarks(tree, ingress, kk)) if params.landmarks else None
    model = SketchModel(
        tree=tree,
        ingress=ingress,
        eta_ints=ann.eta_ints,
        landmarks=landmarks,
        p=ps.p,
        epsilon=params.epsilon,
        scale=ps.scale,
        spread=ps.spread,
        n=ps.n,
        d=ps.d,
        jl_seed=params.jl_seed if jl_applied else 0,
        jl_orig_dim=jl_orig_dim if jl_applied else 0,
    )
    blob = serialize(model)
    return BuildResult(
        blob=blob,
        model=model,
        point_set=ps,
        jl_applied=jl_applied,
        tree=tree,
        clusters=clusters,
        ann=ann,
        table=table,
        build_seconds=time.perf_counter() - start,
    )


def prepare_points(
    coords: np.ndarray, p: float, params: SketchParams
) -> tuple[PointSet, bool, int]:
    """Normalize and, for Euclidean inputs, apply the random projection.

    An input that gets projected is never normalized at its original
    dimension (see :func:`~mcsketch.reduce.project_points`).
    """
    if params.jl_enabled and p == 2.0:
        projected = project_points(coords, params)
        if projected is not None:
            return projected, True, np.shape(coords)[1]
    return normalize(coords, p), False, 0


def sketch_points(coords: np.ndarray, p: float, params: SketchParams) -> bytes:
    """Sketch raw lp points; returns the blob bytes."""
    ps, applied, orig_dim = prepare_points(coords, p, params)
    return build_sketch(ps, params, applied, orig_dim).blob


def sketch_metric(entries: np.ndarray | DistanceMatrix, params: SketchParams) -> bytes:
    """Sketch an arbitrary finite metric given as a distance matrix."""
    dm = entries if isinstance(entries, DistanceMatrix) else DistanceMatrix(
        entries=np.asarray(entries, dtype=np.float64)
    )
    ps = frechet_embed(dm)
    return build_sketch(ps, params).blob


# --------------------------------------------------------------------------
# Generators.


def _rng(seed: int) -> np.random.Generator:
    """The generators' random source; InputError on a negative seed."""
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def gen_uniform(
    n: int, d: int, seed: int, low: float = 0.0, high: float = 100.0
) -> np.ndarray:
    if n < 2 or d < 1:
        raise InputError(f"need n >= 2 points of d >= 1 coordinates, got n={n}, d={d}")
    rng = _rng(seed)
    return rng.uniform(low, high, size=(n, d))


def gen_gaussian_clusters(
    n: int,
    d: int,
    seed: int,
    clusters: int = 5,
    center_spread: float = 40.0,
    sigma: float = 1.0,
) -> np.ndarray:
    if n < 2 or d < 1:
        raise InputError(f"need n >= 2 points of d >= 1 coordinates, got n={n}, d={d}")
    rng = _rng(seed)
    centers = rng.normal(0.0, center_spread, size=(clusters, d))
    assign = rng.integers(0, clusters, size=n)
    return centers[assign] + rng.normal(0.0, sigma, size=(n, d))


def gen_high_spread_line(n: int, t: int, seed: int) -> np.ndarray:
    """1-D points whose pairwise gaps range from 2^0 up to exactly 2^t.

    Layout: the exact pair {0, 1} (so normalization divides by 1), a jittered
    blob at unit-ish spacing, and one outpost at exactly 2^t, so the
    normalized spread is exactly 2^t.  The same node set arises at every
    valid t -- only the two long runs hanging off the root (above the blob
    and above the outpost leaf) stretch with t -- so sketch-size growth
    across t isolates the long-edge gap codes.
    """
    if n < 11:
        raise InputError("high-spread-line needs n >= 11")
    if t >= 1024:  # 2^1024 is past the largest float
        raise InputError(f"spread exponent t={t} must be below 1024")
    rng = _rng(seed)
    blob_count = n - 3
    jitter = rng.uniform(-0.9, 0.9, size=blob_count)
    blob = 3.0 + 1.5 * np.arange(blob_count) + 0.25 * jitter
    base = float(blob[-1]) + 2.0
    top = math.ldexp(1.0, t)
    if top <= 2.0 * base:
        raise InputError(
            f"spread exponent t={t} too small for n={n} (need 2^t > {2 * base:g})"
        )
    return np.array([0.0, 1.0, *blob, top], dtype=np.float64).reshape(-1, 1)


def gen_random_graph_metric(n: int, seed: int, extra_edges: int | None = None) -> np.ndarray:
    """Shortest-path metric of a random connected weighted graph."""
    if n < 2:
        raise InputError("need at least two nodes")
    rng = _rng(seed)
    w = np.zeros((n, n), dtype=np.float64)

    def add_edge(i: int, j: int, weight: float) -> None:
        if w[i, j] == 0.0 or weight < w[i, j]:
            w[i, j] = w[j, i] = weight

    for i in range(1, n):
        add_edge(i, int(rng.integers(0, i)), float(rng.uniform(1.0, 4.0)))
    m_extra = 2 * n if extra_edges is None else extra_edges
    for _ in range(m_extra):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i != j:
            add_edge(i, j, float(rng.uniform(1.0, 4.0)))
    dist = shortest_path(w, method="D", directed=False)
    return np.asarray(dist, dtype=np.float64)


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


@dataclass
class EvalReport:
    """Build-and-check summary; ``lines()`` is the key=value wire format."""

    n: int
    d: int
    p: float
    epsilon: float
    spread: float
    sizes: SizeReport
    max_rel_error: float
    mean_rel_error: float
    error_bound: float
    build_seconds: float
    query_seconds: float
    jl_applied: bool
    end_to_end_max_error: float | None = None
    end_to_end_budget: float | None = None
    end_to_end_frac_within: float | None = None

    def lines(self) -> list[str]:
        s = self.sizes
        out = [
            f"n={self.n}",
            f"d={self.d}",
            f"p={self.p}",
            f"epsilon={self.epsilon}",
            f"spread={self.spread}",
            f"total_bits={s.total_bits}",
            f"bits_per_point={s.bits_per_point:.3f}",
            f"header_bits={8 * s.header_bytes}",
            *_section_lines(s),
            f"max_rel_error={self.max_rel_error:.6g}",
            f"mean_rel_error={self.mean_rel_error:.6g}",
            f"error_bound={self.error_bound}",
            f"build_seconds={self.build_seconds:.4f}",
            f"query_seconds={self.query_seconds:.4f}",
            f"jl_applied={int(self.jl_applied)}",
        ]
        if self.end_to_end_max_error is not None:
            out += [
                f"end_to_end_max_error={self.end_to_end_max_error:.6g}",
                f"end_to_end_budget={self.end_to_end_budget:.6g}",
                f"end_to_end_frac_within={self.end_to_end_frac_within:.6g}",
            ]
        return out


def evaluate(
    result: BuildResult, raw_oracle: np.ndarray | None = None
) -> EvalReport:
    """Compare all estimates against the exact oracle of the sketched set.

    Raises GuaranteeError (exit 4) naming the worst pair if the 4*eps bound
    fails against the post-projection oracle.
    """
    ps = result.point_set
    model = result.model
    start = time.perf_counter()
    est = Estimator(model)
    estimates = est.estimate_all_pairs()
    query_seconds = time.perf_counter() - start
    oracle = oracle_all_pairs(ps) * ps.scale
    iu = np.triu_indices(ps.n, k=1)
    rel = np.abs(estimates[iu] - oracle[iu]) / oracle[iu]
    max_err = float(rel.max())
    mean_err = float(rel.mean())
    bound = 4.0 * model.epsilon
    report = EvalReport(
        n=model.n,
        d=model.d,
        p=model.p,
        epsilon=model.epsilon,
        spread=model.spread,
        sizes=size_report(result.blob),
        max_rel_error=max_err,
        mean_rel_error=mean_err,
        error_bound=bound,
        build_seconds=result.build_seconds,
        query_seconds=query_seconds,
        jl_applied=result.jl_applied,
    )
    if result.jl_applied and raw_oracle is not None:
        budget = (1.0 + model.epsilon) * (1.0 + bound) - 1.0
        rel_raw = np.abs(estimates[iu] - raw_oracle[iu]) / raw_oracle[iu]
        report.end_to_end_max_error = float(rel_raw.max())
        report.end_to_end_budget = budget
        report.end_to_end_frac_within = float((rel_raw <= budget).mean())
    if max_err > bound:
        worst = int(np.argmax(rel))
        x, y = int(iu[0][worst]), int(iu[1][worst])
        raise GuaranteeError(
            f"estimate for pair ({x}, {y}) off by {max_err:.6g} > 4*eps = "
            f"{bound:.6g} (estimate {estimates[x, y]:.12g}, "
            f"true {oracle[x, y]:.12g})"
        )
    return report


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
        jl_constant=args.jl_const,
        jl_seed=args.jl_seed,
    )


def _load_for_build(args: argparse.Namespace, params: SketchParams):
    """The input's points (None for a distance matrix) and norm, then the
    point set to build from, jl_applied and jl_orig_dim."""
    p_override = _parse_p(args.p) if args.p is not None else None
    kind, payload, p = load_input(args.input, p_override)
    if kind == "matrix":
        return None, p, frechet_embed(payload), False, 0
    return payload, p, *prepare_points(payload, p, params)


def cmd_sketch(args: argparse.Namespace) -> int:
    params = _params_from(args)
    _, _, ps, applied, orig_dim = _load_for_build(args, params)
    result = build_sketch(ps, params, applied, orig_dim)
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
    if args.pairs is not None:
        pairs: list[tuple[int, int]] = []
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
    params = _params_from(args)
    payload, p, ps, applied, orig_dim = _load_for_build(args, params)
    result = build_sketch(ps, params, applied, orig_dim)
    raw_oracle = None
    if applied:  # only points are projected
        raw = normalize(payload, p)
        raw_oracle = oracle_all_pairs(raw) * raw.scale
    report = evaluate(result, raw_oracle)
    for line in report.lines():
        print(line)
    print("status=ok")
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
    sp.add_argument("--jl-const", type=float, default=4.0)


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
