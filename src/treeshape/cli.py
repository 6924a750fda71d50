"""Batch command-line interface.

One subcommand per workflow; machine-readable results go to ``--out`` (the
extension picks JSON, CSV or SVG) and a short human summary is printed.
All commands are deterministic for fixed inputs, flags and ``--seed``,
independent of the worker count.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from . import clustering, metric, render, statistics
from .metric import DistanceMatrix, PairOptions
from .registration import MAX_MAIN_SAMPLES
from .srvf import DEFAULT_WEIGHTS, Weights, srvft_to_tree
from .statistics import Atlas, RegressionModel
from .tree_model import (
    DEFAULT_LATERAL_SAMPLES,
    DEFAULT_MAIN_SAMPLES,
    RootTree,
    extract_bio_params,
    json_text,
    load_collection,
    load_root,
    save_collection,
    save_root,
    write_text,
)

BIO_PARAM_NAMES = ("main_length", "lateral_mean_length", "lateral_std_length")


def _json_text(payload) -> str:
    return json_text(payload)


def _write_text(path: Path, text: str) -> None:
    write_text(path, text)


def _write_tree(path: Path, tree: RootTree) -> None:
    """An .svg drawing of ``tree``; else its root file."""
    if path.suffix == ".svg":
        _write_text(path, render.render_tree(tree))
    else:
        save_root(tree, path)


def _write_trees(path: Path, trees: Iterable[RootTree], titles: list[str] | None = None) -> None:
    """An .svg row of panels titled ``titles`` (by default the tree ids),
    which needs every tree at once for the row's bounding box; else a JSON
    array of root objects, written one tree at a time as ``trees`` yields
    them (also for one tree, so ``load_collection`` reads every such file)."""
    if path.suffix == ".svg":
        trees = list(trees)
        titles = [t.id for t in trees] if titles is None else titles
        _write_text(path, render.render_tree_row(trees, titles=titles))
    else:
        save_collection(trees, path)


def _add_weight_args(parser: argparse.ArgumentParser) -> None:
    w = DEFAULT_WEIGHTS
    parser.add_argument("--lambda-m", type=_finite(0), default=w.lambda_m, help="main-shape weight")
    parser.add_argument("--lambda-s", type=_finite(0), default=w.lambda_s,
                        help="lateral-shape weight")
    parser.add_argument("--lambda-p", type=_finite(0), default=w.lambda_p,
                        help="attachment-position weight")


def _add_pipeline_args(parser: argparse.ArgumentParser, threads: bool = False) -> None:
    _add_weight_args(parser)
    parser.add_argument("--normalize", action="store_true",
                        help="rescale every tree by its main-root length before analysis")
    parser.add_argument("--n-main", type=_at_least(2, MAX_MAIN_SAMPLES),
                        default=DEFAULT_MAIN_SAMPLES,
                        help=f"main-branch sample count (2 to {MAX_MAIN_SAMPLES}, the DP's "
                             "memory ceiling)")
    parser.add_argument("--n-lat", type=_at_least(2), default=DEFAULT_LATERAL_SAMPLES,
                        help="lateral-branch sample count (>= 2)")
    if threads:
        parser.add_argument("--threads", type=_at_least(1), default=1,
                            help="worker processes (>= 1)")


def _add_descent_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-iter", type=_at_least(0), default=30,
                        help="mean descent iterations (>= 0)")
    parser.add_argument("--step", type=_finite(0, above=True), default=0.5,
                        help="descent step size (finite, > 0)")


def _weights(args: argparse.Namespace) -> Weights:
    return Weights(args.lambda_m, args.lambda_s, args.lambda_p)


def _pair_options(args: argparse.Namespace) -> PairOptions:
    return PairOptions(
        n_main=args.n_main,
        n_lateral=args.n_lat,
        normalize=args.normalize,
    )


def _at_least(lo: int, hi: float = math.inf):
    """argparse type: an integer of at least ``lo`` and at most ``hi``;
    anything else exits 2."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        if value > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports "invalid int value" for non-integers
    return parse


def _finite(lo: float, above: bool = False):
    """argparse type: a finite float of at least ``lo``, or above it if
    ``above``; anything else, ``nan`` and ``inf`` too, exits 2."""
    def parse(text: str) -> float:
        value = float(text)
        if not lo <= value < np.inf or (above and value == lo):
            bound = "above" if above else "of at least"
            raise argparse.ArgumentTypeError(
                f"must be a finite number {bound} {lo:g}, got {text!r}")
        return value
    parse.__name__ = "float"  # argparse reports "invalid float value" for non-numbers
    return parse


def _finite_list(text: str) -> list[float]:
    """argparse type: comma-separated finite numbers; anything else exits 2."""
    try:
        values = [float(v) for v in text.split(",")]
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated finite numbers, got {text!r}")


def _alpha_range(text: str) -> tuple[float, float, int]:
    """``LO:HI:COUNT`` with finite LO and HI and an integer COUNT >= 1."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 3 colon-separated values, got {text!r}")
    lo, hi, count = parts
    lo, hi = float(lo), float(hi)
    if not np.isfinite([lo, hi]).all():
        raise argparse.ArgumentTypeError(f"LO and HI must be finite, got {text!r}")
    try:
        steps = int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"COUNT must be an integer, got {count!r}") from None
    if steps < 1:
        raise argparse.ArgumentTypeError(f"COUNT must be at least 1, got {steps}")
    return lo, hi, steps


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="treeshape",
        description="Elastic shape analysis of two-layer root trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="registered distance between two roots")
    p.add_argument("a"), p.add_argument("b")
    _add_pipeline_args(p)
    p.add_argument("--out", type=Path, default=None, help="optional JSON report")

    p = sub.add_parser("geodesic", help="optimal deformation between two roots")
    p.add_argument("a"), p.add_argument("b")
    p.add_argument("--steps", type=_at_least(2), default=5, help="path steps incl. endpoints (>= 2)")
    _add_pipeline_args(p)
    p.add_argument("--out", type=Path, required=True, help=".svg strip or .json tree array")

    p = sub.add_parser("matrix", help="pairwise distance matrix of a collection")
    p.add_argument("trees", help="directory of root files or a JSON array")
    _add_pipeline_args(p, threads=True)
    p.add_argument("--out", type=Path, required=True, help=".csv or .json matrix")

    p = sub.add_parser("mean", help="Karcher mean of a collection")
    p.add_argument("trees")
    _add_pipeline_args(p, threads=True)
    _add_descent_args(p)
    p.add_argument("--out", type=Path, required=True, help=".json root or .svg drawing")

    p = sub.add_parser("atlas", help="mean + principal modes of a collection")
    p.add_argument("trees")
    _add_pipeline_args(p, threads=True)
    _add_descent_args(p)
    p.add_argument("--out", type=Path, required=True, help="atlas .json")

    p = sub.add_parser("modes", help="sweep one principal mode of an atlas")
    p.add_argument("atlas")
    p.add_argument("--mode", type=_at_least(0), default=0, help="mode index (0-based)")
    p.add_argument("--alpha-range", type=_alpha_range, default="-2:2:5",
                   help="LO:HI:COUNT sweep in standard deviations "
                        "(use --alpha-range=-2:2:5 for negative bounds)")
    p.add_argument("--out", type=Path, required=True, help=".svg row or .json tree array")

    p = sub.add_parser("sample", help="randomly synthesize roots from an atlas")
    p.add_argument("atlas")
    p.add_argument("--n", type=_at_least(1), default=1, help="number of samples (>= 1)")
    p.add_argument("--seed", type=_at_least(0), default=0, help="random seed (>= 0)")
    p.add_argument("--out", type=Path, required=True, help=".json tree array or .svg row")

    p = sub.add_parser("regress-fit", help="fit biological-parameter regression")
    p.add_argument("trees")
    _add_pipeline_args(p, threads=True)
    _add_descent_args(p)
    p.add_argument("--out", type=Path, required=True, help="model .json")

    p = sub.add_parser("regress-predict", help="synthesize a root from parameters")
    p.add_argument("model")
    p.add_argument("--params", type=_finite_list, required=True,
                   help="comma-separated finite parameter values")
    p.add_argument("--out", type=Path, required=True, help=".json root or .svg drawing")

    p = sub.add_parser("cluster", help="hierarchical clustering of a distance matrix")
    p.add_argument("matrix", help=".csv or .json distance matrix, as matrix writes it")
    p.add_argument("--linkage", choices=clustering.LINKAGE_METHODS, default="single")
    p.add_argument("--k", type=_at_least(1), default=None, help="also cut into k clusters (>= 1)")
    p.add_argument("--out", type=Path, required=True, help=".json dendrogram or .svg drawing")

    p = sub.add_parser("render", help="draw one root file as SVG, or rewrite it as JSON")
    p.add_argument("tree")
    p.add_argument("--out", type=Path, required=True, help=".svg drawing or .json root")

    return parser


# ---------------------------------------------------------------------------
# subcommand implementations


def _shown_distance(d: float) -> float:
    """The distance that ``distance`` and ``geodesic`` report: one below 1e-12
    is numerically zero at shape scale and shown as 0."""
    return 0.0 if d < 1e-12 else d


def _cmd_distance(args) -> int:
    a, b = load_root(args.a), load_root(args.b)
    Qa, Qb, reg = metric.register_pair(a, b, _weights(args), _pair_options(args))
    d = _shown_distance(reg.distance)
    print(f"distance({a.id}, {b.id}) = {d:.9g}")
    if args.out is not None:
        payload = {
            "a": a.id,
            "b": b.id,
            "distance": d,
            "cost_sq": float(reg.cost),
            "rotation_angle": reg.angle,
            "assignment": reg.assignment.tolist(),
            "sweeps": len(reg.cost_history) - 1,
        }
        _write_text(args.out, _json_text(payload))
    return 0


def _cmd_geodesic(args) -> int:
    a, b = load_root(args.a), load_root(args.b)
    path = metric.geodesic(a, b, _weights(args), steps=args.steps, opts=_pair_options(args))
    trees = path.trees(id_prefix=f"{a.id}-to-{b.id}")
    _write_trees(args.out, trees, [f"r={r:.2f}" for r in path.r_values])
    print(
        f"geodesic {a.id} -> {b.id}: {args.steps} steps, "
        f"distance {_shown_distance(path.registration.distance):.9g}"
    )
    return 0


def _cmd_matrix(args) -> int:
    trees = load_collection(args.trees)
    dm = metric.pairwise_matrix(trees, _weights(args), _pair_options(args), n_jobs=args.threads)
    dm.save(args.out)
    print(f"{len(trees)} trees, {len(trees) * (len(trees) - 1) // 2} pairs -> {args.out}")
    for i, j, msg in dm.failures:
        print(f"pair ({dm.labels[i]}, {dm.labels[j]}) failed: {msg}", file=sys.stderr)
    return 0


def _karcher_from_args(args) -> tuple[list[RootTree], statistics.KarcherResult]:
    trees = load_collection(args.trees)
    return trees, statistics.karcher_mean(
        trees, _weights(args), step=args.step, max_iter=args.max_iter,
        opts=_pair_options(args), n_jobs=args.threads,
    )


def _cmd_mean(args) -> int:
    trees, result = _karcher_from_args(args)
    _write_tree(args.out, srvft_to_tree(result.mean, tree_id="karcher-mean"))
    obj = result.objective
    print(
        f"mean of {len(trees)} trees in {len(obj) - 1} accepted steps; "
        f"objective {obj[0]:.6g} -> {obj[-1]:.6g}"
        f" (stopped: {result.stop_reason})"
    )
    return 0


def _fit_atlas_from_args(args) -> tuple[list[RootTree], Atlas]:
    trees, result = _karcher_from_args(args)
    return trees, statistics.fit_atlas(result)


def _cmd_atlas(args) -> int:
    trees, atlas = _fit_atlas_from_args(args)
    atlas.save(args.out)
    ratios = atlas.variance_ratio()
    covered = ratios[atlas.retained - 1] if atlas.retained else 0.0
    print(
        f"atlas of {len(trees)} trees: {atlas.n_modes} modes, "
        f"{atlas.retained} retained ({covered:.4f} of variance) -> {args.out}"
    )
    return 0


def _cmd_modes(args) -> int:
    atlas = Atlas.load(args.atlas)
    lo, hi, count = args.alpha_range
    alphas = np.linspace(lo, hi, count)
    trees = statistics.mode_path(atlas, args.mode, alphas)
    _write_trees(args.out, trees, [f"alpha={a:+.2f}" for a in alphas])
    print(f"mode {args.mode}: {len(alphas)} steps over [{lo}, {hi}] -> {args.out}")
    return 0


def _cmd_sample(args) -> int:
    atlas = Atlas.load(args.atlas)
    _write_trees(args.out, statistics.iter_samples(atlas, args.seed, args.n))
    print(f"{args.n} samples (seed {args.seed}) -> {args.out}")
    return 0


def _cmd_regress_fit(args) -> int:
    trees, atlas = _fit_atlas_from_args(args)
    params = np.array([extract_bio_params(t) for t in trees])
    model = statistics.fit_regression(atlas, params, BIO_PARAM_NAMES)
    model.save(args.out)
    resid = float(np.linalg.norm(
        atlas.training_coeffs.T
        - model.M @ np.vstack([params.T, np.ones(len(trees))])
    ))
    print(
        f"regression over {', '.join(BIO_PARAM_NAMES)}: "
        f"training residual {resid:.6g} -> {args.out}"
    )
    return 0


def _cmd_regress_predict(args) -> int:
    model = RegressionModel.load(args.model)
    _write_tree(args.out, statistics.predict(model, args.params))
    pairs = ", ".join(f"{n}={v:g}" for n, v in zip(model.param_names, args.params))
    print(f"predicted root for {pairs} -> {args.out}")
    return 0


def _cmd_cluster(args) -> int:
    dend = clustering.linkage(DistanceMatrix.load(args.matrix), method=args.linkage)
    labels = clustering.cut(dend, args.k) if args.k is not None else None
    if args.out.suffix == ".svg":
        _write_text(args.out, render.render_dendrogram(dend))
    else:
        payload = dend.to_dict()
        if labels is not None:
            payload["clusters"] = {"k": args.k, "labels": labels.tolist()}
        _write_text(args.out, _json_text(payload))
    print(f"{args.linkage} linkage over {dend.n_leaves} trees -> {args.out}")
    if labels is not None:
        for leaf, lab in zip(dend.leaf_labels, labels):
            print(f"  {leaf}: cluster {lab}")
    return 0


def _cmd_render(args) -> int:
    tree = load_root(args.tree)
    _write_tree(args.out, tree)
    print(f"rendered {tree.id} -> {args.out}")
    return 0


_COMMANDS = {
    "distance": _cmd_distance,
    "geodesic": _cmd_geodesic,
    "matrix": _cmd_matrix,
    "mean": _cmd_mean,
    "atlas": _cmd_atlas,
    "modes": _cmd_modes,
    "sample": _cmd_sample,
    "regress-fit": _cmd_regress_fit,
    "regress-predict": _cmd_regress_predict,
    "cluster": _cmd_cluster,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, IndexError, MemoryError) as exc:
        # a bare MemoryError has no message: name it instead
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
