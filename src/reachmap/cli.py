"""Command-line entry point: gen, fit, predict, bench, map.

Exit codes: 0 success, 1 domain or I/O error (one ``error: <kind>: <detail>``
line on stderr), 2 usage error.  Every file write is atomic (temp file plus
rename) and no command mutates its inputs.  Randomness never comes from the
clock: fitting and generation require an explicit ``--seed`` and benchmarks a
``master_seed`` in their config.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .domain import (
    Workspace,
    features_from_xyz,
    load_dataset_csv,
    save_dataset_csv,
    validate_dataset,
)
from .errors import MissingSeed, ReachmapError
from .evaluation import (
    HYPERPARAMETERS,
    MODEL_KINDS,
    bench_config_from_json,
    bench_rows_to_csv,
    format_bench_table,
    model_entry,
    run_benchmark,
)
from .fileio import write_bytes_atomic, write_text_atomic
from .mapgen import build_grid, difficulty_map, export_map_csv, render_svg_slice
from .model_io import load_model, save_model
from .synth import generate_dataset, load_dgp_config, save_dgp_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachmap",
        description=(
            "Personalized reaching-task difficulty: synthetic data generation, "
            "honest causal trees and T-learner baselines, benchmarking, and "
            "difficulty maps."
        ),
    )
    parser.add_argument("--version", action="version", version=f"reachmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="draw a synthetic dataset from a DGP config")
    p.add_argument("--dgp", required=True, help="path to a DGP text config")
    p.add_argument("--n0", type=int, required=True, help="number of control samples")
    p.add_argument("--n1", type=int, required=True, help="number of individual samples")
    p.add_argument("--seed", type=int, help="generation seed (required to run)")
    p.add_argument("--out", required=True, help="output dataset CSV path; a "
                   "<out>.truth.cfg sidecar records the generating process")

    p = sub.add_parser("fit", help="fit a model on a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--seed", type=int, help="fitting seed (required to run)")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--max-depth", type=int, dest="max_depth",
                   help="tree depth limit (causal_tree/causal_forest default 6, "
                   "t_cart/t_forest default 8)")
    p.add_argument("--min-group-leaf", type=int, dest="min_group_leaf",
                   help="per-group minimum leaf size for causal models (default 5)")
    p.add_argument("--honest-fraction", type=float, dest="honest_fraction",
                   help="fraction of data used to choose the partition (default 0.5)")
    p.add_argument("--n-trees", type=int, dest="n_trees",
                   help="ensemble size (causal_forest default 50, t_forest default 100)")
    p.add_argument("--subsample-ratio", type=float, dest="subsample_ratio",
                   help="causal_forest per-tree subsample ratio (default 0.7)")
    p.add_argument("--min-leaf", type=int, dest="min_leaf",
                   help="t_cart/t_forest minimum leaf size (default 5)")
    p.add_argument("--features-per-split", type=int, dest="features_per_split",
                   help="t_forest features sampled per split (default 2)")
    p.add_argument("--k", type=int, help="t_knn neighbour count (default 5)")
    p.add_argument("--standardize", action="store_true", default=None,
                   help="t_knn: z-score features before distances (default off)")

    p = sub.add_parser("predict", help="evaluate a saved model at one task point")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--z", type=float, required=True)

    p = sub.add_parser("bench", help="run the multi-run benchmark protocol")
    p.add_argument("--config", required=True, help="benchmark JSON config path")
    p.add_argument("--out", required=True, help="output CSV path (table prints to stdout)")

    p = sub.add_parser("map", help="render difficulty maps from a saved model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--z-slice", type=float, required=True, dest="z_slice")
    p.add_argument("--resolution", type=float, default=0.05,
                   help="grid cell size in meters (default 0.05)")
    p.add_argument("--out-svg", dest="out_svg", help="output SVG path")
    p.add_argument("--out-csv", dest="out_csv", help="output CSV path")
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Strict argv parsing into the checked namespace; usage problems exit with code 2."""
    parser = _build_parser()
    ns = parser.parse_args(argv)

    for flag in ("x", "y", "z", "z_slice", "resolution", "honest_fraction",
                 "subsample_ratio"):
        value = getattr(ns, flag, None)
        if value is not None and not math.isfinite(value):
            parser.error(f"--{flag.replace('_', '-')} must be finite, got {value}")

    if ns.command == "fit":
        # every fit flag, in the order the model kinds first accept them
        for flag in dict.fromkeys(f for names in HYPERPARAMETERS.values() for f in names):
            if getattr(ns, flag) is not None and flag not in HYPERPARAMETERS[ns.model]:
                parser.error(
                    f"--{flag.replace('_', '-')} does not apply to model {ns.model!r}"
                )
    if ns.command == "map" and ns.out_svg is None and ns.out_csv is None:
        parser.error("map needs at least one of --out-svg / --out-csv")
    return ns


def _require_seed(seed: Optional[int], what: str) -> int:
    if seed is None:
        raise MissingSeed(
            f"{what} draws random numbers; pass an explicit --seed "
            "(implicit time-based seeding is not supported)"
        )
    return seed


def run_command(ns: argparse.Namespace) -> int:
    if ns.command == "gen":
        seed = _require_seed(ns.seed, "dataset generation")
        spec = load_dgp_config(ns.dgp)
        dataset, truth = generate_dataset(spec, ns.n0, ns.n1, seed)
        save_dataset_csv(dataset, ns.out)
        save_dgp_config(truth.spec, Path(ns.out).with_suffix(".truth.cfg"))
        print(f"wrote {len(dataset)} samples to {ns.out}")
        return 0

    if ns.command == "fit":
        seed = _require_seed(ns.seed, "model fitting")
        dataset = load_dataset_csv(ns.data)
        validate_dataset(dataset, require_both_groups=True)
        hyper = {f: v for f in HYPERPARAMETERS[ns.model] if (v := getattr(ns, f)) is not None}
        entry = model_entry(ns.model, **hyper)
        model = entry.fit(dataset, seed)
        save_model(model, ns.out)
        print(f"wrote {ns.model} model to {ns.out}")
        return 0

    if ns.command == "predict":
        model = load_model(ns.model)
        est = model.predict(features_from_xyz(ns.x, ns.y, ns.z).as_array()[None, :])
        leaf = "none" if est.leaf_id is None else str(est.leaf_id[0])
        print(f"tau_hat_s={est.tau_hat[0]:.9f} leaf_id={leaf}")
        return 0

    if ns.command == "bench":
        with open(ns.config, "r", encoding="utf-8") as f:
            cfg = bench_config_from_json(f.read())
        rows = run_benchmark(cfg)
        write_text_atomic(ns.out, bench_rows_to_csv(rows))
        sys.stdout.write(
            format_bench_table(rows, [e.describe for e in cfg.models])
        )
        return 0

    if ns.command == "map":
        model = load_model(ns.model)
        # model documents carry no workspace; maps use the standard region
        grid = build_grid(Workspace(), ns.resolution, ns.z_slice)
        m = difficulty_map(model, grid)
        if ns.out_svg is not None:
            write_bytes_atomic(ns.out_svg, render_svg_slice(m))
        if ns.out_csv is not None:
            write_bytes_atomic(ns.out_csv, export_map_csv(m))
        print(f"mapped {len(m)} cells at z={ns.z_slice}")
        return 0

    raise AssertionError(f"unhandled command {ns.command!r}")  # pragma: no cover


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = parse_args(argv)
    try:
        return run_command(ns)
    except ReachmapError as e:
        print(f"error: {e.kind}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: InvalidValue: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: IOError: {e}", file=sys.stderr)
        return 1


def entry() -> None:  # console_scripts hook
    sys.exit(main())
