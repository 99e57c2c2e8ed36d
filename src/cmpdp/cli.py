"""Command-line front end. Every subcommand reads and writes plain files;
there is no interactive mode.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .dpsolve import derive_seed
from .evaluate import (
    METHODS,
    eval_dataset,
    report_rows_csv,
    report_summary_csv,
    run_method,
)
from .generators import MODELS, GenSpec, generate
from .graph import Graph, GraphError
from .graphio import read_graph_file, write_graph_file, write_solution
from .net import NonFiniteError, load_params, save_params
from .selftrain import harvest_pairs, measure_consistency, metrics_to_csv, train


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit(2)
        raise CliUsageError(message)


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        # a diverging run is reported once, by the NonFiniteError it raises
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args) or 0
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, NonFiniteError, OSError) as exc:  # every named input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="cmpdp", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen", parents=[], help="write a synthetic dataset")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=int, help="fixed vertex/core size")
    p.add_argument("--n-min", type=int, help="lower bound when sizes vary")
    p.add_argument("--n-max", type=int, help="upper bound when sizes vary")
    p.add_argument("--p", type=float, help="er edge probability")
    p.add_argument("--attach", type=int, help="ba edges per new vertex")
    p.add_argument("--ring-k", type=int, help="ws ring degree (even)")
    p.add_argument("--rewire", type=float, help="ws rewiring probability")
    p.add_argument("--surplus", type=int, help="special extra clique vertices")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="self-train a comparator on a dataset directory")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="weight file to write")
    p.add_argument("--metrics", required=True, help="metrics CSV to write")
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("solve", help="solve one graph with one method")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--problem", required=True, choices=("mis", "mvc"))
    p.add_argument("--weights")
    p.add_argument("--out", help="solution file (default: graph path with .sol suffix)")
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="evaluate methods over a dataset directory")
    p.add_argument("--dataset", required=True)
    p.add_argument("--methods", required=True, help="comma-separated method names")
    p.add_argument("--problem", required=True, choices=("mis", "mvc"))
    p.add_argument("--out", required=True, help="rows CSV; summary lands next to it")
    p.add_argument("--weights")
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("consistency", help="measure comparator consistency on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--weights", required=True, nargs="+", help="one or more weight files")
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", type=int, default=64, help="pairs to harvest")
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_consistency)

    p = sub.add_parser("emit-lp", help="write the LP formulation of one graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--problem", required=True, choices=("mis", "mvc"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_emit_lp)

    p = sub.add_parser("ablate", help="train once per value of one geometry knob")
    p.add_argument("--param", required=True, choices=("rounds", "width", "head_layers"))
    p.add_argument("--values", required=True, help="comma-separated integers")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_ablate)

    return parser


# (flag, RunConfig key, type) of every config setting a command line may
# override; a bool key gets a --flag / --no-flag pair
_CONFIG_FLAGS = (
    ("--seed", "seed", int),
    ("--epochs", "total_epochs", int),
    ("--batch-size", "batch_size", int),
    ("--lr", "lr", float),
    ("--rollouts", "num_rollouts", int),
    ("--mixed", "mixed", bool),
    ("--rounds", "rounds", int),
    ("--width", "width", int),
    ("--head-layers", "head_layers", int),
    ("--graphs-per-refresh", "graphs_per_refresh", int),
    ("--pairs-per-graph", "pairs_per_graph", int),
    ("--epochs-per-refresh", "epochs_per_refresh", int),
)


def _add_config_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    for flag, key, kind in _CONFIG_FLAGS:
        if kind is bool:
            p.add_argument(flag, action="store_true", dest=key, default=None)
            p.add_argument("--no-" + flag[2:], action="store_false", dest=key, default=None)
        else:
            p.add_argument(flag, type=kind, dest=key)


def _load_cfg(args: argparse.Namespace, **fixed) -> RunConfig:
    """The run config from --config, CMPDP_* and the flags given; ``fixed``
    values beat all three."""
    flags = {key: getattr(args, key) for _, key, _ in _CONFIG_FLAGS if getattr(args, key) is not None}
    return load_config(args.config, flags=flags | fixed)


def _load_dataset(path: str) -> tuple[list[Graph], list[str]]:
    files = sorted(Path(path).glob("*.col"))
    if not files:
        raise CliUsageError(f"no .col graphs found in {path}")
    return [read_graph_file(f) for f in files], [f.stem for f in files]


def _cmd_gen(args) -> int:
    if args.n is None and (args.n_min is None or args.n_max is None):
        raise CliUsageError("give --n, or both --n-min and --n-max")
    lo = args.n if args.n is not None else args.n_min
    hi = args.n if args.n is not None else args.n_max
    if lo > hi:
        raise CliUsageError("--n-min must not exceed --n-max")
    if args.count < 1:
        raise CliUsageError("--count must be positive")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    for i in range(args.count):
        n = rng.randint(lo, hi)
        try:
            spec = GenSpec(
                model=args.model,
                n=n,
                seed=derive_seed(args.seed, "gen", i),
                p=args.p,
                attach=args.attach,
                ring_k=args.ring_k,
                rewire=args.rewire,
                surplus=args.surplus,
            )
        except GraphError as exc:  # missing or out-of-range model parameters
            raise CliUsageError(str(exc)) from None
        write_graph_file(generate(spec), out_dir / f"{args.model}_{i:04d}.col")
    print(f"wrote {args.count} graphs to {out_dir}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    graphs, _ = _load_dataset(args.dataset)
    params, rows = train(graphs, cfg)
    save_params(params, args.out)
    Path(args.metrics).write_text(metrics_to_csv(rows))
    final = rows[-1] if rows else None
    if final is not None:
        print(
            f"trained {len(rows)} epochs; final val_loss={final.val_loss:.4f}"
            f" val_acc={final.val_pair_accuracy:.3f} consistency={final.consistency:.3f}"
        )
    print(f"weights: {args.out}\nmetrics: {args.metrics}")
    return 0


def _cmd_solve(args) -> int:
    cfg = _load_cfg(args)
    g = read_graph_file(args.graph)
    params = load_params(args.weights) if args.weights else None
    vs, status = run_method(g, args.method, args.problem, cfg, cfg.seed, params)
    if not vs.valid_for(g):
        raise GraphError("solver produced an invalid vertex set")
    print(f"size {len(vs)}" + (" (bound only)" if status == "bound" else ""))
    out = Path(args.out) if args.out else Path(args.graph).with_suffix(".sol")
    out.write_text(write_solution(vs))
    print(f"solution: {out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    graphs, ids = _load_dataset(args.dataset)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise CliUsageError("no methods given")
    for m in methods:
        if m not in METHODS:
            raise CliUsageError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    params = load_params(args.weights) if args.weights else None
    report = eval_dataset(graphs, methods, args.problem, cfg, cfg.seed, params, ids)
    out = Path(args.out)
    out.write_text(report_rows_csv(report))
    summary = out.with_suffix(".summary.csv")
    summary.write_text(report_summary_csv(report))
    for method, (mean, std, count) in report.aggregates.items():
        print(f"{method}: {mean:.3f} +- {std:.3f} over {count} graphs")
    if report.skipped_bound:
        print(f"excluded {report.skipped_bound} graphs with bound-only optimum")
    print(f"rows: {out}\nsummary: {summary}")
    return 0


def _cmd_consistency(args) -> int:
    if args.pairs < 1:
        raise CliUsageError("--pairs must be positive")
    cfg = _load_cfg(args)
    graphs, _ = _load_dataset(args.dataset)
    lines = ["index,weights,pairs,consistency"]
    for idx, wpath in enumerate(args.weights):
        params = load_params(wpath)
        pairs = []
        for j, g in enumerate(graphs):
            if len(pairs) >= args.pairs:
                break
            pairs.extend(harvest_pairs(g, params, cfg, derive_seed(cfg.seed, "pairs", j)))
        pairs = [(s.g, s.g_prime) for s in pairs[: args.pairs]]
        value = measure_consistency(params, pairs, cfg.num_rollouts, derive_seed(cfg.seed, "cst", idx))
        lines.append(f"{idx},{wpath},{len(pairs)},{value:.6f}")
        print(f"{wpath}: consistency {value:.3f} over {len(pairs)} pairs")
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_emit_lp(args) -> int:
    from .lpformat import emit_lp

    g = read_graph_file(args.graph)
    Path(args.out).write_text(emit_lp(g, args.problem))
    print(f"wrote {args.out}")
    return 0


def _cmd_ablate(args) -> int:
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise CliUsageError("--values must be comma-separated integers") from None
    if not values:
        raise CliUsageError("--values is empty")
    # every value's config is checked before the first run starts
    cfgs = [_load_cfg(args, **{args.param: value}) for value in values]
    graphs, _ = _load_dataset(args.dataset)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for value, cfg in zip(values, cfgs):
        params, rows = train(graphs, cfg)
        tag = f"{args.param}_{value}"
        save_params(params, out_dir / f"weights_{tag}.cmp")
        (out_dir / f"metrics_{tag}.csv").write_text(metrics_to_csv(rows))
        final = rows[-1].val_pair_accuracy if rows else float("nan")
        print(f"{args.param}={value}: final val_acc={final:.3f}")
    return 0
