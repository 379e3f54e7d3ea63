"""Command-line entry point.

Subcommands: simulate, estimate, posterior, experiment, plotdata. Each takes
either a JSON config file (--config) mirroring ExperimentConfig or a named
experiment (--experiment) with its desk-scale defaults; individual flags
override the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigurationError
from .estimators import estimate_no_noise, estimate_noise
from .experiments import (
    EXPERIMENTS,
    default_config,
    emit_plot_data,
    fit_path,
    load_config,
    run,
)
from .posterior import summarize
from .simulate import dump_path_csv, simulate_path


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument(
        "--experiment", choices=EXPERIMENTS, help="named experiment with default design"
    )
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--reps", type=int, help="replication count override")
    p.add_argument("--jobs", type=int, help="worker processes")
    p.add_argument("--out", help="output directory")
    p.add_argument("--n", type=int, help="sample size override")


def _build_config(args):
    if args.config:
        cfg = load_config(args.config)
        if args.experiment:
            cfg = replace(cfg, experiment=args.experiment)
    elif args.experiment:
        cfg = default_config(args.experiment)
    else:
        raise ConfigurationError("need --config or --experiment")
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.reps is not None:
        cfg = replace(cfg, replications=args.reps)
    if args.jobs is not None:
        cfg = replace(cfg, jobs=args.jobs)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.n is not None:
        cfg = replace(cfg, model=replace(cfg.model, n=args.n))
    if cfg.master_seed < 0:  # simulate, estimate and posterior seed streams without `run`
        raise ConfigurationError(f"master_seed must be >= 0, got {cfg.master_seed}")
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _build_config(args)
    if args.dump_paths:
        cfg = replace(cfg, dump_paths=True)
    if cfg.dump_paths and not cfg.out_dir:
        raise ConfigurationError("--dump-paths needs --out")
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
    qvs = []
    for rep in range(cfg.replications):
        path = simulate_path(cfg.model, cfg.master_seed, rep, cfg.m_aux)
        qvs.append(path.jump_qv)
        if cfg.dump_paths:
            dump_path_csv(
                path, cfg.model.delta, os.path.join(cfg.out_dir, f"path_{rep:05d}.csv")
            )
    print(
        json.dumps(
            {
                "replications": cfg.replications,
                "n": cfg.model.n,
                "mean_jump_qv": float(np.mean(qvs)),
                "out_dir": cfg.out_dir,
            }
        )
    )
    return 0


def _one_replication(args):
    """Config of `estimate` and `posterior`, which seed the streams of
    replication --rep themselves instead of going through `run`."""
    if args.rep < 0:
        raise ConfigurationError(f"--rep must be >= 0, got {args.rep}")
    return _build_config(args)


def _cmd_estimate(args) -> int:
    cfg = _one_replication(args)
    path = simulate_path(cfg.model, cfg.master_seed, args.rep, cfg.m_aux)
    if cfg.model.sigma_eps == 0:
        report = estimate_no_noise(path.dY, cfg.model.delta, cfg.w, cfg.bg_index)
    else:
        report = estimate_noise(path.dY, cfg.model.delta, cfg.preavg, cfg.kappa_mode)
    print(json.dumps(report.to_dict(), indent=2, default=float))
    return 0


def _cmd_posterior(args) -> int:
    cfg = _one_replication(args)
    path = simulate_path(cfg.model, cfg.master_seed, args.rep, cfg.m_aux)
    fit = fit_path(path.dY, cfg.model.delta, cfg, args.rep)
    out = summarize(fit.adjusted, fit.reference, cfg.level)
    out["estimators"] = fit.report.to_dict()
    print(json.dumps(out, indent=2, default=float))
    return 0


def _cmd_experiment(args) -> int:
    cfg = _build_config(args)
    result = run(cfg)
    print(json.dumps(result.summary, indent=2, default=float))
    return 1 if result.summary["too_many_failures"] else 0


def _cmd_plotdata(args) -> int:
    cfg = _build_config(args)
    out_dir = cfg.out_dir or "plotdata"
    info = emit_plot_data(cfg, out_dir, reps=args.plot_reps)
    print(json.dumps({**info, "out_dir": out_dir}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levyvol",
        description="Corrected quasi-Bayesian volatility inference for noisy Levy data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate replications, optionally dumping paths")
    _add_common(p_sim)
    p_sim.add_argument("--dump-paths", action="store_true")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="point estimates for one replication")
    _add_common(p_est)
    p_est.add_argument("--rep", type=int, default=0)
    p_est.set_defaults(fn=_cmd_estimate)

    p_post = sub.add_parser("posterior", help="posterior summary for one replication")
    _add_common(p_post)
    p_post.add_argument("--rep", type=int, default=0)
    p_post.set_defaults(fn=_cmd_posterior)

    p_exp = sub.add_parser("experiment", help="run a full experiment")
    _add_common(p_exp)
    p_exp.set_defaults(fn=_cmd_experiment)

    p_plot = sub.add_parser("plotdata", help="emit density/interval tables for plotting")
    _add_common(p_plot)
    p_plot.add_argument("--plot-reps", type=int, default=None)
    p_plot.set_defaults(fn=_cmd_plotdata)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
