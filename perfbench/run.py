"""levyvol benchmark: replications per second, latency per replication,
set-up time and memory on four workloads, with every op's output checked
against an independent oracle; ``--trace 1`` gives the per-module breakdown.

Usage, from the repository root:

    python3 perfbench/run.py --workload noise-mcmc --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
(prefixed ``#``) repeat the metrics with their units, the failure rate, the
tail percentile used and the provenance. The full record of the run, and the
spans of a traced run, are written under ``.bench_build/perfbench/``.

Load is one process running one op at a time (a closed loop with one
client); BLAS and OpenMP pools are pinned to one thread.
"""

import os

THREAD_PINS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)  # before numpy is imported, here and in probes

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
# percentiles tried, highest first, when a run has too few ops for the
# workload's own tail percentile: each needs ten ops beyond it
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Op:
    index: int
    master_seed: int
    seconds: float
    output: object
    error: object = None
    traced: bool = False
    cal_mark: int = 0
    speed: float = 1.0  # reference seconds per wall second, set after the run
    check_ok: bool = True
    err_sd: object = None
    reasons: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or not self.check_ok

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.speed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="'tiny' shrinks every design; for the benchmark's smoke test only",
    )
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_times(workload: str, seed: int, probes: int) -> list:
    """(set-up seconds, calibration kernel seconds) of ``probes`` fresh
    processes, run one after another."""
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr.strip()}")
        setup_s, kernel_s = proc.stdout.strip().splitlines()[-1].split()
        out.append((float(setup_s), float(kernel_s)))
    return out


def run_ops(wl, cfg, op_seed, seed: int, seconds: float, first: int, cal, tracer=None):
    """Closed loop: ops back to back, with calibration kernels between them,
    until ``seconds`` have passed."""
    ops = []
    index = first
    start = perf_counter()
    while True:
        master_seed = op_seed(seed, index)
        if tracer is not None:
            tracer.op = index
        mark = cal.mark()
        t0 = perf_counter()
        try:
            out = wl.op(cfg, master_seed)
            error = out.get("error")
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        ops.append(Op(index, master_seed, t1 - t0, out, error, tracer is not None, mark))
        index += 1
        cal.after_op(t1 - t0)
        if perf_counter() - start >= seconds:
            return ops


def check_ops(wl, cfg, ops) -> None:
    for op in ops:
        if op.error is not None:
            continue
        try:
            chk = wl.check(cfg, op.master_seed, op.output, op.index)
        except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failed op
            op.check_ok, op.reasons = False, [f"check raised {type(exc).__name__}: {exc}"]
            continue
        op.check_ok, op.err_sd, op.reasons = chk.ok, chk.err_sd, chk.reasons


def tail(times: list, pct: float) -> tuple:
    """(percentile, value) of the op times: the workload's percentile when at
    least ten ops lie beyond it, else the highest ladder percentile that has
    ten, else the slowest op. A workload whose runs hold fewer than 20 ops
    names 100, the slowest op."""
    if pct < 100.0:
        for p in (pct, *(q for q in TAIL_LADDER if q < pct)):
            if len(times) * (1 - p / 100.0) >= 10:
                return p, float(np.percentile(times, p))
    return 100.0, float(max(times))


# ---------------------------------------------------------------------------
# per-layer numbers from a traced run
# ---------------------------------------------------------------------------

PER_OP_TIMED = (
    "simulate.simulate_path",
    "transform.apply_transform",
    "likelihood.make_context",
    "likelihood.mle",
    "estimators.estimate_noise",
    "estimators.estimate_no_noise",
    "estimators.preavg_threshold_estimator",
    "estimators.threshold_rv",
    "posterior.tempered_posterior_mcmc",
    "reference_bayes.jump_indicator_probability",
)
SELF_ONLY = (
    "posterior.point_estimates",
    "posterior.hpd_interval",
    "posterior.equal_tail_interval",
    "posterior.tv_distance",
    "reference_bayes.gibbs_full_joint",
    "experiments.run",
)
COUNTED = ("likelihood.score",)


class Observed:
    """Values the tracer's observers collect: chains, Gibbs trajectories and
    fingerprints of the data every quasi-MLE is fitted to."""

    def __init__(self):
        self.chains, self.gibbs, self.mle_inputs = [], [], []

    def attach(self, tracer) -> None:
        def on_mcmc(args, kwargs, post):
            self.chains.append(post)

        def on_gibbs(args, kwargs, traj):
            self.gibbs.append(traj)

        def on_mle(args, kwargs, result):
            ctx = args[0] if args else kwargs["ctx"]
            dY = ctx.dY
            self.mle_inputs.append((tracer.op, dY.size, dY[0], dY[dY.size // 2], dY[-1]))

        tracer.observers.update(
            {
                "posterior.tempered_posterior_mcmc": on_mcmc,
                "reference_bayes.gibbs_full_joint": on_gibbs,
                "likelihood.mle": on_mle,
            }
        )


def draws_per_path(model, m_aux: int) -> int:
    """Random variates one simulate_path call draws, computed from the design."""
    from levyvol.simulate import CompoundPoisson, TrimmedStable, VarianceGamma

    n, jump = model.n, model.jump
    count = n  # diffusion
    if isinstance(jump, CompoundPoisson):
        count += 2 * n if jump.bernoulli_approx else 1 + round(2 * jump.rate * model.horizon)
    elif isinstance(jump, VarianceGamma):
        count += 2 * n * m_aux
    elif isinstance(jump, TrimmedStable):
        count += 2 * n
    if model.sigma_eps > 0:
        count += n + 1
    return count


def per_layer_metrics(tracer, observed, ops, cfg) -> dict:
    """Per-op layer numbers of the traced ops; times in reference seconds."""
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    k = len(traced)
    self_s, calls = tracer.self_times({op.index: op.speed for op in traced})
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for fn in PER_OP_TIMED:
        put(f"{fn}.calls", calls.get(fn, 0) / k, "calls/op")
        put(f"{fn}.self_s", self_s.get(fn, 0.0) / k, "s/op")
    for fn in SELF_ONLY:
        put(f"{fn}.self_s", self_s.get(fn, 0.0) / k, "s/op")
    put("likelihood.score.calls", calls.get("likelihood.score", 0) / k, "calls/op")
    n_mle = len(observed.mle_inputs)
    put("likelihood.mle.distinct_input_ratio", len(set(observed.mle_inputs)) / n_mle if n_mle else 0.0, "ratio")
    put(
        "simulate.draws",
        draws_per_path(cfg.model, cfg.m_aux) * calls.get("simulate.simulate_path", 0) / k,
        "draws/op",
    )

    chains = observed.chains
    put("posterior.mcmc.steps", sum(c.chain_meta["total"] for c in chains) / k, "steps/op")
    put("posterior.mcmc.acceptance", statistics.fmean(c.acceptance_rate for c in chains) if chains else 0.0, "ratio")
    put(
        "posterior.mcmc.ess_per_draw",
        statistics.fmean(oracle.ess_bulk(c.samples) / c.samples.size for c in chains) if chains else 0.0,
        "ess/draw",
    )
    trajs = observed.gibbs
    put("reference_bayes.gibbs.sweeps", sum(t.theta.size for t in trajs) / k, "sweeps/op")
    kept = [t.theta[t.burn_in :] for t in trajs]
    put(
        "reference_bayes.gibbs.ess_per_sweep",
        statistics.fmean(oracle.ess_bulk(x) / x.size for x in kept) if kept else 0.0,
        "ess/sweep",
    )
    rows_failed = sum(1 for op in ops if isinstance(op.output, dict) and "error" in op.output)
    put("experiments.rows_failed", rows_failed, "rows")
    put(
        "trace.overhead_s_per_op",
        statistics.median(op.ref_seconds for op in traced)
        - statistics.median(op.ref_seconds for op in plain),
        "s/op",
    )
    errs = [op.err_sd for op in ops if op.err_sd is not None]
    put("post_err_sd", statistics.median(errs) if errs else 0.0, "sd")
    return m


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------


def provenance(root: Path) -> dict:
    import levyvol

    rev = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + [root / "pyproject.toml"]:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
        "levyvol": levyvol.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "levyvol" / "__init__.py").is_file():
        fail("run from the repository root: src/levyvol is missing")
    sys.path.insert(0, str(root / "src"))

    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        fail(f"unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}")

    setup = []
    if not args.trace:
        setup = setup_times(wl.name, args.seed, 1 if args.size == "tiny" else SETUP_PROBES)
    cfg = wl.build(args.size)
    workloads.warm_up(wl, args.seed)

    cal = calibrate.Calibration()
    tracer = observed = None
    if args.trace:
        ops = run_ops(wl, cfg, workloads.op_seed, args.seed, args.seconds / 2, 0, cal)
        tracer, observed = Tracer(), Observed()
        observed.attach(tracer)
        tracer.install(PER_OP_TIMED + SELF_ONLY, COUNTED)
        try:
            ops += run_ops(wl, cfg, workloads.op_seed, args.seed, args.seconds / 2, len(ops), cal, tracer)
        finally:
            tracer.uninstall()
    else:
        ops = run_ops(wl, cfg, workloads.op_seed, args.seed, args.seconds, 0, cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op in ops:
        op.speed = cal.speed_at(op.cal_mark)
    speeds = [op.speed for op in ops]

    check_ops(wl, cfg, ops)
    failed = sum(op.failed for op in ops)
    times = [op.seconds for op in ops]
    lines = [
        f"workload {wl.name}: {wl.design}",
        f"seed {args.seed}, {len(ops)} ops, trace {args.trace}, size {args.size}",
        f"fail_rate = {failed / len(ops)!r} (1) [{failed} of {len(ops)} ops]",
    ]
    lines += [
        f"  op {op.index} seed {op.master_seed} failed: {op.error or '; '.join(op.reasons)}"
        for op in ops
        if op.failed
    ]
    lines.append(
        f"times are reference seconds: each op's wall seconds x the reference {calibrate.REFERENCE_S} s "
        f"over the median of the {2 * calibrate.NEAR} calibration kernel timings nearest to it "
        f"(factors {min(speeds):.4f} to {max(speeds):.4f}, median {statistics.median(speeds):.4f}; "
        f"{len(cal.samples)} kernel timings)"
    )
    errs = [op.err_sd for op in ops if op.err_sd is not None]
    if errs:
        lines.append(f"post_err_sd = {statistics.median(errs)!r} (sd) [median of {len(errs)} checked ops]")

    if args.trace:
        metrics = per_layer_metrics(tracer, observed, ops, cfg)
        self_s, _ = tracer.self_times()
        traced_s = sum(op.seconds for op in ops if op.traced)
        listed = sum(self_s.get(fn, 0.0) for fn in PER_OP_TIMED + SELF_ONLY)
        lines.append(
            f"trace: {len(tracer.spans)} spans, {tracer.top_level_seconds() / traced_s:.4f} of traced "
            f"op time inside spans, {listed / traced_s:.4f} attributed to the listed functions"
        )
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
        lines.append("share of traced op time: " + ", ".join(f"{k} {v / traced_s:.3f}" for k, v in top))
    else:
        ref = [op.ref_seconds for op in ops]
        pct, tail_s = tail(ref, wl.tail_pct)
        setup_ref = [s * calibrate.REFERENCE_S / k for s, k in setup]
        metrics = {
            "reps_per_s": {"value": len(ref) / sum(ref), "unit": "1/s"},
            "rep_s_p50": {"value": statistics.median(ref), "unit": "s"},
            "rep_s_tail": {"value": tail_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        label = f"p{pct:g}" if pct < 100 else f"p100, the slowest of {len(ops)} ops"
        lines.append(f"rep_s_tail percentile: {label}")
        lines.append(
            f"wall seconds: reps_per_s {len(times) / sum(times)!r}, rep_s_p50 "
            f"{statistics.median(times)!r}, set-up (s, kernel s) {setup}"
        )
    for name, mv in metrics.items():
        lines.append(f"{name} = {mv['value']!r} ({mv['unit']})")

    prov = provenance(root)
    lines.append("provenance: " + json.dumps(prov, sort_keys=True))
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "workload": {"name": wl.name, "design": wl.design, "why": wl.why},
        "provenance": prov,
        "tolerances": {k: {"value": v, "reason": r} for k, (v, r) in workloads.TOLERANCES.items()},
        "calibration_s": cal.samples,
        "setup_s_and_kernel_s": setup,
        "metrics": metrics,
        "ops": [vars(op) | {"output": None} for op in ops],
    }
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    if tracer is not None:
        tracer.dump(str(out_dir / f"{stem}-spans.json"))

    for line in lines:
        print(f"# {line}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
