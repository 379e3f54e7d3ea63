"""Config-driven experiment harness: seeded parallel replications of the
simulation studies, with CSV rows per replication and a JSON summary.

Experiments
-----------
single-path        fit one (or a few) paths end to end, report intervals and
                   the TV distance to the asymptotic normal reference
bias-study         bias of the four point estimators (threshold estimate,
                   corrected posterior mean, and their latent-truth variants)
coverage-nonoise   coverage of HPD / equal-tail / Wald intervals, conjugate
                   no-noise pipeline
coverage-noise     coverage with microstructure noise: split-sample prior,
                   MCMC posterior, pre-averaging corrections
rate-check         log-log convergence-rate slopes of the quasi-MLE
compare-full-bayes overlap of the corrected quasi-posterior HPD with the
                   exact full-joint Gibbs marginal
"""

from __future__ import annotations

import csv
import json
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Optional

import numpy as np

from .errors import CLTWindowWarning, ConfigurationError
from .estimators import (
    PreavgConfig,
    estimate_no_noise,
    estimate_noise,
    noise_variance_hat,
    preavg_threshold_estimator,
    warn_outside_clt_window,
)
from .likelihood import make_context, mle
from .posterior import (
    MIN_RETAINED,
    ChainConfig,
    EmpiricalPosterior,
    ExponentialPrior,
    InverseGammaPrior,
    Prior,
    TruncatedNormalPrior,
    UniformPrior,
    adjust,
    equal_tail_interval,
    hpd_interval,
    normal_reference,
    point_estimates,
    tempered_posterior_conjugate,
    tempered_posterior_mcmc,
    tv_distance,
)
from .reference_bayes import JointPriors, gibbs_full_joint, marginal_theta
from .simulate import (
    CompoundPoisson,
    ModelSpec,
    NoJumps,
    TrimmedStable,
    VarianceGamma,
    dump_path_csv,
    simulate_path,
)

EXPERIMENTS = (
    "single-path",
    "bias-study",
    "coverage-nonoise",
    "coverage-noise",
    "rate-check",
    "compare-full-bayes",
)
KAPPA_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "single-path"
    model: ModelSpec = field(default_factory=ModelSpec)
    w: float = 0.39
    bg_index: float = 0.0
    kappa_mode: str = "plugin"
    preavg: PreavgConfig = field(default_factory=PreavgConfig)
    prior: Prior = field(default_factory=InverseGammaPrior)
    chain: ChainConfig = field(default_factory=ChainConfig)
    joint_priors: JointPriors = field(default_factory=JointPriors)
    split_prior: bool = False
    replications: int = 10
    master_seed: int = 20260809
    level: float = 0.95
    m_aux: int = 64
    n_grid: tuple = (1000, 4000, 16000, 64000)
    jobs: int = 1
    out_dir: Optional[str] = None
    dump_paths: bool = False
    dump_chains: bool = False

    @property
    def conjugate(self) -> bool:
        """Whether the design runs the no-noise conjugate pipeline, and so
        the threshold RV."""
        return self.experiment in ("bias-study", "compare-full-bayes") or (
            self.model.sigma_eps == 0 and self.experiment != "rate-check"
        )

    def validate(self) -> None:
        """Refuse, before any replication runs, a design every one would fail on."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; pick one of {EXPERIMENTS}"
            )
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")
        if not 0 < self.level < 1:
            raise ConfigurationError("level must be in (0, 1)")
        self.model.validate()
        self.preavg.validate()
        self.prior.validate()
        if self.conjugate and not isinstance(self.prior, InverseGammaPrior):
            raise ConfigurationError(
                f"{self.experiment} runs the no-noise conjugate pipeline, which needs "
                f"an inverse-gamma prior, not {_TAG_OF[type(self.prior)][1]!r}"
            )
        if self.experiment == "rate-check":
            if len(self.n_grid) < 2:
                raise ConfigurationError("rate-check fits a slope: n_grid needs two sizes or more")
            for n in self.n_grid:
                replace(self.model, n=n).validate()
        if self.experiment == "compare-full-bayes":
            self.joint_priors.validate()
            self.chain.validate()
        elif self.model.sigma_eps > 0 and self.experiment not in ("bias-study", "rate-check"):
            self.chain.validate(MIN_RETAINED)  # fit_noise runs the Metropolis chain

    def to_dict(self) -> dict:
        return _to_data(self)


# Tagged unions of the config: a jump spec is named by its "kind", a prior by
# its "family"; each registry maps the tag's values to their dataclasses.
JUMP_KINDS = {
    "none": NoJumps,
    "compound-poisson": CompoundPoisson,
    "variance-gamma": VarianceGamma,
    "trimmed-stable": TrimmedStable,
}
PRIOR_FAMILIES = {
    "inverse-gamma": InverseGammaPrior,
    "truncated-normal": TruncatedNormalPrior,
    "uniform": UniformPrior,
    "exponential": ExponentialPrior,
}
_REGISTRIES = {"kind": ("jump kind", JUMP_KINDS), "family": ("prior family", PRIOR_FAMILIES)}
_TAG_OF = {
    cls: (key, name)
    for key, (_, registry) in _REGISTRIES.items()
    for name, cls in registry.items()
}


def _to_data(obj):
    """JSON-compatible form of a config value: a dataclass becomes a dict of
    its fields, led by its tag (``"kind"`` or ``"family"``) for a member of a
    tagged union; a tuple becomes a list."""
    if is_dataclass(obj):
        d = {}
        if type(obj) in _TAG_OF:
            key, tag = _TAG_OF[type(obj)]
            d[key] = tag
        d.update((f.name, _to_data(getattr(obj, f.name))) for f in fields(obj))
        return d
    if isinstance(obj, tuple):
        return [_to_data(v) for v in obj]
    return obj


# the JSON values a scalar field of each annotated type accepts; a bool is
# refused where a number belongs, though Python counts it as an int
_JSON_SCALARS = {
    "str": ((str,), "a string"),
    "float": ((int, float), "a number"),
    "int": ((int,), "an integer"),
    "bool": ((bool,), "true or false"),
}


def _check_scalar(value, annotation: str, where: str) -> None:
    optional = annotation.startswith("Optional[")
    name = annotation[len("Optional[") : -1] if optional else annotation
    if name not in _JSON_SCALARS or (optional and value is None):
        return
    accepted, wanted = _JSON_SCALARS[name]
    if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
        raise ConfigurationError(f"{where} must be {wanted}, got {value!r}")


def _from_data(cls, d, base, where: str):
    """Instance of the dataclass ``cls`` from the JSON object ``d`` at ``where``:
    omitted fields keep their value in ``base``, a nested object merges into
    the config of ``base`` it names, and a jump spec of another ``"kind"`` or
    a prior of another ``"family"`` is built from its own fields alone, so a
    field of the family it replaces is unknown. A scalar whose JSON type does
    not fit the field's annotation is refused."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where} must be an object, got {d!r}")
    d = dict(d)
    if type(base) in _TAG_OF:
        key, tag = _TAG_OF[type(base)]
        label, registry = _REGISTRIES[key]
        tag = d.pop(key, tag)
        _check_scalar(tag, "str", f"{where}.{key}")
        cls = registry.get(tag)
        if cls is None:
            raise ConfigurationError(f"unknown {label} {tag!r} in {where}")
        if cls is not type(base):
            base = None
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"unknown field(s) {unknown} in {where}")
    if base is None:  # a new kind or family; none has a default_factory
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if missing:
            raise ConfigurationError(f"missing field(s) {missing} in {where}")
    annotations = {f.name: f.type for f in fields(cls)}
    for name, value in d.items():
        old = getattr(base, name, None)
        if is_dataclass(old):
            d[name] = _from_data(type(old), value, old, f"{where}.{name}")
        elif isinstance(old, tuple):
            if not isinstance(value, list):
                raise ConfigurationError(f"{where}.{name} must be a list, got {value!r}")
            for i, v in enumerate(value):  # n_grid, the one tuple field, lists sample sizes
                _check_scalar(v, "int", f"{where}.{name}[{i}]")
            d[name] = tuple(value)
        else:
            _check_scalar(value, annotations[name], f"{where}.{name}")
    return cls(**d) if base is None else replace(base, **d)


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build a config from a JSON-compatible dict; unspecified fields keep the
    defaults of the named experiment. Unknown fields are refused."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"config must be an object, got {d!r}")
    base = default_config(d.get("experiment", "single-path"))
    return _from_data(ExperimentConfig, d, base, "config")


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(d)


# named baseline designs -----------------------------------------------------

VG_MODEL = ModelSpec(
    mu=0.1,
    theta=0.3,
    jump=VarianceGamma(drift=-0.2, diffusion=0.2, subordinator_scale=0.23),
    sigma_eps=0.0,
    horizon=1.0,
    n=5000,
)

# Trimmed-stable + noise design. The stable scale is calibrated so the
# post-trim jump quadratic variation is ~0.034: large enough that the
# threshold corrections are actually exercised, small enough to sit in the
# small-positive-bias regime reported for this estimator.
STABLE_MODEL = ModelSpec(
    mu=0.0,
    theta=1.0,
    jump=TrimmedStable(index=0.5, scale=2800.0, trim_fraction=0.02),
    sigma_eps=0.01,
    horizon=1.0,
    n=15600,
)

CP_MODEL = ModelSpec(
    mu=1.0,
    theta=10.0,
    jump=CompoundPoisson(rate=5.0, lo=-1.0, hi=1.0, bernoulli_approx=True),
    sigma_eps=0.0,
    horizon=1.0,
    n=5000,
)

RATE_MODEL = ModelSpec(
    mu=0.1,
    theta=0.3,
    jump=VarianceGamma(drift=-0.2, diffusion=0.2, subordinator_scale=0.23),
    sigma_eps=0.06,
    horizon=1.0,
    n=1000,  # overridden by n_grid
)


def default_config(experiment: str) -> ExperimentConfig:
    """Desk-scale defaults per experiment (documented in the README); the
    full-scale designs remain reachable through config overrides."""
    if experiment == "single-path":
        return ExperimentConfig(experiment=experiment, model=VG_MODEL, w=0.39, replications=1)
    if experiment == "bias-study":
        return ExperimentConfig(experiment=experiment, model=VG_MODEL, w=0.39, replications=1000)
    if experiment == "coverage-nonoise":
        # w relaxed from 0.39 to 0.41 at n=5000: the absolute threshold
        # n^-0.39 is tuned for ~1e5 samples and lets in enough small-jump
        # mass at n=5000 to push coverage below nominal
        return ExperimentConfig(experiment=experiment, model=VG_MODEL, w=0.41, replications=500)
    if experiment == "coverage-noise":
        return ExperimentConfig(
            experiment=experiment,
            model=STABLE_MODEL,
            prior=TruncatedNormalPrior(sd=0.06, lower=0.0),
            split_prior=True,
            replications=200,
        )
    if experiment == "rate-check":
        return ExperimentConfig(
            experiment=experiment,
            model=RATE_MODEL,
            replications=100,
            n_grid=(1000, 4000, 16000, 64000),
            m_aux=32,
        )
    if experiment == "compare-full-bayes":
        return ExperimentConfig(
            experiment=experiment,
            model=CP_MODEL,
            w=0.19,  # keeps the absolute threshold ~4.4 diffusion sd at theta=10
            replications=10,
        )
    raise ConfigurationError(f"unknown experiment {experiment!r}")


# ---------------------------------------------------------------------------
# per-replication pipelines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    report: object
    posterior: object
    adjusted: object
    reference: object


def fit_no_noise(dY: np.ndarray, delta: float, cfg: ExperimentConfig) -> FitResult:
    """Conjugate pipeline: closed-form quasi-MLE, threshold RV, tempered
    inverse-gamma posterior, location shift, plug-in normal reference."""
    report = estimate_no_noise(dY, delta, cfg.w, cfg.bg_index)
    posterior = tempered_posterior_conjugate(
        cfg.prior, dY, delta, max(report.kappa_n, KAPPA_FLOOR)
    )
    adjusted = adjust(posterior, report.theta_tilde - report.theta_hat)
    reference = normal_reference(report.theta_hat, report.v_hat, -0.5, dY.size)
    return FitResult(report, posterior, adjusted, reference)


def fit_noise(
    dY: np.ndarray, delta: float, cfg: ExperimentConfig, rep: int
) -> FitResult:
    """MCMC pipeline: when split_prior is set the first half of the sample
    centers the prior and the second half carries the likelihood; the Wald
    reference always uses the full-sample pre-averaging estimate.

    A data-centered (truncated-normal) prior informs the recentered
    volatility, so on the pre-shift scale its center and truncation point are
    translated by the shift estimate; the location adjustment then maps the
    prior back onto the parameter it was elicited for. Without this, the
    prior would fight the finite-sample location bias of the quasi-MLE and
    drag the corrected posterior off its recentered position.
    """
    if cfg.split_prior:
        full = estimate_noise(dY, delta, cfg.preavg, cfg.kappa_mode)
        n1 = (dY.size + 1) // 2  # boundary increment goes to the first half
        dY1, dY2 = dY[:n1], dY[n1:]
        pre1 = preavg_threshold_estimator(
            dY1, cfg.preavg, noise_variance_hat(dY1), delta, n1 * delta
        )
        center_raw = pre1.value
        ctx = make_context(dY2, delta)
        infer = estimate_noise(dY2, delta, cfg.preavg, cfg.kappa_mode, ctx=ctx)
    else:
        ctx = make_context(dY, delta)
        full = infer = estimate_noise(dY, delta, cfg.preavg, cfg.kappa_mode, ctx=ctx)
        center_raw = full.theta_hat
    reference = normal_reference(full.theta_hat, full.v_hat, -0.25, dY.size)
    shift = infer.theta_tilde - infer.theta_hat
    prior = cfg.prior
    if isinstance(prior, TruncatedNormalPrior) and prior.center is None:
        prior = replace(prior, center=center_raw + shift, lower=max(prior.lower + shift, 0.0))
    posterior = tempered_posterior_mcmc(
        prior, ctx, max(infer.kappa_n, KAPPA_FLOOR), cfg.chain, cfg.master_seed, rep
    )
    adjusted = adjust(posterior, shift)
    return FitResult(full, posterior, adjusted, reference)


def fit_path(dY: np.ndarray, delta: float, cfg: ExperimentConfig, rep: int) -> FitResult:
    if cfg.model.sigma_eps == 0:
        return fit_no_noise(dY, delta, cfg)
    return fit_noise(dY, delta, cfg, rep)


def _interval_cols(fit: FitResult, level: float, truth: float) -> dict:
    hpd = hpd_interval(fit.adjusted, level)
    et = equal_tail_interval(fit.adjusted, level)
    wald = fit.reference.wald_interval(level)
    out = {}
    for iv, tag in ((hpd, "hpd"), (et, "equal_tail"), (wald, "wald")):
        out[f"{tag}_lower"] = iv.lower
        out[f"{tag}_upper"] = iv.upper
        out[f"{tag}_covers"] = int(iv.contains(truth))
    return out


def _rep_single_path(cfg: ExperimentConfig, rep: int) -> dict:
    path = simulate_path(cfg.model, cfg.master_seed, rep, cfg.m_aux)
    fit = fit_path(path.dY, cfg.model.delta, cfg, rep)
    pts = point_estimates(fit.adjusted)
    row = {
        "rep": rep,
        "theta_tilde": fit.report.theta_tilde,
        "theta_hat": fit.report.theta_hat,
        "sigma_eps2_hat": fit.report.sigma_eps2_hat,
        "jump_qv_hat": fit.report.jump_qv_hat,
        "jump_qv_true": path.jump_qv,
        "kappa_n": fit.report.kappa_n,
        "mean_adjusted": pts.mean,
        "map_adjusted": pts.map,
        "tv_to_reference": tv_distance(fit.adjusted, fit.reference).value,
    }
    row.update(_interval_cols(fit, cfg.level, cfg.model.theta))
    if cfg.dump_paths and cfg.out_dir:
        dump_path_csv(path, cfg.model.delta, os.path.join(cfg.out_dir, f"path_{rep:05d}.csv"))
    return row


def _rep_bias_study(cfg: ExperimentConfig, rep: int) -> dict:
    path = simulate_path(cfg.model, cfg.master_seed, rep, cfg.m_aux)
    delta = cfg.model.delta
    horizon = cfg.model.horizon
    theta_star = cfg.model.theta
    fit = fit_no_noise(path.dY, delta, cfg)
    report = fit.report
    mean_adj = point_estimates(fit.adjusted).mean

    # latent-truth variants: shift by the realized jump QV instead of its estimate
    jqv_n = path.jump_qv_grid()
    theta_star_hat = report.theta_tilde - jqv_n / horizon
    kappa_lat = max((max(theta_star_hat, 0.0) / report.theta_tilde) ** 2, KAPPA_FLOOR)
    post_lat = adjust(
        tempered_posterior_conjugate(cfg.prior, path.dY, delta, kappa_lat), jqv_n / horizon
    )
    mean_lat = point_estimates(post_lat).mean
    return {
        "rep": rep,
        "bias_theta_hat": report.theta_hat - theta_star,
        "bias_post_mean": mean_adj - theta_star,
        "bias_theta_hat_latent": theta_star_hat - theta_star,
        "bias_post_mean_latent": mean_lat - theta_star,
        "jump_qv_hat": report.jump_qv_hat,
        "jump_qv_grid": jqv_n,
    }


def _rep_coverage(cfg: ExperimentConfig, rep: int) -> dict:
    path = simulate_path(cfg.model, cfg.master_seed, rep, cfg.m_aux)
    fit = fit_path(path.dY, cfg.model.delta, cfg, rep)
    pts = point_estimates(fit.adjusted)
    row = {
        "rep": rep,
        "theta_hat": fit.report.theta_hat,
        "mean_adjusted": pts.mean,
        "map_adjusted": pts.map,
        "kappa_n": fit.report.kappa_n,
    }
    if cfg.model.sigma_eps > 0:
        row["acceptance_rate"] = fit.posterior.acceptance_rate
    row.update(_interval_cols(fit, cfg.level, cfg.model.theta))
    return row


def _rep_rate_check(cfg: ExperimentConfig, task: int) -> dict:
    n_idx, rep = divmod(task, cfg.replications)
    n = cfg.n_grid[n_idx]
    model = replace(cfg.model, n=n)
    path = simulate_path(model, cfg.master_seed, task, cfg.m_aux)
    delta = model.delta
    horizon = model.horizon
    theta_dag = model.theta + path.jump_qv / horizon

    theta_tilde_nonoise = float(np.sum(path.dX**2) / horizon)
    row = {
        "rep": rep,
        "n": n,
        "theta_dag": theta_dag,
        "dev_nonoise": abs(theta_tilde_nonoise - theta_dag),
    }
    if model.sigma_eps > 0:
        ctx = make_context(path.dY, delta)
        row["dev_noise"] = abs(mle(ctx).theta - theta_dag)
    return row


def _rep_compare(cfg: ExperimentConfig, rep: int) -> dict:
    path = simulate_path(cfg.model, cfg.master_seed, rep, cfg.m_aux)
    delta = cfg.model.delta
    fit = fit_no_noise(path.dY, delta, cfg)
    hpd_mis = hpd_interval(fit.adjusted, cfg.level)

    dump = None
    if cfg.dump_chains and cfg.out_dir:
        dump = os.path.join(cfg.out_dir, f"chain_{rep:05d}.csv")
    traj = gibbs_full_joint(
        path.dY,
        delta,
        cfg.joint_priors,
        cfg.chain,
        seed=cfg.master_seed,
        replication=rep,
        dump_csv=dump,
    )
    theta_draws = marginal_theta(traj)
    hpd_full = hpd_interval(EmpiricalPosterior(samples=theta_draws, kappa=1.0), cfg.level)

    inter = max(0.0, min(hpd_mis.upper, hpd_full.upper) - max(hpd_mis.lower, hpd_full.lower))
    union = max(hpd_mis.upper, hpd_full.upper) - min(hpd_mis.lower, hpd_full.lower)
    return {
        "rep": rep,
        "mis_lower": hpd_mis.lower,
        "mis_upper": hpd_mis.upper,
        "full_lower": hpd_full.lower,
        "full_upper": hpd_full.upper,
        "jaccard": inter / union if union > 0 else 1.0,
        "full_theta_mean": float(np.mean(theta_draws)),
    }


_WORKERS = {
    "single-path": _rep_single_path,
    "bias-study": _rep_bias_study,
    "coverage-nonoise": _rep_coverage,
    "coverage-noise": _rep_coverage,
    "rate-check": _rep_rate_check,
    "compare-full-bayes": _rep_compare,
}


def _safe_worker(args) -> dict:
    """Run one task. Data and numerical failures become a row with the
    reason: ``ValueError`` covers ConfigurationError, DegenerateDataError,
    LinAlgError and a root solver's bracket error, ``ArithmeticError`` the
    floating-point ones. Any other exception is a bug and aborts the run.
    The CLT-window warning is a fact about the design, which ``run`` reports
    once, so it is silenced here."""
    cfg, task = args
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CLTWindowWarning)
            return _WORKERS[cfg.experiment](cfg, task)
    except (ValueError, ArithmeticError) as exc:
        return {"rep": task, "error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageResult:
    kind: str
    coverage: float
    mean_width: float
    replications: int

    @property
    def mc_se(self) -> float:
        p = self.coverage
        return float(np.sqrt(p * (1 - p) / self.replications))

    def to_dict(self) -> dict:
        return {**_to_data(self), "mc_se": self.mc_se}


def _coverage_summary(rows: list[dict], level: float) -> dict:
    out = {}
    for tag, kind in (("hpd", "HPD"), ("equal_tail", "EqualTail"), ("wald", "WaldNormal")):
        covers = np.array([r[f"{tag}_covers"] for r in rows], dtype=float)
        widths = np.array([r[f"{tag}_upper"] - r[f"{tag}_lower"] for r in rows])
        out[tag] = CoverageResult(
            kind=kind,
            coverage=float(covers.mean()),
            mean_width=float(widths.mean()),
            replications=len(rows),
        ).to_dict()
    out["level"] = level
    return out


def _sample_sd(values: list) -> Optional[float]:
    """Sample s.d. of a summary column; None (JSON null) below two values,
    where it is undefined."""
    return float(np.std(values, ddof=1)) if len(values) > 1 else None


def _summarize(cfg: ExperimentConfig, rows: list[dict]) -> dict:
    ok = [r for r in rows if "error" not in r]
    if not ok:
        return {}
    if cfg.experiment in ("coverage-nonoise", "coverage-noise"):
        s = _coverage_summary(ok, cfg.level)
        hats = np.array([r["theta_hat"] for r in ok])
        maps = np.array([r["map_adjusted"] for r in ok])
        s["theta_hat_bias"] = float(hats.mean() - cfg.model.theta)
        s["theta_hat_se"] = _sample_sd(hats)
        s["map_bias"] = float(maps.mean() - cfg.model.theta)
        s["map_se"] = _sample_sd(maps)
        return s
    if cfg.experiment == "bias-study":
        cols = (
            "bias_theta_hat",
            "bias_post_mean",
            "bias_theta_hat_latent",
            "bias_post_mean_latent",
        )
        return {
            c: {
                "mean": float(np.mean([r[c] for r in ok])),
                "sd": _sample_sd([r[c] for r in ok]),
            }
            for c in cols
        }
    if cfg.experiment == "rate-check":
        out = {}
        for key in ("dev_nonoise", "dev_noise"):
            if key not in ok[0]:
                continue
            means = []
            for n in cfg.n_grid:
                vals = [r[key] for r in ok if r["n"] == n]
                means.append(float(np.mean(vals)))
            slope = float(np.polyfit(np.log(cfg.n_grid), np.log(means), 1)[0])
            out[key] = {"mean_abs_dev": dict(zip(map(str, cfg.n_grid), means)), "slope": slope}
        return out
    if cfg.experiment == "compare-full-bayes":
        jac = np.array([r["jaccard"] for r in ok])
        return {
            "jaccard_median": float(np.median(jac)),
            "n_overlap": int(np.sum(jac > 0.5)),
            "fraction_overlap": float(np.mean(jac > 0.5)),
        }
    if cfg.experiment == "single-path":
        return {"mean_tv": float(np.mean([r["tv_to_reference"] for r in ok]))}
    return {}


@dataclass(frozen=True)
class RunResult:
    rows: list
    summary: dict
    out_dir: Optional[str]

    @property
    def failure_rate(self) -> float:
        return self.summary["failures"] / max(self.summary["replications_requested"], 1)


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute all replications (optionally on a process pool), write
    rows.csv and summary.json, and return the in-memory result.

    Failed replications are recorded with a reason and excluded from the
    aggregates; a failure rate above 5% is flagged in the summary (the CLI
    turns that into a nonzero exit code).
    """
    cfg.validate()
    t0 = time.time()
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
    # a design without the threshold RV has no CLT window to sit in: null
    w_outside = warn_outside_clt_window(cfg.w, cfg.bg_index) if cfg.conjugate else None

    n_tasks = cfg.replications
    if cfg.experiment == "rate-check":
        n_tasks = cfg.replications * len(cfg.n_grid)
    tasks = [(cfg, t) for t in range(n_tasks)]

    # map() yields results in task order for both paths, so parallel and
    # serial runs produce identical row sequences
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(_safe_worker, tasks, chunksize=max(1, n_tasks // (4 * cfg.jobs))))
    else:
        rows = [_safe_worker(t) for t in tasks]

    failures = sum("error" in r for r in rows)
    summary = {
        "schema": 1,
        "experiment": cfg.experiment,
        "replications_requested": n_tasks,
        "replications_ok": n_tasks - failures,
        "failures": failures,
        "failure_rate": failures / n_tasks,
        "too_many_failures": failures / n_tasks > 0.05,
        "w_outside_clt_window": w_outside,
        "runtime_s": None,  # filled below
        "config": cfg.to_dict(),
        "results": _summarize(cfg, rows),
    }
    summary["runtime_s"] = time.time() - t0

    if cfg.out_dir:
        _write_rows(rows, os.path.join(cfg.out_dir, "rows.csv"))
        with open(os.path.join(cfg.out_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, default=float)
    return RunResult(rows=rows, summary=summary, out_dir=cfg.out_dir)


def _write_rows(rows: list[dict], filename: str) -> None:
    ok = next((r for r in rows if "error" not in r), None)
    fields = list(ok.keys()) if ok else ["rep"]
    if any("error" in r for r in rows):
        fields = fields + ["error"]
    with open(filename, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r.get(k, "") for k in fields})


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------


def emit_plot_data(cfg: ExperimentConfig, out_dir: str, reps: Optional[int] = None) -> dict:
    """Re-run the per-replication pipeline for the first few replications and
    write grid-evaluated densities plus interval endpoints; no plotting.

    densities.csv: (rep, theta, pdf_posterior, pdf_adjusted, pdf_reference)
    intervals.csv: (rep, kind, lower, upper, covers_truth)
    plot_meta.json: per-rep TV distance to the reference and shift/kappa.
    """
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    n_reps = min(reps or cfg.replications, cfg.replications)
    truth = cfg.model.theta

    dens_rows = []
    int_rows = []
    meta = {}
    for rep in range(n_reps):
        path = simulate_path(cfg.model, cfg.master_seed, rep, cfg.m_aux)
        fit = fit_path(path.dY, cfg.model.delta, cfg, rep)
        ref = fit.reference
        lo = ref.center - 8 * ref.sd
        hi = ref.center + 8 * ref.sd
        grid = np.linspace(lo, hi, 801)
        if fit.adjusted.kind == "analytic":
            pdf_adj = fit.adjusted.pdf(grid)
            pdf_post = fit.posterior.pdf(grid)
        else:
            from scipy.stats import gaussian_kde

            pdf_adj = gaussian_kde(fit.adjusted.samples, bw_method="silverman")(grid)
            pdf_post = gaussian_kde(fit.posterior.samples, bw_method="silverman")(grid)
        pdf_ref = ref.pdf(grid)
        for t, a, p, q in zip(grid, pdf_post, pdf_adj, pdf_ref):
            dens_rows.append(
                {
                    "rep": rep,
                    "theta": t,
                    "pdf_posterior": a,
                    "pdf_adjusted": p,
                    "pdf_reference": q,
                }
            )
        hpd = hpd_interval(fit.adjusted, cfg.level)
        et = equal_tail_interval(fit.adjusted, cfg.level)
        wald = ref.wald_interval(cfg.level)
        for iv in (hpd, et, wald):
            int_rows.append(
                {
                    "rep": rep,
                    "kind": iv.kind,
                    "lower": iv.lower,
                    "upper": iv.upper,
                    "covers_truth": int(iv.contains(truth)),
                }
            )
        meta[str(rep)] = {
            "tv_to_reference": tv_distance(fit.adjusted, ref).value,
            "kappa_n": fit.report.kappa_n,
            "shift": fit.report.theta_tilde - fit.report.theta_hat,
        }

    _write_rows(dens_rows, os.path.join(out_dir, "densities.csv"))
    _write_rows(int_rows, os.path.join(out_dir, "intervals.csv"))
    with open(os.path.join(out_dir, "plot_meta.json"), "w") as fh:
        json.dump({"schema": 1, "reps": n_reps, "per_rep": meta}, fh, indent=2, default=float)
    return {"densities": len(dens_rows), "intervals": len(int_rows), "reps": n_reps}
