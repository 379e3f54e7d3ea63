import csv
import json
import re
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levyvol.experiments
import levyvol.likelihood
from levyvol import (
    CLTWindowWarning,
    ChainConfig,
    CompoundPoisson,
    ConfigurationError,
    ExponentialPrior,
    InverseGammaPrior,
    ModelSpec,
    NoJumps,
    TrimmedStable,
    TruncatedNormalPrior,
    UniformPrior,
    VarianceGamma,
    simulate_path,
)
from levyvol.cli import main
from levyvol.experiments import (
    EXPERIMENTS,
    JUMP_KINDS,
    PRIOR_FAMILIES,
    config_from_dict,
    default_config,
    emit_plot_data,
    load_config,
    run,
)


def _tiny(experiment, **over):
    cfg = default_config(experiment)
    model = replace(cfg.model, n=over.pop("n", 800))
    chain = replace(cfg.chain, total=3000, burn_in=1000)
    return replace(cfg, model=model, replications=3, chain=chain, m_aux=8, **over)


def test_default_configs_validate():
    for name in EXPERIMENTS:
        default_config(name).validate()


def test_noise_design_chain_defaults():
    cfg = default_config("coverage-noise")
    assert cfg.chain.total == 20_000
    assert cfg.chain.burn_in == 5_000
    assert cfg.model.n == 15_600
    assert cfg.prior == TruncatedNormalPrior(center=None, sd=0.06, lower=0.0)
    assert cfg.split_prior


def test_config_round_trip():
    for name in EXPERIMENTS:
        cfg = default_config(name)
        assert config_from_dict(cfg.to_dict()) == cfg


def test_config_round_trip_keeps_every_chain_field():
    base = default_config("coverage-noise")
    chain = replace(base.chain, total=7000, burn_in=3000)
    cfg = replace(base, chain=chain)
    back = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back.chain == chain
    assert back == cfg


_finite = st.floats(allow_nan=False, allow_infinity=False)
_jumps = st.one_of(
    st.just(NoJumps()),
    st.builds(
        CompoundPoisson,
        rate=_finite,
        lo=_finite,
        hi=_finite,
        bernoulli_approx=st.booleans(),
        center=st.booleans(),
    ),
    st.builds(
        VarianceGamma,
        drift=_finite,
        diffusion=_finite,
        subordinator_scale=_finite,
        center=st.booleans(),
    ),
    st.builds(TrimmedStable, index=_finite, scale=_finite, trim_fraction=_finite),
)
_priors = st.one_of(
    st.builds(InverseGammaPrior, shape=_finite, scale=_finite),
    st.builds(TruncatedNormalPrior, center=st.none() | _finite, sd=_finite, lower=_finite),
    st.builds(UniformPrior, lo=_finite, hi=_finite),
    st.builds(ExponentialPrior, rate=_finite),
)


@st.composite
def _configs(draw):
    base = default_config(draw(st.sampled_from(EXPERIMENTS)))
    counts = st.integers(min_value=0, max_value=2**63)
    return replace(
        base,
        model=replace(base.model, jump=draw(_jumps)),
        chain=ChainConfig(total=draw(counts), burn_in=draw(counts)),
        prior=draw(_priors),
        n_grid=tuple(draw(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1))),
    )


@settings(max_examples=200, deadline=None)
@given(_configs())
def test_config_round_trips_through_json(cfg):
    assert config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize(
    "key, registry, path",
    [("family", PRIOR_FAMILIES, ("prior",)), ("kind", JUMP_KINDS, ("model", "jump"))],
    ids=["prior", "jump"],
)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_field_foreign_to_the_drawn_family_is_refused_with_its_path(key, registry, path, data):
    # a field that only another prior family (or jump kind) has is unknown here
    names = {tag: {f.name for f in fields(cls)} for tag, cls in registry.items()}
    tag = data.draw(st.sampled_from(sorted(registry)))
    foreign = data.draw(st.sampled_from(sorted(set().union(*names.values()) - names[tag])))
    obj = {key: tag, foreign: 1.0}
    for step in reversed(path):
        obj = {step: obj}
    d = {"experiment": data.draw(st.sampled_from(EXPERIMENTS)), **obj}
    where = ".".join(("config",) + path)
    with pytest.raises(ConfigurationError, match=re.escape(f"['{foreign}'] in {where}")):
        config_from_dict(d)


def test_config_weight_is_written_by_name():
    # the weight is the fixed triangle, so a config names no weight at all
    d = default_config("coverage-noise").to_dict()
    assert "weight" not in d["preavg"]
    with pytest.raises(ConfigurationError, match=re.escape("['weight'] in config.preavg")):
        config_from_dict({"preavg": {"weight": "cosine"}})


@pytest.mark.parametrize(
    "d, message",
    [
        ({"experiment": "bias-study", "replication": 5}, "['replication'] in config"),
        ({"prior": {"shap": 2.0}}, "['shap'] in config.prior"),
        ({"prior": {"family": "inverse-gamma", "rate": 7}}, "['rate'] in config.prior"),
        ({"prior": {"family": "gamma"}}, "prior family 'gamma' in config.prior"),
        ({"chain": {"seed": 999, "replication": 5}}, "['replication', 'seed'] in config.chain"),
        ({"chain": {"proposal_sd": 0.2, "adapt": False}}, "['adapt', 'proposal_sd'] in config.chain"),
        (
            {"experiment": "coverage-noise", "model": {"jump": {"center": True}}},
            "['center'] in config.model.jump",
        ),
        ({"model": {"jump": {"drfit": 0.1}}}, "['drfit'] in config.model.jump"),
        ({"model": {"jump": {"kind": "gauss"}}}, "jump kind 'gauss' in config.model.jump"),
        (
            {"model": {"jump": {"kind": "compound-poisson"}}},
            "missing field(s) ['rate'] in config.model.jump",
        ),
        ({"model": 5}, "config.model must be an object"),
        ({"n_grid": 1000}, "config.n_grid must be a list"),
        ([1, 2], "config must be an object"),
    ],
    ids=[
        "top-level-key",
        "nested-key",
        "foreign-prior-key",
        "prior-family",
        "chain-seed",
        "chain-proposal",
        "trimmed-stable-center",
        "jump-key",
        "jump-kind",
        "jump-required",
        "not-an-object",
        "not-a-list",
        "not-a-dict",
    ],
)
def test_config_refuses_malformed_input(d, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        config_from_dict(d)


@pytest.mark.parametrize(
    "d, message",
    [
        ({"experiment": "bias-study", "replications": "2"}, "config.replications must be an integer"),
        ({"replications": 2.5}, "config.replications must be an integer"),
        ({"model": {"n": True}}, "config.model.n must be an integer"),
        ({"w": "0.39"}, "config.w must be a number"),
        (
            {"prior": {"family": "truncated-normal", "center": False}},
            "config.prior.center must be a number",
        ),
        ({"split_prior": 1}, "config.split_prior must be true or false"),
        ({"prior": {"family": 3}}, "config.prior.family must be a string"),
        ({"model": {"jump": {"kind": "compound-poisson", "rate": "5"}}}, "config.model.jump.rate"),
        ({"n_grid": [1000, "4000"]}, "config.n_grid[1] must be an integer"),
    ],
    ids=[
        "str-int",
        "float-int",
        "bool-int",
        "str-float",
        "bool-float",
        "int-bool",
        "int-str",
        "jump",
        "list-item",
    ],
)
def test_config_refuses_values_of_the_wrong_type(d, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        config_from_dict(d)


def test_config_accepts_an_integer_for_a_number_and_null_for_an_optional():
    d = {"experiment": "coverage-noise", "w": 1, "prior": {"center": None}, "out_dir": None}
    cfg = config_from_dict(d)
    assert cfg.w == 1 and cfg.prior.center is None and cfg.out_dir is None


def test_config_jump_merges_into_the_design_jump_of_its_kind():
    design = default_config("single-path").model.jump
    cfg = config_from_dict({"model": {"jump": {"drift": -0.5}}})
    assert cfg.model.jump == replace(design, drift=-0.5)
    cfg = config_from_dict({"model": {"jump": {"kind": "variance-gamma", "drift": -0.5}}})
    assert cfg.model.jump == replace(design, drift=-0.5)
    cfg = config_from_dict({"model": {"jump": {"kind": "compound-poisson", "rate": 3.0}}})
    assert cfg.model.jump == CompoundPoisson(rate=3.0)


@pytest.mark.parametrize(
    "d",
    [
        {"experiment": "coverage-noise", "prior": {"family": "gamma"}},
        {"experiment": "coverage-noise", "prior": {"sd": -0.06}},
        {"experiment": "bias-study", "prior": {"shape": -5}},
        {"experiment": "coverage-noise", "prior": {"family": "uniform", "lo": 3, "hi": 2}},
        {"experiment": "coverage-noise", "prior": {"family": "uniform", "lo": -2, "hi": -1}},
        {"experiment": "coverage-noise", "prior": {"family": "exponential", "rate": 0}},
        {"experiment": "coverage-noise", "chain": {"total": 1500, "burn_in": 1000}},
        {"experiment": "compare-full-bayes", "joint_priors": {"p_a": -1}},
        {"experiment": "bias-study", "model": {"n": 500}, "prior": {"family": "uniform"}},
        {"experiment": "compare-full-bayes", "prior": {"family": "exponential"}},
        {"experiment": "coverage-nonoise", "prior": {"family": "truncated-normal", "center": 0.3}},
        {"experiment": "single-path", "prior": {"family": "uniform"}},
        {"experiment": "coverage-noise", "model": {"sigma_eps": 0.0}, "prior": {"family": "uniform"}},
        {"experiment": "rate-check", "n_grid": []},
        {"experiment": "rate-check", "n_grid": [1000]},
        {"experiment": "rate-check", "n_grid": [1000, 0]},
        {"experiment": "single-path", "master_seed": -1},
    ],
    ids=[
        "prior-family",
        "prior-sd",
        "prior-shape",
        "prior-bounds",
        "prior-below-zero",
        "prior-rate",
        "short-chain",
        "joint-prior",
        "bias-study-conjugate",
        "compare-conjugate",
        "coverage-nonoise-conjugate",
        "single-path-conjugate",
        "noise-design-without-noise",
        "rate-check-no-sizes",
        "rate-check-one-size",
        "rate-check-size-zero",
        "negative-seed",
    ],
)
def test_config_errors_are_refused_before_any_replication(d):
    with pytest.raises(ConfigurationError):
        run(config_from_dict({**d, "replications": 2}))


def test_only_the_conjugate_pipeline_needs_an_inverse_gamma_prior():
    base = {"prior": {"family": "uniform"}, "replications": 2}
    config_from_dict({**base, "experiment": "coverage-noise"}).validate()
    config_from_dict({**base, "experiment": "rate-check"}).validate()
    config_from_dict({**base, "experiment": "single-path", "model": {"sigma_eps": 0.01}}).validate()


def test_short_gibbs_chain_is_a_valid_design():
    # the Gibbs reference has no 1000-draw floor; only the Metropolis chain has
    cfg = default_config("compare-full-bayes")
    replace(cfg, chain=replace(cfg.chain, total=400, burn_in=100)).validate()


def test_config_partial_override_keeps_design_jump():
    cfg = config_from_dict({"experiment": "bias-study", "model": {"n": 777}})
    assert cfg.model.n == 777
    assert type(cfg.model.jump).__name__ == "VarianceGamma"


def test_run_deterministic_and_serial_parallel_identical(tmp_path):
    cfg = _tiny("bias-study", out_dir=str(tmp_path / "a"))
    r1 = run(cfg)
    r2 = run(replace(cfg, out_dir=str(tmp_path / "b")))
    assert r1.rows == r2.rows
    a = (tmp_path / "a" / "rows.csv").read_bytes()
    b = (tmp_path / "b" / "rows.csv").read_bytes()
    assert a == b
    r3 = run(replace(cfg, jobs=2, out_dir=None))
    assert r3.rows == r1.rows


def test_run_summary_schema(tmp_path):
    cfg = _tiny("bias-study", out_dir=str(tmp_path))
    res = run(cfg)
    s = res.summary
    assert s["schema"] == 1
    assert s["experiment"] == "bias-study"
    assert s["failures"] == 0
    assert not s["too_many_failures"]
    assert "bias_theta_hat" in s["results"]
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk["schema"] == 1
    assert on_disk["results"].keys() == s["results"].keys()


def test_run_records_failures_and_flags():
    # a degenerate model (all-zero increments) fails every replication
    cfg = replace(
        _tiny("bias-study"),
        model=ModelSpec(mu=0.0, theta=0.0, jump=NoJumps(), sigma_eps=0.0, n=50),
    )
    res = run(cfg)
    assert res.summary["failures"] == 3
    assert res.summary["too_many_failures"]
    assert all("DegenerateDataError" in r["error"] for r in res.rows)


def test_run_aborts_on_a_programming_error(monkeypatch):
    def broken(cfg, rep):
        raise TypeError("not a data failure")

    monkeypatch.setitem(levyvol.experiments._WORKERS, "bias-study", broken)
    with pytest.raises(TypeError, match="not a data failure"):
        run(_tiny("bias-study"))


def test_failed_rows_written_with_reason(tmp_path):
    cfg = replace(
        _tiny("bias-study", out_dir=str(tmp_path)),
        model=ModelSpec(mu=0.0, theta=0.0, jump=NoJumps(), sigma_eps=0.0, n=50),
    )
    run(cfg)
    with open(tmp_path / "rows.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(r["error"] for r in rows)


def test_coverage_nonoise_rows_and_summary():
    cfg = _tiny("coverage-nonoise", n=2000)
    res = run(cfg)
    row = res.rows[0]
    for tag in ("hpd", "equal_tail", "wald"):
        assert f"{tag}_lower" in row and f"{tag}_upper" in row and f"{tag}_covers" in row
    s = res.summary["results"]
    for tag in ("hpd", "equal_tail", "wald"):
        cov = s[tag]["coverage"]
        assert 0.0 <= cov <= 1.0
        want_se = np.sqrt(cov * (1 - cov) / 3)
        assert s[tag]["mc_se"] == pytest.approx(want_se, abs=1e-12)


def test_one_replication_summary_is_strict_json(tmp_path):
    # a sample s.d. of one row is undefined: reported as null, never NaN
    cfg = replace(_tiny("coverage-nonoise", n=2000, out_dir=str(tmp_path)), replications=1)
    res = run(cfg)
    assert res.summary["results"]["theta_hat_se"] is None
    assert res.summary["results"]["map_se"] is None

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    on_disk = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert on_disk["results"]["theta_hat_se"] is None


def test_coverage_noise_pipeline_small():
    cfg = _tiny("coverage-noise", n=3000)
    res = run(cfg)
    assert res.summary["failures"] == 0
    assert "acceptance_rate" in res.rows[0]
    assert "theta_hat_bias" in res.summary["results"]


def _count_calls(monkeypatch, fn, counts):
    """Wrap ``fn`` under every name a levyvol module binds it to."""

    def counted(*args, **kwargs):
        counts[fn.__name__] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("levyvol"):
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, counted)


def test_coverage_noise_replication_fits_each_half_once(monkeypatch):
    # split prior: the full sample carries the Wald reference, the second
    # half the likelihood; each gets one context and one quasi-MLE solve
    cfg = replace(_tiny("coverage-noise", n=3000), replications=1)
    dY = simulate_path(cfg.model, cfg.master_seed, 0, cfg.m_aux).dY
    counts = {"make_context": 0, "score": 0}
    _count_calls(monkeypatch, levyvol.likelihood.score, counts)
    for data in (dY, dY[(dY.size + 1) // 2 :]):
        levyvol.likelihood.mle(levyvol.likelihood.make_context(data, cfg.model.delta))
    two_solves = counts["score"]
    _count_calls(monkeypatch, levyvol.likelihood.make_context, counts)
    counts.update(make_context=0, score=0)
    assert run(cfg).summary["failures"] == 0
    assert counts["make_context"] == 2
    assert counts["score"] == two_solves


def test_rate_check_rows_and_slopes():
    cfg = replace(_tiny("rate-check"), n_grid=(400, 6400), replications=12)
    res = run(cfg)
    assert len(res.rows) == 24
    assert {r["n"] for r in res.rows} == {400, 6400}
    out = res.summary["results"]
    assert "dev_nonoise" in out and "dev_noise" in out
    # loose sanity only; the calibrated slope bands live in the acceptance suite
    assert out["dev_nonoise"]["slope"] < 0


def test_compare_full_bayes_small():
    cfg = _tiny("compare-full-bayes", n=1200)
    cfg = replace(cfg, replications=2)
    res = run(cfg)
    assert res.summary["failures"] == 0
    jac = [r["jaccard"] for r in res.rows]
    assert all(0.0 <= j <= 1.0 for j in jac)
    assert res.summary["results"]["n_overlap"] >= 1


def test_single_path_tv_column():
    cfg = _tiny("single-path")
    res = run(replace(cfg, replications=2))
    assert all(0 <= r["tv_to_reference"] <= 1 for r in res.rows)
    assert "jump_qv_true" in res.rows[0]


def test_emit_plot_data_densities_normalized(tmp_path):
    cfg = replace(_tiny("single-path"), replications=2)
    info = emit_plot_data(cfg, str(tmp_path), reps=2)
    assert info["reps"] == 2
    with open(tmp_path / "densities.csv") as fh:
        rows = list(csv.DictReader(fh))
    for rep in ("0", "1"):
        sub = [r for r in rows if r["rep"] == rep]
        theta = np.array([float(r["theta"]) for r in sub])
        for col in ("pdf_posterior", "pdf_adjusted", "pdf_reference"):
            pdf = np.array([float(r[col]) for r in sub])
            assert np.trapezoid(pdf, theta) == pytest.approx(1.0, abs=1e-3)
    with open(tmp_path / "intervals.csv") as fh:
        ivs = list(csv.DictReader(fh))
    assert {r["kind"] for r in ivs} == {"HPD", "EqualTail", "WaldNormal"}
    assert set(ivs[0].keys()) == {"rep", "kind", "lower", "upper", "covers_truth"}
    meta = json.loads((tmp_path / "plot_meta.json").read_text())
    assert meta["schema"] == 1
    assert "tv_to_reference" in meta["per_rep"]["0"]


def test_dump_paths_flag(tmp_path):
    cfg = replace(_tiny("single-path"), replications=2, dump_paths=True, out_dir=str(tmp_path))
    run(cfg)
    assert (tmp_path / "path_00000.csv").exists()
    assert (tmp_path / "path_00001.csv").exists()


def test_dump_chains_flag(tmp_path):
    cfg = _tiny("compare-full-bayes", n=400)
    cfg = replace(cfg, replications=1, dump_chains=True, out_dir=str(tmp_path))
    run(cfg)
    assert (tmp_path / "chain_00000.csv").exists()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_experiment_with_config_and_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps({"experiment": "bias-study", "model": {"n": 600}, "replications": 10})
    )
    code = main(
        [
            "experiment",
            "--config",
            str(cfg_file),
            "--reps",
            "2",
            "--out",
            str(tmp_path / "out"),
            "--seed",
            "99",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["replications_requested"] == 2
    assert out["config"]["master_seed"] == 99
    assert (tmp_path / "out" / "rows.csv").exists()


def test_cli_experiment_failure_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps(
            {
                "experiment": "bias-study",
                "model": {"theta": 0.0, "mu": 0.0, "n": 40, "jump": {"kind": "none"}},
                "replications": 2,
            }
        )
    )
    assert main(["experiment", "--config", str(cfg_file)]) == 1
    capsys.readouterr()


def test_cli_estimate_and_posterior(tmp_path, capsys):
    assert main(["estimate", "--experiment", "single-path", "--n", "500"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert "theta_tilde" in rep and "kappa_n" in rep
    assert main(["posterior", "--experiment", "single-path", "--n", "500"]) == 0
    post = json.loads(capsys.readouterr().out)
    assert {iv["kind"] for iv in post["intervals"]} == {"HPD", "EqualTail", "WaldNormal"}
    assert "estimators" in post


@pytest.mark.parametrize(
    "args",
    [
        ["estimate", "--seed", "-1"],
        ["estimate", "--rep", "-1"],
        ["posterior", "--seed", "-1"],
        ["posterior", "--rep", "-1"],
        ["simulate", "--seed", "-1"],
        ["experiment", "--seed", "-1", "--reps", "2"],
    ],
    ids=" ".join,
)
def test_cli_negative_seed_or_replication_returns_2(args, capsys):
    assert main(args + ["--experiment", "single-path", "--n", "200"]) == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_cli_simulate_dump(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--experiment",
            "single-path",
            "--n",
            "100",
            "--reps",
            "2",
            "--out",
            str(tmp_path),
            "--dump-paths",
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "path_00001.csv").exists()


def test_cli_plotdata(tmp_path, capsys):
    code = main(
        [
            "plotdata",
            "--experiment",
            "single-path",
            "--n",
            "400",
            "--out",
            str(tmp_path),
            "--plot-reps",
            "1",
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "densities.csv").exists()


def test_cli_bad_config_returns_2(capsys):
    assert main(["experiment"]) == 2
    capsys.readouterr()


def test_cli_misspelled_config_field_returns_2(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"experiment": "bias-study", "prior": {"shap": 2.0}}))
    assert main(["experiment", "--config", str(cfg_file)]) == 2
    assert "shap" in capsys.readouterr().err
    cfg_file.write_text('{"experiment": ')
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_config(str(cfg_file))


def test_cli_config_value_of_wrong_type_returns_2(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"experiment": "bias-study", "replications": "2"}))
    assert main(["experiment", "--config", str(cfg_file)]) == 2
    assert "config.replications must be an integer" in capsys.readouterr().err


def test_cli_posterior_with_non_conjugate_prior_returns_2(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"prior": {"family": "uniform"}}))
    args = ["posterior", "--experiment", "single-path", "--config", str(cfg_file)]
    assert main(args + ["--n", "500"]) == 2
    assert "inverse-gamma prior" in capsys.readouterr().err


def _clt_warnings(cfg):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run(cfg)
    return res, [w for w in caught if issubclass(w.category, CLTWindowWarning)]


def test_clt_window_warned_once_per_run(tmp_path):
    # w = 0.19 lies below the window (1/4, 1/2) of activity index 0: one
    # warning for the run, not one per replication, and a flag in the summary
    cfg = _tiny("bias-study", w=0.19, out_dir=str(tmp_path))
    res, caught = _clt_warnings(cfg)
    assert len(caught) == 1
    assert res.summary["w_outside_clt_window"] is True
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk["w_outside_clt_window"] is True


def test_clt_window_flag_false_inside_window():
    cfg = replace(_tiny("coverage-nonoise"), replications=2)
    assert cfg.w == 0.41
    res, caught = _clt_warnings(cfg)
    assert caught == []
    assert res.summary["w_outside_clt_window"] is False


def test_clt_window_flag_null_without_threshold_rv():
    cfg = replace(_tiny("rate-check"), replications=2, n_grid=(500, 1000))
    assert run(cfg).summary["w_outside_clt_window"] is None
