import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from levyvol import ModelSpec, NoJumps
from levyvol.cli import main
from levyvol.experiments import (
    EXPERIMENTS,
    config_from_dict,
    default_config,
    emit_plot_data,
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
    assert cfg.prior.family == "truncated-normal"
    assert cfg.prior.sd == 0.06
    assert cfg.split_prior


def test_config_round_trip():
    for name in EXPERIMENTS:
        cfg = default_config(name)
        assert config_from_dict(cfg.to_dict()) == cfg


def test_config_round_trip_keeps_every_chain_field():
    base = default_config("coverage-noise")
    chain = replace(base.chain, adapt=False, seed=7, replication=3, proposal_sd=0.2)
    cfg = replace(base, chain=chain)
    back = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back.chain == chain
    assert back == cfg


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
