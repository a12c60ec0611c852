"""Manufactured problems, configs, experiment runs, reports and the CLI."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from parapost.adjoint import SpatialAdjointSolver
from parapost.cli import main as cli_main
from parapost.harness import (
    ExperimentConfig,
    TABLE_REGISTRY,
    build_manufactured,
    emit_report,
    reproduce_table,
    run_experiment,
    run_sweep,
)
from parapost.schwarz import AdditiveSchwarz

SMALL = dict(Nhat_t=4, r=2, P_t=2, K_t=1, Nhat_s=4, qhat_s=1, q_s=2,
             nu=2, mu=1, T=0.5)


def test_manufactured_strong_form_residual():
    # u_t - u_xx must equal f at random space-time points
    prob = build_manufactured(4, 2, 2.0)
    rng = np.random.default_rng(33)
    x = rng.uniform(0.0, 1.0, 100)
    t = rng.uniform(0.0, 2.0, 100)
    u_t = -prob.nu * np.pi * np.sin(prob.nu * np.pi * t) * np.sin(prob.mu * np.pi * x)
    u_xx = -(prob.mu * np.pi) ** 2 * np.cos(prob.nu * np.pi * t) * np.sin(prob.mu * np.pi * x)
    assert np.max(np.abs((u_t - u_xx) - prob.f(x, t))) < 1e-12


def test_manufactured_initial_and_boundary():
    prob = build_manufactured(4, 2, 2.0)
    x = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(prob.u(x, 0.0) - prob.u0(x))) < 1e-14
    for t in (0.0, 0.7, 2.0):
        assert abs(prob.u(0.0, t)) < 1e-12
        assert abs(prob.u(1.0, t)) < 1e-12


def test_qoi_weight_peak_value():
    prob = build_manufactured(4, 1, 2.0)
    assert prob.psi(np.array([0.4]))[0] == pytest.approx(16.0, abs=1e-12)
    assert prob.psi(np.array([0.1]))[0] == 0.0
    assert prob.psi(np.array([0.7]))[0] == 0.0


def test_true_qoi_values():
    # cos(nu pi T) factor: zero when nu = 0.25, T = 2; one when nu = 4, T = 2
    assert abs(build_manufactured(0.25, 1, 2.0).true_qoi()) < 1e-13
    prob = build_manufactured(4, 1, 2.0)
    oracle, _ = quad(lambda x: 1e4 * (x - 0.2) ** 2 * (x - 0.6) ** 2
                     * math.sin(math.pi * x), 0.2, 0.6,
                     epsabs=1e-13, epsrel=1e-13)
    assert prob.true_qoi() == pytest.approx(oracle, abs=1e-12)


def test_build_manufactured_rejects_degenerate():
    with pytest.raises(ValueError):
        build_manufactured(0, 1, 2.0)
    with pytest.raises(ValueError):
        build_manufactured(4, 0, 2.0)


def test_config_validation_errors():
    with pytest.raises(ValueError):
        ExperimentConfig(Nhat_t=10, P_t=3).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(qhat_s=3, q_s=2).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(integrator="rk4").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(schwarz=True, integrator="cg").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(K_t=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(schwarz=True, Nhat_s=20, P_s=3).validate()
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping({"Nhat_T": 10})  # misspelled key


BAD_CONFIGS = [
    (dict(P_t=0), "P_t"),
    (dict(Nhat_t=0), "Nhat_t"),
    (dict(Nhat_s=0), "Nhat_s"),
    (dict(qhat_s=0), "qhat_s"),
    (dict(schwarz=True, K_s=0), "K_s"),
    (dict(integrator="cg", q_t=0), "q_t"),
    (dict(integrator="cg", qhat_t=0), "qhat_t"),
    (dict(adjoint_time_degree=0), "adjoint_time_degree"),
    (dict(adjoint_space_degree=0), "adjoint_space_degree"),
    (dict(T=-1.0), "T"),
    (dict(T=float("nan")), "T"),
    (dict(tau=float("nan")), "tau"),
    (dict(schwarz=True, tau=0.0), "tau"),
    (dict(schwarz=True, tau=-0.4), "tau"),
    (dict(schwarz=True, tau=2.0), "tau"),
    (dict(nu=float("inf")), "nu"),
    (dict(qoi_lo=0.6, qoi_hi=0.2), "qoi_lo"),
]


@pytest.mark.parametrize(
    "overrides, name", BAD_CONFIGS,
    ids=[",".join(f"{k}={v}" for k, v in o.items()) for o, _ in BAD_CONFIGS])
def test_config_rejects_bad_values_by_name(overrides, name):
    with pytest.raises(ValueError, match=name):
        ExperimentConfig(**overrides).validate()
    # every registry row still validates (from_mapping validates)
    for entry in TABLE_REGISTRY.values():
        for v in entry["values"]:
            ExperimentConfig.from_mapping(
                dict(entry["base"], **{entry["param"]: v}))


def test_stpa_run_builds_one_sweeper_per_space(monkeypatch):
    # the fine solves of every Parareal iteration share one cached sweeper,
    # the spatial adjoints reuse the factorizations of a second one, and
    # every step's split shares one spatial adjoint solver
    built, spatial_built = [], []
    init = AdditiveSchwarz.__init__
    spatial_init = SpatialAdjointSolver.__init__

    def counting_init(self, space, B_dense, decomp):
        built.append(space.degree)
        init(self, space, B_dense, decomp)

    def counting_spatial_init(self, space, *args, **kwargs):
        spatial_built.append(space.degree)
        spatial_init(self, space, *args, **kwargs)

    monkeypatch.setattr(AdditiveSchwarz, "__init__", counting_init)
    monkeypatch.setattr(SpatialAdjointSolver, "__init__",
                        counting_spatial_init)
    cfg = ExperimentConfig(Nhat_t=4, r=2, P_t=2, K_t=2, Nhat_s=8, qhat_s=1,
                           q_s=2, schwarz=True, P_s=2, K_s=2, beta=0.25,
                           nu=2, mu=2, T=0.5)
    run_experiment(cfg)
    assert sorted(built) == [cfg.q_s, cfg.adjoint_space_degree]
    assert spatial_built == [cfg.adjoint_space_degree]


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"Nhat_t": 8, "P_t": 4, "nu": 2,
                                "schwarz": False}))
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg.Nhat_t == 8 and cfg.P_t == 4 and cfg.nu == 2.0
    assert isinstance(cfg.Nhat_t, int) and isinstance(cfg.nu, float)


def test_config_from_keyvalue_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# small run\n"
        "Nhat_t = 4\n"
        "P_t = 2\n"
        "nu = 2  # frequency\n"
        "schwarz = true\n"
        "P_s = 2\n"
        "Nhat_s = 20\n"
    )
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg.Nhat_t == 4 and cfg.nu == 2.0 and cfg.schwarz is True
    path2 = tmp_path / "bad.txt"
    path2.write_text("this is not a config\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(str(path2))


def test_run_record_contents():
    rec = run_experiment(ExperimentConfig(**SMALL))
    assert rec.mode == "TPA"
    assert set(rec.components) == {"D", "K", "C", "A"}
    assert rec.column_names() == ("est_err", "gamma", "D", "K", "C", "A")
    assert len(rec.row()) == 6
    assert rec.wall_time > 0.0
    assert rec.config["Nhat_t"] == 4
    assert math.isfinite(rec.estimated_error)
    assert rec.true_error == pytest.approx(rec.true_qoi - rec.computed_qoi,
                                           abs=1e-15)


def test_rerun_is_bitwise_deterministic():
    a = run_experiment(ExperimentConfig(**SMALL))
    b = run_experiment(ExperimentConfig(**SMALL))
    assert a.estimated_error == b.estimated_error
    assert a.true_error == b.true_error
    for k in a.components:
        assert a.components[k] == b.components[k]


def test_emit_report_csv_shapes(tmp_path):
    rec = run_experiment(ExperimentConfig(**SMALL))
    text = emit_report([rec])
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == "est_err,gamma,D,K,C,A"
    sweep = run_sweep(ExperimentConfig(**SMALL), "K_t", [1, 2, 3])
    text3 = emit_report(sweep, sweep_param="K_t", sweep_values=[1, 2, 3])
    lines3 = text3.strip().split("\n")
    assert len(lines3) == 4
    assert lines3[0].startswith("K_t,est_err,gamma")
    assert lines3[1].split(",")[0] == "1"
    out = tmp_path / "report.csv"
    emit_report([rec], path=str(out))
    assert out.read_text() == text


def test_emit_report_json_roundtrip():
    rec = run_experiment(ExperimentConfig(**SMALL))
    payload = json.loads(emit_report([rec], fmt="json"))
    assert len(payload) == 1
    assert payload[0]["mode"] == "TPA"
    assert payload[0]["config"]["Nhat_t"] == 4
    assert payload[0]["estimated_error"] == rec.estimated_error


def test_emit_report_errors(tmp_path):
    with pytest.raises(ValueError):
        emit_report([])
    rec = run_experiment(ExperimentConfig(**SMALL))
    with pytest.raises(ValueError):
        emit_report([rec], fmt="xml")
    with pytest.raises(OSError):
        emit_report([rec], path=str(tmp_path / "no" / "such" / "dir" / "x.csv"))


def test_run_sweep_overrides_in_order():
    recs = run_sweep(ExperimentConfig(**SMALL), "K_t", [1, 2])
    assert [r.config["K_t"] for r in recs] == [1, 2]
    # the iteration error shrinks with more Parareal iterations
    assert abs(recs[1].components["K"]) < abs(recs[0].components["K"])


def test_reproduce_table_rejects_unknown():
    with pytest.raises(KeyError) as err:
        reproduce_table("no_such_table")
    assert "par_iterations" in str(err.value)
    assert set(TABLE_REGISTRY) >= {"par_iterations", "pardd_iterations",
                                   "cg_iterations"}


def test_cli_run_and_sweep(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in SMALL.items()))
    out = tmp_path / "out.csv"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().startswith("est_err,gamma")
    assert cli_main(["sweep", "--config", str(cfg), "--param", "K_t",
                     "--values", "1,2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3 and lines[0].startswith("K_t,")


def test_cli_json_format(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL))
    assert cli_main(["run", "--config", str(cfg), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["mode"] == "TPA"


def test_cli_error_paths(tmp_path, capsys):
    assert cli_main(["reproduce", "--table", "bogus"]) == 2
    assert "known tables" in capsys.readouterr().err
    missing = tmp_path / "missing.txt"
    assert cli_main(["run", "--config", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("Nhat_t = 10\nP_t = 3\n")
    assert cli_main(["run", "--config", str(bad)]) == 1
    assert "divisible" in capsys.readouterr().err
