"""Manufactured problems, configs, experiment runs, reports and the CLI."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import parapost.mesh as mesh_module
import parapost.schwarz as schwarz_module
from parapost import cli, harness
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
    # the composite Gauss rule against quad, to 1e-12 of int psi, for
    # integer mu up to 40 (up to 40 panels) and supports across [0, 1]
    for nu, T, qoi_scale in [(4, 2.0, 1e4), (2, 0.5, 1.0), (0.75, 1.3, 250.0)]:
        for lo, hi in [(0.0, 1.0), (0.9, 1.0), (0.2, 0.6), (0.0, 0.1),
                       (0.33, 0.71), (0.05, 0.95)]:
            int_psi = qoi_scale * (hi - lo) ** 5 / 30
            for mu in [s * m for m in range(1, 41) for s in (1, -1)]:
                prob = build_manufactured(nu, mu, T, lo, hi, qoi_scale)
                val, _ = quad(lambda x: qoi_scale * (x - lo) ** 2
                              * (x - hi) ** 2 * math.sin(mu * math.pi * x),
                              lo, hi, epsabs=1e-13 * int_psi, epsrel=1e-13,
                              limit=200)
                oracle = math.cos(nu * math.pi * T) * val
                assert (abs(prob.true_qoi() - oracle) <= 1e-12 * int_psi
                        ), (nu, T, qoi_scale, lo, hi, mu)


def test_build_manufactured_rejects_degenerate():
    with pytest.raises(ValueError):
        build_manufactured(0, 1, 2.0)
    with pytest.raises(ValueError):
        build_manufactured(4, 0, 2.0)
    # sin(mu pi x) vanishes at x = 1 for an integer mu only, and the QoI
    # support must lie in the domain [0, 1]
    with pytest.raises(ValueError, match="mu"):
        build_manufactured(4, 1.5, 2.0)
    with pytest.raises(ValueError, match="qoi_lo"):
        build_manufactured(4, 1, 2.0, qoi_lo=-0.4, qoi_hi=0.2)
    with pytest.raises(ValueError, match="qoi_hi"):
        build_manufactured(4, 1, 2.0, qoi_lo=0.5, qoi_hi=1.5)


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
    # the residual's time rule must integrate the adjoint times the
    # trajectory: 9 = 2 N_QUAD_T - 1 is the cap, and cG(1) adds one degree
    (dict(integrator="cg", adjoint_time_degree=9), "adjoint_time_degree"),
    (dict(adjoint_time_degree=10), "adjoint_time_degree"),
    (dict(T=-1.0), "T"),
    (dict(T=float("nan")), "T"),
    (dict(tau=float("nan")), "tau"),
    (dict(schwarz=True, tau=0.0), "tau"),
    (dict(schwarz=True, tau=-0.4), "tau"),
    (dict(schwarz=True, tau=2.0), "tau"),
    (dict(nu=float("inf")), "nu"),
    # u = cos(nu pi t) sin(mu pi x) is constant in t or zero
    (dict(nu=0.0), "nu"),
    (dict(mu=0.0), "mu"),
    (dict(qoi_lo=0.6, qoi_hi=0.2), "qoi_lo"),
    # u = cos(nu pi t) sin(mu pi x) must vanish at x = 1
    (dict(mu=1.5), "mu"),
    (dict(mu=2.5), "mu"),
    # the QoI support must lie in the spatial domain [0, 1]
    (dict(qoi_lo=0.5, qoi_hi=1.5), "qoi_hi"),
    (dict(qoi_lo=-0.4, qoi_hi=0.2), "qoi_lo"),
    # values that the field's type cannot hold are rejected, not truncated
    (dict(r=2.5), "r"),
    (dict(K_t=1.9), "K_t"),
    (dict(Nhat_s="20.5"), "Nhat_s"),
    (dict(nu="fast"), "nu"),
    (dict(schwarz="maybe"), "schwarz"),
]


@pytest.mark.parametrize(
    "overrides, name", BAD_CONFIGS,
    ids=[",".join(f"{k}={v}" for k, v in o.items()) for o, _ in BAD_CONFIGS])
def test_config_rejects_bad_values_by_name(overrides, name):
    with pytest.raises(ValueError, match=name):
        ExperimentConfig(**overrides).validate()
    with pytest.raises(ValueError, match=name):
        ExperimentConfig.from_mapping(overrides)
    # every registry row still validates (from_mapping validates)
    for entry in TABLE_REGISTRY.values():
        for v in entry["values"]:
            ExperimentConfig.from_mapping(
                dict(entry["base"], **{entry["param"]: v}))


def test_stpa_run_builds_one_sweeper_per_space(monkeypatch):
    # the fine solves of every Parareal iteration share one cached sweeper,
    # every step's split takes its subdomain adjoints from a second one, and
    # that one builds its overlap-counted blocks once
    built, counted = [], []
    init = AdditiveSchwarz.__init__
    assemble = schwarz_module.assemble_matrix

    def counting_init(self, space, *args):
        built.append(space.degree)
        init(self, space, *args)

    def counting_assemble(row_space, col_space, kind, elements):
        counted.append((row_space.degree, kind))
        return assemble(row_space, col_space, kind, elements)

    monkeypatch.setattr(AdditiveSchwarz, "__init__", counting_init)
    monkeypatch.setattr(schwarz_module, "assemble_matrix", counting_assemble)
    cfg = ExperimentConfig(Nhat_t=4, r=2, P_t=2, K_t=2, Nhat_s=8, qhat_s=1,
                           q_s=2, schwarz=True, P_s=2, K_s=2, beta=0.25,
                           nu=2, mu=2, T=0.5)
    run_experiment(cfg)
    assert sorted(built) == [cfg.q_s, cfg.adjoint_space_degree]
    assert counted == [(cfg.adjoint_space_degree, kind)
                       for kind in ("mass", "stiffness")
                       for _ in range(cfg.P_s)]


@pytest.mark.parametrize("overrides", [
    dict(), dict(integrator="cg", q_t=2),
    dict(Nhat_s=8, schwarz=True, P_s=2, K_s=2, beta=0.25)])
def test_run_assembles_each_load_block_once(monkeypatch, overrides):
    # every (space, times) load block of one experiment, forward, residual
    # and dd_split alike, is assembled by one call for the whole run
    calls = []
    real = mesh_module.assemble_load

    def counting(space, t, f, **kwargs):
        t = np.asarray(t, dtype=float)
        calls.append((space, t.shape, t.tobytes()))
        return real(space, t, f, **kwargs)

    monkeypatch.setattr(mesh_module, "assemble_load", counting)
    run_experiment(ExperimentConfig(**dict(SMALL, K_t=2, **overrides)))
    assert len(calls) > 0
    assert len(set(calls)) == len(calls)


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
    text3 = emit_report(sweep, sweep_param="K_t")
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


@pytest.fixture
def runs(monkeypatch):
    """The configs of every run_experiment call, through the harness or the
    CLI, in call order; each call still runs."""
    configs = []

    def counting(config):
        configs.append(config)
        return run_experiment(config)

    monkeypatch.setattr(harness, "run_experiment", counting)
    monkeypatch.setattr(cli, "run_experiment", counting)
    return configs


def _config_file(tmp_path, **overrides):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{k} = {v}\n"
                           for k, v in dict(SMALL, **overrides).items()))
    return str(cfg)


def test_cli_sweep_over_modes_reports_only_as_json(tmp_path, capsys, runs):
    # the TPA and STPA rows have different columns: under one CSV header the
    # STPA row's D_s would be read as K; the modes follow from the configs,
    # so the CSV sweep is rejected before any experiment runs
    out = tmp_path / "out.csv"
    sweep = ["sweep", "--config", _config_file(tmp_path, beta=0.5),
             "--param", "schwarz", "--values", "0,1"]
    assert cli_main(sweep + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "TPA and STPA" in err
    assert "--format json" in err and not out.exists()
    assert runs == []
    assert cli_main(sweep + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [rec["mode"] for rec in payload] == ["TPA", "STPA"]
    assert [cfg.mode for cfg in runs] == ["TPA", "STPA"]


@pytest.mark.parametrize("param, values, message", [
    ("K_t", "1,2,banana", "K_t must be int"),
    ("P_t", "2,3", "not divisible"),
    ("nu", "4,0", "nu must be nonzero"),
], ids=["K_t=1,2,banana", "P_t=2,3", "nu=4,0"])
def test_cli_sweep_validates_every_value_before_running(tmp_path, capsys,
                                                        runs, param, values,
                                                        message):
    # a value that fails, at any position, stops the sweep before its first
    # experiment (SMALL has Nhat_t = 4, which P_t = 3 does not divide)
    assert cli_main(["sweep", "--config", _config_file(tmp_path),
                     "--param", param, "--values", values]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert runs == []


def test_run_sweep_validates_every_value_before_running(runs):
    with pytest.raises(ValueError, match="not divisible"):
        run_sweep(ExperimentConfig(**SMALL), "P_t", [1, 2, 3])
    with pytest.raises(ValueError, match="K_s must be >= 1"):
        run_sweep(ExperimentConfig(**SMALL, schwarz=True, beta=0.5), "K_s",
                  [1, 0])
    assert runs == []


def test_sweep_values_converted_by_field_type(tmp_path, capsys):
    off = run_sweep(ExperimentConfig(**SMALL), "schwarz", ["false"])
    assert off[0].config["schwarz"] is False and off[0].mode == "TPA"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in SMALL.items()))
    assert cli_main(["sweep", "--config", str(cfg), "--param", "K_t",
                     "--values", "1, 2.0"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2"]


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
    # an unknown table is a usage error: argparse lists the known ones
    with pytest.raises(SystemExit) as exc:
        cli_main(["reproduce", "--table", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and all(name in err for name in TABLE_REGISTRY)
    missing = tmp_path / "missing.txt"
    assert cli_main(["run", "--config", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("Nhat_t = 10\nP_t = 3\n")
    assert cli_main(["run", "--config", str(bad)]) == 1
    assert "divisible" in capsys.readouterr().err


@pytest.mark.parametrize("text, kind", [("5", "int"), ("null", "NoneType"),
                                        ('[{"r": 2}]', "list")])
def test_cli_rejects_json_config_that_is_not_an_object(tmp_path, capsys,
                                                        text, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli_main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and kind in err


def test_cli_selftest_passes_every_check(capsys):
    assert cli_main(["selftest"]) == 0
    assert "4/4 checks passed" in capsys.readouterr().out


def test_no_package_module_has_an_assert_statement():
    # python -O strips assert statements, so a check written as one passes
    # whatever it finds
    src = Path(harness.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _fresh_python(script, *flags):
    """The last line a fresh interpreter, given flags, prints running
    script, with this parapost first on its path."""
    done = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(
                              Path(harness.__file__).parents[1])))
    return done.stdout.splitlines()[-1]


def test_selftest_fails_its_checks_under_optimization():
    # under python -O, an effectivity of NaN fails both effectivity checks
    script = (
        "import types\n"
        "from parapost import selftest\n"
        "selftest.run_experiment = lambda cfg: types.SimpleNamespace("
        "effectivity=float('nan'))\n"
        "print([name for name, _ in selftest.run_selftest()])\n")
    assert (_fresh_python(script, "-O")
            == "['tpa-effectivity', 'stpa-effectivity']")


def test_import_loads_only_scipys_lapack_extension():
    # a fresh `import parapost` (and its CLI) loads numpy and, of scipy,
    # the Fortran LAPACK extension alone: the scipy.linalg package init,
    # through scipy._lib, took about two thirds of the benchmark's set-up
    # time, and scipy.integrate before it over 40 %
    assert _fresh_python(
        "import sys, parapost, parapost.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    ) == "['scipy.linalg._flapack']"


def test_run_experiment_imports_nothing_after_set_up():
    # every module a run needs is imported with parapost, so a fresh
    # process's first run pays no import: one cG row and one Schwarz row
    assert _fresh_python(
        "import sys, parapost\n"
        "from parapost.harness import TABLE_REGISTRY, ExperimentConfig\n"
        "configs = [ExperimentConfig.from_mapping(dict(\n"
        "    TABLE_REGISTRY[name]['base'], **{TABLE_REGISTRY[name]['param']:\n"
        "    TABLE_REGISTRY[name]['values'][0]}))\n"
        "    for name in ('cg_iterations', 'pardd_fine_time')]\n"
        "before = set(sys.modules)\n"
        "for config in configs:\n"
        "    parapost.run_experiment(config)\n"
        "print(sorted(set(sys.modules) - before))\n") == "[]"


def test_cli_rejects_bad_format_before_running(tmp_path, capsys, runs):
    # the report format is a flag, not a config field
    assert cli_main(["run", "--config",
                     _config_file(tmp_path, format="xml")]) == 1
    assert "unknown config keys: ['format']" in capsys.readouterr().err
    assert runs == []


def test_cli_sweep_rejects_unknown_param_before_running(tmp_path, capsys,
                                                        monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("run_experiment called for an unknown field")

    monkeypatch.setattr(harness, "run_experiment", must_not_run)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in SMALL.items()))
    assert cli_main(["sweep", "--config", str(cfg), "--param", "foo",
                     "--values", "1,2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'foo'" in err
