"""The CI drift gate, .github/registry_drift.py compare, and its cost
report on tiny fixtures, and the sweeps its run adds to the registry tables.

Each side is a directory of T.json files as `parapost reproduce --format
json` writes them.  The gate fails on a value over 1e-12 relative or on a
row of the old side missing from the new one, and its summary line counts
the values that moved at all.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from parapost.harness import ExperimentConfig, sweep_configs
from parapost.timestepping import TimePartition


def _drift():
    path = Path(__file__).resolve().parents[1] / ".github" / "registry_drift.py"
    spec = importlib.util.spec_from_file_location("registry_drift", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(value, D):
    return {"sweep_param": "r", "sweep_value": value,
            "components": {"D": D, "K": -0.25, "C": 1e-3, "A": -2e-4},
            "estimated_error": 0.2508, "effectivity": 1.001,
            "computed_qoi": 0.75}


def _write(directory, records):
    directory.mkdir()
    (directory / "t.json").write_text(json.dumps(records))
    return directory


@pytest.mark.parametrize("case, status, n_rows, moved", [
    pytest.param("identical", 0, 1, 0, id="identical"),
    pytest.param("move 1e-15", 0, 1, 1, id="move-1e-15"),
    pytest.param("move 1e-9", 1, 1, 1, id="move-1e-9"),
    pytest.param("missing row", 1, 2, 0, id="missing-row"),
])
def test_compare_counts_moved_values_and_fails_as_before(
        tmp_path, capsys, case, status, n_rows, moved):
    D = 0.5
    old = [_record(2, D)] + ([_record(4, D)] if case == "missing row" else [])
    new_D = {"move 1e-15": D * (1 + 1e-15), "move 1e-9": D * (1 + 1e-9)}
    new = [_record(2, new_D.get(case, D))]
    got = _drift().compare(_write(tmp_path / "old", old),
                           _write(tmp_path / "new", new))
    assert got == status
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith(f"{n_rows} rows, 7 values compared, {moved} "
                              f"moved, largest relative difference ")
    assert summary.endswith(f", {status} missing on the new side or over "
                            f"1e-12")


@pytest.mark.parametrize("name", sorted(_drift().STRADDLE_SWEEPS))
def test_each_straddle_sweep_validates_and_straddles_a_per_step_key(name):
    # the drift rows off the registry exist to see which steps share a
    # cached solver: each config must run, and its coarse and fine grids
    # must each hold steps on both sides of a 15-digit FormCache.per_step key
    base, param, values = _drift().STRADDLE_SWEEPS[name]
    for config in sweep_configs(ExperimentConfig.from_mapping(base), param,
                                values.split(",")):
        part = TimePartition.uniform(config.T, config.P_t, config.Nhat_t,
                                     config.r)
        for grids in (part.coarse_grids, part.fine_grids):
            keys = {round(float(dt), 15) for dt in np.diff(grids).ravel()}
            assert len(keys) == 2, keys


def test_the_chain_sweep_has_a_chained_row_off_row_0s_per_step_key():
    # a chained coarse row looks up the solver of its own first step; the
    # last row's solution feeds no component, so only a non-last row whose
    # first step keys another FormCache.per_step solver than row 0's lets
    # the drift gate see that rule
    base, param, values = _drift().STRADDLE_SWEEPS["straddle_chain"]
    for config in sweep_configs(ExperimentConfig.from_mapping(base), param,
                                values.split(",")):
        grids = TimePartition.uniform(config.T, config.P_t, config.Nhat_t,
                                      config.r).coarse_grids
        keys = [round(float(g[1] - g[0]), 15) for g in grids]
        assert any(key != keys[0] for key in keys[1:-1]), keys


def test_cost_reports_each_sides_estimate_per_solve_and_never_fails(
        tmp_path, capsys):
    # (0.5 + 1.0 + 0.5 + 1.0) / 2.0 per row; a side whose rows carry no
    # stages reads "-", and the report exits 0 either way
    stages = {"forward": 2.0, "coarse_adjoint": 0.5, "fine_adjoints": 1.0,
              "aux_adjoints": 0.5, "breakdown": 1.0}
    old = _write(tmp_path / "old", [dict(_record(v, 0.5), stages=stages)
                                    for v in (2, 4)])
    new = _write(tmp_path / "new", [_record(2, 0.5)])
    assert _drift().cost(old, new) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "| t | 1.50 | - |"
