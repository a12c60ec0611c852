"""The benchmark's per-layer hooks, bench/spans.py, against the package.

The tracer replaces package attributes by name, and its work counters read
some call arguments by position.  A renamed attribute or a reordered
signature does not fail the benchmark: the layer just reads zero.  These
tests pin what the hooks find today and the argument positions they read,
so that such a change fails here and is seen.  They read bench/ and change
nothing there.
"""

import importlib.util
import inspect
from pathlib import Path

import parapost
from parapost.adjoint import solve_backward_cg
from parapost.harness import ExperimentConfig
from parapost.schwarz import AdditiveSchwarz

# the hooks whose attribute is gone; each of their layers reads zero, but
# estimator.breakdown, which the harness.stpa_breakdown hook fills alone
MISSING_TODAY = [
    "harness.tpa_breakdown",
    "adjoint.SpatialAdjointSolver.__init__",
    "adjoint.SpatialAdjointSolver.solve_global",
    "adjoint.SpatialAdjointSolver.solve_subdomain",
    "estimator.ResidualEvaluator.residual_be",
    "estimator.ResidualEvaluator.residual_cg",
    "estimator.ResidualEvaluator.load",
    "timestepping.assemble_load",
    "schwarz.assemble_load",
    "timestepping.assemble_matrix",
]


def _spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooks_find_todays_attributes_and_put_them_back():
    solve = AdditiveSchwarz.solve
    tracer = _spans().Tracer(parapost).install()
    try:
        assert tracer.missing == MISSING_TODAY
        assert AdditiveSchwarz.solve is not solve
    finally:
        tracer.close()
    assert AdditiveSchwarz.solve is solve


def test_work_counters_read_the_arguments_they_name():
    # bench/spans.py counts schwarz.sweeps from the 4th positional argument
    # of AdditiveSchwarz.solve (self included) and adjoint.backward_cg.slabs
    # from the 3rd of solve_backward_cg
    assert list(inspect.signature(AdditiveSchwarz.solve).parameters)[3] == "K_s"
    assert list(inspect.signature(solve_backward_cg).parameters)[2] == "times"


def test_a_traced_stpa_run_fills_the_schwarz_and_split_layers():
    spans = _spans()
    cfg = ExperimentConfig(Nhat_t=4, r=2, P_t=2, K_t=2, Nhat_s=8, qhat_s=1,
                           q_s=2, nu=2, mu=2, T=0.5, schwarz=True, P_s=2,
                           K_s=3, beta=0.25)
    with spans.Tracer(parapost) as tracer:
        parapost.harness.run_experiment(cfg)
    layers = spans.layer_metrics(tracer.spans, 0)
    assert layers["schwarz.solve.calls"] > 0
    assert layers["schwarz.sweeps"] == cfg.K_s * layers["schwarz.solve.calls"]
    assert layers["estimator.dd_split.calls"] == 1
    assert layers["estimator.breakdown.wall_s"] > 0
    assert layers["adjoint.backward_cg.slabs"] > 0
    # every adjoint family enters the slab driver through solve_backward_cg:
    # one call each for the coarse, fine and auxiliary adjoints
    assert layers["adjoint.backward_cg.calls"] == 3
