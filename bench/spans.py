"""Spans recorded around calls into parapost's public functions.

A hook replaces one module or class attribute of the package with a wrapper
that records a span (name, start, end, parent span, run id) around every
call, and puts the original back when the tracer is closed.  Nothing in the
package knows about it.  Spans are kept in memory and written out when the
run ends; self time (a span's duration minus the part its child spans cover)
is computed from them afterwards.
"""

import inspect
import json
import time

NAME, START, END, PARENT, RUN, WORK = range(6)


def _arg(index, name):
    """Read one argument of a hooked call, by position or keyword."""
    def get(args, kwargs):
        return kwargs[name] if name in kwargs else args[index]
    return get


# (module, attribute path, span name, work counter).  The work counter maps
# a call's arguments to a count of the work it asks for.
HOOKS = (
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "vpar", "parareal.vpar", None),
    ("harness", "solve_coarse_adjoint", "adjoint.coarse", None),
    ("harness", "solve_fine_adjoints", "adjoint.fine", None),
    ("harness", "solve_auxiliary_adjoints", "adjoint.aux", None),
    ("harness", "tpa_breakdown", "estimator.breakdown", None),
    ("harness", "stpa_breakdown", "estimator.breakdown", None),
    ("adjoint", "solve_backward_cg", "adjoint.backward_cg",
     lambda a, k: len(_arg(2, "times")(a, k)) - 1),
    ("adjoint", "SpatialAdjointSolver.__init__", "adjoint.spatial.build", None),
    ("adjoint", "SpatialAdjointSolver.solve_global",
     "adjoint.spatial.solve_global", None),
    ("adjoint", "SpatialAdjointSolver.solve_subdomain",
     "adjoint.spatial.solve_subdomain", None),
    ("schwarz", "AdditiveSchwarz.__init__", "schwarz.build", None),
    ("schwarz", "AdditiveSchwarz.solve", "schwarz.solve", _arg(3, "K_s")),
    ("estimator", "ResidualEvaluator.residual_be", "estimator.residual", None),
    ("estimator", "ResidualEvaluator.residual_cg", "estimator.residual", None),
    ("estimator", "ResidualEvaluator.load", "estimator.load", None),
    ("estimator", "dd_split", "estimator.dd_split", None),
    ("timestepping", "assemble_load", "mesh.assemble_load", None),
    ("schwarz", "assemble_load", "mesh.assemble_load", None),
    ("estimator", "assemble_load", "mesh.assemble_load", None),
    ("mesh", "assemble_load", "mesh.assemble_load", None),
    ("mesh", "assemble_matrix", "mesh.assemble_matrix", None),
    ("timestepping", "assemble_matrix", "mesh.assemble_matrix", None),
)

# Span-name prefix -> the layer an enclosed assemble_load call is billed to.
LOAD_CONTEXT = (("timestepping.", "forward"), ("adjoint.", "adjoint"),
                ("estimator.", "estimator"))


class Tracer:
    """Installs the hooks on a package, records spans, restores on close."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.run_id = None
        self.missing = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, work=None):
        """fn wrapped so that every call records a span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1,
                   self.run_id, work(args, kwargs) if work else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_vpar(self, fn):
        """vpar, plus spans around the coarse and fine solvers it receives."""
        sig = inspect.signature(fn)
        fine_steps = lambda a, k: len(_arg(0, "grid")(a, k)) - 1

        def vpar(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["fine_solver"] = self.wrap(
                "timestepping.fine", bound.arguments["fine_solver"], fine_steps)
            bound.arguments["coarse_solver"] = self.wrap(
                "timestepping.coarse", bound.arguments["coarse_solver"])
            return fn(*bound.args, **bound.kwargs)

        if not {"fine_solver", "coarse_solver"} <= set(sig.parameters):
            self.missing.append("timestepping.fine/coarse (vpar arguments)")
            return self.wrap("parareal.vpar", fn)
        return self.wrap("parareal.vpar", vpar)

    def install(self):
        for module_name, path, span_name, work in HOOKS:
            owner = getattr(self.package, module_name, None)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attr]
            if span_name == "parareal.vpar":
                hooked = self._wrap_vpar(original)
            else:
                hooked = self.wrap(span_name, original, work)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, hooked)
        return self

    def close(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.close()

    def write(self, path):
        """One JSON object per span, in start order; parent is an index."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "run": s[RUN], "work": s[WORK],
                }) + "\n")


def layer_metrics(spans, root):
    """Per-layer metrics from the spans of one traced pass.

    root is the index of the span that encloses the whole pass.  `.s` is self
    time; `.wall_s`, `parareal.vpar.s` and `timestepping.fine.max_s` are wall
    time of the calls themselves.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    context = [None] * n
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent >= 0:
            child[parent] += dur[i]
        context[i] = next((layer for prefix, layer in LOAD_CONTEXT
                           if s[NAME].startswith(prefix)),
                          context[parent] if parent >= 0 else None)
    self_t = [dur[i] - child[i] for i in range(n)]

    calls, self_s, wall_s, work, max_s = {}, {}, {}, {}, {}

    def add(key, i):
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + self_t[i]
        wall_s[key] = wall_s.get(key, 0.0) + dur[i]
        work[key] = work.get(key, 0) + (spans[i][WORK] or 0)
        max_s[key] = max(max_s.get(key, 0.0), dur[i])

    load_misses = 0
    for i, s in enumerate(spans):
        if i == root:
            continue
        add(s[NAME], i)
        if s[NAME] == "mesh.assemble_load":
            add(f"mesh.assemble_load.{context[i]}", i)
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "estimator.load":
                load_misses += 1

    c = lambda k: calls.get(k, 0)
    st = lambda k: self_s.get(k, 0.0)
    wt = lambda k: wall_s.get(k, 0.0)
    out = {
        "harness.run_experiment.self_s": st("harness.run_experiment"),
        "parareal.vpar.s": wt("parareal.vpar"),
        "parareal.vpar.self_s": st("parareal.vpar"),
        "parareal.fine_concurrency": (wt("timestepping.fine") / wt("parareal.vpar")
                                      if wt("parareal.vpar") else 0.0),
        "timestepping.coarse.calls": c("timestepping.coarse"),
        "timestepping.coarse.s": st("timestepping.coarse"),
        "timestepping.fine.calls": c("timestepping.fine"),
        "timestepping.fine.s": st("timestepping.fine"),
        "timestepping.fine.max_s": max_s.get("timestepping.fine", 0.0),
        "timestepping.fine.steps": work.get("timestepping.fine", 0),
        "schwarz.build.calls": c("schwarz.build"),
        "schwarz.build.s": st("schwarz.build"),
        "schwarz.solve.calls": c("schwarz.solve"),
        "schwarz.solve.s": st("schwarz.solve"),
        "schwarz.sweeps": work.get("schwarz.solve", 0),
    }
    for family in ("coarse", "fine", "aux"):
        out[f"adjoint.{family}.s"] = st(f"adjoint.{family}")
        out[f"adjoint.{family}.wall_s"] = wt(f"adjoint.{family}")
    out.update({
        "adjoint.backward_cg.calls": c("adjoint.backward_cg"),
        "adjoint.backward_cg.s": st("adjoint.backward_cg"),
        "adjoint.backward_cg.slabs": work.get("adjoint.backward_cg", 0),
        "adjoint.spatial.build_s": st("adjoint.spatial.build"),
        "adjoint.spatial.solve_global.calls": c("adjoint.spatial.solve_global"),
        "adjoint.spatial.solve_global.s": st("adjoint.spatial.solve_global"),
        "adjoint.spatial.solve_subdomain.calls":
            c("adjoint.spatial.solve_subdomain"),
        "adjoint.spatial.solve_subdomain.s":
            st("adjoint.spatial.solve_subdomain"),
        "estimator.breakdown.s": st("estimator.breakdown"),
        "estimator.breakdown.wall_s": wt("estimator.breakdown"),
        "estimator.residual.calls": c("estimator.residual"),
        "estimator.residual.s": st("estimator.residual"),
        "estimator.dd_split.calls": c("estimator.dd_split"),
        "estimator.dd_split.s": st("estimator.dd_split"),
        "estimator.load.calls": c("estimator.load"),
        "estimator.load.hit_ratio": (1.0 - load_misses / c("estimator.load")
                                     if c("estimator.load") else 0.0),
        "mesh.assemble_load.calls": c("mesh.assemble_load"),
        "mesh.assemble_load.s": st("mesh.assemble_load"),
    })
    for layer in ("forward", "adjoint", "estimator"):
        out[f"mesh.assemble_load.{layer}.calls"] = c(f"mesh.assemble_load.{layer}")
        out[f"mesh.assemble_load.{layer}.s"] = st(f"mesh.assemble_load.{layer}")
    out["mesh.assemble_matrix.calls"] = c("mesh.assemble_matrix")
    out["mesh.assemble_matrix.s"] = st("mesh.assemble_matrix")
    out["trace.unattributed_s"] = self_t[root]
    out["trace.spans"] = n
    return out
