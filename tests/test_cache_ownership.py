"""One FormCache per experiment: no function of the package defaults its
cache or builds a private one, so every solve, embedding and residual of an
experiment shares the factorizations and assembled forms of the cache that
run_experiment (or a selftest check) built and passed down."""

import ast
from pathlib import Path

import parapost

SRC = Path(parapost.__file__).parent
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk(node, scope):
    """(qualified name of the enclosing function or class, node) for every
    node below node."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        if isinstance(child, SCOPES):
            yield from _walk(child, ".".join(filter(None, (scope, child.name))))
        else:
            yield from _walk(child, scope)


def _nodes():
    """(module, enclosing scope, node) over every module of the package."""
    for path in sorted(SRC.glob("*.py")):
        for scope, node in _walk(ast.parse(path.read_text()), ""):
            yield path.stem, scope, node


def _defaulted(fn):
    """Names of the parameters of fn that have a default."""
    a = fn.args
    pos = a.posonlyargs + a.args
    named = pos[len(pos) - len(a.defaults):]
    named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return {arg.arg for arg in named}


def test_no_cache_parameter_has_a_default():
    defaulted = [(module, scope, node.lineno)
                 for module, scope, node in _nodes()
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda))
                 and "cache" in _defaulted(node)]
    assert defaulted == []


def test_only_an_experiment_builds_a_form_cache():
    builders = {(module, scope) for module, scope, node in _nodes()
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "FormCache"}
    assert ("harness", "run_experiment") in builders
    others = {(module, scope) for module, scope in builders
              if (module, scope) != ("harness", "run_experiment")
              and not (module == "selftest" and scope.startswith("_check_"))}
    assert others == set()
