"""The module attributes the benchmark's tracer wraps, read from its source."""

import ast
import importlib
from pathlib import Path

import numpy as np

from cloudlayers import mixtures

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _hooks():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "HOOKS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no HOOKS in {SPANS}")


def test_every_hook_exists():
    hooks = _hooks()
    assert hooks
    for module, attr, _ in hooks:
        mod = importlib.import_module(f"cloudlayers.{module}")
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"


def test_run_em_result_keeps_converged_at_index_five():
    # The tracer's restart note reads result[5] as the converged flag; the
    # objective trace comes last.
    assert ("mixtures", "_run_em") in {(m, a) for m, a, _ in _hooks()}
    x = np.random.default_rng(36).gamma(2, 1, 100) + 1e-6
    spec = mixtures.MixtureSpec(n_clusters=2, components=(("x", "gamma"),),
                                dirichlet_alpha=(1.0, 1.0))
    n, data = mixtures._component_data({"x": x}, spec)
    gamma = mixtures._initial_gamma(n, 2, "split", x, None)
    result = mixtures._run_em(n, data, spec, gamma)
    assert isinstance(result, tuple)
    assert isinstance(result[5], bool)
    assert len(result[-1]) == len(result[4])
