"""The module attributes the benchmark's tracer wraps, read from its source."""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from cloudlayers import flow, hmm, mixtures, pipeline, selection
from cloudlayers.imaging import SegmentationMask
from cloudlayers.synth import LayerSpec, SynthSpec, generate

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
    data = mixtures._component_data({"x": x}, spec)
    result = mixtures._run_em(data, spec, mixtures._initial_gamma(data, 2))
    assert isinstance(result, tuple)
    assert isinstance(result[5], bool)
    assert len(result[-1]) == len(result[4])


def test_tracer_reads_every_hook_of_a_detection_run():
    # The tracer reads the results of mixtures.fit and _run_em by shape; a
    # result it cannot read is reported as broken, not raised.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    cl = SimpleNamespace(pipeline=pipeline, flow=flow, mixtures=mixtures,
                         selection=selection, hmm=hmm)
    seq, _ = generate(SynthSpec(shape=(30, 40), frames=3, seed=2, layers=(
        LayerSpec(base_temp=285.0, velocity=(1.0, 0.0)),
        LayerSpec(base_temp=265.0, velocity=(-1.0, 1.0)))))
    tracer = spans.Tracer()
    with tracer.installed(cl):
        pipeline.process_sequence([(f, m) for f, m, _ in seq],
                                  pipeline.PipelineConfig())
    assert tracer.missing == [] and tracer.broken == {}
    restarts = [note for i, note in tracer.notes.items()
                if tracer.spans[i][0] == "mixtures.restart"]
    assert restarts and all(isinstance(n, bool) for n in restarts)


def test_process_sequence_calls_process_frame_once_per_transition(
        monkeypatch):
    # end_to_end times frames by replacing pipeline.process_frame; a
    # process_sequence that bypassed the attribute would time no frame.
    seq, _ = generate(SynthSpec(frames=4, seed=7, layers=(
        LayerSpec(base_temp=278.0, velocity=(1, 0)),)))
    pairs = [(f, m) for f, m, _ in seq]
    small = np.zeros(pairs[1][1].values.shape, dtype=bool)
    small[:2, :2] = True
    pairs[1] = (pairs[1][0], SegmentationMask(small))  # transition 1 fails
    entry, returned = pipeline.process_frame, []

    def counted(*args, **kwargs):
        returned.append(entry(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(pipeline, "process_frame", counted)
    records = pipeline.process_sequence(pairs, pipeline.PipelineConfig())
    assert len(returned) == len(pairs) - 1 == 3
    assert all(r is s for r, s in zip(records, returned))
    assert [bool(r.flags.get("frame_failed")) for r in records] == [
        False, True, False]
