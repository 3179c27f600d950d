"""CLI subcommands: exit codes, outputs and determinism."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudlayers.cli import _pipeline_config, build_parser, main
from cloudlayers.imaging import Frame, SegmentationMask, write_sequence
from cloudlayers.pipeline import MODEL_ZOO, PipelineConfig
from cloudlayers.synth import LayerSpec, SynthSpec, generate


def _synth(tmp_path, name="seq", layers=1, frames=3, seed=0, extra=()):
    out = tmp_path / name
    rc = main(["synth", "--out", str(out), "--layers", str(layers),
               "--frames", str(frames), "--seed", str(seed), *extra])
    assert rc == 0
    return out


def test_synth_writes_manifest_and_truth(tmp_path):
    out = _synth(tmp_path)
    assert (out / "manifest.json").exists()
    truth = json.loads((out / "truth.json").read_text())
    assert len(truth["frames"]) == 3


def test_synth_rejects_bad_layer_count(tmp_path):
    rc = main(["synth", "--out", str(tmp_path / "x"), "--layers", "3"])
    assert rc == 1


def test_detect_scores_high_on_one_layer(tmp_path, capsys):
    out = _synth(tmp_path, frames=3)
    det = tmp_path / "det.jsonl"
    rc = main(["detect", "--manifest", str(out / "manifest.json"),
               "--out", str(det)])
    assert rc == 0
    lines = det.read_text().splitlines()
    assert len(lines) == 2  # transitions for a 3-frame sequence
    assert "processed 2 frames" in capsys.readouterr().err

    rc = main(["score", "--detections", str(det),
               "--truth", str(out / "truth.json")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"accuracy": 100.0, "frames": 2}


def test_detect_missing_manifest_is_input_error(tmp_path, capsys):
    rc = main(["detect", "--manifest", str(tmp_path / "none.json"),
               "--out", str(tmp_path / "o.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_detect_unknown_model_lists_valid_ids(tmp_path, capsys):
    out = _synth(tmp_path)
    rc = main(["detect", "--manifest", str(out / "manifest.json"),
               "--out", str(tmp_path / "o.jsonl"), "--model", "nosuch"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "beta_T+vm_phi" in err and "gauss_T_uv" in err


def test_detect_is_byte_identical_across_runs(tmp_path):
    out = _synth(tmp_path)
    d1 = tmp_path / "a.jsonl"
    d2 = tmp_path / "b.jsonl"
    for dst in (d1, d2):
        assert main(["detect", "--manifest", str(out / "manifest.json"),
                     "--out", str(dst), "--seed", "11"]) == 0
    assert d1.read_bytes() == d2.read_bytes()


def test_bare_detect_flags_give_the_default_config():
    args = build_parser().parse_args(["detect", "--manifest", "m.json",
                                      "--out", "d.jsonl"])
    assert _pipeline_config(args) == PipelineConfig()


def test_score_accuracy_arithmetic(tmp_path, capsys):
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(
        {"frames": [{"t": t, "l": 1} for t in range(4)]}))
    det = tmp_path / "det.jsonl"
    det.write_text("\n".join(
        json.dumps({"t": t, "chosen_l": 1 if t < 3 else 2})
        for t in range(4)) + "\n")
    assert main(["score", "--detections", str(det),
                 "--truth", str(truth)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"accuracy": 75.0, "frames": 4}


def test_score_misaligned_records_is_input_error(tmp_path, capsys):
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"frames": [{"t": 0, "l": 1}]}))
    det = tmp_path / "det.jsonl"
    det.write_text(json.dumps({"t": 5, "chosen_l": 1}) + "\n")
    assert main(["score", "--detections", str(det),
                 "--truth", str(truth)]) == 1


def test_fit_dumps_mixture_json(tmp_path, capsys):
    out = _synth(tmp_path, layers=2)
    rc = main(["fit", "--manifest", str(out / "manifest.json"),
               "--t", "0", "--l", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_clusters"] == 2
    assert len(doc["weights"]) == 2


@pytest.mark.parametrize("l", [1, 2])
def test_fit_reproduces_the_detect_record_fit(tmp_path, capsys, l):
    out = _synth(tmp_path, layers=2, frames=3)
    det = tmp_path / "det.jsonl"
    assert main(["detect", "--manifest", str(out / "manifest.json"),
                 "--out", str(det), "--seed", "5"]) == 0
    record = json.loads(det.read_text().splitlines()[1])
    capsys.readouterr()
    assert main(["fit", "--manifest", str(out / "manifest.json"),
                 "--t", "1", "--l", str(l), "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert record["t"] == 1
    assert doc == record["fits"][f"L{l}"]["temperature"]


def test_fit_unknown_frame_is_input_error(tmp_path, capsys):
    out = _synth(tmp_path)
    rc = main(["fit", "--manifest", str(out / "manifest.json"), "--t", "99"])
    assert rc == 1


def test_synth_spec_file_override(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "shape": [48, 64], "frames": 2, "noise_sigma": 0.0, "seed": 1,
        "layers": [{"base_temp": 280.0, "velocity": [1, 0], "n_blobs": 4}],
    }))
    out = tmp_path / "seq"
    rc = main(["synth", "--out", str(out), "--layers", "1",
               "--spec", str(spec)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["height"] == 48 and len(manifest["frames"]) == 2


def _write(path, text):
    path.write_text(text)
    return str(path)


def _flat_manifest(tmp_path, frames=2, drop=None):
    """A manifest of constant 4 x 4 frames, optionally without one key."""
    path = write_sequence(tmp_path / "flat", [
        (Frame(np.full((4, 4), 280.0), index=t),
         SegmentationMask(np.ones((4, 4)))) for t in range(frames)])
    if drop:
        doc = json.loads(path.read_text())
        del doc[drop]
        path.write_text(json.dumps(doc))
    return str(path)


def _cloud_manifest(tmp_path):
    """The manifest of a two-frame 24 x 32 synthetic cloud sequence."""
    seq, _ = generate(SynthSpec(shape=(24, 32), frames=2, seed=3, layers=(
        LayerSpec(base_temp=280.0, velocity=(1, 0)),)))
    return str(write_sequence(tmp_path / "cloud",
                              [(f, m) for f, m, _ in seq]))


def _manifest_with_frames(tmp_path, frames):
    """A flat manifest whose "frames" value is replaced by ``frames``."""
    path = Path(_flat_manifest(tmp_path))
    doc = json.loads(path.read_text())
    doc["frames"] = frames
    path.write_text(json.dumps(doc))
    return str(path)


def _score_files(tmp_path, truth, detections):
    return ["score", "--truth", _write(tmp_path / "truth.json", truth),
            "--detections", _write(tmp_path / "det.jsonl", detections)]


INPUT_ERRORS = {
    "no-command": lambda d: [],
    "score-detections-directory": lambda d: [
        "score", "--detections", str(d), "--truth",
        _write(d / "truth.json", json.dumps({"frames": []}))],
    "score-truth-directory": lambda d: [
        "score", "--truth", str(d), "--detections",
        _write(d / "det.jsonl", json.dumps({"t": 0, "chosen_l": 1}) + "\n")],
    "detect-manifest-directory": lambda d: [
        "detect", "--manifest", str(d), "--out", str(d / "o.jsonl")],
    "fit-manifest-directory": lambda d: [
        "fit", "--manifest", str(d), "--t", "0"],
    "synth-out-existing-file": lambda d: [
        "synth", "--out", _write(d / "taken", "")],
    "detections-line-not-an-object": lambda d: _score_files(
        d, json.dumps({"frames": [{"t": 0, "l": 1}]}), "3\n"),
    "truth-frames-not-a-list": lambda d: _score_files(
        d, json.dumps({"frames": 5}),
        json.dumps({"t": 0, "chosen_l": 1}) + "\n"),
    "manifest-frames-not-a-list": lambda d: [
        "detect", "--manifest", _manifest_with_frames(d, 5),
        "--out", str(d / "o.jsonl")],
    "manifest-frame-not-an-object": lambda d: [
        "fit", "--manifest", _manifest_with_frames(d, [5]), "--t", "0"],
    "synth-one-frame": lambda d: ["synth", "--out", str(d / "s"),
                                  "--frames", "1"],
    "synth-zero-height": lambda d: ["synth", "--out", str(d / "s"),
                                    "--height", "0"],
    "synth-negative-seed": lambda d: ["synth", "--out", str(d / "s"),
                                      "--seed", "-1"],
    "synth-nan-noise": lambda d: ["synth", "--out", str(d / "s"),
                                  "--noise-sigma", "nan"],
    "synth-negative-noise": lambda d: ["synth", "--out", str(d / "s"),
                                       "--noise-sigma", "-1"],
    "synth-change-point-past-frames": lambda d: [
        "synth", "--out", str(d / "s"), "--frames", "3",
        "--change-point", "40"],
    "synth-negative-change-point": lambda d: [
        "synth", "--out", str(d / "s"), "--frames", "3",
        "--change-point", "-3"],
    "synth-layers-within-noise": lambda d: [
        "synth", "--out", str(d / "s"), "--layers", "2",
        "--noise-sigma", "9"],
    "spec-missing-file": lambda d: ["synth", "--out", str(d / "s"),
                                    "--spec", str(d / "none.json")],
    "spec-unknown-key": lambda d: [
        "synth", "--out", str(d / "s"), "--spec",
        _write(d / "spec.json", json.dumps(
            {"colour": 1, "layers": [{"base_temp": 280.0}]}))],
    "spec-without-layers": lambda d: [
        "synth", "--out", str(d / "s"), "--spec",
        _write(d / "spec.json", json.dumps({"frames": 2}))],
    "manifest-without-height": lambda d: [
        "detect", "--manifest", _flat_manifest(d, drop="height"),
        "--out", str(d / "o.jsonl")],
    "manifest-one-frame": lambda d: [
        "detect", "--manifest", _flat_manifest(d, frames=1),
        "--out", str(d / "o.jsonl")],
    "detect-negative-beta": lambda d: [
        "detect", "--manifest", _flat_manifest(d), "--beta", "-5",
        "--out", str(d / "o.jsonl")],
    **{f"detect-{value}-{flag}": (lambda d, flag=flag, value=value: [
        "detect", "--manifest", _flat_manifest(d), f"--{flag}", value,
        "--out", str(d / "o.jsonl")])
       for flag, value in (("beta", "nan"), ("beta", "inf"),
                           ("alpha0", "nan"), ("alpha1", "nan"),
                           ("alpha1", "inf"), ("tau", "nan"),
                           ("tau", "inf"), ("window", "abc"),
                           ("init-l", "3"))},
    **{f"detect-{flag}-{value}-overflows": (lambda d, flag=flag, value=value: [
        "detect", "--manifest", _cloud_manifest(d), "--window", "4",
        f"--{flag}", value, "--out", str(d / "o.jsonl")])
       for flag, value in (("alpha0", "1e308"), ("alpha1", "1e308"),
                           ("tau", "1e155"))},
    "detect-negative-seed": lambda d: [
        "detect", "--manifest", _flat_manifest(d), "--seed", "-1",
        "--out", str(d / "o.jsonl")],
    "detect-zero-restarts": lambda d: [
        "detect", "--manifest", _flat_manifest(d), "--restarts", "0",
        "--out", str(d / "o.jsonl")],
    "detect-window-larger-than-frame": lambda d: [
        "detect", "--manifest", _flat_manifest(d), "--window", "2",
        "--out", str(d / "o.jsonl")],
    "detect-out-in-missing-dir": lambda d: [
        "detect", "--manifest", _flat_manifest(d), "--window", "1",
        "--out", str(d / "nodir" / "o.jsonl")],
    "fit-flat-frame": lambda d: [
        "fit", "--manifest", _flat_manifest(d), "--t", "0"],
    "truth-without-frames": lambda d: [
        "score", "--truth", _write(d / "truth.json", "{}"),
        "--detections", _write(d / "det.jsonl",
                               json.dumps({"t": 0, "chosen_l": 1}) + "\n")],
    "detections-without-chosen-l": lambda d: [
        "score", "--truth", _write(d / "truth.json", json.dumps(
            {"frames": [{"t": 0, "l": 1}]})),
        "--detections", _write(d / "det.jsonl", json.dumps({"t": 0}) + "\n")],
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_bad_input_exits_1_with_an_error_line(tmp_path, capsys, case):
    assert main(INPUT_ERRORS[case](tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _detect_on(tmp_path, temperatures, masks, *flags):
    """Run detect on frames written as CSV; returns (exit code, records)."""
    # Frame rejects non-finite values, so the temperature CSVs are
    # written over those of a placeholder sequence.
    seq = tmp_path / "seq"
    write_sequence(seq, [(Frame(np.full(t.shape, 280.0), index=i),
                          SegmentationMask(m))
                         for i, (t, m) in enumerate(zip(temperatures, masks))])
    for i, t in enumerate(temperatures):
        np.savetxt(seq / f"frame_{i:04}.csv", t, fmt="%.17g", delimiter=",")
    det = tmp_path / "det.jsonl"
    rc = main(["detect", "--manifest", str(seq / "manifest.json"),
               "--out", str(det), *flags])
    records = ([json.loads(line) for line in det.read_text().splitlines()]
               if rc == 0 else None)
    return rc, records


def _cloud_frames(n=3):
    spec = SynthSpec(shape=(48, 64), frames=n, noise_sigma=0.0, seed=3,
                     layers=(LayerSpec(base_temp=280.0, velocity=(1, 0)),))
    return [f.temperatures for f, _, _ in generate(spec)[0]]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_detect_rejects_non_finite_frame(tmp_path, capsys, bad):
    temps = _cloud_frames()
    temps[1][5, 7] = bad
    rc, _ = _detect_on(tmp_path, temps, [np.ones(t.shape) for t in temps])
    assert rc == 1
    assert "temperatures must be finite" in capsys.readouterr().err


def test_detect_all_cloud_mask_fails_no_frame(tmp_path):
    temps = _cloud_frames()
    rc, records = _detect_on(tmp_path, temps,
                             [np.ones(t.shape) for t in temps])
    assert rc == 0 and len(records) == 2
    for rec in records:
        assert rec["error"] is None and "frame_failed" not in rec["flags"]


def test_overflowing_gaussian_temperature_fails_its_frame(tmp_path, capsys):
    # Its centred square overflows; the default beta model fits it.
    temps = _cloud_frames()
    temps[0][5, 7] = 1e200
    masks = [np.ones(t.shape) for t in temps]
    rc, records = _detect_on(tmp_path, temps, masks, "--model", "gauss_T_uv")
    assert rc == 0
    assert records[0]["flags"] == {"frame_failed": True}
    assert records[0]["error"] == "feature 't' overflows its statistic"
    assert "frame_failed" not in records[1]["flags"]
    capsys.readouterr()
    manifest = str(tmp_path / "seq" / "manifest.json")
    assert main(["fit", "--manifest", manifest, "--t", "0",
                 "--model", "gauss_T_uv"]) == 1
    assert capsys.readouterr().err == (
        "error: frame 0: feature 't' overflows its statistic\n")
    rc, records = _detect_on(tmp_path, temps, masks)
    assert rc == 0 and records[0]["error"] is None


def test_detect_summary_counts_failed_frames_apart(tmp_path, capsys):
    temps = _cloud_frames()
    masks = [np.ones(t.shape) for t in temps]
    masks[0][:] = 0  # frame 0 has no cloud pixel, so it fails
    rc, records = _detect_on(tmp_path, temps, masks)
    assert rc == 0
    assert records[0]["flags"] == {"frame_failed": True}
    assert "frame_failed" not in records[1]["flags"]
    assert capsys.readouterr().err.strip() == (
        f"processed 2 frames; L={records[1]['chosen_l']}:1 failed:1")


@pytest.mark.parametrize("case,message", [("single-pixel", "masked pixels"),
                                          ("constant", "constant")])
def test_detect_records_degenerate_frames_as_failed(tmp_path, case, message):
    temps = _cloud_frames()
    masks = [np.ones(t.shape) for t in temps]
    if case == "single-pixel":
        for m in masks:
            m[:] = 0
            m[10, 10] = 1
    else:
        temps = [np.full(t.shape, 275.0) for t in temps]
    rc, records = _detect_on(tmp_path, temps, masks, "--init-l", "2")
    assert rc == 0 and len(records) == 2
    for rec in records:
        assert rec["flags"] == {"frame_failed": True}
        assert message in rec["error"]
        assert rec["chosen_l"] == 2


def _above(text, cap):
    try:
        return int(text) > cap
    except ValueError:
        return False


def _values(valid, cap=None):
    """A flag's (in-range, beyond-range) value strategies. Beyond its range
    lie other numbers, NaN, +-inf and non-numeric text. With ``cap``, no
    value parses as an integer above it: a valid huge size is a real
    request for a huge run, not an input error."""
    beyond = st.one_of(
        st.integers(max_value=cap).map(str), st.floats().map(repr),
        st.sampled_from(["nan", "inf", "-inf", "abc", "", "1e3", "0x1"]),
        st.text(max_size=4))
    if cap is not None:
        beyond = beyond.filter(lambda v: not _above(v, cap))
    return valid.map(str), beyond


def _paths(valid, *invalid):
    """A path flag's (valid, invalid) values, by name in ``flag_files``."""
    return (st.just(Path(valid)),
            st.sampled_from([Path(name) for name in invalid]))


# Two alphas must have a finite sum, and tau a finite square.
_ALPHA = st.floats(min_value=1.0, max_value=2.0 ** 1023, exclude_max=True)
_ONE_OR_TWO = st.sampled_from([1, 2])
_SEED = st.integers(min_value=0)
_PIPELINE_FLAGS = {
    "--model": _values(st.sampled_from(sorted(MODEL_ZOO))),
    "--alpha0": _values(_ALPHA), "--alpha1": _values(_ALPHA),
    "--beta": _values(st.floats(min_value=0.0, allow_infinity=False)),
    "--window": _values(st.integers(1, 12)),
    "--tau": _values(st.floats(0.0, 1.3407807929942596e154)),
    "--seed": _values(_SEED), "--init-l": _values(_ONE_OR_TWO),
    "--restarts": _values(st.integers(1, 4), cap=4),
}
_INPUTS = ("garbage", "directory", "missing")
_FLAGS = {
    "synth": {"--out": _paths("fresh", "garbage"),
              "--layers": _values(_ONE_OR_TWO),
              "--frames": _values(st.integers(2, 8), cap=64),
              "--height": _values(st.integers(1, 64), cap=64),
              "--width": _values(st.integers(1, 64), cap=64),
              "--noise-sigma": _values(
                  st.floats(min_value=0.0, allow_infinity=False)),
              "--change-point": _values(st.integers(1, 7)),
              "--seed": _values(_SEED),
              "--spec": _paths("spec", *_INPUTS)},
    "detect": {"--manifest": _paths("manifest", *_INPUTS),
               "--out": _paths("output", "directory", "missing"),
               **_PIPELINE_FLAGS},
    "fit": {"--manifest": _paths("manifest", *_INPUTS),
            "--t": _values(st.integers(0, 1)), "--l": _values(_ONE_OR_TWO),
            "--out": _paths("output", "directory", "missing"),
            **_PIPELINE_FLAGS},
    "score": {"--detections": _paths("detections", "truth", *_INPUTS),
              "--truth": _paths("truth", "detections", *_INPUTS)},
}
_REQUIRED = {"synth": ["--out"], "detect": ["--manifest", "--out"],
             "fit": ["--manifest", "--t"],
             "score": ["--detections", "--truth"]}


@pytest.fixture(scope="module")
def flag_files(tmp_path_factory):
    """A tiny two-frame sequence with its truth and detections, and the
    other paths a path flag can name."""
    d = tmp_path_factory.mktemp("flags")
    seq = d / "seq"
    assert main(["synth", "--out", str(seq), "--frames", "2", "--height",
                 "24", "--width", "32"]) == 0
    assert main(["detect", "--manifest", str(seq / "manifest.json"),
                 "--out", str(d / "det.jsonl"), "--window", "4"]) == 0
    return {"manifest": seq / "manifest.json", "truth": seq / "truth.json",
            "detections": d / "det.jsonl",
            "spec": Path(_write(d / "spec.json", json.dumps({
                "shape": [24, 32], "frames": 2,
                "layers": [{"base_temp": 280.0, "velocity": [1, 0]}]}))),
            "garbage": Path(_write(d / "garbage.json", "3\n")),
            "output": d / "out.json", "directory": d,
            "missing": d / "none" / "x.json"}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_no_flag_value_is_an_internal_failure(flag_files, data):
    # Each run gives some flags in-range values and at most one flag a
    # value beyond its range, so about half the runs are valid requests.
    command = data.draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    bad = data.draw(st.one_of(st.none(), st.sampled_from(sorted(flags))))
    argv = [command]
    for flag, (valid, beyond) in sorted(flags.items()):
        if flag in (bad, *_REQUIRED[command]) or data.draw(st.booleans()):
            value = data.draw(beyond if flag == bad else valid, label=flag)
            if value == Path("fresh"):
                value = tempfile.mkdtemp(dir=flag_files["directory"])
            elif isinstance(value, Path):
                value = flag_files[value.name]
            argv += [flag, str(value)]
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    assert code in (0, 1), argv
