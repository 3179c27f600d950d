"""Command-line entry points: detect, synth, score, fit.

Exit codes: 0 success, 1 input error, 2 internal failure. All runs are
deterministic given --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from . import pipeline, synth
from .flow import WlkConfig
from .imaging import load_sequence


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors."""

    def error(self, message):
        raise _InputError(message)


def _add_pipeline_flags(p):
    d = pipeline.PipelineConfig()
    p.add_argument("--model", default=d.model,
                   help="model id from the model zoo")
    p.add_argument("--alpha0", type=float, default=d.alpha0,
                   help="Dirichlet prior, temperature component")
    p.add_argument("--alpha1", type=float, default=d.alpha1,
                   help="Dirichlet prior, velocity component")
    p.add_argument("--beta", type=float, default=d.hmm_beta,
                   help="transition stickiness of the sequential prior")
    p.add_argument("--window", type=int, default=d.wlk.window_half_width,
                   help="flow window half-width w (full width 2w+1)")
    p.add_argument("--tau", type=float, default=d.wlk.tau, help="WLS ridge")
    p.add_argument("--restarts", type=int, default=d.restarts)
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--init-l", type=int, default=d.init_l, choices=(1, 2))


def _pipeline_config(args):
    try:
        return pipeline.PipelineConfig(
            model=args.model, alpha0=args.alpha0, alpha1=args.alpha1,
            hmm_beta=args.beta,
            wlk=WlkConfig(window_half_width=args.window, tau=args.tau),
            restarts=args.restarts, seed=args.seed, init_l=args.init_l)
    except ValueError as exc:
        raise _InputError(str(exc))


def _cmd_detect(args):
    cfg = _pipeline_config(args)
    try:
        sequence = load_sequence(args.manifest)
    except (OSError, ValueError) as exc:
        raise _InputError(str(exc))
    if len(sequence) < 2:
        raise _InputError("a sequence needs at least 2 frames")
    # A frame with fewer pixels than one flow window has no mask that can
    # pass, so every frame would fail.
    w = cfg.wlk.window_width
    pixels = sequence[0][0].temperatures.size
    if w * w > pixels:
        raise _InputError(f"the {w}x{w} flow window needs {w * w} masked "
                          f"pixels, more than a frame's {pixels}")
    try:
        fh = Path(args.out).open("w")
    except OSError as exc:
        raise _InputError(str(exc))
    with fh:
        records = pipeline.process_sequence(sequence, cfg)
        for rec in records:
            fh.write(rec.to_json_line() + "\n")
    hist = Counter("failed" if rec.flags.get("frame_failed")
                   else f"L={rec.chosen_l}" for rec in records)
    print(f"processed {len(records)} frames; "
          + " ".join(f"{k}:{c}" for k, c in sorted(hist.items())),
          file=sys.stderr)
    return 0


def _cmd_synth(args):
    if args.layers not in (1, 2):
        raise _InputError("layer count must be 1 or 2")
    try:
        if args.spec:
            doc = json.loads(Path(args.spec).read_text())
            if not isinstance(doc, dict) or "layers" not in doc:
                raise ValueError(f"spec {args.spec} has no \"layers\"")
            layers = tuple(synth.LayerSpec(**l) for l in doc.pop("layers"))
            spec = synth.SynthSpec(**doc, layers=layers)
        else:
            base = [synth.LayerSpec(base_temp=285.0, velocity=(1.0, 0.0)),
                    synth.LayerSpec(base_temp=265.0, velocity=(-1.0, 1.0))]
            spec = synth.SynthSpec(
                shape=(args.height, args.width), frames=args.frames,
                layers=tuple(base[:args.layers]),
                noise_sigma=args.noise_sigma,
                change_point=args.change_point, seed=args.seed)
    except (OSError, TypeError, ValueError) as exc:
        raise _InputError(str(exc))
    try:
        sequence, truth = synth.generate(spec)
    except ValueError as exc:
        raise _InputError(str(exc))
    try:
        manifest, truth_path = synth.write_with_truth(args.out, sequence,
                                                      truth)
    except OSError as exc:
        raise _InputError(str(exc))
    print(f"wrote {spec.frames} frames to {args.out} "
          f"(manifest {manifest.name}, truth {truth_path.name})",
          file=sys.stderr)
    return 0


def _objects(items, what):
    """``items`` if it is a list of JSON objects, else an input error."""
    if not (isinstance(items, list)
            and all(isinstance(e, dict) for e in items)):
        raise _InputError(f"{what} must be a list of JSON objects")
    return items


def _frame_index(t):
    """``t`` if it is an integer frame index, else an input error."""
    if not isinstance(t, int):
        raise _InputError(f"frame index {t!r} is not an integer")
    return t


def _cmd_score(args):
    try:
        truth_doc = json.loads(Path(args.truth).read_text())
        records = [json.loads(line)
                   for line in Path(args.detections).read_text().splitlines()
                   if line.strip()]
    except (OSError, ValueError) as exc:
        raise _InputError(str(exc))
    if not isinstance(truth_doc, dict):
        raise _InputError("the truth file is not a JSON object")
    try:
        truth_by_t = {_frame_index(e["t"]): e["l"]
                      for e in _objects(truth_doc["frames"], "truth frames")}
        chosen = [(_frame_index(rec["t"]), rec["chosen_l"])
                  for rec in _objects(records, "detection records")]
    except KeyError as exc:
        raise _InputError(f"key {exc} missing from the truth file or the "
                          "detection records")
    if any(t not in truth_by_t for t, _ in chosen):
        raise _InputError("detection records and truth frames do not align")
    if not records:
        raise _InputError("no detection records")
    correct = sum(l == truth_by_t[t] for t, l in chosen)
    print(json.dumps({"accuracy": 100.0 * correct / len(records),
                      "frames": len(records)}, sort_keys=True))
    return 0


def _cmd_fit(args):
    cfg = _pipeline_config(args)
    try:
        sequence = load_sequence(args.manifest)
    except (OSError, ValueError) as exc:
        raise _InputError(str(exc))
    by_t = {f.index: (f, m) for f, m in sequence}
    if args.t not in by_t:
        raise _InputError(f"frame index {args.t} not in sequence")
    frame, mask = by_t[args.t]
    try:
        feats = pipeline._temperature_features(frame, mask, cfg)
        fit = pipeline.fit_temperature(feats, args.t, args.l, cfg)
    except pipeline.FRAME_DATA_ERRORS as exc:
        raise _InputError(f"frame {args.t}: {exc}")
    text = json.dumps(fit.to_json_dict(), sort_keys=True, indent=2)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            raise _InputError(str(exc))
    else:
        print(text)
    return 0


def build_parser():
    parser = _Parser(
        prog="cloudlayers",
        description="Detect one vs. two cloud motion layers in thermal "
                    "image sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run the sequential detector")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="JSON-lines output path")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("synth", help="generate a labeled synthetic sequence")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--frames", type=int, default=31)
    p.add_argument("--height", type=int, default=60)
    p.add_argument("--width", type=int, default=80)
    p.add_argument("--noise-sigma", type=float, default=0.5)
    p.add_argument("--change-point", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spec", default=None, help="JSON spec file overriding flags")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("score", help="accuracy of a detection run vs. truth")
    p.add_argument("--detections", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("fit", help="fit one temperature mixture and dump it")
    p.add_argument("--manifest", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--l", type=int, default=2, choices=(1, 2))
    p.add_argument("--out", default=None)
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_fit)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
