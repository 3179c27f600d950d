#!/usr/bin/env python3
"""Benchmark the detector on synthetic suites and compare transition priors.

Runs the default pipeline once over each of a one-layer suite, a two-layer
suite and a noisy change-point suite, then decodes those records at every
``--betas`` value (default 650, the sticky sequential prior, and 0, per-frame
maximum likelihood) and prints per-suite accuracy. The time column is the
suite's single fitting pass, with its sequences generated before the clock
starts; decoding at a further beta refits nothing. The e-steps column is the
mean per frame of the E-steps that the winning restart of each of the frame's
fits took, read from the records.
"""

import argparse
import json
from time import perf_counter

from cloudlayers.pipeline import PipelineConfig, decode, process_sequence
from cloudlayers.synth import LayerSpec, SynthSpec, generate


def build_suites(n_seq, frames):
    one = [SynthSpec(frames=frames, seed=s,
                     layers=(LayerSpec(base_temp=278.0, velocity=(1, 0)),))
           for s in range(n_seq)]
    two = [SynthSpec(frames=frames, seed=100 + s,
                     layers=(LayerSpec(base_temp=285.0, velocity=(1, 0)),
                             LayerSpec(base_temp=265.0, velocity=(-1, 1))))
           for s in range(n_seq)]
    cp = [SynthSpec(frames=13, change_point=6, noise_sigma=3.0, seed=s,
                    layers=(LayerSpec(base_temp=278.0, velocity=(1, 0),
                                      amplitude=1.5),
                            LayerSpec(base_temp=266.0, velocity=(-1, 1),
                                      amplitude=1.5)))
          for s in (2, 3, 5, 6)]
    return {"one-layer": one, "two-layer": two, "change-point": cp}


def fit_suite(sequences, cfg):
    """(records, truth) of each generated (sequence, truth): the suite's
    fitting pass."""
    return [(process_sequence([(f, m) for f, m, _ in seq], cfg), truth)
            for seq, truth in sequences]


def e_steps_per_frame(runs):
    """Mean over frames of the winning restarts' E-steps, summed over each
    frame's fits."""
    steps = sum(json.loads(text)["e_steps"] for recs, _ in runs
                for r in recs for by_role in r.fits.values()
                for text in by_role.values())
    return steps / sum(len(recs) for recs, _ in runs)


def score_at(runs, beta, init_l):
    correct = total = 0
    for recs, truth in runs:
        recs = decode(recs, beta, init_l)
        correct += sum(r.chosen_l == truth[r.t] for r in recs)
        total += len(recs)
    return correct, total


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sequences", type=int, default=5,
                    help="sequences per one/two-layer suite")
    ap.add_argument("--frames", type=int, default=31)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--model", default=PipelineConfig().model)
    ap.add_argument("--betas", type=float, nargs="+", default=[650.0, 0.0])
    args = ap.parse_args()

    suites = build_suites(args.sequences, args.frames)
    cfg = PipelineConfig(seed=args.seed, model=args.model)
    print(f"model {args.model}, pipeline seed {args.seed}")
    print(f"{'suite':>14} {'beta':>8} {'correct':>9} {'accuracy':>9} "
          f"{'time':>7} {'e-steps':>8}")
    for name, specs in suites.items():
        sequences = [generate(spec) for spec in specs]
        t0 = perf_counter()
        runs = fit_suite(sequences, cfg)
        elapsed = perf_counter() - t0
        e_steps = e_steps_per_frame(runs)
        for beta in args.betas:
            correct, total = score_at(runs, beta, cfg.init_l)
            print(f"{name:>14} {beta:>8.0f} {correct:>5}/{total:<3} "
                  f"{100.0 * correct / total:>8.2f}% {elapsed:>6.1f}s "
                  f"{e_steps:>8.1f}")


if __name__ == "__main__":
    main()
