#!/usr/bin/env python3
"""Benchmark the detector on synthetic suites: the sequential prior against
the Bayesian metrics.

Runs the default pipeline once over each of a one-layer suite, a two-layer
suite and a noisy change-point suite. From those records, with no refit, it
prints per-suite accuracy under each rule:

- ``beta=<b>``: the records decoded at every ``--betas`` value (default 650,
  the sticky sequential prior, and 0, per-frame posterior sums). A failed
  frame keeps the previous layer count, as ``cloudlayers score`` reads it;
- each of ``selection.CRITERIA`` (ML, BIC, AIC, CLC, ICL): ``selection.select``
  over each frame's metric reports. A record holds one report per hypothesis
  whose fits succeeded, in the order of its sorted ``fits`` keys, so a frame
  with one report counts as that hypothesis. A failed frame counts as wrong.

The time column is the suite's single fitting pass, with its sequences
generated before the clock starts. The e-steps column is the mean per frame
of the E-steps that the frame's fits took, read from the records.
"""

import argparse
from time import perf_counter

from cloudlayers.pipeline import PipelineConfig, decode, process_sequence
from cloudlayers.selection import CRITERIA, select
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
    """Mean over frames of the E-steps of each frame's fits, summed."""
    steps = sum(summary["e_steps"] for recs, _ in runs
                for r in recs for by_role in r.fit_summaries().values()
                for summary in by_role.values())
    return steps / sum(len(recs) for recs, _ in runs)


def criterion_choices(recs, criterion):
    """The layer count ``criterion`` picks on each record, None where the
    frame failed."""
    return [int(sorted(r.fit_summaries())
                [select(r.metric_reports, criterion) - 1][1:])
            if r.metric_reports else None for r in recs]


def score(runs, choose):
    """(correct, total) frames of the runs under ``choose``, which maps a
    sequence's records to one layer count per record."""
    correct = total = 0
    for recs, truth in runs:
        correct += sum(l == truth[r.t] for r, l in zip(recs, choose(recs)))
        total += len(recs)
    return correct, total


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sequences", type=int, default=5,
                    help="sequences per one/two-layer suite")
    ap.add_argument("--frames", type=int, default=31)
    ap.add_argument("--model", default=PipelineConfig().model)
    ap.add_argument("--betas", type=float, nargs="+", default=[650.0, 0.0])
    args = ap.parse_args()

    suites = build_suites(args.sequences, args.frames)
    cfg = PipelineConfig(model=args.model)
    print(f"model {args.model}")
    print(f"{'suite':>14} {'rule':>8} {'correct':>9} {'accuracy':>9} "
          f"{'time':>7} {'e-steps':>8}")
    for name, specs in suites.items():
        sequences = [generate(spec) for spec in specs]
        t0 = perf_counter()
        runs = fit_suite(sequences, cfg)
        elapsed = perf_counter() - t0
        e_steps = e_steps_per_frame(runs)
        rules = [(f"beta={beta:.0f}",
                  lambda recs, beta=beta: [r.chosen_l for r in decode(
                      recs, beta, cfg.init_l)])
                 for beta in args.betas]
        rules += [(c, lambda recs, c=c: criterion_choices(recs, c))
                  for c in CRITERIA]
        for rule, choose in rules:
            correct, total = score(runs, choose)
            print(f"{name:>14} {rule:>8} {correct:>5}/{total:<3} "
                  f"{100.0 * correct / total:>8.2f}% {elapsed:>6.1f}s "
                  f"{e_steps:>8.1f}")


if __name__ == "__main__":
    main()
