#!/usr/bin/env python3
"""Score every unit of each benchmark workload's pool once and digest it.

For each workload in ``perfbench/workloads.py``, generates the pool of
input units for ``--seed``, scores every sequence once through
``workloads.score_sequence`` at ``PipelineConfig(model=<the workload's
model>, hmm_beta=650.0)``, the benchmark's configuration, and prints one
line per workload: the frame count, the SHA-256 ``checks.digest`` over all
records in pool order, the layer-count accuracy, overall and per true layer
count, and the number of failed frames. Equal digests mean
byte-identical records, so this checks that a change keeps the detector's
outputs; unlike ``perfbench/run.py`` it covers the whole pool, untimed.

Run from the repository root:

    python3 scripts/replay_pools.py --seed 1
"""

import argparse
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
from workloads import WORKLOADS, generate_units, score_sequence  # noqa: E402

from cloudlayers import hmm, mixtures, pipeline, synth  # noqa: E402


def replay(workload, seed):
    """(frames, digest, accuracy %, failed frames, {true layer count:
    (right, frames)}) of one pool."""
    cl = SimpleNamespace(pipeline=pipeline, hmm=hmm, mixtures=mixtures)
    cfg = pipeline.PipelineConfig(model=workload.model, hmm_beta=650.0)
    scored = [(seq, score_sequence(cl, workload, seq, cfg))
              for unit in generate_units(synth, workload, seed)
              for seq in unit]
    records = [r for _, recs in scored for r in recs]
    right, frames = Counter(), Counter()
    for seq, recs in scored:
        for r in recs:
            truth = seq.truth[r.t]
            frames[truth] += 1
            right[truth] += r.chosen_l == truth
    failed = sum(checks.is_failed(r) for r in records)
    return (len(records), checks.digest([recs for _, recs in scored]),
            100.0 * sum(right.values()) / len(records), failed,
            {l: (right[l], frames[l]) for l in sorted(frames)})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    for name, workload in WORKLOADS.items():
        frames, digest, accuracy, failed, by_l = replay(workload, args.seed)
        per_l = ", ".join(f"L={l} {right}/{n}"
                          for l, (right, n) in by_l.items())
        print(f"{name} seed {args.seed}: {frames} frames, digest {digest}, "
              f"accuracy {accuracy:.2f}% ({per_l}), {failed} failed",
              flush=True)


if __name__ == "__main__":
    main()
