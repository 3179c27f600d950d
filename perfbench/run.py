#!/usr/bin/env python3
"""Detector benchmark: frame throughput and latency on synthetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload batch-default --seed 1 --seconds 55 --trace 0

Set-up imports ``cloudlayers`` from ``src/``, generates the workload's inputs
from ``--seed`` with ``cloudlayers.synth.generate`` and scores one warm-up
frame on a separate input; it is done five times and ``setup_s`` is the
median. The timed phase then scores whole input units through the public
pipeline API for about ``--seconds`` (always at least the workload's first
``min_units`` units), checks every record, and prints the end-to-end
metrics. With ``--trace 1`` it instead scores each sequence of
the workload's first ``trace_units`` units twice, untraced and then with a
span around every call into each layer, and prints the per-layer metrics and
a trace summary. The determinism digest covers the records of those units in
both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results, the
machine note and (traced runs) the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

from pathlib import Path

import checks
import machine
import spans
from workloads import WORKLOADS, generate_units, score_sequence, warm_up_pair

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
MODULES = ("pipeline", "synth", "hmm", "mixtures", "flow", "selection")


class Loaded:
    """The freshly imported cloudlayers modules, by short name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"cloudlayers.{name}"))


def _import_cloudlayers():
    for name in [m for m in sys.modules if m.split(".")[0] == "cloudlayers"]:
        del sys.modules[name]
    cl = Loaded()
    where = Path(cl.pipeline.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"perfbench: cloudlayers came from {where}, "
                         f"not from {ROOT / 'src'}")
    return cl


def set_up(workload, seed):
    """Import, generate the inputs and score a warm-up frame, repeatedly.

    Each repeat drops the cloudlayers modules first, so module-level work
    and lazily filled caches are paid again. Returns the last repeat's
    modules and inputs with the median set-up and generation times.
    """
    if not (ROOT / "src" / "cloudlayers" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cloudlayers sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    totals, gens = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cl = _import_cloudlayers()
        t1 = perf_counter()
        units = generate_units(cl.synth, workload, seed)
        t2 = perf_counter()
        cfg = cl.pipeline.PipelineConfig(model=workload.model, hmm_beta=650.0)
        (prev, prev_mask), (cur, cur_mask) = warm_up_pair(cl.synth)
        state = cl.hmm.HmmState(previous_l=cfg.init_l, beta=cfg.hmm_beta)
        cl.pipeline.process_frame(prev, prev_mask, cur, cur_mask, state, cfg)
        totals.append(perf_counter() - t0)
        gens.append(t2 - t1)
    return cl, units, cfg, statistics.median(totals), statistics.median(gens)


def _cpu_s():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def score_units(cl, workload, units, cfg, seconds):
    """Score whole units in order, cycling through the pool, for about
    ``seconds`` of scoring and at least ``workload.min_units`` units.

    A further unit starts only while the run is expected to end nearer to
    ``seconds`` with it than without it. Returns ([(Sequence, records)],
    wall s, CPU s).
    """
    scored = []
    cpu0, t0 = _cpu_s(), perf_counter()
    k = 0
    while k < workload.min_units or (perf_counter() - t0) * (1 + 0.5 / k) < seconds:
        for seq in units[k % len(units)]:
            scored.append((seq, score_sequence(cl, workload, seq, cfg)))
        k += 1
    return scored, perf_counter() - t0, _cpu_s() - cpu0


def check_scored(scored, cfg):
    """Problems in the records, including a repeated sequence whose records
    differ from its first scoring."""
    problems, seen = [], {}
    for seq, records in scored:
        problems += checks.check_sequence(seq, records, cfg.hmm_beta, cfg.init_l)
        d = checks.digest([records])
        if seen.setdefault(seq.sid, d) != d:
            problems.append(f"sequence {seq.sid}: records differ from its "
                            f"first scoring")
    return problems


def _peak_rss_mb():
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(cl, workload, units, cfg, seconds):
    frame_s = []
    entry = cl.pipeline.process_frame

    def timed_entry(*args, **kwargs):
        t0 = perf_counter()
        try:
            return entry(*args, **kwargs)
        finally:
            frame_s.append(perf_counter() - t0)

    # Only the entry point is timed; no layer below it is wrapped.
    cl.pipeline.process_frame = timed_entry
    try:
        scored, wall, cpu = score_units(cl, workload, units, cfg, seconds)
    finally:
        cl.pipeline.process_frame = entry
    records = [r for _, recs in scored for r in recs]
    n = len(records)
    _, p50, p75 = statistics.quantiles(frame_s, n=4)
    right = sum(r.chosen_l == seq.truth[r.t] for seq, recs in scored for r in recs)
    failed = sum(checks.is_failed(r) for r in records)
    metrics = {
        "frames_per_s": (n / wall, "1/s", n),
        "accuracy_pct": (100.0 * right / n, "%", n),
        "scored_frame_pct": (100.0 * (n - failed) / n, "%", n),
        "cpu_s_per_frame": (cpu / n, "s", n),
        "peak_rss_mb": (_peak_rss_mb(), "MB", 1),
    }
    # Frame-time percentiles are reported, not gated: on the batch
    # workloads they mix one-layer and two-layer frames, whose costs differ
    # about 2.5x, so a percentile of a few dozen of them moves with the seed
    # by more than any bound the benchmark may set.
    info = {"frame_s_p50": (p50, "s", len(frame_s)),
            "frame_s_p75": (p75, "s", len(frame_s)),
            "failed_frame_ratio": (failed / n, "ratio", n)}
    extra = {"wall_s": wall, "sequences_scored": len(scored)}
    return scored, metrics, info, extra


def traced(cl, workload, units, cfg):
    """Score each sequence of the first ``trace_units`` units untraced, then
    traced. Pairing the two passes sequence by sequence keeps slow phases
    of a shared machine out of the overhead estimate."""
    tracer = spans.Tracer()
    plain, scored = [], []
    wall_plain = wall = 0.0
    for seq in [seq for unit in units[:workload.trace_units] for seq in unit]:
        t0 = perf_counter()
        plain.append((seq, score_sequence(cl, workload, seq, cfg)))
        t1 = perf_counter()
        tracer.sequence = seq.sid
        with tracer.installed(cl):
            t2 = perf_counter()
            scored.append((seq, score_sequence(cl, workload, seq, cfg)))
            t3 = perf_counter()
        wall_plain += t1 - t0
        wall += t3 - t2
    layer, summary = tracer.layer_metrics([recs for _, recs in scored],
                                          cfg.init_l, wall)
    n = sum(len(recs) for _, recs in scored)
    overhead = 100.0 * (wall / wall_plain - 1.0)
    metrics = {k: (v, unit, n) for k, (v, unit) in layer.items()}
    metrics["trace.overhead_pct"] = (overhead, "%", n)
    extra = {"trace_summary": {"traced_wall_s": wall, "untraced_wall_s": wall_plain,
                               "overhead_pct": overhead, "layers": summary},
             "hooks_missing": tracer.missing, "hooks_broken": tracer.broken}
    # check_scored finds any traced record that differs from its untraced twin.
    return plain + scored, metrics, extra, tracer


def _print_summary(summary):
    print(f"# trace summary: traced wall {summary['traced_wall_s']:.3f} s, "
          f"untraced {summary['untraced_wall_s']:.3f} s, overhead "
          f"{summary['overhead_pct']:+.2f}%")
    print(f"# {'layer':<24} {'self s/frame':>12} {'% of wall':>10} {'calls':>9}")
    for name, row in summary["layers"].items():
        print(f"# {name:<24} {row['self_s_per_frame']:>12.5f} "
              f"{row['share_of_wall_pct']:>10.2f} {row['calls']:>9}")
    covered = sum(row["share_of_wall_pct"] for row in summary["layers"].values())
    print(f"# {'all layers':<24} {'':>12} {covered:>10.2f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    load_start = machine.load_average()

    cl, units, cfg, setup_s, generate_s = set_up(workload, args.seed)
    if args.trace:
        scored, metrics, extra, tracer = traced(cl, workload, units, cfg)
        metrics["synth.generate_s"] = (generate_s, "s", SETUP_REPEATS)
        info = {}
    else:
        scored, metrics, info, extra = end_to_end(cl, workload, units, cfg,
                                                  args.seconds)
        metrics["setup_s"] = (setup_s, "s", SETUP_REPEATS)
    problems = check_scored(scored, cfg)
    head_units = units[:workload.trace_units]
    head = [recs for _, recs in scored[:sum(map(len, head_units))]]
    records = [r for _, recs in scored for r in recs]
    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "why": workload.why,
        "machine": machine.machine_note(ROOT, load_start),
        "digest": checks.digest(head),
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "reported": {k: {"value": v, "unit": u, "samples": n}
                     for k, (v, u, n) in info.items()},
        **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=2) + "\n")
    if args.trace:
        tracer.write_csv(stem.with_name(stem.name + "-spans.csv"))

    print(f"# workload {workload.name}, seed {args.seed}: {workload.why}")
    print(f"# machine {json.dumps(result['machine'], sort_keys=True)}")
    print(f"# digest {result['digest']} over the first {len(head_units)} units")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={n})")
    for name, (value, unit, n) in info.items():
        print(f"{name} {value:.6g} {unit} (n={n}, not gated)")
    if args.trace:
        _print_summary(extra["trace_summary"])
        for key in ("hooks_missing", "hooks_broken"):
            if extra[key]:
                print(f"# {key.replace('_', ' ')}: {extra[key]}")
    failed = sum(checks.is_failed(r) for r in records)
    line = {"correct": not problems, "attempted": len(records), "failed": failed,
            "metrics": {} if problems else
            {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps(line))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
