#!/usr/bin/env python3
"""Paired in-process CPU comparison of a base revision and the working tree.

Exports the base revision's ``src`` with ``git archive`` into a temporary
directory and imports its ``cloudlayers`` twice, as ``base`` and as
``base_again`` (the A/A control), and the working tree's as ``change``, all in
one process. The inputs are a benchmark workload's pool for ``--seed``, from
``perfbench/workloads.py``, generated once by the base and shared.

Round r scores chunk r (cycling) of ``CHUNK_UNITS`` units once on every
side: the sides take turns unit by unit, in an order that cycles through all
six orders of the three, and ``time.process_time()`` is read around each
turn. An untimed pass over the chunks the rounds visit first warms every
side up alike; from it the script counts the E-steps per frame of base and
change and compares their records. With ``--rounds`` at least the
workload's chunk count, that pass covers the whole pool. Per workload the
script prints the median over rounds of CPU per frame on each side, the
median ratio change/base with a 95% bootstrap interval and the rounds the
change won, the same for base_again/base, the E-step figures, and the bytes
that a record of the untimed pass holds on base and change (a recursive
``sys.getsizeof`` that counts each object once). For the
records it prints whether their digests are equal, the frames whose
``chosen_l`` agree, each side's layer-count accuracy, overall and per true
layer count, each side's totals of the ``singular_pixels`` and
``empty_windows`` flags and the frames whose flags differ, and per
hypothesis layer count the median and largest move of its posterior sum.
A gain holds when the change/base interval excludes 1
and the A/A interval is narrower.

With ``--out`` the figures, every round's CPU per frame and the machine note
of ``perfbench/machine.py`` go to a JSON file. Run from the repository root:

    python3 scripts/ab_cpu.py --base HEAD~1 --workload batch-default \\
        --seed 1 --rounds 20 --out BENCH.json
"""

import argparse
import importlib
import importlib.util
import io
import itertools
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import machine  # noqa: E402
from workloads import WORKLOADS, generate_units, score_sequence  # noqa: E402

SIDES = ("base", "change", "base_again")
BOOTSTRAP_RESAMPLES = 10_000
CHUNK_UNITS = 8
FLOW_FLAGS = ("singular_pixels", "empty_windows")


def export_src(rev, into):
    """Write revision ``rev``'s ``src`` under ``into``; returns its sha."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev],
                         capture_output=True, text=True, check=True).stdout
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return sha.strip()


def load_tree(src, name):
    """The modules of the ``cloudlayers`` package under ``src``, imported
    as the package ``name``."""
    init = Path(src) / "cloudlayers" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = ("hmm", "mixtures", "pipeline", "synth")
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                              for m in modules})


def score(cl, workload, sequences, cfg):
    return [score_sequence(cl, workload, seq, cfg) for seq in sequences]


def counted(cl, workload, sequences, cfg):
    """(E-steps per frame, records per sequence) of one untimed pass."""
    calls = []
    e_step = cl.mixtures.e_step

    def counting(*args):
        calls.append(None)
        return e_step(*args)

    cl.mixtures.e_step = counting
    try:
        records = score(cl, workload, sequences, cfg)
    finally:
        cl.mixtures.e_step = e_step
    frames = sum(len(r) for r in records)
    return len(calls) / frames, records


def _deep_size(obj, seen):
    """Recursive ``sys.getsizeof`` of ``obj``: its own bytes and those of
    the keys, values, items and attributes it holds, each object counted
    once over ``seen``, the ids counted so far."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        return size + sum(_deep_size(k, seen) + _deep_size(v, seen)
                          for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return size + sum(_deep_size(v, seen) for v in obj)
    if hasattr(obj, "__dict__"):
        size += _deep_size(vars(obj), seen)
    for name in getattr(type(obj), "__slots__", ()):
        size += _deep_size(getattr(obj, name), seen)
    return size


def bytes_per_record(records):
    """Mean bytes that one of ``records`` (a list per sequence) holds."""
    flat = [r for recs in records for r in recs]
    seen = set()
    return sum(_deep_size(r, seen) for r in flat) / len(flat)


def _accuracy(truths, records):
    """Accuracy % of ``records`` against the true layer counts ``truths``,
    and {true layer count: [right, frames]}."""
    right, seen = Counter(), Counter()
    for truth, rec in zip(truths, records):
        seen[truth] += 1
        right[truth] += rec.chosen_l == truth
    return (100.0 * sum(right.values()) / len(truths),
            {str(l): [right[l], seen[l]] for l in sorted(seen)})


def agreement(sequences, base, change):
    """How the change's records (a list per sequence) agree with the
    base's: frames whose ``chosen_l`` agree, each side's accuracy, overall
    and per true layer count, each side's totals of the ``singular_pixels``
    and ``empty_windows`` flags and the frames whose flags differ, and per
    hypothesis layer count the median and largest move of its posterior
    sum."""
    truths = [seq.truth[r.t] for seq, recs in zip(sequences, base)
              for r in recs]
    flat = {"base": [r for recs in base for r in recs],
            "change": [r for recs in change for r in recs]}
    accuracy = {side: _accuracy(truths, recs) for side, recs in flat.items()}
    moves = {}
    for b, c in zip(flat["base"], flat["change"]):
        sb = {s.l: s.posterior_sum for s in b.scores}
        sc = {s.l: s.posterior_sum for s in c.scores}
        for l in sb.keys() & sc.keys():
            # Equal sums move by 0, also where both are -inf.
            moves.setdefault(str(l), []).append(
                0.0 if sb[l] == sc[l] else abs(sc[l] - sb[l]))
    return {
        "frames": len(truths),
        "chosen_l_agree": sum(b.chosen_l == c.chosen_l
                              for b, c in zip(flat["base"], flat["change"])),
        "accuracy_pct": {side: a[0] for side, a in accuracy.items()},
        "right_by_true_l": {side: a[1] for side, a in accuracy.items()},
        "flag_totals": {side: {k: sum(r.flags.get(k, 0) for r in recs)
                               for k in FLOW_FLAGS}
                        for side, recs in flat.items()},
        "flags_differ": sum(b.flags != c.flags
                            for b, c in zip(flat["base"], flat["change"])),
        "posterior_sum_move": {
            l: {"median": float(np.median(m)), "max": max(m)}
            for l, m in sorted(moves.items())},
    }


def ratio_summary(ratios, rng):
    """Median, 95% percentile-bootstrap interval of the median, and wins
    (ratios under 1) of per-round ratios."""
    r = np.asarray(ratios)
    medians = np.median(rng.choice(r, size=(BOOTSTRAP_RESAMPLES, r.size)),
                        axis=1)
    lo, hi = np.quantile(medians, [0.025, 0.975])
    return {"median": float(np.median(r)), "ci95": [float(lo), float(hi)],
            "wins": int((r < 1.0).sum()), "rounds": int(r.size)}


def compare(trees, workload, seed, rounds):
    units = generate_units(trees["base"].synth, workload, seed)
    chunks = [units[i:i + CHUNK_UNITS]
              for i in range(0, len(units) - CHUNK_UNITS + 1, CHUNK_UNITS)]
    cfgs = {side: cl.pipeline.PipelineConfig(model=workload.model,
                                             hmm_beta=650.0)
            for side, cl in trees.items()}
    visited = [seq for chunk in chunks[:rounds] for unit in chunk
               for seq in unit]
    # Every side takes the same untimed pass, so that no side enters the
    # rounds less warm than another.
    counts = {side: counted(trees[side], workload, visited, cfgs[side])
              for side in SIDES}
    # The sides take turns unit by unit, so that a slow phase of a shared
    # machine, which lasts about as long as a chunk, falls on all three.
    orders = itertools.cycle(itertools.permutations(SIDES))
    cpu = {side: [] for side in SIDES}
    for r in range(rounds):
        chunk = chunks[r % len(chunks)]
        spent = dict.fromkeys(SIDES, 0.0)
        for unit in chunk:
            for side in next(orders):
                t0 = time.process_time()
                score(trees[side], workload, unit, cfgs[side])
                spent[side] += time.process_time() - t0
        frames = sum(len(seq.pairs) - 1 for unit in chunk for seq in unit)
        for side in SIDES:
            cpu[side].append(spent[side] / frames)
    rng = np.random.default_rng(0)
    ab = [c / b for c, b in zip(cpu["change"], cpu["base"])]
    aa = [c / b for c, b in zip(cpu["base_again"], cpu["base"])]
    return {
        "seed": seed, "rounds": rounds, "chunks": len(chunks),
        "cpu_s_per_frame_median": {s: statistics.median(v)
                                   for s, v in cpu.items()},
        "cpu_s_per_frame": cpu,
        "change/base": ratio_summary(ab, rng),
        "base_again/base": ratio_summary(aa, rng),
        "e_steps_per_frame": {s: counts[s][0] for s in ("base", "change")},
        "bytes_per_record": {s: bytes_per_record(counts[s][1])
                             for s in ("base", "change")},
        "records_equal": (checks.digest(counts["change"][1])
                          == checks.digest(counts["base"][1])),
        "records": agreement(visited, counts["base"][1], counts["change"][1]),
    }


def report(name, res):
    ab, aa = res["change/base"], res["base_again/base"]
    med = res["cpu_s_per_frame_median"]
    print(f"{name} seed {res['seed']}: {res['rounds']} rounds of "
          f"{CHUNK_UNITS} units")
    print("  CPU ms/frame median: " + ", ".join(
        f"{s} {1e3 * med[s]:.2f}" for s in SIDES))
    for label, s in (("change/base", ab), ("base_again/base", aa)):
        print(f"  {label}: {s['median']:.4f} [{s['ci95'][0]:.4f}, "
              f"{s['ci95'][1]:.4f}], {s['wins']}/{s['rounds']} under 1")
    e = res["e_steps_per_frame"]
    print(f"  E-steps/frame: base {e['base']:.2f}, change {e['change']:.2f}")
    b = res["bytes_per_record"]
    print(f"  bytes/record: base {b['base']:.0f}, change {b['change']:.0f}")
    rec = res["records"]
    print(f"  records equal: {res['records_equal']}; chosen_l agrees on "
          f"{rec['chosen_l_agree']}/{rec['frames']} frames")
    for side in ("base", "change"):
        per_l = ", ".join(f"L={l} {right}/{n}" for l, (right, n)
                          in rec["right_by_true_l"][side].items())
        print(f"  {side} accuracy {rec['accuracy_pct'][side]:.2f}% ({per_l})")
    print("  flag totals: " + "; ".join(
        f"{side} " + ", ".join(f"{k} {v}" for k, v in totals.items())
        for side, totals in rec["flag_totals"].items())
        + f"; flags differ on {rec['flags_differ']} frames")
    print("  posterior-sum move: " + ", ".join(
        f"L={l} median {m['median']:.4g}, max {m['max']:.4g}"
        for l, m in rec["posterior_sum_move"].items()), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="git revision to compare")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run; repeat for several "
                         "(default batch-default)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--out", default=None, help="JSON output path")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be >= 2")
    load_at_start = machine.load_average()
    with tempfile.TemporaryDirectory() as tmp:
        base_sha = export_src(args.base, tmp)
        trees = {"base": load_tree(Path(tmp) / "src", "base"),
                 "change": load_tree(ROOT / "src", "change"),
                 "base_again": load_tree(Path(tmp) / "src", "base_again")}
        results = {}
        for name in args.workload or ["batch-default"]:
            results[name] = compare(trees, WORKLOADS[name], args.seed,
                                    args.rounds)
            report(name, results[name])
    if args.out:
        doc = {"command": ["python3", "scripts/ab_cpu.py",
                           *(argv if argv is not None else sys.argv[1:])],
               "base": base_sha, "change": "the working tree's src",
               "workloads": results,
               "machine": machine.machine_note(ROOT, load_at_start)}
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
