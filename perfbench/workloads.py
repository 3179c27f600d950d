"""The benchmark workloads and their inputs.

Every input is a 60x80 sequence from ``cloudlayers.synth.generate``, drawn
from the workload seed. Inputs are grouped in units: a batch unit is one
clean one-layer sequence followed by one clean two-layer sequence (so every
run scores both kinds in equal numbers); an online unit is one noisy
change-point sequence. A timed run scores at least its first ``min_units``
units and keeps cycling through its pool of units until its time is up; the
pool is large enough that today's code does not come round to a unit twice.

The cost of a frame varies several-fold from one frame to the next, with how
many EM iterations its fits take, so a run's throughput is steady only when
it averages over many frames. Sequences are short, so that a run covers many
distinct scenes and stops close to its time.

``BENCHMARK.json`` gates ``batch-default`` and ``online-changepoint`` only:
two workloads leave each gated run close to a minute, enough frames for a
steady mean. ``batch-gauss`` and ``batch-bga`` run the same way by hand, for
their traced profiles and end-to-end figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BATCH_FRAMES = 2            # frames per clean batch sequence
ONLINE_FRAMES = 4           # frames per change-point sequence
ONLINE_CHANGE_POINT = 2     # frame index where the second layer appears
WARM_UP_SEED = 987_654_321  # the warm-up input is the same for every seed


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    online: bool
    min_units: int    # units every timed run scores, whatever its time
    pool_units: int   # distinct units generated per seed
    trace_units: int  # units of a traced run; the digest covers them
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("batch-default", "beta_T+vm_phi", False, 8, 64, 8,
             "process_sequence on clean one/two-layer sequences with the "
             "paper's best model: L-BFGS-B M-steps, some L=1 frames hit "
             "the 300-iteration EM cap"),
    # Fourteen 3-transition sequences: p75 has ten frame times beyond it.
    Workload("online-changepoint", "beta_T+vm_phi", True, 14, 40, 5,
             "closed loop, one caller: process_frame per transition with a "
             "threaded HmmState on noisy change-point sequences"),
    Workload("batch-gauss", "gauss_T_uv", False, 8, 96, 8,
             "closed-form Gaussian M-steps bypass scipy; E-step and "
             "log-density dominate"),
    Workload("batch-bga", "bga_T_r+vm_phi", False, 8, 48, 8,
             "the only workload through the gamma and bivariate-gamma "
             "families"),
)}


@dataclass(frozen=True)
class Sequence:
    sid: str
    pairs: list    # (Frame, SegmentationMask) per frame
    truth: list    # layer count per frame


def _clean_layers(synth, n_layers):
    # The acceptance-suite layers.
    if n_layers == 1:
        return (synth.LayerSpec(base_temp=278.0, velocity=(1, 0)),)
    return (synth.LayerSpec(base_temp=285.0, velocity=(1, 0)),
            synth.LayerSpec(base_temp=265.0, velocity=(-1, 1)))


def _change_point_layers(synth):
    return (synth.LayerSpec(base_temp=278.0, velocity=(1, 0), amplitude=1.5),
            synth.LayerSpec(base_temp=266.0, velocity=(-1, 1), amplitude=1.5))


def _sequence(synth, sid, spec):
    seq, truth = synth.generate(spec)
    return Sequence(sid=sid, pairs=[(f, m) for f, m, _ in seq], truth=truth)


def generate_units(synth, workload, seed):
    """The pool of input units for ``seed``: a list of lists of Sequence."""
    units = []
    for k in range(workload.pool_units):
        s1, s2 = (int(s) for s in np.random.SeedSequence([seed, k]).generate_state(2))
        if workload.online:
            spec = synth.SynthSpec(frames=ONLINE_FRAMES, noise_sigma=3.0,
                                   change_point=ONLINE_CHANGE_POINT, seed=s1,
                                   layers=_change_point_layers(synth))
            units.append([_sequence(synth, f"cp{k}", spec)])
        else:
            units.append([
                _sequence(synth, f"one{k}", synth.SynthSpec(
                    frames=BATCH_FRAMES, seed=s1, layers=_clean_layers(synth, 1))),
                _sequence(synth, f"two{k}", synth.SynthSpec(
                    frames=BATCH_FRAMES, seed=s2, layers=_clean_layers(synth, 2))),
            ])
    return units


def warm_up_pair(synth):
    """A two-layer frame pair that no workload scores."""
    seq, _ = synth.generate(synth.SynthSpec(frames=2, seed=WARM_UP_SEED,
                                            layers=_clean_layers(synth, 2)))
    return [(f, m) for f, m, _ in seq]


def score_sequence(cl, workload, seq, cfg):
    """Records for one sequence through the workload's public entry point."""
    pipeline = cl.pipeline
    if not workload.online:
        return pipeline.process_sequence(seq.pairs, cfg)
    # The camera-stream caller: one transition at a time, each waiting for
    # the HMM state the one before it left. Failures keep the state, as in
    # process_sequence.
    state = cl.hmm.HmmState(previous_l=cfg.init_l, beta=cfg.hmm_beta)
    records = []
    for (prev, prev_mask), (cur, cur_mask) in zip(seq.pairs, seq.pairs[1:]):
        try:
            rec = pipeline.process_frame(prev, prev_mask, cur, cur_mask,
                                         state, cfg)
        except (cl.mixtures.FitError, ValueError) as exc:
            rec = pipeline.DetectionRecord(
                t=prev.index, chosen_l=state.previous_l, scores=[],
                metric_reports=[], fits={}, flow_summary={},
                flags={"frame_failed": True}, error=str(exc))
        records.append(rec)
    return records
