"""Spans around the calls into each layer, recorded from outside the program.

The pipeline looks its layer functions up as module attributes at call
time, so replacing an attribute with a wrapper puts a span around every call
without touching the program. A span is (name, start, end, parent span index,
frame id); self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import csv
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer name). ``_run_em`` is private: it is the one
# place that sees each EM restart, which the cap-hit count needs.
HOOKS = (
    ("pipeline", "process_frame", "pipeline.process_frame"),
    ("pipeline", "normalize_beta", "imaging.normalize"),
    ("pipeline", "normalize_gamma", "imaging.normalize"),
    ("flow", "intensity_image", "flow.intensity"),
    ("flow", "derivatives", "flow.derivatives"),
    ("flow", "wlk_solve", "flow.wlk_solve"),
    ("flow", "merge_layers", "flow.merge"),
    ("mixtures", "fit", "mixtures.fit"),
    ("mixtures", "_run_em", "mixtures.restart"),
    ("mixtures", "e_step", "mixtures.e_step"),
    ("mixtures", "log_pdf", "mixtures.log_pdf"),
    ("mixtures", "m_step_params", "mixtures.m_step"),
    ("selection", "metrics", "selection.metrics"),
    ("hmm", "step", "hmm.step"),
)

VELOCITY_FEATURES = {"uv", "r", "phi", "ttilde_r"}


def _fit_note(args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    role = ("velocity" if spec.components[0][0] in VELOCITY_FEATURES
            else "temperature")
    return (f"L{spec.n_clusters}.{role}", bool(result.converged),
            len(result.q_trace))


def _restart_note(args, kwargs, result):
    return bool(result[5])  # converged


def _wlk_note(args, kwargs, result):
    fields, stats = result
    return (sum(f.u.size for f in fields),
            sum(s.singular_pixels for s in stats),
            sum(s.empty_windows for s in stats))


NOTES = {"mixtures.fit": _fit_note, "mixtures.restart": _restart_note,
         "flow.wlk_solve": _wlk_note}


class Tracer:
    """Keeps spans and per-span notes in memory while installed."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent, frame]
        self.notes = {}   # span index -> note
        self.missing = []  # hooks not found in the loaded modules
        self.broken = {}   # layer name -> error from reading its result
        self.sequence = ""
        self._stack = []
        self._frame = ""

    def _wrap(self, name, fn):
        spans, stack, notes = self.spans, self._stack, self.notes
        note = NOTES.get(name)
        is_frame = name == "pipeline.process_frame"

        def traced(*args, **kwargs):
            if is_frame:
                self._frame = f"{self.sequence}:{args[0].index}"
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._frame]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                try:
                    notes[idx] = note(args, kwargs, result)
                except Exception as exc:  # a hook whose shape changed
                    self.broken[name] = repr(exc)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, cl):
        """Wrap every hook found in the loaded cloudlayers modules."""
        self.missing = []
        with contextlib.ExitStack() as undo:
            for mod_name, attr, name in HOOKS:
                module = getattr(cl, mod_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(name, original))
                undo.callback(setattr, module, attr, original)
            yield self

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "frame"])
            out.writerows(self.spans)

    def layer_metrics(self, record_lists, init_l, wall_s):
        """Per-layer metrics over the traced pass: times in s per frame."""
        records = [r for recs in record_lists for r in recs]
        spans, notes = self.spans, self.notes
        child = [0.0] * len(spans)
        fit_of = [-1] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                fit_of[i] = fit_of[parent]
            if name == "mixtures.fit":
                fit_of[i] = i
        incl, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        fit_incl, fit_iters = defaultdict(float), defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(spans):
            incl[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
            if name == "mixtures.e_step" and fit_of[i] in notes:
                fit_iters[notes[fit_of[i]][0]] += 1
            elif name == "mixtures.fit" and i in notes:
                fit_incl[notes[i][0]] += end - start
        fit_notes = [n for i, n in notes.items() if spans[i][0] == "mixtures.fit"]
        restart_notes = [n for i, n in notes.items()
                         if spans[i][0] == "mixtures.restart"]
        wlk_notes = [n for i, n in notes.items() if spans[i][0] == "flow.wlk_solve"]
        frames = calls["pipeline.process_frame"]
        per = 1.0 / max(frames, 1)
        frame_incl = incl["pipeline.process_frame"]
        useful = sum(n[2] for n in fit_notes)

        def pct(part, whole):
            return 100.0 * part / whole if whole > 0 else 0.0

        m = {
            "pipeline.process_frame_s": (frame_incl * per, "s/frame"),
            "pipeline.self_s": (own["pipeline.process_frame"] * per, "s/frame"),
            "pipeline.frames": (frames, "count"),
            "pipeline.flag_empty_windows": (
                sum(int(r.flags.get("empty_windows", 0)) for r in records), "count"),
            "mixtures.fit_pct": (pct(incl["mixtures.fit"], frame_incl), "%"),
            "mixtures.fit_self_s": ((own["mixtures.fit"] + own["mixtures.restart"])
                                    * per, "s/frame"),
            "mixtures.restarts": (calls["mixtures.restart"], "count"),
            "mixtures.iter_cap_hits": (sum(not c for c in restart_notes), "count"),
            "mixtures.unconverged_fits": (sum(not n[1] for n in fit_notes), "count"),
            "mixtures.em_useful_iters": (useful, "count"),
            "mixtures.em_useful_ratio": (
                useful / calls["mixtures.e_step"] if calls["mixtures.e_step"] else 0.0,
                "ratio"),
            "flow.wlk_solve_pct": (pct(incl["flow.wlk_solve"], frame_incl), "%"),
            "flow.pixels_solved": (sum(n[0] for n in wlk_notes), "count"),
            "flow.singular_pixels": (sum(n[1] for n in wlk_notes), "count"),
            "flow.empty_windows": (sum(n[2] for n in wlk_notes), "count"),
            "hmm.switches": (sum(_switches(recs, init_l) for recs in record_lists),
                             "count"),
            "trace.covered_pct": (pct(frame_incl, wall_s), "%"),
        }
        for layer in ("m_step", "e_step", "log_pdf"):
            m[f"mixtures.{layer}_s"] = (own[f"mixtures.{layer}"] * per, "s/frame")
            m[f"mixtures.{layer}_calls"] = (calls[f"mixtures.{layer}"], "count")
        for key in ("L1.temperature", "L1.velocity", "L2.temperature", "L2.velocity"):
            m[f"mixtures.fit_s.{key}"] = (fit_incl[key] * per, "s/frame")
            m[f"mixtures.em_iters.{key}"] = (fit_iters[key], "count")
        for name, layer in (("flow.intensity_s", "flow.intensity"),
                            ("flow.derivatives_s", "flow.derivatives"),
                            ("flow.wlk_solve_s", "flow.wlk_solve"),
                            ("flow.merge_s", "flow.merge"),
                            ("selection.metrics_s", "selection.metrics"),
                            ("hmm.step_s", "hmm.step"),
                            ("imaging.normalize_s", "imaging.normalize")):
            m[name] = (own[layer] * per, "s/frame")
        m["flow.wlk_solve_calls"] = (calls["flow.wlk_solve"], "count")
        summary = {name: {"self_s_per_frame": own[name] * per,
                          "share_of_wall_pct": pct(own[name], wall_s),
                          "calls": calls[name]}
                   for name in sorted(own, key=own.get, reverse=True)}
        return m, summary


def _switches(records, init_l):
    """Changes of the chosen state along one sequence, from ``init_l``."""
    chosen = [init_l] + [r.chosen_l for r in records]
    return sum(a != b for a, b in zip(chosen, chosen[1:]))
