"""Frame/mask data model, feature normalization and sequence file I/O.

A sequence on disk is a directory with a JSON manifest, one CSV file of
Kelvin temperatures per frame (``frame_{t:04}.csv``) and one CSV of {0,1}
per mask (``mask_{t:04}.csv``). CSV floats are written with %.17g so a
write/load round trip is bit exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DegenerateNormalizationError(ValueError):
    """Raised when the masked temperatures have no spread to normalize."""


class EmptyMaskError(ValueError):
    """Raised when a mask selects no cloud pixels."""


@dataclass(frozen=True)
class Frame:
    """One temperature image in Kelvin with its position in the sequence."""

    temperatures: np.ndarray
    index: int = 0

    def __post_init__(self):
        t = np.asarray(self.temperatures, dtype=float)
        if t.ndim != 2:
            raise ValueError("temperatures must be a 2-D grid")
        if not np.all(np.isfinite(t)):
            raise ValueError("temperatures must be finite")
        if np.any(t <= 0):
            raise ValueError("temperatures must be positive Kelvin")
        if self.index < 0:
            raise ValueError("frame index must be nonnegative")
        object.__setattr__(self, "temperatures", t)

    @property
    def height(self):
        return self.temperatures.shape[0]

    @property
    def width(self):
        return self.temperatures.shape[1]


@dataclass(frozen=True)
class SegmentationMask:
    """Boolean grid marking cloud pixels; only these are ever modeled."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values).astype(bool)
        if v.ndim != 2:
            raise ValueError("mask must be a 2-D grid")
        object.__setattr__(self, "values", v)

    @property
    def n_cloud(self):
        return int(self.values.sum())


def _masked_values(frame, mask):
    if frame.temperatures.shape != mask.values.shape:
        raise ValueError("frame and mask shapes differ")
    vals = frame.temperatures[mask.values]
    if vals.size < 1:
        raise EmptyMaskError("mask selects no cloud pixels")
    return vals


def normalize_beta(frame, mask, eps=1e-6):
    """Masked temperatures mapped affinely onto [eps, 1 - eps].

    Returns one value per masked pixel in row-major mask order.
    """
    vals = _masked_values(frame, mask)
    lo, hi = vals.min(), vals.max()
    if hi == lo:
        raise DegenerateNormalizationError("masked temperatures are constant")
    return np.clip((vals - lo) / (hi - lo), eps, 1.0 - eps)


def normalize_gamma(frame, mask, eps=1e-6):
    """Masked temperatures shifted so the minimum sits at eps (> 0)."""
    vals = _masked_values(frame, mask)
    lo, hi = vals.min(), vals.max()
    if hi == lo:
        raise DegenerateNormalizationError("masked temperatures are constant")
    return vals - lo + eps


def _frame_name(t):
    return f"frame_{t:04}.csv"


def _mask_name(t):
    return f"mask_{t:04}.csv"


def write_sequence(directory, sequence):
    """Write (Frame, SegmentationMask) pairs plus a manifest; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    height = width = None
    for frame, mask in sequence:
        if height is None:
            height, width = frame.height, frame.width
        np.savetxt(directory / _frame_name(frame.index), frame.temperatures,
                   fmt="%.17g", delimiter=",")
        np.savetxt(directory / _mask_name(frame.index),
                   mask.values.astype(int), fmt="%d", delimiter=",")
        entries.append({"t": frame.index,
                        "frame": _frame_name(frame.index),
                        "mask": _mask_name(frame.index)})
    manifest = {"height": height, "width": width, "frames": entries}
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def _require_keys(doc, keys, manifest_path):
    if not isinstance(doc, dict):
        raise ValueError(f"manifest {manifest_path} holds {doc!r} where a "
                         "JSON object belongs")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"manifest {manifest_path} lacks key "
                         + ", ".join(repr(k) for k in missing))


def load_sequence(manifest_path):
    """Load an ordered list of (Frame, SegmentationMask) from a manifest."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    _require_keys(manifest, ("height", "width", "frames"), manifest_path)
    height, width = manifest["height"], manifest["width"]
    root = manifest_path.parent

    entries = manifest["frames"]
    if not isinstance(entries, list):
        raise ValueError(f"manifest {manifest_path} \"frames\" is not a list")
    for entry in entries:
        _require_keys(entry, ("t", "frame", "mask"), manifest_path)
    indices = [e["t"] for e in entries]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError("manifest frame indices are not strictly increasing")

    out = []
    for entry in entries:
        fpath, mpath = root / entry["frame"], root / entry["mask"]
        for p in (fpath, mpath):
            if not p.exists():
                raise FileNotFoundError(f"referenced file not found: {p}")
        temps = np.loadtxt(fpath, delimiter=",", ndmin=2)
        maskv = np.loadtxt(mpath, delimiter=",", ndmin=2)
        for p, arr in ((fpath, temps), (mpath, maskv)):
            if arr.shape != (height, width):
                raise ValueError(f"shape mismatch in {p}: "
                                 f"{arr.shape} != {(height, width)}")
        out.append((Frame(temps, index=entry["t"]),
                    SegmentationMask(maskv != 0)))
    return out
