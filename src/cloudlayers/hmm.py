"""Sequential layer-count detection: sticky transition prior and per-frame
MAP state selection.

The transition prior is exponential-family with exponent psi = -beta when the
hypothesis keeps the previous state and +beta when it switches; its normalizer
cancels in the argmax and is never computed. The resulting rule is a
hysteresis: switching from state a to b requires the per-frame posterior-sum
advantage of b to exceed 2 * beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def psi(l_t, l_prev, beta):
    """Transition exponent: -beta if the state is kept, +beta otherwise."""
    return -beta if l_t == l_prev else +beta


@dataclass(frozen=True, slots=True)
class HypothesisScore:
    l: int
    posterior_sum: float
    psi: float
    total: float

    def to_json_dict(self):
        return {"l": self.l, "posterior_sum": float(self.posterior_sum),
                "psi": float(self.psi), "total": float(self.total)}


@dataclass
class HmmState:
    previous_l: int = 1
    beta: float = 0.0

    def __post_init__(self):
        if self.previous_l not in (1, 2):
            raise ValueError("previous_l must be 1 or 2")
        if not 0 <= self.beta < math.inf:
            raise ValueError("beta must be finite and >= 0")


def score_from_sum(l, posterior_sum, state):
    """Score one hypothesis from its summed log posterior (CDLL form)."""
    pen = psi(l, state.previous_l, state.beta)
    return HypothesisScore(l=l, posterior_sum=float(posterior_sum), psi=pen,
                           total=float(posterior_sum) - pen)


def step(scores, state):
    """MAP state selection: argmax of the totals, ties keep the previous state.

    Mutates and returns ``state`` alongside the chosen L.
    """
    if len({s.l for s in scores}) != len(scores):
        raise ValueError("exactly one score per hypothesis required")
    best = max(scores, key=lambda s: (s.total, s.l == state.previous_l))
    state.previous_l = best.l
    return best.l, state
