"""Sticky transition prior and the sequential MAP selection rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudlayers.hmm import (HmmState, HypothesisScore, psi, score_from_sum,
                             step)


def test_psi_examples():
    assert psi(1, 1, 100.0) == -100.0
    assert psi(2, 2, 100.0) == -100.0
    assert psi(2, 1, 100.0) == +100.0
    assert psi(1, 2, 100.0) == +100.0
    assert psi(1, 2, 0.0) == 0.0


def test_score_totals_hand_example():
    # previous state 1, beta = 100: keeping pays +100, switching pays -100.
    state = HmmState(previous_l=1, beta=100.0)
    keep = score_from_sum(1, -180.0, state)
    switch = score_from_sum(2, -10.0, state)
    assert keep.total == pytest.approx(-80.0)     # -180 - (-100)
    assert switch.total == pytest.approx(-110.0)  # -10 - (+100)
    # Raw advantage 170 < 2 beta = 200, so the detector keeps state 1.
    chosen, state = step([keep, switch], state)
    assert chosen == 1 and state.previous_l == 1


def test_switch_happens_past_hysteresis():
    state = HmmState(previous_l=1, beta=100.0)
    keep = score_from_sum(1, -300.0, state)
    switch = score_from_sum(2, -50.0, state)  # advantage 250 > 200
    chosen, state = step([keep, switch], state)
    assert chosen == 2 and state.previous_l == 2


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
       st.floats(0, 2e3), st.sampled_from([1, 2]))
def test_hysteresis_identity(sum_keep, sum_switch, beta, prev):
    """Switch iff the posterior-sum advantage strictly exceeds 2 beta."""
    state = HmmState(previous_l=prev, beta=beta)
    other = 3 - prev
    scores = [score_from_sum(prev, sum_keep, state),
              score_from_sum(other, sum_switch, state)]
    chosen, _ = step(scores, state)
    if sum_switch - sum_keep > 2.0 * beta:
        assert chosen == other
    else:
        assert chosen == prev


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4), st.sampled_from([1, 2]))
def test_beta_zero_is_per_frame_argmax(s1, s2, prev):
    state = HmmState(previous_l=prev, beta=0.0)
    scores = [score_from_sum(1, s1, state), score_from_sum(2, s2, state)]
    chosen, _ = step(scores, state)
    if s1 > s2:
        assert chosen == 1
    elif s2 > s1:
        assert chosen == 2
    else:
        assert chosen == prev  # exact tie keeps the previous state


def test_exact_tie_keeps_previous_state():
    for prev in (1, 2):
        state = HmmState(previous_l=prev, beta=50.0)
        # Engineer equal totals: switching must overcome exactly 2 beta.
        scores = [score_from_sum(prev, 0.0, state),
                  score_from_sum(3 - prev, 100.0, state)]
        assert scores[0].total == scores[1].total
        chosen, _ = step(scores, state)
        assert chosen == prev


def test_totals_are_shift_invariant():
    # Adding a constant to both posterior sums (an unnormalized-prior or
    # partition-function shift) never changes the decision.
    state1 = HmmState(previous_l=1, beta=10.0)
    state2 = HmmState(previous_l=1, beta=10.0)
    a = [score_from_sum(1, -5.0, state1), score_from_sum(2, 20.0, state1)]
    b = [score_from_sum(1, -5.0 + 1e3, state2),
         score_from_sum(2, 20.0 + 1e3, state2)]
    c1, _ = step(a, state1)
    c2, _ = step(b, state2)
    assert c1 == c2


def test_step_rejects_duplicate_hypotheses():
    state = HmmState(previous_l=1, beta=0.0)
    s = score_from_sum(1, 0.0, state)
    with pytest.raises(ValueError):
        step([s, s], state)


def test_state_validation():
    with pytest.raises(ValueError):
        HmmState(previous_l=3)
    for beta in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="beta"):
            HmmState(previous_l=1, beta=beta)


def test_score_json_dict():
    s = HypothesisScore(l=2, posterior_sum=-1.5, psi=3.0, total=-4.5)
    assert s.to_json_dict() == {"l": 2, "posterior_sum": -1.5,
                                "psi": 3.0, "total": -4.5}
