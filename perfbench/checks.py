"""Output checks and the determinism digest for scored sequences."""

from __future__ import annotations

import hashlib


def is_failed(rec):
    return bool(rec.flags.get("frame_failed")) or rec.error is not None


def check_sequence(seq, records, beta, init_l):
    """Problems found in one sequence's records; empty when they are right.

    Checks the record count, strictly increasing ``t``, ``chosen_l`` in
    {1, 2}, ``total == posterior_sum - psi`` for every score, and the
    ``2 * beta`` hysteresis of the chosen states against the recorded
    posterior sums (failed frames keep the state).
    """
    problems = []
    where = f"sequence {seq.sid}"
    if len(records) != len(seq.pairs) - 1:
        problems.append(f"{where}: {len(records)} records for "
                        f"{len(seq.pairs)} frames")
    ts = [r.t for r in records]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        problems.append(f"{where}: t not strictly increasing: {ts}")
    prev = init_l
    for rec in records:
        at = f"{where} t={rec.t}"
        if rec.chosen_l not in (1, 2):
            problems.append(f"{at}: chosen_l {rec.chosen_l!r}")
            continue
        for s in rec.scores:
            if s.total != s.posterior_sum - s.psi:
                problems.append(f"{at}: L{s.l} total {s.total!r} != "
                                f"{s.posterior_sum!r} - {s.psi!r}")
            if s.psi != (-beta if s.l == prev else beta):
                problems.append(f"{at}: L{s.l} psi {s.psi!r} with previous "
                                f"state {prev}")
        sums = {s.l: s.posterior_sum for s in rec.scores}
        if rec.flags.get("frame_failed"):
            expected = prev
        elif set(sums) == {1, 2}:
            advantage = sums[3 - prev] - sums[prev]
            scale = max([1.0] + [abs(v) for v in sums.values()
                                 if abs(v) != float("inf")])
            if abs(advantage - 2.0 * beta) <= 1e-9 * scale:
                expected = rec.chosen_l  # at the threshold either is right
            else:
                expected = 3 - prev if advantage > 2.0 * beta else prev
        else:
            problems.append(f"{at}: scores for {sorted(sums)}, want [1, 2]")
            expected = rec.chosen_l
        if rec.chosen_l != expected:
            problems.append(f"{at}: chose L{rec.chosen_l} from L{prev}, the "
                            f"2*beta rule gives L{expected}")
        prev = rec.chosen_l
    return problems


def digest(record_lists):
    """SHA-256 over the ``to_json_line()`` of every record, in order."""
    h = hashlib.sha256()
    for records in record_lists:
        for rec in records:
            h.update(rec.to_json_line().encode())
            h.update(b"\n")
    return h.hexdigest()
