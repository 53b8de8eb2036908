"""Data model for matched pairs of right-censored observations.

A sample is ``I`` pairs of two units each.  Every unit carries an observed
time (the minimum of its survival and censoring times) and an event flag
(True when the event was observed before censoring).  Exactly one unit per
pair is treated; ``assignment`` is +1 when position 1 is the treated unit
and -1 when position 2 is.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import check_assignment, check_times


class PairedSample:
    """Array-backed container for ``I`` matched pairs.

    Parameters
    ----------
    times : (I, 2) array of observed times, column j holds position j+1.
    events : (I, 2) boolean array of event indicators.
    assignment : (I,) array of +1/-1 treated-side signs.
    pair_ids : optional sequence of labels, one per pair.
    """

    def __init__(self, times, events, assignment, pair_ids=None):
        times = check_times(times)
        events = np.asarray(events, dtype=bool)
        assignment = check_assignment(assignment)
        if times.ndim != 2 or times.shape[1] != 2:
            raise ValueError("times must have shape (I, 2)")
        if events.shape != times.shape:
            raise ValueError("events must match the shape of times")
        if assignment.shape != (times.shape[0],):
            raise ValueError("assignment must have shape (I,)")
        if times.shape[0] < 1:
            raise ValueError("a sample needs at least one pair")
        if pair_ids is not None:
            pair_ids = list(pair_ids)
            if len(pair_ids) != times.shape[0]:
                raise ValueError("pair_ids length must equal the number of pairs")
        self.times = times
        self.events = events
        self.assignment = assignment
        self.pair_ids = pair_ids
        self.times.setflags(write=False)
        self.events.setflags(write=False)
        self.assignment.setflags(write=False)

    @property
    def n_pairs(self) -> int:
        return self.times.shape[0]

    @property
    def unit_times(self):
        """All 2I observed times, pair-major order (i1, i2, ...)."""
        return self.times.reshape(-1)

    @property
    def unit_events(self):
        return self.events.reshape(-1)

    def __repr__(self):
        return f"PairedSample(n_pairs={self.n_pairs})"


def build_sample(records) -> PairedSample:
    """Assemble a PairedSample from unit records.

    Each record is ``(pair_id, position, treated, time, event)`` with
    position in {1, 2} and booleans (or 0/1) for treated/event.  Every
    pair_id must appear exactly twice, once per position, with exactly one
    treated unit.  Pair order follows first appearance in ``records``.
    """
    records = list(records)
    if not records:
        raise ValueError("no unit records supplied")
    slots: dict = {}  # keeps first-appearance order
    for rec in records:
        pair_id, position, treated, time, event = rec
        if position not in (1, 2):
            raise ValueError(f"position must be 1 or 2, got {position!r}")
        got = slots.setdefault(pair_id, {})
        if position in got:
            raise ValueError(f"pair {pair_id!r} position {position} supplied twice")
        got[position] = (bool(treated), float(time), bool(event))

    times, events, assignment = [], [], []
    for pair_id, got in slots.items():
        if set(got) != {1, 2}:
            missing = ({1, 2} - set(got)).pop()
            raise ValueError(f"pair {pair_id!r} is missing position {missing}")
        (t1, y1, e1), (t2, y2, e2) = got[1], got[2]
        if t1 and t2:
            raise ValueError(f"both units of pair {pair_id!r} are treated")
        if not t1 and not t2:
            raise ValueError(f"neither unit of pair {pair_id!r} is treated")
        times.append([y1, y2])
        events.append([e1, e2])
        assignment.append(1 if t1 else -1)
    return PairedSample(times, events, assignment, pair_ids=list(slots))


CSV_HEADER = ["pair_id", "position", "treated", "time", "event"]


def load_csv(path) -> PairedSample:
    """Read a sample from CSV with header pair_id,position,treated,time,event.

    Every row has exactly these five fields; blank lines are skipped.
    ``position`` is 1 or 2; ``treated`` and ``event`` are 0/1; times are
    finite and >= 0 with a ``.`` decimal point.  A UTF-8 byte-order mark is
    accepted.  Errors name the physical line, so a quoted field spanning
    lines does not shift the count.
    """
    records = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [f.strip() for f in header] != CSV_HEADER:
            raise ValueError(f"expected CSV header {','.join(CSV_HEADER)}, got {header}")
        for row in filter(None, reader):
            try:
                pair_id, position, treated, time, event = row
                if not 0.0 <= float(time) < np.inf:  # NaN fails too
                    raise ValueError(f"time must be finite and >= 0, got {time!r}")
                if int(position) not in (1, 2):
                    raise ValueError(f"position must be 1 or 2, got {position!r}")
                records.append((pair_id, int(position), _parse_binary(treated, "treated"),
                                float(time), _parse_binary(event, "event")))
            except ValueError as exc:
                raise ValueError(f"malformed row at line {reader.line_num}: {exc}") from exc
    if not records:
        raise ValueError(f"no data rows in {path}")
    return build_sample(records)


def _parse_binary(text, name) -> bool:
    value = str(text).strip()
    if value not in ("0", "1"):
        raise ValueError(f"{name} must be 0 or 1, got {text!r}")
    return value == "1"


def write_csv(path, sample: PairedSample) -> None:
    """Inverse of load_csv, mainly for round-tripping simulated data."""
    ids = sample.pair_ids or [str(i + 1) for i in range(sample.n_pairs)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i in range(sample.n_pairs):
            treated_pos = 1 if sample.assignment[i] == 1 else 2
            for j in (1, 2):
                writer.writerow(
                    [
                        ids[i],
                        j,
                        int(j == treated_pos),
                        repr(float(sample.times[i, j - 1])),
                        int(sample.events[i, j - 1]),
                    ]
                )
