"""Data model for matched pairs of right-censored observations.

A sample is ``I`` pairs of two units each.  Every unit carries an observed
time (the minimum of its survival and censoring times) and an event flag
(True when the event was observed before censoring).  Exactly one unit per
pair is treated; ``assignment`` is +1 when position 1 is the treated unit
and -1 when position 2 is.
"""

from __future__ import annotations

import csv
import io
from itertools import chain, count, cycle, islice, takewhile

import numpy as np

from .errors import (check_assignment, check_each_real, check_flags, check_positions,
                     check_times)


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

    Each record is ``(pair_id, position, treated, time, event)``: position
    an integer 1 or 2 (not a bool), treated and event each a bool or a
    number equal to 0 or 1, and time a real number (not a bool or a
    string).  The records are checked field by field, a column at a time,
    and the first value a field refuses is named.  Every pair_id must then
    appear exactly twice, once per position, with exactly one treated unit.
    Pair order follows first appearance in ``records``.
    """
    records = list(map(tuple, records))
    if not records:
        raise ValueError("no unit records supplied")
    if set(map(len, records)) != {5}:
        bad = next(record for record in records if len(record) != 5)
        raise ValueError(f"a unit record is (pair_id, position, treated, time, event), "
                         f"got {bad!r}")
    ids, position, treated, time, event = zip(*records)
    time = check_each_real(time, "time must be a real number")  # checked in this order
    position = check_positions(position)
    treated, event = check_flags(treated, "treated"), check_flags(event, "event")
    return _pair_up(ids, position, treated, time, event)


def _pair_up(ids, position, treated, time, event) -> PairedSample:
    """The sample of checked unit columns: ``ids`` (hashable pair labels),
    ``position`` (1 or 2), the ``treated`` and ``event`` bools and ``time``.

    Pairs keep the order in which their ids first appear.  The first unit
    that repeats a (pair, position) is refused; then the first pair, in
    that order, that lacks a position, has both units treated or has
    neither.
    """
    first = {}  # each id's first row, in order of first appearance
    row = np.fromiter(map(first.setdefault, ids, count()), np.intp, len(ids))
    units = np.arange(len(ids))
    pair = (np.cumsum(row == units) - 1)[row]  # the rank of the unit's id among first rows
    slot, n_pairs = 2 * pair + position - 1, len(first)
    filled = np.bincount(slot, minlength=2 * n_pairs)
    if filled.max() > 1:
        k = np.setdiff1d(units, np.unique(slot, return_index=True)[1])[0]  # not its slot's first
        raise ValueError(f"pair {ids[k]!r} position {position[k]} supplied twice")
    on = np.zeros(2 * n_pairs, dtype=bool)
    on[slot] = treated
    has, on = filled.reshape(-1, 2) == 1, on.reshape(-1, 2)
    faulty = ~has.all(axis=1) | (on[:, 0] == on[:, 1])
    if faulty.any():
        p = int(np.argmax(faulty))
        pair_id = list(first)[p]
        if not has[p].all():
            raise ValueError(f"pair {pair_id!r} is missing position {2 if has[p, 0] else 1}")
        if on[p, 0]:
            raise ValueError(f"both units of pair {pair_id!r} are treated")
        raise ValueError(f"neither unit of pair {pair_id!r} is treated")
    times = np.empty(2 * n_pairs)
    times[slot] = time
    events = np.zeros(2 * n_pairs, dtype=bool)
    events[slot] = event
    return PairedSample(times.reshape(-1, 2), events.reshape(-1, 2),
                        np.where(on[:, 0], 1, -1), pair_ids=list(first))


CSV_HEADER = ["pair_id", "position", "treated", "time", "event"]
# Rows are gathered into columns _CHUNK at a time, fewer than the garbage
# collector's first threshold (700 allocations), so each row's list dies young
# instead of being swept again and again as the columns grow.
_CHUNK = 256


def load_csv(path) -> PairedSample:
    """Read a sample from CSV with header pair_id,position,treated,time,event.

    Every row has exactly these five fields; blank lines are skipped.
    ``position`` is 1 or 2; ``treated`` and ``event`` are 0/1; times are
    finite and >= 0 with a ``.`` decimal point.  A UTF-8 byte-order mark is
    accepted.  The ``csv`` module parses the rows, and each field is checked
    a column at a time with one rule (positions and flags once per distinct
    text); only when a check fails is the first faulty row read again, to
    word its error and name its physical line, so a quoted field spanning
    lines does not shift the count.  Within a row the field count is
    checked first, then time, position, treated and event.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        text = fh.read()
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or [f.strip() for f in header] != CSV_HEADER:
        raise ValueError(f"expected CSV header {','.join(CSV_HEADER)}, got {header}")
    columns = [[] for _ in CSV_HEADER]
    rows, short = filter(None, reader), False
    for chunk in iter(lambda: list(islice(rows, _CHUNK)), []):
        if set(map(len, chunk)) != {5}:  # columns end before the first such row
            short, chunk = True, list(takewhile(lambda row: len(row) == 5, chunk))
        for column, values in zip(columns, zip(*chunk)):
            column.extend(values)
        if short:
            break
    ids, position, treated, time, event = columns
    time = _floats(time)
    position = _codes(position, _position)
    treated, event = _codes(treated, _binary), _codes(event, _binary)
    faulty = ~((0.0 <= time) & (time < np.inf)) | (position == 0) | (treated < 0) | (event < 0)
    if faulty.any() or short:
        _refuse_row(text, int(np.argmax(faulty)) if faulty.any() else len(ids))
    if not ids:
        raise ValueError(f"no data rows in {path}")
    return _pair_up(ids, position, treated == 1, time, event == 1)


def _floats(texts) -> np.ndarray:
    """Each text as a float, NaN where ``float`` refuses it."""
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:  # some row is faulty: mark which
        return np.array([_float_or_nan(text) for text in texts])


def _float_or_nan(text) -> float:
    try:
        return float(text)
    except ValueError:
        return np.nan


def _codes(texts, parse) -> np.ndarray:
    """Each text's code as int8, from one ``parse`` per distinct text."""
    lookup = {text: parse(text) for text in set(texts)}
    return np.fromiter(map(lookup.__getitem__, texts), np.int8, len(texts))


def _position(text) -> int:
    """1 or 2, or 0 where ``_refuse_row`` refuses the text."""
    try:
        value = int(text)
    except ValueError:
        return 0
    return value if value in (1, 2) else 0


def _binary(text) -> int:
    """0 or 1, or -1 for any other text."""
    return {"0": 0, "1": 1}.get(text.strip(), -1)


def _refuse_row(text, k) -> None:
    """Raise the error of data row ``k`` (blank lines skipped), naming the
    physical line on which the row ends."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)  # the header
    row = next(islice(filter(None, reader), k, None))
    try:
        pair_id, position, treated, time, event = row
        if not 0.0 <= float(time) < np.inf:  # NaN fails too
            raise ValueError(f"time must be finite and >= 0, got {time!r}")
        if int(position) not in (1, 2):
            raise ValueError(f"position must be 1 or 2, got {position!r}")
        for name, value in (("treated", treated), ("event", event)):
            if _binary(value) < 0:
                raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    except ValueError as exc:
        raise ValueError(f"malformed row at line {reader.line_num}: {exc}") from exc


def write_csv(path, sample: PairedSample) -> None:
    """Inverse of load_csv, mainly for round-tripping simulated data.  The
    rows are written from the sample's columns, each time as ``repr`` of
    its float."""
    ids = sample.pair_ids or range(1, sample.n_pairs + 1)
    first = sample.assignment == 1  # position 1 is the treated unit
    treated = np.column_stack([first, ~first]).view(np.int8).ravel().tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(zip(chain.from_iterable(zip(ids, ids)), cycle((1, 2)), treated,
                             sample.times.ravel().tolist(),
                             sample.events.ravel().view(np.int8).tolist()))
