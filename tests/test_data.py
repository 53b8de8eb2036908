import numpy as np
import pytest

from pairedsurv import PairedSample, build_sample, load_csv, write_csv

from conftest import five_pair_records, simulated_sample


def test_build_single_pair():
    sample = build_sample([("a", 1, True, 8.3, True), ("a", 2, False, 1.8, True)])
    assert sample.n_pairs == 1
    assert sample.assignment[0] == 1
    assert sample.times[0, 0] == 8.3


def test_assignment_follows_treated_position():
    sample = build_sample([("a", 1, False, 1.0, True), ("a", 2, True, 2.0, True)])
    assert sample.assignment[0] == -1


def test_missing_position_raises():
    with pytest.raises(ValueError, match="is missing position 2"):
        build_sample([("a", 1, True, 1.0, True),
                      ("a", 2, False, 2.0, True),
                      ("b", 1, True, 3.0, True)])


def test_both_treated_raises():
    with pytest.raises(ValueError, match="both units of pair"):
        build_sample([("a", 1, True, 1.0, True), ("a", 2, True, 2.0, True)])


def test_neither_treated_raises():
    with pytest.raises(ValueError, match="neither unit of pair"):
        build_sample([("a", 1, False, 1.0, True), ("a", 2, False, 2.0, True)])


def test_duplicate_unit_raises():
    with pytest.raises(ValueError, match="supplied twice"):
        build_sample([("a", 1, True, 1.0, True), ("a", 1, False, 2.0, True)])


@pytest.mark.parametrize("bad_time", [-0.5, float("nan"), float("inf")])
def test_bad_times_raise(bad_time):
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        build_sample([("a", 1, True, bad_time, True), ("a", 2, False, 2.0, True)])


@pytest.mark.parametrize("record, message", [
    # a truthy string, a bool position and a bool time used to be read as true, 1 and 1.0
    (("a", True, 1, 1.0, 0), "position must be 1 or 2, got True"),
    (("a", 1.0, 1, 1.0, 0), "position must be 1 or 2, got 1.0"),
    (("a", 3, 1, 1.0, 0), "position must be 1 or 2, got 3"),
    (("a", 1, "0", 1.0, 0), "treated must be 0 or 1, got '0'"),
    (("a", 1, 2, 1.0, 0), "treated must be 0 or 1, got 2"),
    (("a", 1, None, 1.0, 0), "treated must be 0 or 1, got None"),
    (("a", 1, 1, 1.0, "False"), "event must be 0 or 1, got 'False'"),
    (("a", 1, 1, 1.0, np.nan), "event must be 0 or 1, got nan"),
    (("a", 1, 1, True, 0), "time must be a real number, got True"),
    (("a", 1, 1, "1.0", 0), "time must be a real number, got '1.0'"),
    (("a", 1, 1, 10 ** 400, 0), "time must be a real number, got 1000"),
    (("a", 1, 1, 1.0), r"a unit record is \(pair_id, position, treated, time, event\)"),
])
def test_build_refuses_a_field_it_used_to_coerce(record, message):
    with pytest.raises(ValueError, match=message):
        build_sample([record, ("a", 2, 0, 2.0, 0)])


def test_build_checks_time_then_position_then_treated_then_event():
    # this input used to give events [[True, True]]
    with pytest.raises(ValueError, match="position must be 1 or 2, got True"):
        build_sample([("a", True, 1, 1.0, "0"), ("a", 2, 0, 2.0, "False")])
    record = ["a", True, "0", "1.0", "False"]  # every field but the id refused
    for name, index, good in (("time", 3, 1.0), ("position", 1, 1), ("treated", 2, 1),
                              ("event", 4, 0)):
        with pytest.raises(ValueError, match=f"^{name} must"):
            build_sample([tuple(record), ("a", 2, 0, 2.0, 0)])
        record[index] = good
    assert build_sample([tuple(record), ("a", 2, 0, 2.0, 0)]).events.tolist() == [[False, False]]


def pairs_oracle(records):
    """Reference pairing, one record at a time: (times, events, assignment,
    pair_ids), or the message of the first fault."""
    slots = {}
    for pair_id, position, treated, time, event in records:
        got = slots.setdefault(pair_id, {})
        if position in got:
            return f"pair {pair_id!r} position {position} supplied twice"
        got[position] = (bool(treated), float(time), bool(event))
    for pair_id, got in slots.items():
        if set(got) != {1, 2}:
            return f"pair {pair_id!r} is missing position {({1, 2} - set(got)).pop()}"
        if got[1][0] == got[2][0]:
            return (f"both units of pair {pair_id!r} are treated" if got[1][0]
                    else f"neither unit of pair {pair_id!r} is treated")
    return ([[got[1][1], got[2][1]] for got in slots.values()],
            [[got[1][2], got[2][2]] for got in slots.values()],
            [1 if got[1][0] else -1 for got in slots.values()], list(slots))


@pytest.mark.parametrize("seed", range(40))
def test_build_pairs_as_the_record_loop_does(seed):
    # units of up to six pairs, each kept with probability 0.95, one treated
    # unit in nine pairs of ten, and at times a repeated unit; 1 and 2.0 are
    # ids like any other
    rng = np.random.default_rng(seed)
    records = []
    for pid in ["a", "b", "c", 1, 2.0, ("t",)][:int(rng.integers(1, 7))]:
        first = bool(rng.integers(2))
        treated = (first, first if rng.random() < 0.1 else not first)
        records += [(pid, position, treated[position - 1], float(rng.integers(10)) / 4,
                     bool(rng.integers(2))) for position in (1, 2) if rng.random() < 0.95]
    records = records or [("a", 1, True, 1.0, True)]
    if rng.random() < 0.2:
        records.append(records[int(rng.integers(len(records)))])
    records = [records[k] for k in rng.permutation(len(records))]
    expected = pairs_oracle(records)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as caught:
            build_sample(records)
        assert str(caught.value) == expected
    else:
        sample = build_sample(records)
        got = (sample.times.tolist(), sample.events.tolist(), sample.assignment.tolist(),
               sample.pair_ids)
        assert got == expected


def test_build_accepts_numpy_and_numeric_fields():
    sample = build_sample([("a", np.int64(1), np.True_, np.float64(1.5), 1.0),
                           ("a", 2, 0.0, 2, np.int8(0))])
    assert sample.times.tolist() == [[1.5, 2.0]]
    assert sample.events.tolist() == [[True, False]]
    assert sample.assignment.tolist() == [1]


def test_empty_raises():
    with pytest.raises(ValueError, match="no unit records supplied"):
        build_sample([])


def test_pair_order_follows_first_appearance():
    sample = build_sample(five_pair_records())
    assert sample.pair_ids == ["p1", "p2", "p3", "p4", "p5"]


def test_csv_round_trip(tmp_path):
    sample = build_sample(five_pair_records())
    path = tmp_path / "pairs.csv"
    write_csv(path, sample)
    back = load_csv(path)
    np.testing.assert_array_equal(back.times, sample.times)
    np.testing.assert_array_equal(back.events, sample.events)
    np.testing.assert_array_equal(back.assignment, sample.assignment)


def test_csv_accepts_byte_order_mark(tmp_path):
    # spreadsheets save "CSV UTF-8" with a leading BOM
    sample = build_sample(five_pair_records())
    path = tmp_path / "pairs.csv"
    write_csv(path, sample)
    bom_path = tmp_path / "bom.csv"
    bom_path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    a, b = load_csv(path), load_csv(bom_path)
    assert a.pair_ids == b.pair_ids
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.events, b.events)
    np.testing.assert_array_equal(a.assignment, b.assignment)


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,pos,treat,time,event\na,1,1,1.0,1\n")
    with pytest.raises(ValueError):
        load_csv(path)


def test_csv_rejects_nonbinary_flag(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "pair_id,position,treated,time,event\na,1,2,1.0,1\na,2,0,2.0,1\n"
    )
    with pytest.raises(ValueError):
        load_csv(path)


def test_csv_unparseable_number_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "pair_id,position,treated,time,event\n"
        "a,1,1,1.0,1\na,2,0,2.0,1\nb,1,1,abc,1\nb,2,0,2.0,1\n"
    )
    with pytest.raises(ValueError, match="malformed row at line 4: .*'abc'"):
        load_csv(path)


@pytest.mark.parametrize("time", ["nan", "inf", "-1"])
def test_csv_bad_time_names_line(tmp_path, time):
    # PairedSample would refuse these too, but without the line number
    path = tmp_path / "bad.csv"
    path.write_text(
        "pair_id,position,treated,time,event\n"
        f"a,1,1,1.0,1\na,2,0,2.0,1\nb,1,1,{time},1\nb,2,0,2.0,1\n"
    )
    with pytest.raises(ValueError, match=f"malformed row at line 4: time must be finite "
                                         f"and >= 0, got '{time}'"):
        load_csv(path)


@pytest.mark.parametrize("position", ["3", "0"])
def test_csv_bad_position_names_line(tmp_path, position):
    # build_sample refuses it too, but without the line number
    path = tmp_path / "bad.csv"
    path.write_text(
        "pair_id,position,treated,time,event\n"
        f"a,1,1,1.0,1\na,{position},0,2.0,1\n"
    )
    with pytest.raises(ValueError, match=f"malformed row at line 3: position must be 1 "
                                         f"or 2, got '{position}'"):
        load_csv(path)


def test_csv_error_names_physical_line(tmp_path):
    # the quoted pair_id of the first row spans lines 2-3
    path = tmp_path / "bad.csv"
    path.write_text('pair_id,position,treated,time,event\n"a\nb",1,1,1.0,1\nc,1,1,x,1\n')
    with pytest.raises(ValueError, match="malformed row at line 4: .*'x'"):
        load_csv(path)


@pytest.mark.parametrize("row", ["a,1,1,2.0,1,EXTRA", "a,1,1,2.0"])
def test_csv_rejects_wrong_field_count(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"pair_id,position,treated,time,event\n{row}\na,2,0,3.0,1\n")
    with pytest.raises(ValueError, match="malformed row at line 2: .*values to unpack"):
        load_csv(path)


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("pair_id,position,treated,time,event\na,1,1,2.0,1\n\na,2,0,3.0,1\n\n")
    assert load_csv(path).times.tolist() == [[2.0, 3.0]]


def test_sample_arrays_read_only():
    sample = build_sample(five_pair_records())
    with pytest.raises(ValueError):
        sample.times[0, 0] = 99.0


def test_paired_sample_validates_assignment():
    with pytest.raises(ValueError):
        PairedSample([[1.0, 2.0]], [[True, True]], [2])
    # a fraction is not truncated to a sign, and a bool is not a sign
    for signs in ([1.5], [-0.5], [True], [np.nan], ["1"]):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            PairedSample([[1.0, 2.0]], [[True, True]], signs)


def test_csv_names_the_first_faulty_line_of_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("pair_id,position,treated,time,event\n"
                    "a,1,1,1.0,1\na,7,0,2.0,1\nb,1,1,2.0,1\nb,2,0,oops,1\n")
    with pytest.raises(ValueError, match="malformed row at line 3: position must be 1 or 2"):
        load_csv(path)


@pytest.mark.parametrize("row, message", [
    ("a,9,2,x,2,EXTRA", "too many values to unpack"),
    ("a,9,2,x,2", "could not convert string to float: 'x'"),
    ("a,9,2,-1,2", "time must be finite and >= 0, got '-1'"),
    ("a,9,2,1.0,2", "position must be 1 or 2, got '9'"),
    ("a,1,2,1.0,2", "treated must be 0 or 1, got '2'"),
    ("a,1,1,1.0,2", "event must be 0 or 1, got '2'"),
])
def test_csv_checks_a_row_field_count_time_position_treated_event(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"pair_id,position,treated,time,event\na,2,0,1.0,1\n{row}\n")
    with pytest.raises(ValueError, match=f"malformed row at line 3: {message}"):
        load_csv(path)


def test_csv_names_a_faulty_line_far_into_the_file(tmp_path):
    # the rows are read in lists of a few hundred; each quoted id spans two lines
    lines = ["pair_id,position,treated,time,event", '"x\ny",1,1,1.0,1', '"x\ny",2,0,1.0,1']
    lines += [f"p{k},{1 + k % 2},{k % 2},2.5,0" for k in range(4, 1004)]
    lines[700] = "p700,1,1,-3,0"
    lines[800] = "p800,1,1"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="malformed row at line 703: time must be finite"):
        load_csv(path)
    lines[700] = "p700,1,1,3,0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="malformed row at line 803: not enough values"):
        load_csv(path)


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_csv_round_trips_ids_with_commas_quotes_and_newlines(tmp_path, bom):
    ids = ["plain", "a,b", 'say "hi"', "two\nlines", "crlf\r\nend", " pad ", "x,\"y\"\nz"]
    records = [(pid, position, position == 1 + k % 2, 0.5 * k + position, k % 2 == 0)
               for k, pid in enumerate(ids) for position in (1, 2)]
    sample = build_sample(records)
    path = tmp_path / "ids.csv"
    write_csv(path, sample)
    path.write_bytes(bom + path.read_bytes())
    back = load_csv(path)
    assert back.pair_ids == ids
    np.testing.assert_array_equal(back.times, sample.times)
    np.testing.assert_array_equal(back.events, sample.events)
    np.testing.assert_array_equal(back.assignment, sample.assignment)


def test_csv_load_equals_build_sample_on_the_same_records(tmp_path):
    sim = simulated_sample(10_000, "ph", seed=11)
    ids = [f"id{k}" for k in np.random.default_rng(5).permutation(sim.n_pairs)]
    order = np.random.default_rng(6).permutation(2 * sim.n_pairs)  # units in any order
    records = [(ids[u // 2], 1 + u % 2, bool(sim.assignment[u // 2] == 1 - 2 * (u % 2)),
                float(sim.unit_times[u]), bool(sim.unit_events[u])) for u in order]
    built = build_sample(records)
    path = tmp_path / "sim.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pair_id,position,treated,time,event\n")
        fh.writelines(f"{pid},{pos},{int(tr)},{t!r},{int(ev)}\n"
                      for pid, pos, tr, t, ev in records)
    loaded = load_csv(path)
    assert loaded.pair_ids == built.pair_ids
    for name in ("times", "events", "assignment"):
        a, b = getattr(loaded, name), getattr(built, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
