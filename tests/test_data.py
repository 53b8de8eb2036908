import numpy as np
import pytest

from pairedsurv import PairedSample, build_sample, load_csv, write_csv

from conftest import five_pair_records


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


def test_sample_arrays_read_only():
    sample = build_sample(five_pair_records())
    with pytest.raises(ValueError):
        sample.times[0, 0] = 99.0


def test_paired_sample_validates_assignment():
    with pytest.raises(ValueError):
        PairedSample([[1.0, 2.0]], [[True, True]], [2])
