"""File formats: event and count CSVs, model documents, exports."""

import csv
import decimal
import json
import os
import pickle
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hawkesgeo.em import FitReport, FullRankParams
from hawkesgeo.io import (
    CountSeries,
    MAX_DISCRETIZED_EVENTS,
    DataFormatError,
    atomic_write,
    discretize_counts,
    load_counts_csv,
    load_embedding_csv,
    load_events_csv,
    load_model,
    load_report,
    read_json,
    reorder_to_labels,
    save_events_csv,
    save_model,
    save_report,
    write_curve_csv,
    write_embedding_csv,
    write_json,
    write_qq_csv,
)
from hawkesgeo.model import (
    EmbeddingPair,
    EventRecord,
    KernelBank,
    ModelParams,
    NumericsWarning,
)

from conftest import make_model, reference_curve_csv, reference_discretize, \
    reference_embedding_csv, reference_events_csv, reference_qq_csv


class TestAtomicWrite:
    def test_success_replaces_target(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with atomic_write(target) as f:
            f.write("new")
        assert target.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_leaves_no_trace(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as f:
                f.write("half of the new conte")
                raise RuntimeError("disk fell over")
        assert target.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_with_no_preexisting_file(self, tmp_path):
        target = tmp_path / "fresh.txt"
        with pytest.raises(ValueError):
            with atomic_write(target) as f:
                f.write("x")
                raise ValueError("nope")
        assert os.listdir(tmp_path) == []

    def test_unwritable_target_is_a_data_error(self, tmp_path):
        (tmp_path / "taken").mkdir()
        for target in (tmp_path / "absent" / "out.txt", tmp_path / "taken"):
            with pytest.raises(DataFormatError,
                               match=f"cannot write {re.escape(str(target))}: "):
                with atomic_write(target) as f:
                    f.write("x")
        assert os.listdir(tmp_path) == ["taken"]
        assert os.listdir(tmp_path / "taken") == []

    def test_failure_after_the_temp_file_vanished_raises_the_writers_error(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError, match="writer failed"):
            with atomic_write(target):
                (temp,) = os.listdir(tmp_path)  # the sibling temp file
                os.unlink(tmp_path / temp)
                raise RuntimeError("writer failed")
        assert os.listdir(tmp_path) == []


# one valid file per reader; the first line of each CSV is its header
READERS = {
    "events": (load_events_csv, "type,time\na,1.5\nb,0.5\n"),
    "counts": (load_counts_csv, "location,day,cumulative_count\nLA,0,0\nLA,1,25\n"),
    "embedding": (load_embedding_csv,
                  "type_label,role,coord_1\na,reception,1.0\na,influence,-2.0\n"),
    "json": (read_json, '{"curve": [1.0, 2.5], "mode": "frb"}'),
}
CSV_READERS = ("events", "counts", "embedding")

FUZZ_PIECES = ("a", "LA", "reception", "influence", ",", '"', "'", " ", "\n", "\r",
               "\r\n", "\ufeff", "\x00", "é", "0", "1.5", "-2", "1e308", "1e999",
               "nan", "inf", "-inf", "{", "}", "[", "]", ":", "null", '"curve"')


@st.composite
def fuzzed_files(draw, valid):
    """Raw bytes, or text pieced from fragments of ``valid`` and of other
    formats, often after ``valid``'s first line and a BOM."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    header = valid.splitlines()[0]
    pieces = FUZZ_PIECES + (header, valid) + tuple(re.split("([,\n])", valid))
    text = draw(st.sampled_from(["", header + "\n", header + "\r\n"]))
    text += "".join(draw(st.lists(st.sampled_from(pieces), max_size=40)))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode()


class TestInputFiles:
    """Rules every reader shares: how a file is opened, decoded and split."""

    @pytest.mark.parametrize("name", list(READERS))
    @given(data=st.data())
    def test_fuzzed_file_loads_or_is_a_data_error(self, tmp_path_factory, name, data):
        load, valid = READERS[name]
        path = tmp_path_factory.mktemp("fuzz") / "input"
        path.write_bytes(data.draw(fuzzed_files(valid)))
        try:
            load(path)
        except DataFormatError:
            pass

    @pytest.mark.parametrize("name", list(READERS))
    def test_directory_is_a_data_error(self, tmp_path, name):
        load, _ = READERS[name]
        with pytest.raises(DataFormatError, match=f"cannot read {re.escape(str(tmp_path))}"):
            load(tmp_path)

    @pytest.mark.parametrize("name", CSV_READERS)
    def test_over_long_field_is_a_data_error(self, tmp_path, name):
        load, valid = READERS[name]
        path = tmp_path / "input.csv"
        path.write_text(valid + "x" * 131_073 + valid.splitlines()[1][1:] + "\n")
        with pytest.raises(DataFormatError, match="cannot read .*field limit"):
            load(path)

    @pytest.mark.parametrize("name", CSV_READERS)
    def test_blank_first_line_is_a_data_error(self, tmp_path, name):
        load, valid = READERS[name]
        path = tmp_path / "input.csv"
        path.write_text("\n" + valid)
        with pytest.raises(DataFormatError, match="header"):
            load(path)

    @pytest.mark.parametrize("name", list(READERS))
    def test_bom_and_blank_lines_are_skipped(self, tmp_path, name):
        load, valid = READERS[name]
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(valid)
        marked.write_bytes(b"\xef\xbb\xbf" + valid.replace("\n", "\r\n\r\n").encode())
        assert pickle.dumps(load(marked)) == pickle.dumps(load(plain))

    def test_deeply_nested_json_is_a_data_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(DataFormatError, match="not valid JSON"):
            read_json(path)


class TestEventsCsv:
    def test_round_trip_identity(self, tmp_path):
        record = EventRecord([0, 1, 0], [0.25, 1.0 / 3.0, 2.75], 2, 5.0,
                             ("north", "south"))
        path = tmp_path / "events.csv"
        save_events_csv(record, path)
        back = load_events_csv(path, horizon=5.0)
        assert np.array_equal(back.types, record.types)
        assert np.array_equal(back.times, record.times)
        assert back.labels == record.labels
        assert back.horizon == record.horizon

    def test_default_horizon_clears_last_event(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("type,time\na,1.0\na,7.5\n")
        record = load_events_csv(path)
        assert record.horizon > 7.5
        assert record.horizon == pytest.approx(7.5, rel=1e-8)

    def test_labels_map_by_first_appearance_then_sort(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("type,time\nlate,2.0\nearly,1.0\n")
        record = load_events_csv(path)
        assert record.labels == ("late", "early")
        assert np.array_equal(record.types, [1, 0])
        assert np.array_equal(record.times, [1.0, 2.0])

    def test_tied_times_keep_file_order(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("type,time\na,1.0\nb,1.0\nc,0.5\n")
        record = load_events_csv(path)
        assert np.array_equal(record.types, [2, 0, 1])

    def test_unlabeled_fallback_round_trips(self, tmp_path):
        record = EventRecord([1, 0], [1.0, 2.0], 2, 3.0)
        path = tmp_path / "events.csv"
        save_events_csv(record, path)
        back = load_events_csv(path, horizon=3.0)
        assert back.labels == ("1", "0")
        assert np.array_equal(back.types, [0, 1])

    def test_empty_and_header_only_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        header = tmp_path / "header.csv"
        header.write_text("type,time\n")
        for path in (empty, header):
            record = load_events_csv(path)
            assert record.N == 0 and record.n == 0
            assert record.horizon == 1.0

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("kind,when\na,1.0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_events_csv(path)

    def test_bad_rows_name_their_line(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("type,time\na,1.0\na,soon\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_events_csv(path)
        path.write_text("type,time\na,1.0,extra\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_events_csv(path)
        path.write_text("type,time\na,-1.0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_events_csv(path)
        path.write_text("type,time\na,inf\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_events_csv(path)

    def test_horizon_override_must_clear_last_event(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("type,time\na,1.0\na,2.0\n")
        with pytest.raises(DataFormatError, match="horizon"):
            load_events_csv(path, horizon=2.0)
        assert load_events_csv(path, horizon=2.5).horizon == 2.5
        # the default pad past the largest float overflows, silently
        path.write_text("type,time\na,1.7976931348623157e308\n")
        with pytest.raises(DataFormatError, match="horizon"), warnings.catch_warnings():
            warnings.simplefilter("error")
            load_events_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            load_events_csv(tmp_path / "absent.csv")

    @pytest.mark.parametrize("labels", [None, ("north", "a,b", 'q"x', " pad ")])
    def test_bytes_are_the_row_by_row_writers(self, tmp_path, labels):
        times = [0.0, 5e-324, 5e-324, 1.0 / 3.0, 2.5, 2.5, 2.5, 1.7e9, 1.7e9 + 0.125]
        types = [0, 1, 3, 2, 0, 3, 1, 2, 0]
        record = EventRecord(types, times, 4, 2e9, labels)
        save_events_csv(record, tmp_path / "fast.csv")
        reference_events_csv(record, tmp_path / "loop.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
        back = load_events_csv(tmp_path / "fast.csv", horizon=2e9)
        assert back.times.tobytes() == record.times.tobytes()

    @given(st.lists(st.tuples(st.integers(0, 2),
                              st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)),
                    max_size=30),
           st.booleans())
    def test_bytes_are_the_row_by_row_writers_for_any_times(self, tmp_path_factory, rows,
                                                            labelled):
        rows.sort(key=lambda row: row[1])
        types, times = [k for k, _ in rows], [t for _, t in rows]
        record = EventRecord(types, times, 3, 2.0 * times[-1] + 1.0 if times else 1.0,
                             ("x", "y,z", "") if labelled else None)
        path = tmp_path_factory.mktemp("csv")
        save_events_csv(record, path / "fast.csv")
        reference_events_csv(record, path / "loop.csv")
        assert (path / "fast.csv").read_bytes() == (path / "loop.csv").read_bytes()


COUNTS_HEADER = "location,day,cumulative_count\n"


class TestCountsCsv:
    def test_parses_locations_in_first_appearance_order(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(COUNTS_HEADER
                        + "LA,0,0\nSF,0,1\nLA,1,5\nSF,1,4\nLA,2,25\nSF,2,9\n")
        series = load_counts_csv(path)
        assert series.labels == ("LA", "SF")
        assert np.array_equal(series.days[0], [0.0, 1.0, 2.0])
        assert np.array_equal(series.cumulative[1], [1.0, 4.0, 9.0])

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("place,day,count\nLA,0,0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_counts_csv(path)

    def test_decreasing_counts_name_the_location(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(COUNTS_HEADER + "LA,0,5\nLA,1,3\n")
        with pytest.raises(DataFormatError, match="LA.*nondecreasing"):
            load_counts_csv(path)

    def test_non_increasing_days_name_the_location(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(COUNTS_HEADER + "SF,1,0\nSF,1,2\n")
        with pytest.raises(DataFormatError, match="SF.*increasing"):
            load_counts_csv(path)

    @pytest.mark.parametrize("rows", ["LA,0,0\nLA,1,inf\n", "LA,0,0\nLA,1,nan\n",
                                      "LA,0,0\nLA,nan,5\n"])
    def test_non_finite_values_name_the_location(self, tmp_path, rows):
        path = tmp_path / "counts.csv"
        path.write_text(COUNTS_HEADER + rows)
        with pytest.raises(DataFormatError, match="LA.*finite"):
            load_counts_csv(path)

    def test_unparseable_number_names_the_line(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(COUNTS_HEADER + "LA,0,0\nLA,one,5\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_counts_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_counts_csv(path)

    @pytest.mark.parametrize("labels, days, cumulative, msg", [
        (("LA", "SF"), ([0.0, 1.0],), ([0.0, 2.0],), "labels, days, cumulative must align"),
        (("LA",), ([0.0, 1.0],), ([0.0, 2.0], [0.0, 1.0]), "labels, days, cumulative must align"),
        (("LA",), ([0.0, 1.0],), ([0.0],), "location LA: days and counts must be matched"),
        (("LA",), ([[0.0, 1.0]],), ([[0.0, 2.0]],), "location LA: days and counts must be matched"),
        (("LA",), ([],), ([],), "location LA: days and counts must be matched"),
    ])
    def test_series_rejects_unmatched_arrays(self, labels, days, cumulative, msg):
        with pytest.raises(ValueError, match=msg):
            CountSeries(labels, days, cumulative)


class TestDiscretize:
    def test_log_linear_crossings_by_hand(self):
        series = CountSeries(("LA",), (np.array([0.0, 1.0, 2.0]),),
                             (np.array([0.0, 5.0, 25.0]),))
        record = discretize_counts(series, threshold=10.0)
        # levels 10 and 20 both fall in the second segment; on a log scale
        # the crossing fractions are ln(2)/ln(5) and ln(4)/ln(5)
        assert_allclose(record.times,
                        [1.0 + np.log(2.0) / np.log(5.0),
                         1.0 + np.log(4.0) / np.log(5.0)], rtol=1e-15)
        assert_allclose(record.times, [1.4306765580733933, 1.8613531161467862],
                        rtol=0)
        assert np.array_equal(record.types, [0, 0])
        assert record.horizon == 2.0

    def test_linear_interpolation_while_at_zero(self):
        series = CountSeries(("a",), (np.array([0.0, 1.0]),),
                             (np.array([0.0, 5.0]),))
        record = discretize_counts(series, threshold=2.0)
        assert_allclose(record.times, [0.4, 0.8], rtol=1e-15)

    def test_crossing_on_the_last_day_bumps_horizon(self):
        series = CountSeries(("a",), (np.array([0.0, 1.0, 2.0]),),
                             (np.array([0.0, 5.0, 20.0]),))
        record = discretize_counts(series, threshold=10.0)
        assert_allclose(record.times, [1.5, 2.0], rtol=1e-15)
        assert record.horizon > 2.0

    def test_initial_count_above_threshold_skips_passed_levels(self):
        series = CountSeries(("a",), (np.array([0.0, 1.0]),),
                             (np.array([25.0, 31.0]),))
        record = discretize_counts(series, threshold=10.0)
        # only the level 30 crossing remains; 10 and 20 predate the series
        assert record.N == 1
        assert_allclose(record.times,
                        [(np.log(30.0) - np.log(25.0))
                         / (np.log(31.0) - np.log(25.0))], rtol=1e-15)

    def test_never_crossing_location_warns_and_is_silent(self):
        series = CountSeries(("busy", "quiet"),
                             (np.array([0.0, 1.0]), np.array([0.0, 1.0])),
                             (np.array([0.0, 50.0]), np.array([0.0, 5.0])))
        with pytest.warns(NumericsWarning, match="quiet"):
            record = discretize_counts(series, threshold=10.0)
        assert np.all(record.types == 0)
        assert record.N == 5

    def test_locations_merge_sorted(self):
        series = CountSeries(("a", "b"),
                             (np.array([0.0, 2.0]), np.array([0.0, 2.0])),
                             (np.array([0.0, 20.0]), np.array([0.0, 30.0])))
        record = discretize_counts(series, threshold=10.0)
        assert np.all(np.diff(record.times) >= 0.0)
        assert_allclose(record.times[record.types == 0], [1.0, 2.0], rtol=1e-14)
        assert_allclose(record.times[record.types == 1],
                        [2.0 / 3.0, 4.0 / 3.0, 2.0], rtol=1e-14)

    def test_nonpositive_threshold_rejected(self):
        series = CountSeries(("a",), (np.array([0.0, 1.0]),),
                             (np.array([0.0, 5.0]),))
        for threshold in (0.0, float("nan")):
            with pytest.raises(ValueError, match="positive"):
                discretize_counts(series, threshold=threshold)

    def test_too_many_crossings_rejected_before_any_is_emitted(self):
        series = CountSeries(("a", "b"), (np.array([0.0, 1.0]), np.array([0.0, 1.0])),
                             (np.array([0.0, 1e300]), np.array([5.0, 20.0])))
        with pytest.raises(ValueError, match=r"gives 1e\+299 events"):
            discretize_counts(series, threshold=10.0)
        # a count over a tiny threshold floor-divides to inf
        with pytest.raises(ValueError, match="gives inf events"):
            discretize_counts(series, threshold=1e-300)
        limit = CountSeries(("a",), (np.array([0.0, 1.0]),),
                            (np.array([0.0, 10.0 * MAX_DISCRETIZED_EVENTS]),))
        assert discretize_counts(limit, threshold=10.0 * MAX_DISCRETIZED_EVENTS).N == 1


    def test_huge_counts_return_at_once(self, tmp_path):
        # levels past 2^53 round together, so stepping through them one at a
        # time would take about 7e13 steps, although no level is crossed
        series = CountSeries(("a",), (np.array([0.0, 1.0]),), (np.array([1e30, 1e30]),))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="location a: .*2\\^53"):
            discretize_counts(series, threshold=1.0)
        path = tmp_path / "counts.csv"
        path.write_text(COUNTS_HEADER + "a,0,1e30\na,1,1e30\n")
        with pytest.raises(ValueError, match="2\\^53"):
            discretize_counts(load_counts_csv(path), threshold=1.0)
        assert time.perf_counter() - start < 1.0
        top = 2.0**53
        for counts in ([top - 2.0, top], [top - 1.0, top - 1.0, top]):
            series = CountSeries(("a",), (np.arange(len(counts), dtype=float),),
                                 (np.array(counts),))
            with pytest.raises(ValueError, match="2\\^53"):
                discretize_counts(series, threshold=1.0)

    @pytest.mark.parametrize("low", [1e15, 2.0**53 - 4.0])
    def test_counts_whose_logs_round_together_interpolate_log_linearly(self, low):
        # log(2^53 - 4) and log(2^53 - 1) are one float, and a difference of
        # logs put all three crossings from 1e15 to 1e15 + 3 at 0, 0 and 1;
        # log1p of the relative rises gives the log-linear times to an ulp
        series = CountSeries(("a",), (np.array([0.0, 1.0]),), (np.array([low, low + 3.0]),))
        assert np.log(low + 3.0) - np.log(low) <= np.spacing(np.log(low))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = discretize_counts(series, threshold=1.0)
        with decimal.localcontext(prec=50):
            rise = [(decimal.Decimal(low + k) / decimal.Decimal(low)).ln() for k in (1, 2, 3)]
            exact = [float(r / rise[-1]) for r in rise]
        assert_allclose(record.times, exact, rtol=2 * np.finfo(float).eps, atol=0)
        assert_allclose(record.times, [1.0 / 3.0, 2.0 / 3.0, 1.0], rtol=1e-14)
        assert record.types.tolist() == [0, 0, 0]

    def test_a_tiny_first_count_interpolates_log_linearly(self):
        # the relative rise from 5e-324 to 300 overflows; the logs lie far apart
        series = CountSeries(("a",), (np.array([0.0, 1.0]),), (np.array([5e-324, 300.0]),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = discretize_counts(series, threshold=100.0)
        log0 = np.log(5e-324)
        assert_allclose(record.times, (np.log([100.0, 200.0, 300.0]) - log0)
                        / (np.log(300.0) - log0), rtol=1e-15)

    @given(st.data())
    def test_crossings_are_the_loops_to_the_bit(self, data):
        threshold = data.draw(st.sampled_from([0.1, 1.0, 7.3, 10.0]))
        count = st.one_of(st.just(0.0), st.floats(0.0, 300.0),
                          st.integers(0, 30).map(lambda q: q * threshold))
        n_loc = data.draw(st.integers(1, 4))
        days, cumulative = [], []
        for _ in range(n_loc):
            size = data.draw(st.integers(1, 7))
            gaps = data.draw(st.lists(st.floats(1e-3, 40.0), min_size=size, max_size=size))
            days.append(data.draw(st.floats(-5.0, 5.0)) + np.cumsum(gaps))
            cumulative.append(np.sort(data.draw(st.lists(count, min_size=size,
                                                         max_size=size))))
        series = CountSeries(tuple(f"L{i}" for i in range(n_loc)), days, cumulative)
        assert_discretized_like_the_loop(series, threshold)

    def test_crossings_are_the_loops_on_named_shapes(self):
        flat_zero_start = (np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
                           np.array([0.0, 0.0, 14.6, 14.6, 36.5]))
        above_at_start = (np.array([0.0, 2.0, 3.5]), np.array([21.9, 21.9, 80.0]))
        on_the_levels = (np.array([0.0, 1.0, 2.0]), np.array([7.3, 14.6, 73.0]))
        never = (np.array([0.0, 1.0]), np.array([0.05, 0.09]))
        shapes = (flat_zero_start, above_at_start, on_the_levels, never)
        series = CountSeries(("flat", "above", "levels", "never"),
                             [d for d, _ in shapes], [c for _, c in shapes])
        for threshold in (0.1, 7.3, 10.0):
            assert_discretized_like_the_loop(series, threshold)


def assert_discretized_like_the_loop(series, threshold):
    """``discretize_counts`` gives the reference loop's record byte for byte,
    with the same warnings in the same order."""
    with warnings.catch_warnings(record=True) as want_warned:
        warnings.simplefilter("always", NumericsWarning)
        want = reference_discretize(series, threshold)
    with warnings.catch_warnings(record=True) as got_warned:
        warnings.simplefilter("always", NumericsWarning)
        got = discretize_counts(series, threshold)
    assert got.types.tobytes() == want.types.tobytes()
    assert got.times.tobytes() == want.times.tobytes()
    assert (got.n, got.horizon, got.labels) == (want.n, want.horizon, want.labels)
    assert [str(w.message) for w in got_warned] == [str(w.message) for w in want_warned]

def float_lists(size, min_value, max_value=1e300):
    """Lists of finite floats in a range, subnormals and signed zeros included."""
    return st.lists(st.floats(min_value, max_value, allow_nan=False, allow_infinity=False),
                    min_size=size, max_size=size)


@st.composite
def saved_models(draw):
    """``(params, labels)``: geometric or full-rank, R = 1 or 2, labels or none."""
    n, R = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    mu = draw(float_lists(n, 0.0))
    kappa = draw(float_lists(R, 5e-324))
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        X, Y = (np.reshape(draw(float_lists(n * m, -1e300)), (n, m)) for _ in range(2))
        params = ModelParams(EmbeddingPair(X, Y),
                             KernelBank(draw(float_lists(R, 5e-324)), kappa,
                                        draw(float_lists(R, 0.0))),
                             draw(float_lists(n, 0.0)), mu)
    else:
        w0 = draw(st.floats(0.0, 1.0)) if R == 2 else 1.0
        params = FullRankParams(np.reshape(draw(float_lists(n * n, 0.0)), (n, n)), kappa,
                                [w0, 1.0 - w0][:R], mu)
    labels = draw(st.none() | st.lists(st.text(max_size=5), min_size=n, max_size=n,
                                       unique=True))
    return params, labels


class TestModelDocuments:
    @given(saved_models())
    def test_save_load_save_is_byte_stable(self, tmp_path_factory, model_and_labels):
        params, labels = model_and_labels
        first = tmp_path_factory.mktemp("model") / "model.json"
        save_model(params, first, labels=labels)
        back, back_labels = load_model(first, with_labels=True)
        second = first.with_name("again.json")
        save_model(back, second, labels=back_labels)
        assert second.read_bytes() == first.read_bytes()
        assert pickle.dumps(back) == pickle.dumps(params)

    @pytest.mark.parametrize("params", [None, {"mu": [0.1]}, np.eye(2)])
    def test_save_rejects_other_objects(self, tmp_path, params):
        with pytest.raises(TypeError, match="params must be ModelParams or FullRankParams"):
            save_model(params, tmp_path / "model.json")
        assert os.listdir(tmp_path) == []

    def test_round_trip_is_exact(self, tmp_path, rng):
        params = make_model(rng, n=4, m=3, R=2)
        path = tmp_path / "model.json"
        save_model(params, path, labels=["a", "b", "c", "d"])
        back, labels = load_model(path, with_labels=True)
        assert labels == ("a", "b", "c", "d")
        assert np.array_equal(back.embedding.reception, params.embedding.reception)
        assert np.array_equal(back.embedding.influence, params.embedding.influence)
        assert np.array_equal(back.kernels.beta_sq, params.kernels.beta_sq)
        assert np.array_equal(back.kernels.kappa, params.kernels.kappa)
        assert np.array_equal(back.kernels.gamma, params.kernels.gamma)
        assert np.array_equal(back.xi, params.xi)
        assert np.array_equal(back.mu, params.mu)

    def test_default_labels_are_indices(self, tmp_path, rng):
        params = make_model(rng, n=3)
        path = tmp_path / "model.json"
        save_model(params, path)
        _, labels = load_model(path, with_labels=True)
        assert labels == ("0", "1", "2")

    @pytest.mark.parametrize("labels", [[], ["a", "b"], ["a", "b", "c", "d"]])
    def test_labels_must_have_length_n(self, tmp_path, rng, labels):
        params = make_model(rng, n=3)
        for write in (save_model, write_embedding_csv):
            with pytest.raises(ValueError, match="labels must have length n"):
                write(params, path=tmp_path / "out", labels=labels)
        assert os.listdir(tmp_path) == []

    def test_full_rank_round_trip(self, tmp_path, rng):
        params = FullRankParams(rng.uniform(0.0, 0.3, size=(3, 3)),
                                np.array([0.5, 2.0]),
                                np.array([0.25, 0.75]),
                                rng.uniform(0.1, 0.4, size=3))
        path = tmp_path / "model.json"
        save_model(params, path, labels=list("xyz"))
        back, labels = load_model(path, with_labels=True)
        assert isinstance(back, FullRankParams)
        assert labels == ("x", "y", "z")
        assert np.array_equal(back.phi, params.phi)
        assert np.array_equal(back.kappa, params.kappa)
        assert np.array_equal(back.w, params.w)
        assert np.array_equal(back.mu, params.mu)

    @pytest.mark.parametrize("field, value", [
        ("kappa", [np.inf]), ("mu", [np.inf, 0.5]), ("w", [np.nan]),
        ("phi", [[0.2, np.inf], [0.2, 0.2]]),
    ])
    def test_non_finite_full_rank_values_are_flagged(self, tmp_path, field, value):
        path = tmp_path / "model.json"
        save_model(FullRankParams(np.full((2, 2), 0.2), [1.0], [1.0], [0.5, 0.5]), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="inconsistent"):
            load_model(path)

    @pytest.mark.parametrize("phi", [5, [0.2, 0.2], [[0.2, 0.2]]])
    def test_full_rank_phi_of_the_wrong_rank_is_inconsistent(self, tmp_path, phi):
        # a scalar phi has no shape[0]: the rank is checked before the size
        path = tmp_path / "model.json"
        save_model(FullRankParams(np.full((2, 2), 0.2), [1.0], [1.0], [0.5, 0.5]), path)
        doc = json.loads(path.read_text())
        doc["phi"] = phi
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError,
                           match=r"inconsistent model document \(phi must be square\)"):
            load_model(path)

    def _doc(self, tmp_path, rng):
        path = tmp_path / "model.json"
        save_model(make_model(rng, n=2), path)
        with open(path) as f:
            return path, json.load(f)

    def test_missing_field_is_named(self, tmp_path, rng):
        path, doc = self._doc(tmp_path, rng)
        del doc["xi"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="xi"):
            load_model(path)

    def test_unknown_field_is_named(self, tmp_path, rng):
        path, doc = self._doc(tmp_path, rng)
        doc["flavor"] = "grape"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="flavor"):
            load_model(path)

    def test_unknown_schema_version(self, tmp_path, rng):
        path, doc = self._doc(tmp_path, rng)
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="unsupported schema_version 99$"):
            load_model(path)

    def test_unknown_kind(self, tmp_path, rng):
        path, doc = self._doc(tmp_path, rng)
        doc["kind"] = "banded"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="kind"):
            load_model(path)

    def test_disagreeing_sizes(self, tmp_path, rng):
        path, doc = self._doc(tmp_path, rng)
        doc["n"] = 5
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="sizes"):
            load_model(path)
        doc["n"] = 2
        doc["m"] = 7
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="m disagrees"):
            load_model(path)
        doc["m"] = 2
        doc["type_labels"] = ["only"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="type_labels"):
            load_model(path)

    @pytest.mark.parametrize("labels", [5, None, "ab", "abcd"])
    def test_type_labels_must_be_a_list(self, tmp_path, rng, labels):
        # a string would be split into one-character labels, as many as n here
        path, doc = self._doc(tmp_path, rng)
        doc["type_labels"] = labels
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="type_labels must be a list"):
            load_model(path)

    def test_type_labels_items_are_read_as_text(self, tmp_path, rng):
        path = tmp_path / "model.json"
        save_model(make_model(rng, n=2), path, labels=[1, 2])
        assert load_model(path, with_labels=True)[1] == ("1", "2")

    def test_invalid_values_are_flagged(self, tmp_path, rng):
        path, doc = self._doc(tmp_path, rng)
        doc["beta_sq"] = [-1.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="inconsistent"):
            load_model(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("type,time\n")
        with pytest.raises(DataFormatError, match="JSON"):
            load_model(path)
        with pytest.raises(DataFormatError, match="not found"):
            load_model(tmp_path / "absent.json")

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(DataFormatError, match="object"):
            load_model(path)


class TestReorder:
    def test_geometric_permutation(self, rng):
        params = make_model(rng, n=3)
        out = reorder_to_labels(params, ["a", "b", "c"], ["c", "a", "b"])
        perm = [2, 0, 1]
        assert np.array_equal(out.mu, params.mu[perm])
        assert np.array_equal(out.xi, params.xi[perm])
        assert np.array_equal(out.embedding.reception, params.embedding.reception[perm])
        assert np.array_equal(out.embedding.influence, params.embedding.influence[perm])
        assert out.kernels is params.kernels

    def test_full_rank_permutes_both_axes(self, rng):
        phi = np.arange(9.0).reshape(3, 3) / 20.0
        params = FullRankParams(phi, np.array([1.0]), np.array([1.0]),
                                np.array([0.1, 0.2, 0.3]))
        out = reorder_to_labels(params, list("abc"), list("cab"))
        perm = np.array([2, 0, 1])
        assert np.array_equal(out.phi, phi[np.ix_(perm, perm)])
        assert np.array_equal(out.mu, params.mu[perm])

    def test_disagreeing_label_sets_rejected(self, rng):
        params = make_model(rng, n=2)
        with pytest.raises(DataFormatError, match="labels disagree"):
            reorder_to_labels(params, ["a", "b"], ["a", "z"])

    @pytest.mark.parametrize("params", [None, {"mu": [0.1, 0.2]}, np.eye(2)])
    def test_other_objects_rejected(self, params):
        with pytest.raises(TypeError, match="params must be ModelParams or FullRankParams"):
            reorder_to_labels(params, ["a", "b"], ["b", "a"])


class TestWriteJson:
    def test_one_sorted_key_a_line(self, tmp_path, capsys):
        doc = {"zeta": {"b": 1, "a": [0.1, None]}, "alpha": 1.0 / 3.0, "mid": "x\n"}
        path = tmp_path / "doc.json"
        write_json(doc, path)
        text = path.read_text()
        assert text == ('{\n  "alpha": 0.3333333333333333,\n  "mid": "x\\n",\n'
                        '  "zeta": {"a": [0.1, null], "b": 1}\n}\n')
        assert json.loads(text) == doc
        write_json(doc)  # standard output
        assert capsys.readouterr().out == text
        write_json({}, path)
        assert path.read_text() == "{}\n"

    def test_model_and_report_round_trip_exactly_in_sorted_lines(self, tmp_path, rng):
        params = make_model(rng, n=4, m=3, R=2)
        report = FitReport("frb", np.array([-10.0, -8.0 / 3.0]), params, params, best_epoch=1,
                           p_background=rng.uniform(size=4500), wall_time=1.0)
        for path, save, load in ((tmp_path / "model.json", lambda p: save_model(params, p),
                                  lambda p: load_model(p)),
                                 (tmp_path / "report.json",
                                  lambda p: save_report(report, p, config={"z": 1, "a": 2}),
                                  load_report)):
            save(path)
            lines = path.read_text().splitlines()
            keys = [line.split('"')[1] for line in lines[1:-1]]
            assert keys == sorted(keys) == sorted(json.loads(path.read_text()))
            back = load(path)
            if path.name == "model.json":
                assert pickle.dumps(back) == pickle.dumps(params)
            else:
                assert back["curve"] == report.curve.tolist()
                assert np.array(back["p_background"]).tobytes() == report.p_background.tobytes()
                assert lines[keys.index("config") + 1] == '  "config": {"a": 2, "z": 1},'


class TestReport:
    def test_round_trip(self, tmp_path):
        report = FitReport("hhg-b", np.array([-10.0, -8.0, -8.5]), None, None,
                           best_epoch=1, p_background=None, wall_time=12.5,
                           aborted_epoch=2)
        path = tmp_path / "report.json"
        save_report(report, path, config={"epochs": 3, "eps": 0.1})
        doc = load_report(path)
        assert doc["mode"] == "hhg-b"
        assert doc["curve"] == [-10.0, -8.0, -8.5]
        assert doc["epochs_run"] == 3
        assert doc["best_epoch"] == 1
        assert doc["aborted_epoch"] == 2
        assert doc["p_background"] == []
        assert doc["config"] == {"epochs": 3, "eps": 0.1}
        assert "wall_time" not in doc
        # background probabilities come back to the bit
        p_background = np.array([1.0 / 3.0, 5e-324, 0.0, 1.0, 0.1 + 0.2, 1.0 - 2.0**-53])
        report.p_background = p_background
        save_report(report, path)
        back = np.array(load_report(path)["p_background"])
        assert back.dtype == p_background.dtype
        assert back.tobytes() == p_background.tobytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"schema_version": 0}))
        with pytest.raises(DataFormatError, match="unsupported schema_version 0$"):
            load_report(path)
        with pytest.raises(DataFormatError, match="not found"):
            load_report(tmp_path / "absent.json")


class TestEmbeddingCsv:
    def test_export_round_trips(self, tmp_path, rng):
        params = make_model(rng, n=3, m=2)
        path = tmp_path / "embedding.csv"
        write_embedding_csv(params, ["u", "v", "w"], path)
        labels, X, Y = load_embedding_csv(path)
        assert labels == ("u", "v", "w")
        assert np.array_equal(X, params.embedding.reception)
        assert np.array_equal(Y, params.embedding.influence)

    def test_single_role_layout(self, tmp_path):
        path = tmp_path / "embedding.csv"
        path.write_text("type_label,coord_1,coord_2\na,0.5,1.5\nb,-1.0,2.0\n")
        labels, X, Y = load_embedding_csv(path)
        assert labels == ("a", "b")
        assert np.array_equal(X, [[0.5, 1.5], [-1.0, 2.0]])
        assert Y is None

    def test_plain_type_header_accepted(self, tmp_path):
        path = tmp_path / "embedding.csv"
        path.write_text("type,coord_1\na,1.0\n")
        labels, X, Y = load_embedding_csv(path)
        assert labels == ("a",) and X[0, 0] == 1.0

    def test_malformed_inputs(self, tmp_path):
        path = tmp_path / "embedding.csv"
        path.write_text("type_label,x,y\na,1,2\n")
        with pytest.raises(DataFormatError, match="header"):
            load_embedding_csv(path)
        path.write_text("type_label,role,coord_1\na,reception,1.0,9\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_embedding_csv(path)
        path.write_text("type_label,role,coord_1\na,emission,1.0\n")
        with pytest.raises(DataFormatError, match="role"):
            load_embedding_csv(path)
        path.write_text("type_label,coord_1\na,1.0\na,2.0\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_embedding_csv(path)
        path.write_text("type_label,role,coord_1\na,reception,1.0\n")
        with pytest.raises(DataFormatError, match="influence"):
            load_embedding_csv(path)
        path.write_text("type_label,role,coord_1\na,influence,1.0\n")
        with pytest.raises(DataFormatError, match="reception"):
            load_embedding_csv(path)
        path.write_text("type_label,coord_1\na,wide\n")
        with pytest.raises(DataFormatError, match="coordinate"):
            load_embedding_csv(path)
        for value in ("nan", "inf", "-1e999"):
            path.write_text(f"type_label,coord_1\nb,0.0\na,{value}\n")
            with pytest.raises(DataFormatError, match="line 3: coordinates must be finite"):
                load_embedding_csv(path)


class TestPlotExports:
    def test_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv({"curve": [-3.0, -2.5]}, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "train_log_likelihood"]
        assert rows[1] == ["0", "-3.0"]
        assert rows[2] == ["1", "-2.5"]

    def test_qq_csv(self, tmp_path):
        path = tmp_path / "qq.csv"
        write_qq_csv(np.array([[0.1, 0.2], [0.3, 0.4]]), path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["empirical_quantile", "theoretical_quantile"]
        assert [float(v) for v in rows[1]] == [0.1, 0.2]
        assert len(rows) == 3

    @pytest.mark.parametrize("labels", [None, ("north", "a,b", 'q"x', " pad ")])
    def test_embedding_bytes_are_the_row_by_row_writer(self, tmp_path, rng, labels):
        params = make_model(rng, n=4, m=3)
        X = params.embedding.reception.copy()
        X[0, 0], X[1, 1], X[2, 2], X[3, 0] = -0.0, 5e-324, 1.0 / 3.0, -1.7976931348623157e308
        params = ModelParams(EmbeddingPair(X, params.embedding.influence), params.kernels,
                             params.xi, params.mu)
        write_embedding_csv(params, labels, tmp_path / "fast.csv")
        reference_embedding_csv(params, labels, tmp_path / "loop.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    @pytest.mark.parametrize("curve", [[], [-3, -2.5, 5e-324, -0.0, 1.0 / 3.0, -1e300, 7]])
    def test_curve_bytes_are_the_row_by_row_writer(self, tmp_path, curve):
        write_curve_csv({"curve": curve}, tmp_path / "fast.csv")
        reference_curve_csv({"curve": curve}, tmp_path / "loop.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    @pytest.mark.parametrize("points", [np.empty((0, 2)),
                                        np.array([[0.0, -0.0], [5e-324, 1.0 / 3.0],
                                                  [0.1, 0.2], [1e300, 1.7976931348623157e308]])])
    def test_qq_bytes_are_the_row_by_row_writer(self, tmp_path, points):
        write_qq_csv(points, tmp_path / "fast.csv")
        reference_qq_csv(points, tmp_path / "loop.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
