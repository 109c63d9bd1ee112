import datetime
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equidrift import (
    DateRange,
    ModelParams,
    ReturnPanel,
    VolMatrix,
    load_csv,
    load_french,
    read_matrix_csv,
    synthetic_panel,
    write_csv,
    write_matrix_csv,
)
from equidrift import data
from equidrift.data import parse_integer, parse_real
from equidrift.errors import EmptyPanel, EquidriftError, NonMonotonicDates, ParseError

FRENCH_SAMPLE = """\
  Average Value Weighted Returns -- Daily
  Industry portfolios constructed from sorted stocks.

          Agric  Food   Hlth
19870101   1.00  -2.50   0.30
19870102 -99.99   0.50 -999
19870105   0.25   0.10   0.00

  Average Equal Weighted Returns -- Daily
          Agric  Food   Hlth
19870101   9.99   9.99   9.99
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDateRange:
    def test_parse_pair_and_single(self):
        assert DateRange.parse("19871019-19871023") == DateRange(19871019, 19871023)
        assert DateRange.parse("20000301") == DateRange(20000301, 20000301)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            DateRange(19871023, 19871019)
        with pytest.raises(ValueError):
            DateRange(19871340, 19871341)
        with pytest.raises(ValueError):
            DateRange.parse("1987-10-19")

    @pytest.mark.parametrize("date", [20200230, 20200231, 20210229, 21000229, 19870431])
    def test_rejects_calendar_impossible_dates(self, date):
        with pytest.raises(ValueError, match="impossible month or day"):
            DateRange(date, date)

    @pytest.mark.parametrize("date", [20200229, 20000229, 16000229, 20210228, 20201231])
    def test_accepts_leap_days_and_month_ends(self, date):
        assert DateRange.parse(str(date)) == DateRange(date, date)


CALENDAR_DATES = st.dates(datetime.date(1000, 1, 1), datetime.date(9999, 12, 31)).map(
    lambda d: d.year * 10000 + d.month * 100 + d.day
)

#: Digit scripts that int() reads as ASCII digits: fullwidth, Arabic-Indic
#: and Devanagari.
OTHER_DIGITS = [str.maketrans("0123456789", "".join(chr(z + i) for i in range(10)))
                for z in (0xFF10, 0x0660, 0x0966)]


class TestDateRangeParse:
    @settings(max_examples=200)
    @given(a=CALENDAR_DATES, b=CALENDAR_DATES)
    def test_calendar_dates_parse(self, a, b):
        a, b = min(a, b), max(a, b)
        assert DateRange.parse(f"{a}-{b}") == DateRange(a, b)
        assert DateRange.parse(str(a)) == DateRange(a, a)

    @settings(max_examples=300)
    @given(text=st.text())
    def test_arbitrary_text_raises_only_value_error(self, text):
        try:
            DateRange.parse(text)
        except ValueError:
            pass

    @settings(max_examples=200)
    @given(date=CALENDAR_DATES, at=st.integers(1, 7), how=st.integers(0, 6))
    def test_token_not_8_ascii_digits_is_rejected(self, date, at, how):
        token = str(date)
        bad = [
            token[:at] + "_" + token[at:],  # int() reads these three as the date
            "+" + token,
            token.translate(OTHER_DIGITS[at % 3]),
            token[:at] + token[at].translate(OTHER_DIGITS[at % 3]) + token[at + 1 :],
            "-" + token,
            token[:at] + token[at + 1 :],
            token + token[at],
        ][how]
        for text in (bad, f"{bad}-{token}", f"{token}-{bad}"):
            with pytest.raises(ValueError, match="cannot parse date range"):
                DateRange.parse(text)


class TestTokenConverters:
    """Flags and config values go through the file grammar, one token at a time."""

    @settings(max_examples=300)
    @given(
        x=st.floats(allow_nan=False),
        form=st.sampled_from(["{!r}", "{:g}", "{:.17e}", "{:.3f}", " {!r}\t"]),
    )
    def test_real_reads_decimals_as_float_does(self, x, form):
        token = form.format(x)
        assert np.float64(parse_real(token)).tobytes() == np.float64(float(token)).tobytes()

    @settings(max_examples=200)
    @given(i=st.integers(-(10**40), 10**40), plus=st.booleans())
    def test_integer_reads_signed_ascii_digits(self, i, plus):
        assert parse_integer(("+" if plus and i >= 0 else "") + str(i)) == i

    @pytest.mark.parametrize(
        "token", ["0_5", "1_000", "３０", "٠.٥", "0x10", "", " ", "1 2", "1,2", "1d3"]
    )
    def test_real_rejects(self, token):
        with pytest.raises(ValueError, match="could not convert string to float"):
            parse_real(token)

    @pytest.mark.parametrize(
        "token", ["3_0", "３０", "٣", "1.0", "1e3", "0x10", "", "+", "- 1", "inf", "nan"]
    )
    def test_integer_rejects(self, token):
        with pytest.raises(ValueError, match="could not convert string to integer"):
            parse_integer(token)


class TestReturnPanel:
    def make(self):
        return ReturnPanel(
            dates=[19870101, 19870102, 19870105],
            assets=("A", "B"),
            returns=[[0.01, 0.02], [0.03, np.nan], [0.0, -0.01]],
            missing_mask=[[False, False], [False, True], [False, False]],
        )

    def test_out_of_order_dates_rejected(self):
        with pytest.raises(NonMonotonicDates, match="19870105 then 19870102"):
            ReturnPanel(
                dates=[19870101, 19870105, 19870102],
                assets=("A",),
                returns=[[0.0], [0.0], [0.0]],
                missing_mask=np.zeros((3, 1), dtype=bool),
            )

    def test_duplicate_dates_rejected(self):
        with pytest.raises(NonMonotonicDates):
            ReturnPanel(
                dates=[19870101, 19870101],
                assets=("A",),
                returns=[[0.0], [0.0]],
                missing_mask=np.zeros((2, 1), dtype=bool),
            )

    @pytest.mark.parametrize(
        "dates, message",
        [
            ([20000228, 20000229, 20000230], "date 20000230 has an impossible month or day"),
            ([2000013, 20000103], "date 2000013 is not an 8-digit YYYYMMDD date"),
        ],
    )
    def test_impossible_dates_rejected(self, dates, message):
        # the rule DateRange and the loaders apply; 20000229 is a leap day
        with pytest.raises(ValueError, match=f"^{message}$"):
            ReturnPanel(
                dates=dates,
                assets=("A",),
                returns=np.zeros((len(dates), 1)),
                missing_mask=np.zeros((len(dates), 1), dtype=bool),
            )

    def test_unmasked_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ReturnPanel(
                dates=[19870101],
                assets=("A",),
                returns=[[np.nan]],
                missing_mask=[[False]],
            )

    def test_slice_inclusive_and_single_day(self):
        panel = self.make()
        mid = panel.slice(DateRange(19870102, 19870105))
        assert mid.dates.tolist() == [19870102, 19870105]
        one = panel.slice(DateRange(19870101, 19870101))
        assert one.n_dates == 1

    def test_slice_disjoint_range(self):
        with pytest.raises(EmptyPanel):
            self.make().slice(DateRange(19900101, 19901231))

    def test_take_rows(self):
        panel = self.make()
        sub = panel.take_rows(1, 3)
        assert sub.dates.tolist() == [19870102, 19870105]
        with pytest.raises(ValueError):
            panel.take_rows(2, 2)

    def test_drop_assets(self):
        panel = self.make()
        only_b = panel.drop_assets(["A"])
        assert only_b.assets == ("B",)
        np.testing.assert_array_equal(only_b.missing_mask[:, 0], [False, True, False])
        with pytest.raises(ValueError, match="unknown"):
            panel.drop_assets(["C"])
        with pytest.raises(EmptyPanel):
            panel.drop_assets(["A", "B"])

    def test_arrays_are_read_only(self):
        panel = self.make()
        with pytest.raises(ValueError):
            panel.returns[0, 0] = 1.0

    def test_row_subsets_are_read_only(self):
        panel = self.make()
        for sub in (panel.take_rows(0, 2), panel.slice(DateRange(19870102, 19870105))):
            for arr in (sub.dates, sub.returns, sub.missing_mask):
                with pytest.raises(ValueError):
                    arr[0] = 0


class TestLoadFrench:
    def test_percent_conversion_and_missing_codes(self, tmp_path):
        panel = load_french(write(tmp_path, "f.txt", FRENCH_SAMPLE))
        assert panel.assets == ("Agric", "Food", "Hlth")
        assert panel.dates.tolist() == [19870101, 19870102, 19870105]
        np.testing.assert_allclose(panel.returns[0], [0.01, -0.025, 0.003], rtol=1e-15)
        np.testing.assert_array_equal(
            panel.missing_mask, [[0, 0, 0], [1, 0, 1], [0, 0, 0]]
        )
        assert math.isnan(panel.returns[1, 0]) and math.isnan(panel.returns[1, 2])

    def test_reads_only_first_block(self, tmp_path):
        panel = load_french(write(tmp_path, "f.txt", FRENCH_SAMPLE))
        # the equal-weighted block repeats date 19870101 with 9.99 rows
        assert panel.n_dates == 3
        assert not np.any(panel.returns[~panel.missing_mask] > 1.0)

    def test_header_with_date_label(self, tmp_path):
        text = FRENCH_SAMPLE.replace("          Agric", "    Date  Agric")
        panel = load_french(write(tmp_path, "f.txt", text))
        assert panel.assets == ("Agric", "Food", "Hlth")

    def test_drop_and_range_filters(self, tmp_path):
        panel = load_french(write(tmp_path, "f.txt", FRENCH_SAMPLE), drop_assets=("Hlth",))
        panel = panel.slice(DateRange(19870102, 19870105))
        assert panel.assets == ("Agric", "Food")
        assert panel.dates.tolist() == [19870102, 19870105]

    def test_ragged_row_reports_line_number(self, tmp_path):
        text = FRENCH_SAMPLE.replace("19870102 -99.99   0.50 -999", "19870102 -99.99")
        with pytest.raises(ParseError, match="line 6"):
            load_french(write(tmp_path, "f.txt", text))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_token_reports_line_number(self, tmp_path, token):
        text = FRENCH_SAMPLE.replace("19870105   0.25", f"19870105   {token}")
        with pytest.raises(ParseError, match="line 7: non-finite") as exc_info:
            load_french(write(tmp_path, "f.txt", text))
        assert exc_info.value.line_number == 7

    @pytest.mark.parametrize("date", ["1987010\u00b2", "\uff11\uff19\uff18\uff17\uff10\uff11\uff10\uff15"])
    def test_non_ascii_digit_date_reports_line_number(self, tmp_path, date):
        # str.isdigit() holds for both; int() rejects the first and reads
        # the fullwidth one as 19870105
        text = FRENCH_SAMPLE.replace("19870105", date)
        with pytest.raises(ParseError, match=f"line 7: bad date '{date}'") as exc_info:
            load_french(write(tmp_path, "f.txt", text))
        assert exc_info.value.line_number == 7

    @pytest.mark.parametrize("date", ["1987O102", "1987010"])
    def test_bad_date_inside_the_block_reports_line_number(self, tmp_path, date):
        # the block ends at its first blank line; ending it at the first
        # line without an 8-digit date loaded the one row above this one
        text = FRENCH_SAMPLE.replace("19870102", date)
        with pytest.raises(ParseError, match=f"line 6: bad date '{date}'") as exc_info:
            load_french(write(tmp_path, "f.txt", text))
        assert exc_info.value.line_number == 6

    def test_no_data_rows(self, tmp_path):
        with pytest.raises(ParseError, match="no data rows"):
            load_french(write(tmp_path, "f.txt", "just a banner\nAgric Food\n"))

    @pytest.mark.parametrize(
        "date", ["19871399", "19870132", "19880001", "19870200", "19870229", "19870431"]
    )
    def test_impossible_date_reports_line_number(self, tmp_path, date):
        # later than its neighbours, so only the date check can catch it
        text = FRENCH_SAMPLE.replace("19870105", date)
        with pytest.raises(ParseError, match=f"line 7: impossible date {date}") as exc_info:
            load_french(write(tmp_path, "f.txt", text))
        assert exc_info.value.line_number == 7


class TestCsvRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        returns = rng.normal(0.0, 0.0123456789, size=(7, 3))
        mask = np.zeros_like(returns, dtype=bool)
        mask[2, 1] = True
        returns = returns.copy()
        returns[mask] = np.nan
        panel = ReturnPanel(
            dates=[20000103 + i for i in range(7)],
            assets=("AAA", "BBB", "CCC"),
            returns=returns,
            missing_mask=mask,
        )
        path = tmp_path / "panel.csv"
        write_csv(panel, path)
        back = load_csv(path)
        assert back.assets == panel.assets
        np.testing.assert_array_equal(back.dates, panel.dates)
        np.testing.assert_array_equal(back.missing_mask, panel.missing_mask)
        np.testing.assert_array_equal(back.returns[~mask], panel.returns[~mask])

    def test_missing_cell_ways(self, tmp_path):
        path = write(
            tmp_path,
            "p.csv",
            "date,A,B\n20000103,0.01,\n20000104,NaN,0.02\n"
            "20000105,-nan,+NAN\n20000106, ,0.03\n20000107,0.04,\t \n",
        )
        panel = load_csv(path)
        np.testing.assert_array_equal(
            panel.missing_mask, [[0, 1], [1, 0], [1, 1], [1, 0], [0, 1]]
        )
        # every missing cell holds the same NaN, whatever its sign in the file
        assert {v.tobytes() for v in panel.returns[panel.missing_mask]} == {
            np.float64("nan").tobytes()
        }

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "-INF"])
    def test_infinite_cell_reports_line_number(self, tmp_path, cell):
        path = write(tmp_path, "p.csv", f"date,A,B\n20000103,0.01,0.02\n20000104,{cell},0.02\n")
        with pytest.raises(ParseError, match="line 3: non-finite") as exc_info:
            load_csv(path)
        assert exc_info.value.line_number == 3

    @pytest.mark.parametrize(
        "date",
        [
            "20201399",
            "20200132",
            "20200001",
            "20200100",
            "00010101",
            "20200230",
            "20200231",
            "20210229",
            "21000229",
        ],
    )
    def test_impossible_date_reports_line_number(self, tmp_path, date):
        # a blank line before it: line numbers count every line of the file
        path = write(tmp_path, "p.csv", f"date,A\n20000103,0.01\n\n{date},0.02\n")
        with pytest.raises(ParseError, match=f"line 4: impossible date {date}") as exc_info:
            load_csv(path)
        assert exc_info.value.line_number == 4

    @pytest.mark.parametrize("date", ["2000010\u00b2", "\uff12\uff10\uff10\uff10\uff10\uff11\uff10\uff14"])
    def test_non_ascii_digit_date_reports_line_number(self, tmp_path, date):
        path = write(tmp_path, "p.csv", f"date,A\n20000103,0.01\n{date},0.02\n")
        with pytest.raises(ParseError, match=f"line 3: bad date '{date}'") as exc_info:
            load_csv(path)
        assert exc_info.value.line_number == 3

    def test_leap_day_loads(self, tmp_path):
        path = write(tmp_path, "p.csv", "date,A\n20000229,0.01\n20200229,0.02\n")
        np.testing.assert_array_equal(load_csv(path).dates, [20000229, 20200229])

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            load_csv(write(tmp_path, "p.csv", "time,A\n20000103,0.01\n"))

    def test_bad_cell_count_reports_line(self, tmp_path):
        path = write(tmp_path, "p.csv", "date,A,B\n20000103,0.01,0.02\n20000104,0.01\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path)

    def test_non_monotonic_csv(self, tmp_path):
        path = write(
            tmp_path, "p.csv", "date,A\n20000104,0.01\n20000103,0.02\n"
        )
        with pytest.raises(NonMonotonicDates):
            load_csv(path)


#: Each loader with a file whose line ``line`` holds ``{}`` as one value.
LOADER_CASES = {
    "csv": (load_csv, "date,A,B\n20000103,0.01,0.02\n20000104,{},0.02\n", 3),
    "french": (load_french, FRENCH_SAMPLE.replace("19870105   0.25", "19870105   {}"), 7),
    "matrix": (read_matrix_csv, "1.0,0.0\n\n0.0,{}\n", 3),
}


class TestReadLines:
    @settings(max_examples=300)
    @given(
        text=st.text(alphabet="a\n\r\x0c\x85\u2028é€𝄞", max_size=30),
        size=st.integers(1, 9),
    )
    def test_pieces_split_as_the_whole_text(self, tmp_path_factory, text, size):
        # pieces of a few bytes cut multi-byte characters and "\r\n" pairs
        path = tmp_path_factory.mktemp("lines") / "f.txt"
        path.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_READ_BYTES", size)
            assert data.read_lines(path) == text.splitlines()

    @pytest.mark.parametrize("size", [1, 3, 1 << 20])
    @pytest.mark.parametrize(
        "raw, line, byte",
        [
            (b"\xc3\xa9\nb\r\nc\xffd\n", 3, "ff"),
            (b"a\n\xe2\x82\n", 2, "e2"),
            (b"a\r\xc3", 2, "c3"),
        ],
        ids=["bad-byte", "cut-character", "cut-at-end"],
    )
    def test_bad_byte_names_its_line(self, tmp_path, monkeypatch, size, raw, line, byte):
        monkeypatch.setattr(data, "_READ_BYTES", size)
        path = tmp_path / "f.txt"
        path.write_bytes(raw)
        with pytest.raises(ParseError) as exc_info:
            data.read_lines(path)
        assert str(exc_info.value) == f"line {line}: {path} is not UTF-8: byte 0x{byte}"


class TestValueGrammar:
    @pytest.mark.parametrize("token", ["0_0_1", "٠.١", "１"])
    @pytest.mark.parametrize("fmt", sorted(LOADER_CASES))
    def test_underscores_and_non_ascii_digits_are_rejected(self, tmp_path, fmt, token):
        # float() reads these as 0.001, 0.1 and 1.0
        loader, template, line = LOADER_CASES[fmt]
        path = write(tmp_path, "f.txt", template.format(token))
        message = re.escape(f"could not convert string to float: {token!r}")
        with pytest.raises(ParseError, match=f"line {line}: .*{message}") as exc_info:
            loader(path)
        assert exc_info.value.line_number == line

    @pytest.mark.parametrize(
        "fmt, text, line",
        [
            ("csv", "date,A,B,A\n20000103,0.01,0.02,0.03\n", 1),
            ("french", FRENCH_SAMPLE.replace("Food   Hlth", "Food   Agric", 1), 4),
        ],
    )
    def test_duplicate_asset_name_names_its_line(self, tmp_path, fmt, text, line):
        loader = LOADER_CASES[fmt][0]
        with pytest.raises(ParseError, match=f"line {line}: asset name 'A.*' appears twice"):
            loader(write(tmp_path, "f.txt", text))


#: Finite doubles, with the ones a decimal round-trip gets wrong most easily.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
)


class TestRoundTripProperties:
    @settings(max_examples=150)
    @given(data=st.data(), n=st.integers(1, 12), rows=st.integers(1, 25))
    def test_csv_round_trip_is_bitwise(self, tmp_path_factory, data, n, rows):
        values = np.array(data.draw(st.lists(FINITE, min_size=n * rows, max_size=n * rows)))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n * rows, max_size=n * rows)))
        values, mask = values.reshape(rows, n), mask.reshape(rows, n)
        panel = ReturnPanel(
            dates=[20000101 + i for i in range(rows)],
            assets=tuple(f"A{j}" for j in range(n)),
            returns=np.where(mask, np.nan, values),
            missing_mask=mask,
        )
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        write_csv(panel, path)
        back = load_csv(path)
        assert back.assets == panel.assets
        assert back.dates.tobytes() == panel.dates.tobytes()
        assert back.missing_mask.tobytes() == panel.missing_mask.tobytes()
        assert back.returns.tobytes() == panel.returns.tobytes()

    @settings(max_examples=150)
    @given(data=st.data(), shape=st.tuples(st.integers(1, 6), st.integers(1, 6)))
    def test_matrix_round_trip_is_bitwise(self, tmp_path_factory, data, shape):
        size = shape[0] * shape[1]
        a = np.array(data.draw(st.lists(FINITE, min_size=size, max_size=size))).reshape(shape)
        path = tmp_path_factory.mktemp("matrix") / "m.csv"
        write_matrix_csv(path, a)
        back = read_matrix_csv(path)
        assert back.shape == a.shape
        assert back.tobytes() == a.tobytes()


    @settings(max_examples=100)
    @given(values=st.lists(FINITE.filter(lambda v: v not in (-99.99, -999.0)), min_size=1, max_size=8))
    def test_french_percent_is_one_exact_division(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("french") / "f.txt"
        path.write_text("  A\n" + "".join(f"{20000101 + i} {v!r}\n" for i, v in enumerate(values)))
        want = np.array([[float(repr(v)) / 100.0] for v in values])
        assert load_french(path).returns.tobytes() == want.tobytes()


#: Pieces of well-formed and malformed files, so that fuzzed input reaches
#: the grammar and not only the decode step.
FRAGMENTS = [
    b"date,A,B\n", b"  A B\n", b"20000103", b"19870105", b"20200231", b",", b" ",
    b"\t", b"\n", b"\r\n", b"\r", b"\x0c", b"0.5", b"-1e3", b"nan", b"-nan", b"inf",
    b"-99.99", b"_", b".", b"#", b'"', b"\x00", b"\xff", b"\xd9\xa0", b"\xef\xbc\x91",
    b"\xc2\xa0", b"\xc3",
]


#: Fuzzed file contents for each loader.
FUZZED = given(
    content=st.one_of(
        st.binary(max_size=200),
        st.lists(st.sampled_from(FRAGMENTS), max_size=40).map(b"".join),
    ),
    fmt=st.sampled_from(sorted(LOADER_CASES)),
)


@pytest.fixture
def parse_chunks(monkeypatch):
    """The chunk count of each row parse the loaders map over lanes."""
    counts = []
    real = data.fan_out

    def spy(chunks, part):
        counts.append(len(chunks))
        return real(chunks, part)

    monkeypatch.setattr(data, "fan_out", spy)
    return counts


class TestLoaderFuzz:
    @staticmethod
    def load(tmp_path_factory, content, fmt):
        # never UnicodeDecodeError, IndexError or a bare ValueError, which
        # the CLI would report as an internal or usage error
        path = tmp_path_factory.mktemp("fuzz") / "f.txt"
        path.write_bytes(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                LOADER_CASES[fmt][0](path)
            except EquidriftError:
                pass

    @settings(max_examples=400)
    @FUZZED
    def test_malformed_input_raises_only_package_errors(self, tmp_path_factory, content, fmt):
        self.load(tmp_path_factory, content, fmt)

    @settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @FUZZED
    def test_malformed_input_raises_only_package_errors_at_two_lanes(
        self, tmp_path_factory, monkeypatch, pin_lanes, content, fmt
    ):
        # any two rows parse in two chunks, one row per sub-block
        monkeypatch.setattr(data, "_MIN_PARSE_CELLS", 1)
        monkeypatch.setattr(data, "_PARSE_BLOCK_ROWS", 1)
        pin_lanes(2)
        self.load(tmp_path_factory, content, fmt)


class TestParallelParse:
    """A panel of at least two lanes' worth of cells parses in contiguous
    chunks of rows, one per lane, each in sub-blocks. The fixture shrinks
    both, so the 40-row, 4-column panel below splits into two chunks of 20
    rows and sub-blocks of 8."""

    ROWS = 40
    #: Missing-cell spellings, placed on both sides of the chunk edge (rows
    #: 19 and 20) and of sub-block edges (rows 7 and 8, 27 and 28).
    MISSING = {7: "", 8: " ", 19: "\t", 20: "nan", 27: " \t ", 28: "-nan", 39: "NaN"}

    @pytest.fixture
    def small_chunks(self, monkeypatch, parse_chunks):
        monkeypatch.setattr(data, "_MIN_PARSE_CELLS", 4 * 20)
        monkeypatch.setattr(data, "_PARSE_BLOCK_ROWS", 8)
        return parse_chunks

    def cells(self):
        """Row k's three return cells, as text and as the values they read as."""
        rows = []
        for k in range(self.ROWS):
            values = [((k * 7 + j) % 13 - 6) / 1000 for j in range(3)]
            text = [repr(v) for v in values]
            if k in self.MISSING:
                # the last cell on a block's last row, the first on its first
                j = 2 if k % 2 else 0
                text[j], values[j] = self.MISSING[k], math.nan
            rows.append((text, values))
        return rows

    def write_panel(self, tmp_path, bad=None):
        """The panel, with row ``bad[0]``'s cells replaced by ``bad[1]``."""
        day = datetime.date(2000, 1, 3)
        lines = ["date,A,B,C"]
        for k, (text, _) in enumerate(self.cells()):
            date = (day + datetime.timedelta(days=k)).strftime("%Y%m%d")
            body = bad[1] if bad and bad[0] == k else ",".join(text)
            lines.append(f"{date},{body}")
        return write(tmp_path, "p.csv", "\n".join(lines) + "\n")

    def test_same_bits_at_any_lane_count(self, tmp_path, pin_lanes, small_chunks):
        path = self.write_panel(tmp_path)
        panels = []
        for lanes in (1, 2):
            pin_lanes(lanes)
            panels.append(load_csv(path))
        assert small_chunks == [1, 2]
        want = np.array([values for _, values in self.cells()])
        for panel in panels:
            assert panel.returns.tobytes() == want.tobytes()
            assert panel.missing_mask.tobytes() == np.isnan(want).tobytes()
            assert panel.dates.tobytes() == panels[0].dates.tobytes()

    @pytest.mark.parametrize(
        "row, cells, message",
        [
            (30, "0.01,0_1,0.02", "could not convert string to float: '0_1'"),
            (12, "abc,,", "could not convert string to float: 'abc'"),
            (37, "0.0,inf,0.0", "non-finite entry in"),
            (21, "0.1,0.2", "3 entries, not 4"),
        ],
        ids=["second-chunk", "later-sub-block", "non-finite", "ragged"],
    )
    def test_errors_match_serial(
        self, tmp_path, capfd, pin_lanes, small_chunks, row, cells, message
    ):
        path = self.write_panel(tmp_path, bad=(row, cells))
        errors = []
        for lanes in (1, 2):
            pin_lanes(lanes)
            with pytest.raises(ParseError, match=re.escape(message)) as exc_info:
                load_csv(path)
            errors.append((str(exc_info.value), exc_info.value.line_number))
        assert small_chunks == [1, 2]
        assert errors[0] == errors[1]
        assert errors[0][1] == row + 2  # the header is line 1
        assert capfd.readouterr().err == ""

    def test_benchmark_sized_text_and_matrix_files_stay_serial(
        self, tmp_path, pin_lanes, parse_chunks
    ):
        # 5,040 days of 11 industries (60k cells), and a 47 x 47 matrix
        pin_lanes(2)
        day = datetime.date(1983, 7, 1)
        rows = [
            (day + datetime.timedelta(days=k)).strftime("%Y%m%d") + "   0.25" * 11
            for k in range(5040)
        ]
        header = "  " + " ".join(f"I{j:02d}" for j in range(11))
        french = write(tmp_path, "f.txt", "\n".join([header, *rows]) + "\n")
        assert load_french(french).n_dates == 5040
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.eye(47))
        assert read_matrix_csv(path).shape == (47, 47)
        assert parse_chunks == [1, 1]


def _industry_like_params(seed: int, n: int) -> ModelParams:
    """The benchmark's synthetic-market model: every row loads on one strong
    common driver and has an annual volatility between 15% and 35%."""
    rng = np.random.default_rng([seed, 1])
    a = rng.standard_normal((n, n))
    a[:, 0] += 2.0
    a *= rng.uniform(0.15, 0.35, (n, 1)) / np.linalg.norm(a, axis=1, keepdims=True)
    return ModelParams(sigma=VolMatrix(a), mu=0.08, r=0.03)


class TestSyntheticPanel:
    #: (model, days, seed) -> SHA-256 of the returns' bytes, recorded with
    #: the price build of the path-retaining simulator (numpy 2.4, x86-64).
    #: The first is the benchmark's 47-asset backtest input.
    DIGESTS = {
        "benchmark-47": (
            _industry_like_params(1, 47),
            11_465,
            1,
            "8e6cd76e08c352253a9db0e22d7146da9cc62bc5665bf65453a86dfe3e5fa7ec",
        ),
        "one-asset": (
            ModelParams(sigma=VolMatrix([[0.25]]), mu=0.12, r=0.04),
            1000,
            9,
            "2531670ae580e9f33e2f9f0d2953f6f32d9d21bbabca417c3a14db1061da2f87",
        ),
    }

    @pytest.mark.parametrize("case", DIGESTS)
    def test_keeps_its_bits(self, case):
        params, days, seed, digest = self.DIGESTS[case]
        returns = synthetic_panel(params, days, seed).returns
        assert hashlib.sha256(returns.tobytes()).hexdigest() == digest

    def test_log_increment_variance_matches_grid(self):
        # log(1 + r_i) = drift_i + sum_j sigma_ij dB_j, var(dB_j) = dt = 1/252
        params = ModelParams(sigma=VolMatrix([[0.3, 0.4], [0.0, 0.5]]), mu=0.2, r=0.03)
        log_steps = np.log1p(synthetic_panel(params, days=32_000, seed=3).returns)
        want = 0.25 / 252
        assert np.all(np.abs(log_steps.var(axis=0, ddof=1) - want) <= 0.05 * want)

    def test_prices_strictly_positive(self):
        params = ModelParams(sigma=VolMatrix(2.0 * np.eye(2)), mu=0.2, r=0.03)
        panel = synthetic_panel(params, days=1260, seed=8)
        assert np.all(panel.returns > -1.0)

    def test_underflow_raises(self):
        # at 500% volatility the log price falls by 11.6 a year, past exp's
        # underflow point near -745 after about 64 years; 25,000 days are 99
        params = ModelParams(sigma=VolMatrix([[5.0]]), mu=0.2, r=0.03)
        with pytest.raises(ValueError, match="prices must be strictly positive"):
            synthetic_panel(params, days=25_000, seed=0)

    def test_vanishing_volatility_pins_returns_to_rate(self):
        params = ModelParams(sigma=VolMatrix(1e-12 * np.eye(2)), mu=0.2, r=0.03)
        panel = synthetic_panel(params, days=10, seed=0)
        want = math.exp(0.03 / 252) - 1.0
        np.testing.assert_allclose(panel.returns, want, rtol=0, atol=1e-12)

    def test_single_asset_daily_sd(self):
        params = ModelParams(sigma=VolMatrix([[0.2]]), mu=0.2, r=0.03)
        panel = synthetic_panel(params, days=100_000, seed=11)
        sd = panel.returns[:, 0].std(ddof=1)
        want = 0.2 / math.sqrt(252)
        assert abs(sd - want) <= 0.03 * want

    def test_deterministic_and_seed_sensitive(self):
        params = ModelParams(sigma=VolMatrix(0.3 * np.eye(2)), mu=0.2, r=0.03)
        a = synthetic_panel(params, days=50, seed=3)
        b = synthetic_panel(params, days=50, seed=3)
        c = synthetic_panel(params, days=50, seed=4)
        np.testing.assert_array_equal(a.returns, b.returns)
        assert not np.array_equal(a.returns, c.returns)

    def test_dates_are_weekdays_and_shape_matches(self):
        params = ModelParams(sigma=VolMatrix(0.3 * np.eye(3)), mu=0.2, r=0.03)
        panel = synthetic_panel(params, days=12, seed=0)
        assert params.n == 3
        assert panel.n_dates == 12 and panel.n_assets == 3
        assert panel.assets == ("A01", "A02", "A03")
        assert panel.dates[0] == 20000103
        weekdays = [
            __import__("datetime").date(d // 10000, d // 100 % 100, d % 100).weekday()
            for d in panel.dates.tolist()
        ]
        assert all(w < 5 for w in weekdays)
        assert not np.any(panel.missing_mask)
