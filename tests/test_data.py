import math

import numpy as np
import pytest

from equidrift import (
    DateRange,
    ModelParams,
    ReturnPanel,
    VolMatrix,
    load_csv,
    load_french,
    synthetic_panel,
    write_csv,
)
from equidrift.errors import EmptyPanel, NonMonotonicDates, ParseError

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

    def test_contains_is_inclusive(self):
        dr = DateRange(19871019, 19871023)
        assert dr.contains(19871019) and dr.contains(19871023)
        assert not dr.contains(19871018) and not dr.contains(19871024)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            DateRange(19871023, 19871019)
        with pytest.raises(ValueError):
            DateRange(19871340, 19871341)
        with pytest.raises(ValueError):
            DateRange.parse("1987-10-19")


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
        panel = load_french(
            write(tmp_path, "f.txt", FRENCH_SAMPLE),
            drop_assets=("Hlth",),
            date_range=DateRange(19870102, 19870105),
        )
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

    def test_no_data_rows(self, tmp_path):
        with pytest.raises(ParseError, match="no data rows"):
            load_french(write(tmp_path, "f.txt", "just a banner\nAgric Food\n"))


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
            "date,A,B\n20000103,0.01,\n20000104,NaN,0.02\n",
        )
        panel = load_csv(path)
        np.testing.assert_array_equal(panel.missing_mask, [[0, 1], [1, 0]])

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "-INF"])
    def test_infinite_cell_reports_line_number(self, tmp_path, cell):
        path = write(tmp_path, "p.csv", f"date,A,B\n20000103,0.01,0.02\n20000104,{cell},0.02\n")
        with pytest.raises(ParseError, match="line 3: non-finite") as exc_info:
            load_csv(path)
        assert exc_info.value.line_number == 3

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


class TestSyntheticPanel:
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
        assert panel.n_dates == 12 and panel.n_assets == 3
        assert panel.assets == ("A01", "A02", "A03")
        assert panel.dates[0] == 20000103
        weekdays = [
            __import__("datetime").date(d // 10000, d // 100 % 100, d % 100).weekday()
            for d in panel.dates.tolist()
        ]
        assert all(w < 5 for w in weekdays)
        assert not np.any(panel.missing_mask)
