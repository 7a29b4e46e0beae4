"""Outage model construction, sampling, duration laws, and CAIDI fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from outageplan.errors import ConfigError, FitError
from outageplan.outage import (
    CaidiSeries,
    OutageEvent,
    OutageKind,
    SingleModel,
    SuperposedModel,
    duration_pmf,
    duration_support,
    fit_from_caidi,
    mean_matched_single,
    poisson_pmf,
    poisson_quantile,
    sample_outage_count,
    sample_trace,
    severe_years,
)


class TestModelValidation:
    def test_single_model_fields(self):
        m = SingleModel(rate=1.2, duration_rate=4.0)
        assert m.total_rate == 1.2
        assert m.severe_fraction == 0.0
        assert m.mean_duration == 5.0
        assert m.rate_pair() == (1.2, 0.0)

    def test_single_model_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="rate must be >= 0"):
            SingleModel(rate=-0.1, duration_rate=1.0)

    def test_single_model_rejects_nonpositive_shift(self):
        with pytest.raises(ValueError, match="shift must be > 0"):
            SingleModel(rate=1.0, duration_rate=1.0, shift=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["rate", "duration_rate", "shift"])
    def test_single_model_rejects_non_finite(self, field, value):
        # nan passes every < comparison, and inf used to be allowed
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SingleModel(**{"rate": 1.0, "duration_rate": 1.0, field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["regular_rate", "severe_rate", "regular_duration_rate", "severe_duration_rate", "shift"])
    def test_superposed_model_rejects_non_finite(self, field, value):
        fields = {"regular_rate": 1.0, "severe_rate": 0.2, "regular_duration_rate": 1.0, "severe_duration_rate": 2.0}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SuperposedModel(**{**fields, field: value})

    def test_single_model_allows_zero_rate(self):
        m = SingleModel(rate=0.0, duration_rate=2.0)
        assert m.total_rate == 0.0

    def test_superposed_fields(self):
        m = SuperposedModel(
            regular_rate=1.0,
            severe_rate=0.25,
            regular_duration_rate=1.0,
            severe_duration_rate=20.0,
        )
        assert m.total_rate == 1.25
        assert m.severe_fraction == 0.2
        # rate-weighted mixture of the class means, plus the shift
        assert m.mean_duration == pytest.approx(1.0 + (1.0 * 1.0 + 0.25 * 20.0) / 1.25)

    def test_superposed_rejects_shorter_severe(self):
        with pytest.raises(ValueError, match="severe events must not be shorter"):
            SuperposedModel(
                regular_rate=1.0,
                severe_rate=0.2,
                regular_duration_rate=5.0,
                severe_duration_rate=2.0,
            )

    def test_severe_fraction_of_dead_model_is_zero(self):
        m = SuperposedModel(
            regular_rate=0.0, severe_rate=0.0, regular_duration_rate=0.0, severe_duration_rate=0.0
        )
        assert m.severe_fraction == 0.0
        with pytest.raises(ValueError, match="mean duration undefined"):
            m.mean_duration

    def test_event_end(self):
        e = OutageEvent(start=10.0, kind=OutageKind.REGULAR, duration=3.0)
        assert e.end == 13.0

    def test_event_rejects_negative_start(self):
        with pytest.raises(ValueError, match="start must be >= 0"):
            OutageEvent(start=-1.0, kind=OutageKind.REGULAR, duration=1.0)

    def test_kind_is_string_valued(self):
        assert OutageKind.SEVERE == "severe"
        assert OutageKind.REGULAR.value == "regular"


class TestPoissonQuantile:
    def test_matches_scipy_ppf_on_grid(self):
        # scipy.stats.poisson.ppf is the independent oracle for the scan.
        for mean in (0.05, 0.5, 1.0, 3.7, 12.0, 40.0):
            for u in (0.0, 0.01, 0.2, 0.5, 0.9, 0.999, 0.999999):
                want = int(stats.poisson.ppf(u, mean)) if u > 0 else 0
                assert poisson_quantile(u, mean) == want, (u, mean)

    def test_zero_mean_always_zero(self):
        assert poisson_quantile(0.99999, 0.0) == 0

    def test_rejects_bad_u(self):
        with pytest.raises(ValueError, match="u must be in"):
            poisson_quantile(1.0, 2.0)
        with pytest.raises(ValueError, match="u must be in"):
            poisson_quantile(-0.1, 2.0)

    def test_rejects_huge_mean(self):
        with pytest.raises(ValueError, match="too large"):
            poisson_quantile(0.5, 701.0)

    @given(
        u=st.floats(min_value=0.0, max_value=0.999999, allow_nan=False),
        mean_lo=st.floats(min_value=0.0, max_value=50.0),
        bump=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_mean(self, u, mean_lo, bump):
        assert poisson_quantile(u, mean_lo + bump) >= poisson_quantile(u, mean_lo)

    @given(
        u_lo=st.floats(min_value=0.0, max_value=0.999999),
        gap=st.floats(min_value=0.0, max_value=0.5),
        mean=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_u(self, u_lo, gap, mean):
        u_hi = min(u_lo + gap, 0.999999)
        assert poisson_quantile(u_hi, mean) >= poisson_quantile(u_lo, mean)

    def test_pmf_matches_scipy(self):
        for mean in (0.3, 1.0, 6.5, 21.55):
            for k in range(0, 60, 7):
                assert poisson_pmf(k, mean) == pytest.approx(stats.poisson.pmf(k, mean), rel=1e-10)
        assert poisson_pmf(-1, 2.0) == 0.0
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0


class TestSampling:
    def test_count_is_poisson_distributed(self):
        # merged counts from two streams vs the law of the summed rate
        model = SuperposedModel(
            regular_rate=2.0, severe_rate=0.5, regular_duration_rate=1.0, severe_duration_rate=9.0
        )
        rng = np.random.default_rng(42)
        n = 20000
        counts = np.array([sample_outage_count(model, 1.0, rng) for _ in range(n)])
        assert counts.mean() == pytest.approx(2.5, abs=0.05)
        assert counts.var() == pytest.approx(2.5, abs=0.12)

    def test_count_scales_with_window(self):
        model = SingleModel(rate=3.0, duration_rate=1.0)
        rng = np.random.default_rng(7)
        counts = np.array([sample_outage_count(model, 2.0, rng) for _ in range(8000)])
        assert counts.mean() == pytest.approx(6.0, abs=0.1)

    def test_count_rejects_negative_window(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            sample_outage_count(SingleModel(rate=1.0, duration_rate=1.0), -1.0, rng)

    def test_duration_is_shift_plus_poisson(self):
        model = SingleModel(rate=500.0, duration_rate=4.0, shift=1.0)
        rng = np.random.default_rng(5)
        durations = np.array([e.duration for _ in range(40) for e in sample_trace(model, 1.0, rng)])
        assert len(durations) > 19000
        assert durations.min() >= 1.0
        assert durations.mean() == pytest.approx(5.0, abs=0.08)
        assert np.all(durations == np.round(durations))

    def test_single_model_has_no_severe_durations(self):
        with pytest.raises(ValueError, match="no severe event class"):
            SingleModel(rate=1.0, duration_rate=1.0).duration_rate_for(OutageKind.SEVERE)

    def test_trace_sorted_and_in_window(self):
        model = SuperposedModel(
            regular_rate=8.0, severe_rate=2.0, regular_duration_rate=1.0, severe_duration_rate=9.0
        )
        rng = np.random.default_rng(11)
        events = sample_trace(model, 2.0, rng)
        starts = [e.start for e in events]
        assert starts == sorted(starts)
        assert all(0 <= e.start < 2 * 8760 for e in events)
        assert all(e.duration >= model.shift for e in events)
        assert any(e.kind is OutageKind.SEVERE for e in events)

    def test_single_trace_equals_superposed_with_zero_severe_rate(self):
        # same seed, same stream layout: the traces must be identical
        single = SingleModel(rate=4.0, duration_rate=3.0, shift=1.0)
        zero_severe = SuperposedModel(
            regular_rate=4.0,
            severe_rate=0.0,
            regular_duration_rate=3.0,
            severe_duration_rate=3.0,
            shift=1.0,
        )
        for seed in range(20):
            a = sample_trace(single, 1.0, np.random.default_rng(seed))
            b = sample_trace(zero_severe, 1.0, np.random.default_rng(seed))
            assert [(e.start, e.duration) for e in a] == [(e.start, e.duration) for e in b]
            assert all(e.kind is OutageKind.REGULAR for e in b)

    def test_zero_rate_trace_is_empty(self):
        rng = np.random.default_rng(9)
        assert sample_trace(SingleModel(rate=0.0, duration_rate=2.0), 5.0, rng) == []


class TestDurationLaw:
    def test_single_pmf_matches_scipy(self):
        m = SingleModel(rate=1.0, duration_rate=3.5, shift=1.0)
        for k in range(12):
            assert duration_pmf(m, 1.0 + k) == pytest.approx(stats.poisson.pmf(k, 3.5), rel=1e-10)

    def test_off_support_is_zero(self):
        m = SingleModel(rate=1.0, duration_rate=3.5, shift=1.0)
        assert duration_pmf(m, 0.5) == 0.0
        assert duration_pmf(m, 1.5) == 0.0
        assert duration_pmf(m, 0.0) == 0.0

    def test_mixture_weights(self):
        m = SuperposedModel(
            regular_rate=1.0, severe_rate=0.25, regular_duration_rate=1.0, severe_duration_rate=20.0
        )
        for k in (0, 1, 5, 19, 30):
            want = 0.8 * stats.poisson.pmf(k, 1.0) + 0.2 * stats.poisson.pmf(k, 20.0)
            assert duration_pmf(m, 1.0 + k) == pytest.approx(want, rel=1e-10)

    def test_mixture_undefined_for_dead_model(self):
        dead = SuperposedModel(
            regular_rate=0.0, severe_rate=0.0, regular_duration_rate=0.0, severe_duration_rate=0.0
        )
        with pytest.raises(ValueError, match="undefined when both rates are 0"):
            duration_pmf(dead, 1.0)

    def test_support_sums_to_one(self):
        m = SuperposedModel(
            regular_rate=1.0, severe_rate=0.2, regular_duration_rate=0.636, severe_duration_rate=21.55
        )
        durations, pmf = duration_support(m, max_hours=200.0)
        assert durations[0] == m.shift
        assert np.all(np.diff(durations) == 1.0)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_support_rejects_short_window(self):
        m = SingleModel(rate=1.0, duration_rate=1.0, shift=2.0)
        with pytest.raises(ValueError, match="below the minimum duration"):
            duration_support(m, max_hours=1.0)

    @pytest.mark.parametrize("max_hours", [math.nan, math.inf])
    def test_support_rejects_non_finite_window(self, max_hours):
        with pytest.raises(ValueError, match="max_hours must be finite"):
            duration_support(SingleModel(rate=1.0, duration_rate=1.0), max_hours=max_hours)

    def test_mean_matched_single_preserves_moments(self):
        m = SuperposedModel(
            regular_rate=1.0, severe_rate=0.2, regular_duration_rate=0.636, severe_duration_rate=21.55
        )
        s = mean_matched_single(m)
        assert s.total_rate == m.total_rate
        assert s.mean_duration == pytest.approx(m.mean_duration, abs=1e-12)
        assert s.shift == m.shift

    def test_mean_match_rejects_dead_model(self):
        dead = SuperposedModel(
            regular_rate=0.0, severe_rate=0.0, regular_duration_rate=0.0, severe_duration_rate=0.0
        )
        with pytest.raises(ValueError, match="zero total rate"):
            mean_matched_single(dead)


class TestCaidiFit:
    SERIES = CaidiSeries(
        years=(
            ("2012", 22.55),
            ("2013", 1.65),
            ("2014", 1.42),
            ("2015", 1.95),
            ("2016", 1.46),
            ("2017", 1.70),
        )
    )

    def test_split_and_means(self):
        m = fit_from_caidi(self.SERIES, severe_threshold_hours=10.0, base_frequency=1.2)
        assert severe_years(self.SERIES, 10.0) == ("2012",)
        # class means reproduce the observed CAIDI means exactly
        assert m.shift + m.regular_duration_rate == pytest.approx(1.636, abs=1e-12)
        assert m.shift + m.severe_duration_rate == pytest.approx(22.55, abs=1e-12)
        assert m.severe_rate == pytest.approx(1.2 / 6, abs=1e-12)
        assert m.regular_rate == pytest.approx(1.0, abs=1e-12)

    def test_rate_split_follows_year_counts(self):
        # threshold 2.0 classifies exactly one year (strictly above) as severe
        m = fit_from_caidi(self.SERIES, severe_threshold_hours=2.0, base_frequency=3.0)
        assert m.severe_rate == pytest.approx(3.0 / 6)

    def test_no_severe_years_raises(self):
        with pytest.raises(FitError, match="no severe years above"):
            fit_from_caidi(self.SERIES, severe_threshold_hours=30.0, base_frequency=1.2)

    def test_no_regular_years_raises(self):
        with pytest.raises(FitError, match="no regular years at or below"):
            fit_from_caidi(self.SERIES, severe_threshold_hours=0.5, base_frequency=1.2)

    def test_class_mean_below_the_shift_raises(self):
        series = CaidiSeries(years=(("a", 0.4), ("b", 11.0)))
        with pytest.raises(FitError, match=r"regular mean CAIDI 0.4 h is below the minimum duration \(shift\) 1.0 h"):
            fit_from_caidi(series, severe_threshold_hours=10.0, base_frequency=1.0, shift=1.0)
        m = fit_from_caidi(series, severe_threshold_hours=10.0, base_frequency=1.0, shift=0.4)
        assert m.regular_duration_rate == 0.0

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="severe threshold must be > 0"):
            fit_from_caidi(self.SERIES, severe_threshold_hours=0.0, base_frequency=1.2)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError, match="base frequency must be > 0"):
            fit_from_caidi(self.SERIES, severe_threshold_hours=10.0, base_frequency=0.0)

    @pytest.mark.parametrize("field", ["severe_threshold_hours", "base_frequency", "shift"])
    def test_rejects_non_finite_parameters_before_the_split(self, field):
        args = {"severe_threshold_hours": 10.0, "base_frequency": 1.2, "shift": 1.0, field: math.nan}
        with pytest.raises(ValueError, match=f"{field} must be finite, got nan"):
            fit_from_caidi(self.SERIES, **args)

    def test_csv_round_trip(self, tmp_path):
        p = tmp_path / "caidi.csv"
        p.write_text("year,caidi_hours\n2012,22.55\n2013,1.65\n")
        series = CaidiSeries.from_csv(p)
        assert series.years == (("2012", 22.55), ("2013", 1.65))

    def test_csv_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "caidi.csv"
        p.write_text("anno,stunden\n2012,22.55\n")
        with pytest.raises(ConfigError, match="expected CSV header"):
            CaidiSeries.from_csv(p)

    def test_csv_rejects_empty(self, tmp_path):
        p = tmp_path / "caidi.csv"
        p.write_text("year,caidi_hours\n")
        with pytest.raises(FitError, match="no data rows"):
            CaidiSeries.from_csv(p)

    def test_series_rejects_nonpositive_caidi(self):
        with pytest.raises(ValueError, match="must be > 0"):
            CaidiSeries(years=(("2012", 0.0),))

    @pytest.mark.parametrize("caidi", ["nan", "inf", "-1.0"])
    def test_csv_rejects_nan_infinite_and_negative_caidi(self, tmp_path, caidi):
        p = tmp_path / "caidi.csv"
        p.write_text(f"year,caidi_hours\n2012,22.55\n2013,{caidi}\n")
        with pytest.raises(ConfigError, match="CAIDI for 2013 must be"):
            CaidiSeries.from_csv(p)

    @pytest.mark.parametrize("row", ["2010,2,9", "2010"])
    def test_csv_rejects_rows_without_two_cells(self, tmp_path, row):
        p = tmp_path / "caidi.csv"
        p.write_text(f"year,caidi_hours\n2012,22.55\n{row}\n")
        with pytest.raises(ConfigError, match=":3: a CAIDI row needs exactly 2 cells"):
            CaidiSeries.from_csv(p)
