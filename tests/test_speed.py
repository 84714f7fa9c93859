import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ixcomplex.errors import DomainError
from ixcomplex.rounding import format_fixed, round_half_up
from ixcomplex.speed import (
    BUILTIN_SPEED_MODELS,
    SpeedModel,
    TimeEstimate,
    aggregate_speed,
    estimate_time,
    get_speed_model,
    speed_model_from_dict,
    speed_stats,
)

# Reference task rows: (label, n, is_count, min_s, max_s, mean_s) and the
# published speed cells (max, min, mean IS/sec) they must reproduce.
REFERENCE_TASK_ROWS = [
    ("training", 74, 43, 16.54, 197.73, 80.50, 2.60, 0.22, 0.53),
    ("v1 x1", 85, 43, 13.88, 238.76, 42.20, 3.10, 0.18, 1.02),
    ("v1 x2", 86, 75, 19.54, 226.99, 65.45, 3.84, 0.33, 1.15),
    ("v1 x3", 84, 107, 23.57, 217.44, 90.22, 4.54, 0.49, 1.19),
    ("v1 x4", 165, 139, 17.12, 237.31, 98.64, 8.12, 0.59, 1.41),
    ("v1 x5", 158, 171, 20.98, 238.26, 118.92, 8.15, 0.72, 1.44),
    ("v2", 260, 46, 13.06, 232.65, 70.15, 3.52, 0.20, 0.66),
]


class TestModels:
    def test_builtins(self):
        overall = get_speed_model("overall")
        assert (overall.mean, overall.min, overall.max) == (1.05, 0.18, 8.15)
        assert get_speed_model("v1").mean == 1.20
        assert get_speed_model("v2").mean == 0.66
        v1 = get_speed_model("v1")
        assert v1.min is None and v1.max is None

    def test_unknown_model(self):
        with pytest.raises(DomainError):
            get_speed_model("v3")

    def test_invariants(self):
        with pytest.raises(DomainError):
            SpeedModel("bad", 0.0)
        with pytest.raises(DomainError):
            SpeedModel("bad", 1.0, min=2.0)
        with pytest.raises(DomainError):
            SpeedModel("bad", 1.0, min=0.5, max=0.7)


    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_rejected(self, value):
        with pytest.raises(DomainError, match="finite"):
            SpeedModel("bad", value)
        with pytest.raises(DomainError, match="finite"):
            SpeedModel("bad", 1.0, max=value)


class TestSpeedModelFromDict:
    def test_full_and_minimal(self):
        data = {"name": "lab", "mean": 1, "min": 0.5, "max": 2, "source": "pilot"}
        assert speed_model_from_dict(data) == SpeedModel("lab", 1.0, 0.5, 2.0, "pilot")
        assert speed_model_from_dict({"mean": 1.5, "min": None}) == SpeedModel("custom", 1.5)

    @pytest.mark.parametrize(
        "data",
        [
            [1.0],
            {"name": "x"},
            {"mean": None},
            {"mean": "1.0"},
            {"mean": True},
            {"mean": 1.0, "min": "0.5"},
            {"mean": float("nan")},
            {"mean": 10**400},
            {"mean": 1.0, "name": float("nan")},
            {"mean": 1.0, "name": None},
            {"mean": 1.0, "source": 7},
        ],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(DomainError):
            speed_model_from_dict(data)


class TestEstimateTime:
    def test_single_page_expectation(self):
        estimate = estimate_time(46, get_speed_model("v2"))
        assert estimate.expected == pytest.approx(46 / 0.66)
        assert format_fixed(estimate.expected) == "69.70"
        assert estimate.fastest is None and estimate.slowest is None

    def test_overall_range(self):
        estimate = estimate_time(171, get_speed_model("overall"))
        assert format_fixed(estimate.expected) == "162.86"
        assert format_fixed(estimate.fastest) == "20.98"
        assert format_fixed(estimate.slowest) == "950.00"

    def test_zero_is(self):
        estimate = estimate_time(0, get_speed_model("overall"))
        assert (estimate.expected, estimate.fastest, estimate.slowest) == (0.0, 0.0, 0.0)

    def test_zero_is_with_a_mean_only_model_has_no_range(self):
        estimate = estimate_time(0, get_speed_model("v1"))
        assert (estimate.expected, estimate.fastest, estimate.slowest) == (0.0, None, None)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            estimate_time(-1, get_speed_model("overall"))

    def test_time_overflowing_to_infinity(self):
        with pytest.raises(DomainError, match="expected time must be finite, got inf"):
            estimate_time(45, SpeedModel("custom", 1e-320))
        with pytest.raises(DomainError, match="slowest time must be finite, got inf"):
            estimate_time(45, SpeedModel("custom", 1.0, 1e-320, 2.0))

    def test_estimate_holds_finite_times(self):
        with pytest.raises(DomainError, match="fastest time must be finite, got nan"):
            TimeEstimate(1.0, float("nan"), None)

    @given(st.integers(0, 10_000))
    def test_identity_with_mean(self, is_count):
        for model in BUILTIN_SPEED_MODELS.values():
            estimate = estimate_time(is_count, model)
            assert estimate.expected * model.mean == pytest.approx(is_count, abs=1e-9)


class TestSpeedStats:
    def test_reference_rows_reproduced(self):
        for label, _, is_count, min_s, max_s, mean_s, max_v, min_v, mean_v in REFERENCE_TASK_ROWS:
            stats = speed_stats([(is_count, min_s), (is_count, max_s)])
            assert round_half_up(stats.max_is_per_s) == max_v, label
            assert round_half_up(stats.min_is_per_s) == min_v, label
            # the mean cell follows from the published mean time directly
            assert round_half_up(is_count / mean_s) == mean_v, label

    def test_single_sample(self):
        stats = speed_stats([(10, 10.0)])
        assert (stats.mean_is_per_s, stats.max_is_per_s, stats.min_is_per_s) == (1.0, 1.0, 1.0)
        assert (stats.group, stats.n, stats.is_count) == ("", 1, 10)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            speed_stats([])

    def test_mixed_is_counts_rejected(self):
        with pytest.raises(DomainError):
            speed_stats([(10, 1.0), (12, 1.0)])

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(DomainError):
            speed_stats([(10, 0.0)])

    @given(
        st.integers(1, 500),
        st.lists(st.floats(0.01, 1000), min_size=1, max_size=40),
    )
    @settings(max_examples=60)
    def test_column_identities(self, is_count, durations):
        stats = speed_stats([(is_count, d) for d in durations])
        assert stats.max_is_per_s * stats.min_s == pytest.approx(is_count, rel=1e-9)
        assert stats.min_is_per_s * stats.max_s == pytest.approx(is_count, rel=1e-9)
        assert stats.mean_is_per_s * stats.mean_s == pytest.approx(is_count, rel=1e-9)


class TestAggregate:
    def test_pooled_mean(self):
        rows = [(n, mean_v) for _, n, *_rest, mean_v in REFERENCE_TASK_ROWS]
        assert sum(n for n, _ in rows) == 912
        pooled = aggregate_speed(rows)
        assert pooled == pytest.approx(1.05, abs=0.005)
        assert round_half_up(pooled) == 1.05

    def test_wizard_only_mean(self):
        rows = [(n, mean_v) for label, n, *_rest, mean_v in REFERENCE_TASK_ROWS if label != "v2"]
        pooled = aggregate_speed(rows)
        assert pooled == pytest.approx(1.20, abs=0.005)
        assert round_half_up(pooled) == 1.20

    def test_single_row(self):
        assert aggregate_speed([(37, 1.31)]) == 1.31

    def test_identical_rows(self):
        assert aggregate_speed([(10, 0.8), (90, 0.8), (400, 0.8)]) == pytest.approx(0.8)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            aggregate_speed([])

    def test_nonpositive_n_rejected(self):
        with pytest.raises(DomainError):
            aggregate_speed([(0, 1.0)])


class TestRounding:
    def test_half_up(self):
        assert round_half_up(0.125) == 0.13
        assert round_half_up(1.5556) == 1.56
        assert format_fixed(0.005) == "0.01"
        assert format_fixed(2.0) == "2.00"

    def test_every_finite_float_renders(self):
        assert format_fixed(1e30) == "1" + "0" * 30 + ".00"
        assert format_fixed(4.5e26) == "45" + "0" * 25 + ".00"
        assert format_fixed(1.7976931348623157e308) == "17976931348623157" + "0" * 292 + ".00"
        assert round_half_up(1e300) == 1e300
