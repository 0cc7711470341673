"""Unit tests for the shared document checker (repro.obs.schema)."""

import pytest

from repro.errors import ReproError
from repro.obs.schema import NUMBER, Schema

CHECK = Schema("widget")


class TestMessages:
    def test_prefix_names_the_document_kind(self):
        with pytest.raises(ReproError,
                           match=r"^invalid widget document at \$\.a: "):
            CHECK.expect({}, "$", "a", int)

    def test_missing_field_path(self):
        with pytest.raises(ReproError,
                           match=r"at \$\.report\.nodes\[2\]\.busy: "
                                 r"missing required field"):
            CHECK.expect({}, "$.report.nodes[2]", "busy", int)

    def test_wrong_type_path_and_names(self):
        with pytest.raises(ReproError,
                           match=r"at \$\.x\.y: expected int, got str"):
            CHECK.expect({"y": "1"}, "$.x", "y", int)

    def test_tuple_types_render_as_names(self):
        with pytest.raises(ReproError, match="expected int/float, got list"):
            CHECK.number({"n": []}, "$", "n")
        with pytest.raises(ReproError, match="expected str/int, got float"):
            CHECK.expect({"k": 1.5}, "$", "k", (str, int))

    def test_root_value_path(self):
        with pytest.raises(ReproError, match=r"at \$: expected dict, got list"):
            CHECK.value([1], "$", dict)

    def test_fail_uses_the_prefix(self):
        with pytest.raises(ReproError,
                           match=r"^invalid widget document at \$\.z: boom$"):
            CHECK.fail("$.z", "boom")


class TestBoolRule:
    @pytest.mark.parametrize("types", [int, NUMBER, float])
    def test_true_rejected_where_a_number_is_expected(self, types):
        with pytest.raises(ReproError, match="got bool"):
            CHECK.expect({"n": True}, "$", "n", types)

    def test_true_rejected_as_a_count(self):
        with pytest.raises(ReproError, match=r"\$\.n: expected int, got bool"):
            CHECK.count({"n": True}, "$", "n")

    def test_bool_accepted_where_asked_for(self):
        assert CHECK.expect({"ok": False}, "$", "ok", bool) is False
        assert CHECK.expect({"ok": True}, "$", "ok", (bool, str)) is True


class TestNull:
    def test_null_rejected_by_default(self):
        with pytest.raises(ReproError, match=r"\$\.p: must not be null"):
            CHECK.number({"p": None}, "$", "p")

    def test_allow_none_returns_none(self):
        assert CHECK.number({"p": None}, "$", "p", allow_none=True) is None
        assert CHECK.fraction({"p": None}, "$", "p", allow_none=True) is None

    def test_allow_none_still_requires_the_key(self):
        with pytest.raises(ReproError, match="missing required field"):
            CHECK.expect({}, "$", "p", int, allow_none=True)


class TestRanges:
    def test_count(self):
        assert CHECK.count({"n": 0}, "$", "n") == 0
        with pytest.raises(ReproError, match=r"\$\.n: must be >= 0, got -1"):
            CHECK.count({"n": -1}, "$", "n")
        with pytest.raises(ReproError, match="must be >= 1, got 0"):
            CHECK.count({"n": 0}, "$", "n", minimum=1)
        with pytest.raises(ReproError, match="expected int, got float"):
            CHECK.count({"n": 1.0}, "$", "n")

    def test_number_minimum(self):
        assert CHECK.number({"t": 0.0}, "$", "t", minimum=0) == 0.0
        with pytest.raises(ReproError, match="must be >= 0, got -0.5"):
            CHECK.number({"t": -0.5}, "$", "t", minimum=0)

    @pytest.mark.parametrize("value", [0, 0.5, 1.0])
    def test_fraction_accepts_unit_interval(self, value):
        assert CHECK.fraction({"f": value}, "$", "f") == value

    @pytest.mark.parametrize("value", [-0.1, 1.2])
    def test_fraction_rejects_outside(self, value):
        with pytest.raises(ReproError, match=r"\$\.f: must be in \[0, 1\]"):
            CHECK.fraction({"f": value}, "$", "f")

    def test_positive(self):
        assert CHECK.positive({"s": 2.5}, "$", "s") == 2.5
        with pytest.raises(ReproError, match=r"\$\.s: must be positive"):
            CHECK.positive({"s": 0}, "$", "s")
        with pytest.raises(ReproError, match="expected int, got float"):
            CHECK.positive({"s": 2.5}, "$", "s", int)


def _summary(**over):
    summary = {"n": 3, "mean": 1.0, "min": 0.5, "max": 2.0, "p50": 1.0,
               "p95": 1.9, "p99": 2.0}
    summary.update(over)
    return summary


class TestLatencySummary:
    def test_valid_and_null(self):
        CHECK.latency_summary({"latency": _summary()}, "$", "latency")
        CHECK.latency_summary({"latency": None}, "$", "latency")

    def test_missing_percentile(self):
        summary = _summary()
        del summary["p95"]
        with pytest.raises(ReproError, match=r"\$\.latency\.p95: missing"):
            CHECK.latency_summary({"latency": summary}, "$", "latency")

    def test_negative_sample_count(self):
        with pytest.raises(ReproError, match=r"\$\.latency\.n: must be >= 0"):
            CHECK.latency_summary({"latency": _summary(n=-1)}, "$",
                                  "latency")


def _metrics():
    return {"metrics": {
        "counters": {"a.b": 3, "c": 1.5},
        "gauges": {"g": -2.0},
        "histograms": {"h": {"bounds": [1.0, 2.0],
                             "bucket_counts": [1, 0, 2], "count": 3,
                             "sum": 7.0, "min": 0.5, "max": 4.0}},
    }}


class TestMetricsBlock:
    def test_valid(self):
        CHECK.metrics_block(_metrics())

    def test_empty_registry(self):
        CHECK.metrics_block({"metrics": {"counters": {}, "gauges": {},
                                         "histograms": {}}})

    def test_negative_counter(self):
        doc = _metrics()
        doc["metrics"]["counters"]["a.b"] = -1
        with pytest.raises(ReproError, match=r"\$\.metrics\.counters\.a\.b: "
                                             r"counters are non-negative"):
            CHECK.metrics_block(doc)

    def test_non_numeric_gauge(self):
        doc = _metrics()
        doc["metrics"]["gauges"]["g"] = "high"
        with pytest.raises(ReproError, match=r"\$\.metrics\.gauges\.g: "):
            CHECK.metrics_block(doc)

    def test_bucket_length(self):
        doc = _metrics()
        doc["metrics"]["histograms"]["h"]["bucket_counts"] = [1, 2]
        with pytest.raises(ReproError, match=r"h\.bucket_counts: "
                                             r"expected 3 buckets"):
            CHECK.metrics_block(doc)

    def test_bucket_sum_against_count(self):
        doc = _metrics()
        doc["metrics"]["histograms"]["h"]["count"] = 4
        with pytest.raises(ReproError, match=r"h\.count: bucket counts "
                                             r"sum to 3, count says 4"):
            CHECK.metrics_block(doc)

    def test_missing_family(self):
        doc = _metrics()
        del doc["metrics"]["gauges"]
        with pytest.raises(ReproError, match=r"\$\.metrics\.gauges: missing"):
            CHECK.metrics_block(doc)
