"""One checker for the versioned JSON documents.

Every document validator (``repro.serve/v1``, ``repro.chaos/v1``,
``repro.cluster/v1``, ``repro.summa/v1``, ``repro.profile/v1``) walks
its document with a :class:`Schema` named after the document kind.  A
rejection raises :class:`~repro.errors.ReproError` naming the kind and
the JSON path of the first offending field::

    invalid cluster document at $.report.fleet.makespan: missing required field

One type rule holds everywhere: ``bool`` is an ``int`` subclass in
Python, but a JSON ``true`` is accepted only where ``bool`` is asked for.
"""

from __future__ import annotations

from ..errors import ReproError

#: The JSON number types.
NUMBER = (int, float)


def _names(types) -> str:
    if isinstance(types, tuple):
        return "/".join(t.__name__ for t in types)
    return types.__name__


class Schema:
    """The checking primitives, bound to one document kind."""

    def __init__(self, document: str) -> None:
        self.document = document

    def fail(self, path: str, message: str):
        raise ReproError(
            f"invalid {self.document} document at {path}: {message}")

    def value(self, value, path: str, types, allow_none: bool = False):
        """Type-check one JSON value (a list item, a map entry, a root)."""
        if value is None:
            if allow_none:
                return None
            self.fail(path, "must not be null")
        wants_bool = types is bool or (isinstance(types, tuple)
                                       and bool in types)
        if (not isinstance(value, types)
                or (isinstance(value, bool) and not wants_bool)):
            self.fail(path, f"expected {_names(types)}, "
                            f"got {type(value).__name__}")
        return value

    def expect(self, parent: dict, path: str, key: str, types,
               allow_none: bool = False):
        """The required field ``parent[key]``, type-checked."""
        if key not in parent:
            self.fail(f"{path}.{key}", "missing required field")
        return self.value(parent[key], f"{path}.{key}", types, allow_none)

    def number(self, parent: dict, path: str, key: str,
               allow_none: bool = False, minimum=None):
        value = self.expect(parent, path, key, NUMBER, allow_none)
        if minimum is not None and value is not None and value < minimum:
            self.fail(f"{path}.{key}", f"must be >= {minimum}, got {value}")
        return value

    def count(self, parent: dict, path: str, key: str,
              minimum: int = 0) -> int:
        value = self.expect(parent, path, key, int)
        if value < minimum:
            self.fail(f"{path}.{key}", f"must be >= {minimum}, got {value}")
        return value

    def fraction(self, parent: dict, path: str, key: str,
                 allow_none: bool = False):
        value = self.number(parent, path, key, allow_none)
        if value is not None and not 0.0 <= value <= 1.0:
            self.fail(f"{path}.{key}", f"must be in [0, 1], got {value}")
        return value

    def positive(self, parent: dict, path: str, key: str, types=NUMBER):
        value = self.expect(parent, path, key, types)
        if value <= 0:
            self.fail(f"{path}.{key}", f"must be positive, got {value}")
        return value

    # -- blocks shared between document kinds ---------------------------

    def latency_summary(self, parent: dict, path: str, key: str) -> None:
        """``{n, mean, min, max, p50, p95, p99}`` or null (no samples)."""
        summary = self.expect(parent, path, key, dict, allow_none=True)
        if summary is None:
            return
        spath = f"{path}.{key}"
        self.count(summary, spath, "n")
        for field in ("mean", "min", "max", "p50", "p95", "p99"):
            self.number(summary, spath, field)

    def metrics_block(self, doc: dict, path: str = "$") -> None:
        """A :meth:`MetricsRegistry.as_dict` snapshot under ``metrics``."""
        metrics = self.expect(doc, path, "metrics", dict)
        mpath = f"{path}.metrics"
        counters = self.expect(metrics, mpath, "counters", dict)
        for name, value in counters.items():
            if self.value(value, f"{mpath}.counters.{name}", NUMBER) < 0:
                self.fail(f"{mpath}.counters.{name}",
                          f"counters are non-negative, got {value}")
        gauges = self.expect(metrics, mpath, "gauges", dict)
        for name, value in gauges.items():
            self.value(value, f"{mpath}.gauges.{name}", NUMBER)
        histograms = self.expect(metrics, mpath, "histograms", dict)
        for name, hist in histograms.items():
            hpath = f"{mpath}.histograms.{name}"
            self.value(hist, hpath, dict)
            bounds = self.expect(hist, hpath, "bounds", list)
            buckets = self.expect(hist, hpath, "bucket_counts", list)
            if len(buckets) != len(bounds) + 1:
                self.fail(f"{hpath}.bucket_counts",
                          f"expected {len(bounds) + 1} buckets "
                          f"(len(bounds) + overflow), got {len(buckets)}")
            for i, n in enumerate(buckets):
                self.value(n, f"{hpath}.bucket_counts[{i}]", int)
            count = self.count(hist, hpath, "count")
            if sum(buckets) != count:
                self.fail(f"{hpath}.count",
                          f"bucket counts sum to {sum(buckets)}, "
                          f"count says {count}")
            self.number(hist, hpath, "sum")
            self.number(hist, hpath, "min", allow_none=True)
            self.number(hist, hpath, "max", allow_none=True)

    def tail_block(self, tail: object, path: str) -> None:
        """A tail-bank snapshot (``prediction.tail`` in serve documents,
        ``fleet.prediction.tail`` in cluster documents)."""
        self.value(tail, path, dict)
        percentile = self.number(tail, path, "percentile")
        if not 0.0 < percentile <= 100.0:
            self.fail(f"{path}.percentile",
                      f"must be in (0, 100], got {percentile}")
        if not self.expect(tail, path, "percentiles", list):
            self.fail(f"{path}.percentiles",
                      "must list at least one percentile")
        for key in ("observations", "refits", "tail_rejections"):
            self.count(tail, path, key)
        for i, bucket in enumerate(self.expect(tail, path, "buckets", list)):
            bpath = f"{path}.buckets[{i}]"
            self.value(bucket, bpath, dict)
            self.expect(bucket, bpath, "routine", str)
            self.expect(bucket, bpath, "dtype", str)
            self.expect(bucket, bpath, "flops_decade", int)
            self.count(bucket, bpath, "n")
            quantiles = self.expect(bucket, bpath, "quantiles", dict)
            for key, value in quantiles.items():
                qpath = f"{bpath}.quantiles.{key}"
                if self.value(value, qpath, NUMBER) <= 0:
                    self.fail(qpath,
                              f"ratio quantile must be > 0, got {value}")
