"""The metrics registry: named counters, gauges, and histograms.

Instruments are created on first use and live for the registry's
lifetime (one registry per observed run, attached by
:class:`repro.obs.CostAttribution` or directly by a caller). Histograms
reuse :class:`repro.sim.RunningStat`, so distributional summaries cost
constant memory however long the run.
"""

from __future__ import annotations

import bisect

from repro.sim.metrics import RunningStat


class Prekeyed(dict):
    """A table that resolves each key once: a miss calls ``resolve(key)``
    and keeps the answer, a hit is one dict lookup. The per-sample paths
    (tracer events, attributed charges, the telemetry bus) index these
    instead of rebuilding a name or a key tuple for every sample."""

    __slots__ = ("_resolve",)

    def __init__(self, resolve) -> None:
        self._resolve = resolve

    def __missing__(self, key):
        value = self[key] = self._resolve(key)
        return value


class Counter:
    """A monotonically increasing value (counts or accumulated ms)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Counter({self.name}={self.value:g})"


class Gauge:
    """A point-in-time value that can move in either direction."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Gauge({self.name}={self.value:g})"


class Histogram:
    """A distribution summary (Welford mean/variance, min/max, total),
    optionally with fixed bucket boundaries.

    Args:
        name: metric name.
        bounds: optional strictly-increasing upper bucket boundaries;
            when given, :meth:`observe` also maintains ``len(bounds)+1``
            bucket counts (the last bucket is the ``> bounds[-1]``
            overflow), so exports can diff distributions across runs
            without retaining samples.
    """

    __slots__ = ("name", "stat", "bounds", "bucket_counts")

    def __init__(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> None:
        self.name = name
        self.stat = RunningStat()
        if bounds is not None:
            bounds = tuple(float(b) for b in bounds)
            if not bounds or any(
                b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
            ):
                raise ValueError(
                    f"histogram {name!r} bounds must be non-empty and "
                    f"strictly increasing, got {bounds!r}"
                )
        self.bounds = bounds
        self.bucket_counts = (
            [0] * (len(bounds) + 1) if bounds is not None else None
        )

    def observe(self, value: float) -> None:
        """Fold one observation into the summary (and its bucket)."""
        self.stat.add(value)
        if self.bounds is not None:
            self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1

    @property
    def count(self) -> int:
        return self.stat.count

    @property
    def mean(self) -> float:
        return self.stat.mean

    @property
    def total(self) -> float:
        return self.stat.total

    def summary(self) -> dict:
        """The usual export view of the distribution (bucket counts
        included when fixed bounds were configured)."""
        stat = self.stat
        if not stat.count:
            summary: dict = {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                             "stddev": 0.0, "total": 0.0}
        else:
            summary = {
                "count": stat.count,
                "mean": stat.mean,
                "min": stat.minimum,
                "max": stat.maximum,
                "stddev": stat.stddev,
                "total": stat.total,
            }
        if self.bounds is not None:
            summary["buckets"] = {
                "bounds": list(self.bounds),
                "counts": list(self.bucket_counts),
            }
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3f})"


class MetricsRegistry:
    """Creates-on-demand home for a run's instruments.

    A name may be registered as only one instrument kind; asking for the
    same name as a different kind is an error (it would silently split
    the metric otherwise).
    """

    def __init__(self) -> None:
        #: ``name -> Counter``, created on first use.
        self.counters: Prekeyed = Prekeyed(self._new_counter)
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: str) -> None:
        owners = {
            "counter": self.counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def _new_counter(self, name: str) -> Counter:
        self._check_unique(name, "counter")
        return Counter(name)

    def counter(self, name: str) -> Counter:
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_unique(name, "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        """The histogram named ``name``, created on first use.

        ``bounds`` configures fixed bucket boundaries at creation time;
        asking again with *different* bounds is an error (it would
        silently fork the metric), asking with ``None`` returns the
        existing instrument unchanged.
        """
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_unique(name, "histogram")
            instrument = self._histograms[name] = Histogram(name, bounds)
        elif bounds is not None and instrument.bounds != tuple(
            float(b) for b in bounds
        ):
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{instrument.bounds!r}"
            )
        return instrument

    # -- export ----------------------------------------------------------

    def counter_values(self) -> dict[str, float]:
        return {name: c.value for name, c in sorted(self.counters.items())}

    def gauge_values(self) -> dict[str, float]:
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def histogram_summaries(self) -> dict[str, dict]:
        return {
            name: h.summary() for name, h in sorted(self._histograms.items())
        }

    def as_dict(self) -> dict:
        """One JSON-ready snapshot of every instrument."""
        return {
            "counters": self.counter_values(),
            "gauges": self.gauge_values(),
            "histograms": self.histogram_summaries(),
        }
