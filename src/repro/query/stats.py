"""Relation statistics and plan cost estimation.

The paper's strategies rely on *statically optimized* plans; this module
supplies the statistics and cost arithmetic that static optimization needs:
per-field min/max/distinct-count statistics (collected once, definition
time), selectivity estimation for the predicate language, and estimated
costs for every physical plan operator — computed with the same constants
and page math (Yao/Cardenas, B-tree heights) as the paper's analytical
model, so plan estimates and workload measurements share one currency.

The cost-based optimizer uses these to choose between a B-tree interval
scan and a sequential scan (an interval covering most of the domain is
cheaper to scan sequentially) and to report `explain`-style cost estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.model.costs import btree_height
from repro.model.yao import yao
from repro.query.plan import (
    BTreeScanPlan,
    BuildHashJoinPlan,
    FilterPlan,
    HashLookupJoinPlan,
    Plan,
    ProjectPlan,
    SeqScanPlan,
)
from repro.query.predicate import Comparison, Interval, KeyInterval, Predicate
from repro.sim import CostParams
from repro.storage.catalog import Catalog, Relation


@dataclass(frozen=True)
class FieldStats:
    """Summary statistics for one field."""

    minimum: Any
    maximum: Any
    distinct: int

    @property
    def spread(self) -> Optional[float]:
        """Domain width for numeric fields (``None`` otherwise)."""
        if isinstance(self.minimum, (int, float)) and isinstance(
            self.maximum, (int, float)
        ):
            return float(self.maximum) - float(self.minimum)
        return None


@dataclass
class RelationStats:
    """Statistics for one relation, collected by one uncharged scan."""

    num_rows: int
    num_pages: int
    fields: dict[str, FieldStats]

    @staticmethod
    def collect(relation: Relation) -> "RelationStats":
        """Scan the relation (definition-time, uncharged) and summarise."""
        names = relation.schema.names()
        seen: dict[str, set] = {name: set() for name in names}
        minima: dict[str, Any] = {}
        maxima: dict[str, Any] = {}
        count = 0
        for _rid, row in relation.heap.scan_uncharged():
            count += 1
            for name, value in zip(names, row):
                seen[name].add(value)
                if name not in minima or value < minima[name]:
                    minima[name] = value
                if name not in maxima or value > maxima[name]:
                    maxima[name] = value
        fields = {
            name: FieldStats(
                minimum=minima.get(name),
                maximum=maxima.get(name),
                distinct=len(seen[name]),
            )
            for name in names
        }
        return RelationStats(
            num_rows=count, num_pages=relation.num_pages, fields=fields
        )

    # -- selectivity estimation ------------------------------------------------

    def _interval_selectivity(self, interval: KeyInterval) -> float:
        stats = self.fields.get(interval.field)
        if stats is None or stats.spread is None or self.num_rows == 0:
            return 0.5  # no information: the classic guess
        if interval.lo is not None and interval.lo == interval.hi:
            return 1.0 / max(1, stats.distinct)
        lo = interval.lo if interval.lo is not None else stats.minimum
        hi = interval.hi if interval.hi is not None else stats.maximum
        spread = stats.spread
        if spread <= 0:
            return 1.0
        width = max(0.0, float(hi) - float(lo))
        return min(1.0, width / spread)

    def selectivity(self, predicate: Predicate) -> float:
        """Estimated fraction of rows satisfying ``predicate``
        (independence assumed across conjuncts)."""
        terms = predicate.conjuncts()
        if not terms:
            return 1.0
        estimate = 1.0
        for term in terms:
            if isinstance(term, Comparison) and term.op == "=":
                stats = self.fields.get(term.field)
                estimate *= 1.0 / max(1, stats.distinct) if stats else 0.1
                continue
            if isinstance(term, Comparison) and term.op == "!=":
                stats = self.fields.get(term.field)
                estimate *= 1.0 - (
                    1.0 / max(1, stats.distinct) if stats else 0.1
                )
                continue
            interval = None
            for field in (term.fields() or set()):
                interval = term.interval_on(field)
                if interval is not None:
                    break
            if interval is not None:
                estimate *= self._interval_selectivity(interval)
            else:
                estimate *= 0.5
        return max(0.0, min(1.0, estimate))


class CostEstimator:
    """Estimated cost (simulated ms) and cardinality of physical plans.

    Statistics are collected lazily per relation and cached; call
    :meth:`refresh` after bulk changes.
    """

    def __init__(self, catalog: Catalog, cost_params: CostParams | None = None) -> None:
        self.catalog = catalog
        self.costs = cost_params if cost_params is not None else CostParams()
        self._stats: dict[str, RelationStats] = {}
        #: The optimizer's access-path choices priced from these
        #: statistics, keyed by (relation, its B-tree fields, repr of the
        #: restriction terms); :meth:`refresh` drops them with the stats.
        self.access_paths: dict[tuple[str, tuple[str, ...], str], Plan] = {}

    def stats_for(self, relation_name: str) -> RelationStats:
        """Statistics for ``relation_name`` (collected once, then cached)."""
        stats = self._stats.get(relation_name)
        if stats is None:
            stats = RelationStats.collect(self.catalog.get(relation_name))
            self._stats[relation_name] = stats
        return stats

    def refresh(self, relation_name: str | None = None) -> None:
        """Drop cached statistics (all, or one relation's) and every
        access-path choice priced from them."""
        self.access_paths.clear()
        if relation_name is None:
            self._stats.clear()
        else:
            self._stats.pop(relation_name, None)

    # -- per-operator estimates -----------------------------------------------

    def estimate(self, plan: Plan) -> tuple[float, float]:
        """Return ``(cost_ms, output_rows)`` for ``plan``."""
        if isinstance(plan, SeqScanPlan):
            return self._seq_scan(plan)
        if isinstance(plan, BTreeScanPlan):
            return self._btree_scan(plan)
        if isinstance(plan, HashLookupJoinPlan):
            return self._hash_lookup_join(plan)
        if isinstance(plan, BuildHashJoinPlan):
            return self._build_hash_join(plan)
        if isinstance(plan, FilterPlan):
            cost, rows = self.estimate(plan.child)
            stats = self._combined_stats(plan.child)
            sel = stats.selectivity(plan.predicate) if stats else 0.5
            return cost + self.costs.c1 * rows, rows * sel
        if isinstance(plan, ProjectPlan):
            cost, rows = self.estimate(plan.child)
            return cost, rows
        raise TypeError(f"no estimator for {type(plan).__name__}")

    def _combined_stats(self, plan: Plan) -> Optional[RelationStats]:
        """Stats to judge a residual over a plan's output: single-relation
        plans delegate to that relation; joins have no combined stats."""
        if isinstance(plan, (SeqScanPlan, BTreeScanPlan)):
            return self.stats_for(plan.relation)
        return None

    def _seq_scan(self, plan: SeqScanPlan) -> tuple[float, float]:
        stats = self.stats_for(plan.relation)
        sel = stats.selectivity(plan.predicate)
        cost = self.costs.c2 * stats.num_pages + self.costs.c1 * stats.num_rows
        return cost, stats.num_rows * sel

    def _btree_scan(self, plan: BTreeScanPlan) -> tuple[float, float]:
        stats = self.stats_for(plan.relation)
        relation = self.catalog.get(plan.relation)
        index = relation.btree_indexes[plan.index_field]
        interval_sel = stats._interval_selectivity(plan.interval)
        matching = stats.num_rows * interval_sel
        height = btree_height(max(matching, 1), index.fanout)
        leaf_pages = math.ceil(max(matching, 1) / index.fanout)
        # Clustered heap: matching tuples occupy contiguous pages.
        heap_pages = math.ceil(interval_sel * stats.num_pages) or 1
        cost = (
            self.costs.c2 * (height + leaf_pages + heap_pages)
            + self.costs.c1 * matching
        )
        residual_sel = stats.selectivity(plan.residual)
        return cost, matching * residual_sel

    def _hash_lookup_join(self, plan: HashLookupJoinPlan) -> tuple[float, float]:
        outer_cost, outer_rows = self.estimate(plan.outer)
        inner_stats = self.stats_for(plan.inner_relation)
        inner = self.catalog.get(plan.inner_relation)
        index = inner.hash_indexes[plan.inner_field]
        per_key = (
            index.num_entries / index.num_keys if index.num_keys else 1.0
        )
        matches = outer_rows * per_key
        pages = yao(
            inner_stats.num_rows, inner_stats.num_pages, max(matches, 0.0)
        )
        residual_sel = inner_stats.selectivity(plan.residual)
        cost = outer_cost + self.costs.c2 * pages + self.costs.c1 * matches
        return cost, matches * residual_sel

    def _build_hash_join(self, plan: BuildHashJoinPlan) -> tuple[float, float]:
        outer_cost, outer_rows = self.estimate(plan.outer)
        inner_stats = self.stats_for(plan.inner_relation)
        field_stats = inner_stats.fields.get(plan.inner_field)
        per_key = (
            inner_stats.num_rows / max(1, field_stats.distinct)
            if field_stats
            else 1.0
        )
        matches = outer_rows * per_key
        build = (
            self.costs.c2 * inner_stats.num_pages
            + self.costs.c1 * inner_stats.num_rows
        )
        residual_sel = inner_stats.selectivity(plan.residual)
        cost = outer_cost + build + self.costs.c1 * matches
        return cost, matches * residual_sel

    def explain_with_costs(self, plan: Plan, indent: int = 0) -> str:
        """The plan tree annotated with estimated cost and cardinality."""
        cost, rows = self.estimate(plan)
        pad = "  " * indent
        own = plan.explain(indent).splitlines()[0]
        lines = [f"{own}  [est {cost:.0f} ms, ~{rows:.0f} rows]"]
        for child_name in ("child", "outer"):
            child = getattr(plan, child_name, None)
            if isinstance(child, Plan):
                lines.append(self.explain_with_costs(child, indent + 1))
        return "\n".join(lines)
