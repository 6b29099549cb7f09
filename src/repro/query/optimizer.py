"""A static query optimizer for left-deep SPJ expressions.

The paper assumes "an optimized execution plan for the query(s) in the
procedure is compiled in advance and stored with the procedure". This
optimizer performs that one-time compilation:

1. normalise the expression (:mod:`repro.query.analysis`);
2. pick the driving relation's access path — a B-tree interval scan when a
   restriction supplies a key range on an indexed field, else a sequential
   scan;
3. attach each remaining relation with an index nested-loop join through its
   hash index (falling back to a build-side hash join when no index exists);
4. apply any cross-relation residual predicates last.

For the paper's procedures this yields exactly the plans §4.1/§6.1 cost out:
a B-tree scan of ``R1`` (``C1*fN + C2*ceil(f*b) + C2*H1``) followed by hash
probes into ``R2`` (``C1*fN + C2*Y1``) and, in model 2, ``R3``
(``C1*fN + C2*Y6``).
"""

from __future__ import annotations

from repro.query.analysis import NormalizationError, SPJQuery, normalize_spj
from repro.query.expr import Expression
from repro.query.plan import (
    BTreeScanPlan,
    BuildHashJoinPlan,
    FilterPlan,
    HashLookupJoinPlan,
    Plan,
    ProjectPlan,
    SeqScanPlan,
)
from repro.query.predicate import Predicate, conjoin
from repro.storage.catalog import Catalog

PlanningError = NormalizationError


class Optimizer:
    """Compiles :class:`Expression` trees into physical :class:`Plan` trees.

    Args:
        catalog: relations and their access methods.
        cost_based: when True (default), access paths are chosen by
            estimated cost (:class:`repro.query.stats.CostEstimator`) —
            e.g. an interval covering most of a relation compiles to a
            sequential scan even though a B-tree exists. When False, any
            usable index wins (the naive rule, kept for tests/ablation).

    A plan is compiled once per procedure, but a population of
    parameterised procedures repeats its restrictions: the access-path
    choice (two cost estimates) is remembered per distinct restriction in
    the estimator's ``access_paths`` and dropped with its statistics by
    :meth:`CostEstimator.refresh <repro.query.stats.CostEstimator.refresh>`.
    """

    def __init__(self, catalog: Catalog, cost_based: bool = True) -> None:
        self.catalog = catalog
        self.cost_based = cost_based
        self._estimator = None

    @property
    def estimator(self):
        """The lazily created cost estimator (collects stats on demand)."""
        if self._estimator is None:
            from repro.query.stats import CostEstimator

            self._estimator = CostEstimator(self.catalog)
        return self._estimator

    def _access_path(self, relation_name: str, terms: list[Predicate]) -> Plan:
        """The driving relation's access path, chosen once per distinct
        (relation, its B-tree fields, restriction terms) until the
        estimator's statistics are refreshed. The terms are keyed by
        ``repr``, which tells ``1``, ``1.0`` and ``True`` apart."""
        relation = self.catalog.get(relation_name)
        key = (relation_name, tuple(relation.btree_indexes), repr(terms))
        chosen = self.estimator.access_paths.get(key)
        if chosen is None:
            chosen = self._choose_access_path(relation_name, terms)
            self.estimator.access_paths[key] = chosen
        return chosen

    def _choose_access_path(self, relation_name: str, terms: list[Predicate]) -> Plan:
        relation = self.catalog.get(relation_name)
        candidates: list[Plan] = []
        for i, term in enumerate(terms):
            for field in relation.btree_indexes:
                interval = term.interval_on(field)
                if interval is not None:
                    residual = conjoin(terms[:i] + terms[i + 1 :])
                    candidates.append(
                        BTreeScanPlan(relation_name, field, interval, residual)
                    )
        seq = SeqScanPlan(relation_name, conjoin(terms))
        if not candidates:
            return seq
        if not self.cost_based:
            return candidates[0]
        candidates.append(seq)
        return min(candidates, key=lambda plan: self.estimator.estimate(plan)[0])

    def compile_normalized(self, query: SPJQuery) -> Plan:
        """Physical plan for an already-normalised query."""
        driver = query.relations[0]
        plan: Plan = self._access_path(
            driver, query.restrictions.get(driver, [])
        )
        for edge in query.joins:
            inner = self.catalog.get(edge.inner_relation)
            residual = query.restriction_of(edge.inner_relation)
            if edge.inner_field in inner.hash_indexes:
                plan = HashLookupJoinPlan(
                    outer=plan,
                    inner_relation=edge.inner_relation,
                    inner_field=edge.inner_field,
                    outer_field=edge.outer_field,
                    residual=residual,
                )
            else:
                plan = BuildHashJoinPlan(
                    outer=plan,
                    inner_relation=edge.inner_relation,
                    inner_field=edge.inner_field,
                    outer_field=edge.outer_field,
                    residual=residual,
                )
        if query.residuals:
            plan = FilterPlan(plan, conjoin(query.residuals))
        if query.projection is not None:
            plan = ProjectPlan(plan, query.projection)
        return plan

    def compile(self, expr: Expression) -> Plan:
        """Compile ``expr`` into a physical plan (raises
        :class:`PlanningError` for unsupported shapes)."""
        return self.compile_normalized(normalize_spj(expr, self.catalog))
