"""Rete network node types.

The five node types of the paper's §2: root (held by the network), t-const,
α-memory, and, and β-memory. Memory nodes are page-backed, so maintaining
them charges disk I/O; t-const screens charge ``C1`` per token tested; and
and-node probes charge the page reads of the opposite memory plus ``C1`` per
joined candidate pair.

Activation is batched per update transaction: a node receives the full list
of tokens the transaction produced for it, applies them to its memory in one
page-deduplicated pass (the paper's ``y(n, m, 2fl)`` refresh accounting),
and forwards the batch. Only one base relation changes per transaction (the
paper's update model), so the opposite input of an and-node is always
quiescent while a batch flows — the classic Rete ordering anomaly cannot
arise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Optional

from repro.query.predicate import Predicate, compiled_column_matcher
from repro.rete.tokens import Token
from repro.sim import CostClock
from repro.storage.columnar import ColumnBatch
from repro.storage.matstore import MaterializedStore
from repro.storage.tuples import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


class ReteNode:
    """Base node: named, with downstream successors."""

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.successors: list["ReteNode"] = []
        self.ref_count = 0  # number of procedures whose network includes this node

    def add_successor(self, node: "ReteNode") -> None:
        if node not in self.successors:
            self.successors.append(node)

    def receive(
        self, tokens: list[Token], clock: CostClock, source: Optional["ReteNode"]
    ) -> None:
        raise NotImplementedError

    def _forward(self, tokens: list[Token], clock: CostClock) -> None:
        if not tokens:
            return
        for successor in self.successors:
            successor.receive(tokens, clock, source=self)


class TConstNode(ReteNode):
    """Tests tokens against a constant condition.

    Each token screened costs ``C1``. Thanks to the constant-test
    discrimination index, the network only routes a token here when it is a
    plausible match, so the expected charge per update transaction is the
    paper's ``C1 * f * 2l`` per distinct condition.
    """

    def __init__(
        self, key: Hashable, relation: str, predicate: Predicate, schema: Schema
    ) -> None:
        super().__init__(key)
        self.relation = relation
        self.predicate = predicate
        self.schema = schema

    def receive(
        self, tokens: list[Token], clock: CostClock, source: Optional[ReteNode]
    ) -> None:
        if not tokens:
            return
        # One C1 per token, charged in aggregate; the compiled column
        # matcher screens the whole wave in one vector pass.
        clock.charge_cpu(len(tokens))
        matcher = compiled_column_matcher(self.predicate, self.schema)
        batch = ColumnBatch(self.schema, [token.row for token in tokens])
        mask = matcher(batch)
        passing = [token for token, ok in zip(tokens, mask) if ok]
        self._forward(passing, clock)


class MemoryNode(ReteNode):
    """Base of α- and β-memories: a page-backed materialised view.

    Applying a token batch charges one read plus one write per distinct page
    touched; the batch is then forwarded unchanged.
    """

    def __init__(self, key: Hashable, store: MaterializedStore, schema: Schema) -> None:
        super().__init__(key)
        self.store = store
        self.schema = schema

    #: Phase label charged while this memory applies a token batch
    #: (``rete.alpha`` / ``rete.beta``); see :mod:`repro.obs`.
    phase = "rete.alpha"

    def receive(
        self, tokens: list[Token], clock: CostClock, source: Optional[ReteNode]
    ) -> None:
        if not tokens:
            return
        inserts = [t.row for t in tokens if t.is_insert]
        deletes = [t.row for t in tokens if not t.is_insert]
        tracer = clock.tracer
        if tracer is None:
            self.store.apply_delta(inserts, deletes)
        else:
            with tracer.span(self.phase):
                self.store.apply_delta(inserts, deletes)
        self._forward(tokens, clock)


class AlphaMemoryNode(MemoryNode):
    """Holds the output of a t-const chain (a selection of one relation)."""

    phase = "rete.alpha"


class BetaMemoryNode(MemoryNode):
    """Holds the output of an and-node (a join result)."""

    phase = "rete.beta"


class AndNode(ReteNode):
    """A join node: ``left.left_field = right.right_field``.

    A token arriving from one input is probed against the *opposite* memory;
    each matching ``(token, tuple)`` pair forms a combined token with the
    original tag. Probe I/O is the page reads of matching tuples in the
    opposite memory — the paper's ``Y5``/``Y8`` terms. The paper's model
    ignores the CPU cost of the join test itself; the simulator charges
    ``C1`` per candidate pair, a deliberate (tiny) extra honesty documented
    in EXPERIMENTS.md.
    """

    def __init__(
        self,
        key: Hashable,
        left: MemoryNode,
        right: MemoryNode,
        left_field: str,
        right_field: str,
    ) -> None:
        super().__init__(key)
        self.left = left
        self.right = right
        self.left_field = left_field
        self.right_field = right_field
        self._left_pos = left.schema.index_of(left_field)
        self._right_pos = right.schema.index_of(right_field)
        left.add_successor(self)
        right.add_successor(self)

    def output_schema(self) -> Schema:
        return self.left.schema.concat(self.right.schema)

    def receive(
        self, tokens: list[Token], clock: CostClock, source: Optional[ReteNode]
    ) -> None:
        if source is self.left:
            from_left = True
        elif source is self.right:
            from_left = False
        else:
            raise ValueError(
                f"and-node {self.key!r} received tokens from a non-input node"
            )
        tracer = clock.tracer
        if tracer is None:
            joined = self._probe(tokens, from_left=from_left, clock=clock)
        else:
            # Probe I/O and join screens are β-network work.
            with tracer.span("rete.beta"):
                joined = self._probe(tokens, from_left=from_left, clock=clock)
        self._forward(joined, clock)

    def _probe(
        self, tokens: list[Token], from_left: bool, clock: CostClock
    ) -> list[Token]:
        if from_left:
            key_pos = self._left_pos
            opposite = self.right
            probe_field = self.right_field
        else:
            key_pos = self._right_pos
            opposite = self.left
            probe_field = self.left_field
        values = {token.row[key_pos] for token in tokens}
        matches = opposite.store.probe_many(probe_field, values)
        out: list[Token] = []
        for token in tokens:
            for opposite_row in matches.get(token.row[key_pos], ()):
                out.append(token.combined_with(opposite_row, other_on_right=from_left))
        if out:
            # C1 per candidate pair, charged in aggregate (float-exact: the
            # per-pair charges sum to the same total).
            clock.charge_cpu(len(out))
        return out
