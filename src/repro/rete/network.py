"""Rete network construction with shared subexpressions.

The builder turns a normalised procedure query (:class:`repro.query.
analysis.SPJQuery`) into a subnetwork shaped the way the paper's statically
optimized networks are (Figures 3 and 16):

- **P1** (selection): ``root -> t-const(C_f) -> α-memory``; the α-memory is
  the procedure result.
- **P2** (join): the driving relation's selection feeds a *left* α-memory;
  the remaining relations are pre-joined into a right-side memory (an
  α-memory for one relation, a β-memory chain for more — the model-2 shape
  where the right input of the top and-node is the precomputed
  ``σ_Cf2(R2) ⋈ R3``); the top and-node's β-memory is the procedure result.

This shape is the statically-optimal one for the paper's update statistics
(only the driving relation ``R1`` changes): the frequently-changing side
joins against a precomputed subexpression instead of re-joining every base
relation, which is exactly why RVM beats AVM in model 2 (§7).

Every node is hash-consed on a structural key, so two procedures with an
identical subexpression — e.g. a P2 whose ``C_f(R1)`` equals an existing
P1's — share nodes and memories. That emergent sharing is the paper's
sharing factor ``SF``.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.query.analysis import SPJQuery
from repro.query.predicate import Predicate, TruePredicate
from repro.rete.discrimination import ConstantTestIndex
from repro.rete.nodes import (
    AlphaMemoryNode,
    AndNode,
    BetaMemoryNode,
    MemoryNode,
    ReteNode,
    TConstNode,
)
from repro.rete.tokens import Token, deltas_to_tokens
from repro.sim import CostClock
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.columnar import ColumnBatch
from repro.storage.tuples import Row, Schema


class ReteBuildError(ValueError):
    """Raised when a procedure query cannot be compiled into the network."""


class ReteNetwork:
    """A single shared network maintaining many procedure results.

    Args:
        catalog: base relations.
        buffer: buffer pool backing the memory-node stores.
        clock: cost clock charged during token propagation.
        result_tuple_bytes: width assumed for memory-node tuples. The paper
            fixes procedure-result tuples at ``S`` bytes regardless of join
            arity; pass the base ``S`` to match, or ``None`` to use the
            honest concatenated width.
    """

    def __init__(
        self,
        catalog: Catalog,
        buffer: BufferPool,
        clock: CostClock,
        result_tuple_bytes: int | None = None,
    ) -> None:
        self.catalog = catalog
        self.buffer = buffer
        self.clock = clock
        self.result_tuple_bytes = result_tuple_bytes
        self._tconsts: dict[Hashable, TConstNode] = {}
        self._memories: dict[Hashable, MemoryNode] = {}
        self._ands: dict[Hashable, AndNode] = {}
        self._results: dict[str, MemoryNode] = {}
        self._discrimination = ConstantTestIndex()
        self._store_counter = 0

    # -- construction -------------------------------------------------------

    def _store_schema(self, schema: Schema) -> Schema:
        if self.result_tuple_bytes is None:
            return schema
        return Schema(schema.fields, tuple_bytes=self.result_tuple_bytes)

    def _make_store_name(self, kind: str) -> str:
        self._store_counter += 1
        return f"rete.{kind}.{self._store_counter}"

    def _tconst_for(self, relation: str, predicate: Predicate) -> TConstNode:
        key = ("tconst", relation, predicate)
        node = self._tconsts.get(key)
        if node is None:
            schema = self.catalog.get(relation).schema
            node = TConstNode(key, relation, predicate, schema)
            self._tconsts[key] = node
            self._register_discrimination(relation, predicate, node)
        node.ref_count += 1
        return node

    def _register_discrimination(
        self, relation: str, predicate: Predicate, node: TConstNode
    ) -> None:
        schema = self.catalog.get(relation).schema
        for field in schema.names():
            interval = predicate.interval_on(field)
            if interval is not None:
                self._discrimination.add_interval(relation, interval, node)
                return
        self._discrimination.add_catch_all(relation, node)

    def _alpha_for(self, relation: str, predicate: Predicate) -> AlphaMemoryNode:
        key = ("alpha", relation, predicate)
        memory = self._memories.get(key)
        if memory is None:
            rel = self.catalog.get(relation)
            schema = self._store_schema(rel.schema)
            store = self._new_store("alpha", schema)
            memory = AlphaMemoryNode(key, store, rel.schema)
            self._memories[key] = memory
            tconst = self._tconst_for(relation, predicate)
            tconst.add_successor(memory)
            store.load_silently(rel.heap.matching_uncharged(predicate))
        else:
            self._tconst_for(relation, predicate)  # bump shared ref count
        memory.ref_count += 1
        return memory

    def _new_store(self, kind: str, schema: Schema):
        from repro.storage.matstore import MaterializedStore

        name = self._make_store_name(kind)
        return MaterializedStore(name, schema, self.buffer, seed=self._store_counter)

    def _beta_for(
        self,
        left: MemoryNode,
        right: MemoryNode,
        left_field: str,
        right_field: str,
    ) -> BetaMemoryNode:
        key = ("beta", left.key, right.key, left_field, right_field)
        memory = self._memories.get(key)
        if memory is not None:
            memory.ref_count += 1
            return memory  # type: ignore[return-value]
        and_node = AndNode(
            ("and",) + key[1:], left, right, left_field, right_field
        )
        self._ands[and_node.key] = and_node
        out_schema = and_node.output_schema()
        store = self._new_store("beta", self._store_schema(out_schema))
        beta = BetaMemoryNode(key, store, out_schema)
        and_node.add_successor(beta)
        self._memories[key] = beta
        store.load_silently(self._initial_join(left, right, left_field, right_field))
        memory = beta
        memory.ref_count += 1
        return memory

    @staticmethod
    def _initial_join(
        left: MemoryNode, right: MemoryNode, left_field: str, right_field: str
    ) -> list[Row]:
        """Contents of a new β-memory, computed without I/O accounting."""
        right_rows: dict[Any, list[Row]] = {}
        right_pos = right.schema.index_of(right_field)
        for row in right.store.peek_all():
            right_rows.setdefault(row[right_pos], []).append(row)
        left_pos = left.schema.index_of(left_field)
        out: list[Row] = []
        for left_row in left.store.peek_all():
            for right_row in right_rows.get(left_row[left_pos], ()):
                out.append(left_row + right_row)
        return out

    def add_procedure(self, name: str, query: SPJQuery) -> MemoryNode:
        """Compile ``query`` into the network; returns the result memory.

        Single-relation queries produce an α-memory; joins produce the
        paper's shape — driver α-memory joined against a precomputed chain
        of the remaining relations.
        """
        if name in self._results:
            raise ReteBuildError(f"procedure {name!r} already in the network")
        if query.residuals:
            raise ReteBuildError(
                "cross-relation residual predicates are not representable "
                "as t-const conditions"
            )
        driver = query.relations[0]
        driver_alpha = self._alpha_for(driver, query.restriction_of(driver))
        if not query.joins:
            self._results[name] = driver_alpha
            return driver_alpha

        # Build the precomputed right-side chain over relations[1:].
        first_inner = query.joins[0].inner_relation
        right: MemoryNode = self._alpha_for(
            first_inner, query.restriction_of(first_inner)
        )
        for edge in query.joins[1:]:
            inner_alpha = self._alpha_for(
                edge.inner_relation, query.restriction_of(edge.inner_relation)
            )
            right = self._beta_for(
                right, inner_alpha, edge.outer_field, edge.inner_field
            )

        top_edge = query.joins[0]
        result = self._beta_for(
            driver_alpha, right, top_edge.outer_field, top_edge.inner_field
        )
        self._results[name] = result
        return result

    # -- runtime --------------------------------------------------------------

    def apply_update(
        self, relation: str, inserts: list[Row], deletes: list[Row]
    ) -> None:
        """Propagate one update transaction's changes through the network.

        The constant-test discrimination index routes each token only to the
        t-const nodes it can satisfy; each routed (token, node) pair costs
        one ``C1`` screen inside the node.
        """
        tokens = deltas_to_tokens(inserts, deletes)
        schema = self.catalog.get(relation).schema
        routed = 0
        # One discrimination probe per registered condition over the whole
        # token wave; nodes fire in the order a token-at-a-time walk would
        # first route a token to them (token index, candidate rank).
        fired: list[tuple[int, int, TConstNode, list[Token]]] = []
        if tokens:
            batch = ColumnBatch(schema, [token.row for token in tokens])
            for rank, (node, idx) in enumerate(
                self._discrimination.candidates_batch(relation, batch)
            ):
                assert isinstance(node, TConstNode)
                routed += len(idx)
                fired.append((int(idx[0]), rank, node, [tokens[i] for i in idx]))
        fired.sort(key=lambda entry: (entry[0], entry[1]))
        firing = [(node, toks) for _first, _rank, node, toks in fired]
        tracer = self.clock.tracer
        if tracer is not None and tokens:
            tracer.event("rete.tokens", len(tokens))
            tracer.event("rete.tokens.routed", routed)
        for node, node_tokens in firing:
            node.receive(node_tokens, self.clock, source=None)

    def apply_update_batch(
        self,
        relation: str,
        transactions: list[tuple[list[Row], list[Row]]],
    ) -> None:
        """Propagate a multi-transaction batch as one token wave.

        The transactions' deltas are multiset-netted (inserts cancelled by
        later in-batch deletes vanish before tokenisation) and pushed
        through the network in a single :meth:`apply_update` pass, so each
        t-const activates once over its routed token set and each memory's
        page I/O is deduplicated across the whole batch — the per-node
        (not per-tuple) activation the batched pipeline is built around.
        """
        from repro.core.batch import net_deltas

        inserts, deletes = net_deltas(transactions)
        tracer = self.clock.tracer
        if tracer is not None:
            tracer.event("rete.batch.transactions", len(transactions))
            tracer.event(
                "rete.batch.net_tuples", len(inserts) + len(deletes)
            )
        self.apply_update(relation, inserts, deletes)

    def result_memory(self, name: str) -> MemoryNode:
        """The memory node holding procedure ``name``'s result."""
        try:
            return self._results[name]
        except KeyError:
            raise KeyError(f"no procedure {name!r} in the network") from None

    def read_result(self, name: str) -> list[Row]:
        """Read a procedure's maintained value (charges ``C2`` per page) —
        the whole of Update Cache's per-access cost."""
        return self.result_memory(name).store.read_all()

    # -- introspection ----------------------------------------------------------

    @property
    def num_memories(self) -> int:
        return len(self._memories)

    @property
    def num_tconsts(self) -> int:
        return len(self._tconsts)

    @property
    def num_and_nodes(self) -> int:
        return len(self._ands)

    def describe(self) -> str:
        """An ASCII rendering of the network — the textual analogue of the
        paper's Figures 1, 3, and 16. One line per node, parent -> child
        edges indented, shared nodes annotated with their reference count.
        """
        lines: list[str] = [
            f"ReteNetwork: {len(self._results)} procedures, "
            f"{self.num_tconsts} t-const, {self.num_memories} memories, "
            f"{self.num_and_nodes} and-nodes"
        ]

        def label(node: ReteNode) -> str:
            shared = f" (shared x{node.ref_count})" if node.ref_count > 1 else ""
            if isinstance(node, TConstNode):
                return f"t-const[{node.relation}: {node.predicate!r}]{shared}"
            if isinstance(node, AlphaMemoryNode):
                return (
                    f"alpha-memory[{node.store.num_rows} rows, "
                    f"{node.store.num_pages} pages]{shared}"
                )
            if isinstance(node, BetaMemoryNode):
                return (
                    f"beta-memory[{node.store.num_rows} rows, "
                    f"{node.store.num_pages} pages]{shared}"
                )
            if isinstance(node, AndNode):
                return f"and[{node.left_field} = {node.right_field}]{shared}"
            return repr(node)  # pragma: no cover - defensive

        result_names = {
            id(memory): sorted(
                name for name, m in self._results.items() if m is memory
            )
            for memory in self._results.values()
        }

        printed: set[int] = set()

        def walk(node: ReteNode, depth: int) -> None:
            marker = ""
            results = result_names.get(id(node))
            if results:
                marker = f"  => result of {', '.join(results)}"
            if id(node) in printed:
                lines.append("  " * depth + f"{label(node)}  (see above)")
                return
            printed.add(id(node))
            lines.append("  " * depth + label(node) + marker)
            for successor in node.successors:
                walk(successor, depth + 1)

        lines.append("root")
        for tconst in self._tconsts.values():
            walk(tconst, 1)
        return "\n".join(lines)

    def memory_stores(self) -> list:
        """The stores backing every memory node (shared memories once) —
        what crash recovery must drop before rebuilding the network."""
        return [node.store for node in self._memories.values()]

    def total_memory_pages(self) -> int:
        """Disk pages across all memory nodes (shared memories counted
        once — the space saving of subexpression sharing)."""
        return sum(node.store.num_pages for node in self._memories.values())

    def sharing_report(self) -> dict[str, int]:
        """How many nodes are shared by more than one procedure."""
        shared_memories = sum(
            1 for node in self._memories.values() if node.ref_count > 1
        )
        shared_tconsts = sum(
            1 for node in self._tconsts.values() if node.ref_count > 1
        )
        return {
            "memories": len(self._memories),
            "shared_memories": shared_memories,
            "tconsts": len(self._tconsts),
            "shared_tconsts": shared_tconsts,
            "and_nodes": len(self._ands),
        }
