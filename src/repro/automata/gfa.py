"""Generalized finite automata (GFAs) with SORE labels on the states.

Section 5 of the paper runs its rewrite system on automata whose states
carry regular expressions: a *generalized finite automaton* is an
``RE(Σ)``-labeled graph, and it is *single occurrence* when every label
is a SORE and every alphabet symbol occurs in at most one label.

The class here is a small mutable digraph with two distinguished
unlabeled endpoints (:data:`SOURCE` and :data:`SINK`) plus the
ε-closure of Section 5, which underlies the preconditions of the
``disjunction`` and ``optional`` rules:

* every node labelled ``s+`` or ``(s+)?`` has a closure self-edge;
* ``(r, r′)`` is a closure edge whenever some G-path from ``r`` to
  ``r′`` only crosses intermediate nodes with ε in their language.

The closure is a table of integer bitmasks, one bit per node, so the
rule and repair preconditions of :mod:`repro.core` are a handful of
mask operations per node pair instead of set algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..errors import UsageError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..regex.ast import Opt, Plus, Regex, Sym
from ..regex.language import matches
from .soa import SOA

SOURCE = -1
SINK = -2


def _is_plus_like(label: Regex) -> bool:
    """Labels of the form ``s+`` or ``(s+)?`` get closure self-loops."""
    if isinstance(label, Plus):
        return True
    return isinstance(label, Opt) and isinstance(label.inner, Plus)


def bit(node: int) -> int:
    """The closure-mask bit of ``node``: SINK is bit 0, SOURCE bit 1."""
    return 1 << (node + 2)


def members(mask: int) -> list[int]:
    """Decode a closure mask into its node ids, in ascending order."""
    nodes: list[int] = []
    while mask:
        low = mask & -mask
        nodes.append(low.bit_length() - 3)
        mask ^= low
    return nodes


def _through_nullable(adjacent: dict[int, int], nullable: int) -> dict[int, int]:
    """Per node: the nodes reached by edges, crossing only nullable ones."""
    reached: dict[int, int] = {}
    for start, reach in adjacent.items():
        crossed = 0
        through = reach & nullable
        while through:
            low = through & -through
            crossed |= low
            reach |= adjacent[low.bit_length() - 3]
            through = reach & nullable & ~crossed
        reached[start] = reach
    return reached


@dataclass(frozen=True, slots=True)
class Closure:
    """The ε-closure ``G*`` as node bitmasks (see :func:`bit`).

    ``pred``/``succ`` map every node, the endpoints included, to the
    mask of its closure predecessors/successors; ``out`` maps it to
    the mask of its direct graph successors.  Bits ascend with node
    ids, so :func:`members` yields nodes in sorted order.
    """

    pred: dict[int, int]
    succ: dict[int, int]
    out: dict[int, int]


class GFA:
    """A mutable single occurrence GFA.

    Nodes are integer ids mapped to their :class:`Regex` labels; the
    unlabeled endpoints are the module constants ``SOURCE``/``SINK``.
    """

    def __init__(self) -> None:
        self.labels: dict[int, Regex] = {}
        self._out: dict[int, set[int]] = {SOURCE: set(), SINK: set()}
        self._in: dict[int, set[int]] = {SOURCE: set(), SINK: set()}
        self._next_id = 0
        #: Instrumentation sink; :func:`repro.core.rewrite.rewrite_gfa`
        #: attaches a live one so state merges are counted where they
        #: happen instead of being re-derived by every caller.
        self.recorder: Recorder = NULL_RECORDER

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_soa(cls, soa: SOA) -> "GFA":
        """Lift a SOA to a GFA with symbol labels (each SOA is a GFA).

        ``accepts_empty`` becomes a direct source→sink edge, which is
        how the paper's graph semantics expresses ε — the ``optional``
        rule consumes it when it makes the last mandatory part of the
        expression optional.
        """
        gfa = cls()
        by_symbol = {symbol: gfa.add_node(Sym(symbol)) for symbol in sorted(soa.symbols)}
        for symbol in soa.initial:
            gfa.add_edge(SOURCE, by_symbol[symbol])
        for symbol in soa.final:
            gfa.add_edge(by_symbol[symbol], SINK)
        for a, b in soa.edges:
            gfa.add_edge(by_symbol[a], by_symbol[b])
        if soa.accepts_empty:
            gfa.add_edge(SOURCE, SINK)
        return gfa

    def copy(self) -> "GFA":
        clone = GFA()
        clone.labels = dict(self.labels)
        clone._out = {node: set(succ) for node, succ in self._out.items()}
        clone._in = {node: set(pred) for node, pred in self._in.items()}
        clone._next_id = self._next_id
        clone.recorder = self.recorder
        return clone

    # -- mutation -------------------------------------------------------------

    def add_node(self, label: Regex) -> int:
        node = self._next_id
        self._next_id += 1
        self.labels[node] = label
        self._out[node] = set()
        self._in[node] = set()
        return node

    def remove_node(self, node: int) -> None:
        for successor in list(self._out[node]):
            self.remove_edge(node, successor)
        for predecessor in list(self._in[node]):
            self.remove_edge(predecessor, node)
        del self.labels[node]
        del self._out[node]
        del self._in[node]

    def add_edge(self, tail: int, head: int) -> None:
        self._check_endpoint(tail)
        self._check_endpoint(head)
        self._out[tail].add(head)
        self._in[head].add(tail)

    def remove_edge(self, tail: int, head: int) -> None:
        self._out[tail].discard(head)
        self._in[head].discard(tail)

    def relabel(self, node: int, label: Regex) -> None:
        if node in (SOURCE, SINK):
            raise UsageError("the source and sink carry no label")
        self.labels[node] = label

    def merge(self, nodes: Sequence[int], label: Regex) -> int:
        """Replace ``nodes`` by a single fresh node labelled ``label``.

        All edges incident to the merged nodes are redirected to the
        new node; edges *between* merged nodes (including self-loops)
        become a self-loop on the new node.  Returns the new node id.
        """
        merged = set(nodes)
        if self.recorder.enabled:
            self.recorder.count("soa.states_eliminated", len(merged) - 1)
        new_node = self.add_node(label)
        for node in nodes:
            for successor in list(self._out[node]):
                self.add_edge(
                    new_node, new_node if successor in merged else successor
                )
            for predecessor in list(self._in[node]):
                self.add_edge(
                    new_node if predecessor in merged else predecessor, new_node
                )
        for node in nodes:
            self.remove_node(node)
        return new_node

    def _check_endpoint(self, node: int) -> None:
        if node not in self._out:
            # lint: allow R002 — mapping-lookup protocol, callers catch KeyError
            raise KeyError(f"unknown node {node}")

    # -- structure ------------------------------------------------------------

    def nodes(self) -> list[int]:
        """Labelled nodes only (excludes source/sink)."""
        return list(self.labels)

    def has_edge(self, tail: int, head: int) -> bool:
        return head in self._out.get(tail, ())

    def successors(self, node: int) -> set[int]:
        return set(self._out[node])

    def predecessors(self, node: int) -> set[int]:
        return set(self._in[node])

    def edge_list(self) -> list[tuple[int, int]]:
        return [
            (tail, head) for tail, heads in self._out.items() for head in heads
        ]

    def is_final(self) -> bool:
        """One labelled node, connected exactly source → node → sink."""
        if len(self.labels) != 1:
            return False
        (node,) = self.labels
        return (
            self._out[SOURCE] == {node}
            and self._in[node] == {SOURCE}
            and self._out[node] == {SINK}
            and self._in[SINK] == {node}
        )

    def final_regex(self) -> Regex:
        if not self.is_final():
            raise UsageError("GFA is not final")
        (label,) = self.labels.values()
        return label

    def alphabet(self) -> set[str]:
        return {
            symbol for label in self.labels.values() for symbol in label.alphabet()
        }

    def is_single_occurrence(self) -> bool:
        seen: set[str] = set()
        for label in self.labels.values():
            for symbol, count in label.symbol_occurrences().items():
                if count != 1 or symbol in seen:
                    return False
                seen.add(symbol)
        return True

    # -- ε-closure (Section 5) -------------------------------------------------

    def closure(self) -> Closure:
        """``G*`` in O(n) mask operations per node.

        A node's closure successors are its graph successors plus,
        transitively, those of every nullable node it reaches; closure
        predecessors are the same search over reversed edges.
        """
        # ``bit`` inlined: these two tables are the closure's bulk.
        out = {
            node: sum([1 << (head + 2) for head in heads])
            for node, heads in self._out.items()
        }
        into = {
            node: sum([1 << (tail + 2) for tail in tails])
            for node, tails in self._in.items()
        }
        nullable = plus_like = 0
        for node, label in self.labels.items():
            if label.nullable():
                nullable |= bit(node)
            if _is_plus_like(label):
                plus_like |= bit(node)
        succ = _through_nullable(out, nullable)
        pred = _through_nullable(into, nullable)
        for node in members(plus_like):
            succ[node] |= bit(node)
            pred[node] |= bit(node)
        return Closure(pred=pred, succ=succ, out=out)

    # -- language ---------------------------------------------------------------

    def accepts(self, word: Sequence[str]) -> bool:
        """Membership by dynamic programming over (node, position) pairs.

        A configuration ``(v, i)`` means: some path from the source has
        just finished matching node ``v`` after consuming ``word[:i]``.
        Used in tests to check that rewriting preserves the language.
        """
        start: tuple[int, int] = (SOURCE, 0)
        seen = {start}
        frontier = [start]
        length = len(word)
        while frontier:
            node, index = frontier.pop()
            if index == length and self.has_edge(node, SINK):
                return True
            for successor in self._out[node]:
                if successor == SINK:
                    continue
                label = self.labels[successor]
                for end in range(index, length + 1):
                    if not matches(label, word[index:end]):
                        continue
                    state = (successor, end)
                    if state not in seen:
                        seen.add(state)
                        frontier.append(state)
        return False

    def __str__(self) -> str:
        def name(node: int) -> str:
            if node == SOURCE:
                return "src"
            if node == SINK:
                return "snk"
            return str(self.labels[node])

        edges = ", ".join(
            f"{name(tail)} -> {name(head)}" for tail, head in sorted(self.edge_list())
        )
        return f"GFA({edges})"
