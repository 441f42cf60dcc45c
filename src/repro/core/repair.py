"""Repair rules for iDTD (Section 6).

When the sample behind a SOA is not representative, ``rewrite`` gets
stuck: some edges of the intended automaton are missing, so no rule
precondition holds.  iDTD then *adds* a small set of edges — which can
only grow the language, keeping Theorem 2's ``L(A) ⊆ L(iDTD(A))`` —
chosen so that a rewrite rule becomes enabled:

* **enable-disjunction** equalises the neighbourhoods of a set of
  near-interchangeable states so ``disjunction`` can merge them.  Its
  precondition (b) (mutually adjacent states) fires on the Figure 2
  automaton for ``{a, c}`` and restores exactly the edges missing
  relative to Figure 1.  Precondition (a) accepts pairs whose
  neighbourhoods differ by at most ``k`` states on each side and
  overlap.
* **enable-optional** adds all bypass edges around a state so
  ``optional`` fires (and immediately removes them again); its
  precondition (a) wants at least one bypass edge as evidence, (b)
  covers the chain case ``Pred(r) = {r'}``.

Following the paper's implementation notes, precondition (a) of
enable-disjunction is only considered for pairs and the fuzziness
parameter defaults to ``k = 2``.  Within enable-disjunction we try the
strong-evidence precondition (b) before the similarity heuristic (a);
this is what reproduces the paper's Figure 2 → Figure 1 repair (on that
automaton, (a) would prefer the pair ``{b, c}`` and derive a different
super-approximation).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata.gfa import GFA, SINK, SOURCE, Closure, bit, members


@dataclass(frozen=True, slots=True)
class Repair:
    """One repair action: the rule used and the edges to add."""

    rule: str  # "enable_disjunction_b" | "enable_disjunction_a" | ...
    nodes: tuple[int, ...]
    new_edges: tuple[tuple[int, int], ...]

    def apply(self, gfa: GFA) -> None:
        for tail, head in self.new_edges:
            gfa.add_edge(tail, head)


#: Endpoint bits: no edge may enter the source or leave the sink.
_NOT_SINK = ~bit(SINK)
_NOT_SOURCE = ~bit(SOURCE)


def _equalising_edges(closure: Closure, group: int) -> tuple[tuple[int, int], ...]:
    """The minimal edge additions enabling ``disjunction`` on ``group``.

    Externally, every member's closure neighbourhood is raised to the
    union of the members' neighbourhoods (outside the set itself).
    Internally, if any graph edge runs between members, the member
    clique is completed — including self-loops — so the merged set
    lands in case (ii) of the disjunction dichotomy.  On the Figure 2
    automaton with members ``{a, c}`` this yields exactly the seven
    edges missing relative to Figure 1.  A closure edge is never
    missing from the graph, so only the internal edges need a graph
    check.
    """
    pred, succ, out = closure.pred, closure.succ, closure.out
    group_members = members(group)
    pred_union = succ_union = 0
    for member in group_members:
        pred_union |= pred[member]
        succ_union |= succ[member]
    pred_union &= ~group & _NOT_SINK
    succ_union &= ~group & _NOT_SOURCE
    additions: list[tuple[int, int]] = []
    internal = any(out[member] & group for member in group_members)
    for member in group_members:
        additions += [
            (tail, member) for tail in members(pred_union & ~pred[member])
        ]
        additions += [
            (member, head) for head in members(succ_union & ~succ[member])
        ]
        if internal:
            additions += [
                (member, head) for head in members(group & ~out[member])
            ]
    return tuple(sorted(additions))


def find_enable_disjunction_b(gfa: GFA, closure: Closure) -> Repair | None:
    """Precondition (b): a set of mutually adjacent states.

    Every member must be a closure-predecessor *and* -successor of every
    other member.  We grow a maximal clique greedily from each mutual
    pair and prefer cliques needing the fewest new edges.  Pairs inside
    one clique mostly grow that clique again; its edges are identical,
    so a repeat is never strictly better and is not scored twice.
    """
    # The source is in no succ mask and the sink in no pred mask, so
    # ``mutual`` holds labelled nodes only.
    mutual = {
        node: closure.succ[node] & closure.pred[node] & ~bit(node)
        for node in gfa.nodes()
    }
    best: Repair | None = None
    scored: set[int] = set()
    for u in sorted(mutual):
        for v in members(mutual[u] & -(bit(u) << 1)):  # mutual pairs u < v
            clique = bit(u) | bit(v)
            common = mutual[u] & mutual[v]
            for candidate in members(common):
                if common & bit(candidate):
                    clique |= bit(candidate)
                    common &= mutual[candidate]
            if clique in scored:
                continue
            scored.add(clique)
            edges = _equalising_edges(closure, clique)
            if best is None or len(edges) < len(best.new_edges):
                best = Repair("enable_disjunction_b", tuple(members(clique)), edges)
    return best


def find_enable_disjunction_a(
    gfa: GFA, closure: Closure, k: int
) -> Repair | None:
    """Precondition (a) for pairs: overlapping, nearly equal neighbourhoods.

    Neighbourhoods are compared modulo the pair itself (matching the
    disjunction rule's semantics), and the pair's internal structure
    must be absent or mutual: a one-directional edge between the two
    candidates means they are sequenced, not interchangeable — merging
    them would over-generalise (e.g. folding the trailing ``a5*`` of
    Table 2's example4 into the big disjunction).
    """
    pred, succ, out = closure.pred, closure.succ, closure.out
    nodes = sorted(gfa.nodes())
    best: Repair | None = None
    for index, u in enumerate(nodes):
        for v in nodes[index + 1 :]:
            pair = bit(u) | bit(v)
            pred_u, pred_v = pred[u] & ~pair, pred[v] & ~pair
            succ_u, succ_v = succ[u] & ~pair, succ[v] & ~pair
            if not (pred_u & pred_v) or not (succ_u & succ_v):
                continue
            if (
                (pred_u & ~pred_v).bit_count() > k
                or (pred_v & ~pred_u).bit_count() > k
                or (succ_u & ~succ_v).bit_count() > k
                or (succ_v & ~succ_u).bit_count() > k
            ):
                continue
            if bool(out[u] & bit(v)) != bool(out[v] & bit(u)):
                continue  # sequenced, not interchangeable
            edges = _equalising_edges(closure, pair)
            if not edges:
                continue
            if best is None or len(edges) < len(best.new_edges):
                best = Repair("enable_disjunction_a", (u, v), edges)
    return best


def _bypass_edges(closure: Closure, node: int) -> tuple[tuple[int, int], ...]:
    """All missing Pred(node) × (Succ(node) \\ {node}) edges."""
    succ = closure.succ
    node_bit = bit(node)
    successors = succ[node] & ~node_bit & _NOT_SOURCE
    return tuple(
        (predecessor, successor)
        for predecessor in members(closure.pred[node] & ~node_bit & _NOT_SINK)
        for successor in members(successors & ~succ[predecessor])
    )


def find_enable_optional_a(gfa: GFA, closure: Closure) -> Repair | None:
    """Precondition (a): at least one bypass edge already exists.

    Among the candidates, prefer the node whose repair adds the fewest
    edges (so removes the most relative to what it adds — the paper
    notes case (a) nets at least one removed edge).
    """
    best: Repair | None = None
    for node in sorted(gfa.nodes()):
        if gfa.labels[node].nullable():
            continue
        successors = closure.succ[node] & ~bit(node)
        if not any(
            closure.out[predecessor] & successors
            for predecessor in members(closure.pred[node])
        ):
            continue
        edges = _bypass_edges(closure, node)
        if not edges:
            continue  # optional is already enabled; rewrite handles it
        if best is None or len(edges) < len(best.new_edges):
            best = Repair("enable_optional_a", (node,), edges)
    return best


def find_enable_optional_b(gfa: GFA, closure: Closure, k: int) -> Repair | None:
    """Precondition (b): a chain node, ``Pred(r) = {r'}``, small fan-out."""
    best: Repair | None = None
    for node in sorted(gfa.nodes()):
        if gfa.labels[node].nullable():
            continue
        predecessors = closure.pred[node]
        if predecessors.bit_count() != 1:
            continue
        (sole,) = members(predecessors)
        if sole in (SOURCE, SINK):
            continue
        if (closure.succ[sole] & ~(bit(node) | bit(sole))).bit_count() > k:
            continue
        edges = _bypass_edges(closure, node)
        if not edges:
            continue
        if best is None or len(edges) < len(best.new_edges):
            best = Repair("enable_optional_b", (node,), edges)
    return best


def find_repair(gfa: GFA, k: int) -> Repair | None:
    """The paper's repair ladder: rule 1 before rule 2, (b) before (a)."""
    closure = gfa.closure()
    for finder in (
        lambda: find_enable_disjunction_b(gfa, closure),
        lambda: find_enable_disjunction_a(gfa, closure, k),
        lambda: find_enable_optional_a(gfa, closure),
        lambda: find_enable_optional_b(gfa, closure, k),
    ):
        repair = finder()
        if repair is not None and repair.new_edges:
            return repair
    return None
