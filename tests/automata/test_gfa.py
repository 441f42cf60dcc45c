"""GFA mechanics: mutation, merge semantics, ε-closure, acceptance."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.gfa import GFA, SINK, SOURCE, bit, members
from repro.automata.soa import SOA
from repro.regex.ast import Opt, Plus, Regex, Sym, concat
from repro.regex.parser import parse_regex


def small_soa() -> SOA:
    return SOA(
        symbols={"a", "b"},
        initial={"a"},
        final={"b"},
        edges={("a", "b"), ("b", "b")},
    )


class TestStructure:
    def test_from_soa(self):
        gfa = GFA.from_soa(small_soa())
        assert len(gfa.nodes()) == 2
        labels = {str(label) for label in gfa.labels.values()}
        assert labels == {"a", "b"}
        assert len(gfa.edge_list()) == 4

    def test_from_soa_with_empty_adds_source_sink_edge(self):
        soa = small_soa()
        soa.accepts_empty = True
        gfa = GFA.from_soa(soa)
        assert gfa.has_edge(SOURCE, SINK)

    def test_add_remove_node(self):
        gfa = GFA()
        node = gfa.add_node(Sym("x"))
        gfa.add_edge(SOURCE, node)
        gfa.add_edge(node, SINK)
        assert gfa.is_final()
        gfa.remove_node(node)
        assert gfa.nodes() == []
        assert gfa.edge_list() == []

    def test_relabel_rejects_endpoints(self):
        gfa = GFA()
        with pytest.raises(ValueError):
            gfa.relabel(SOURCE, Sym("x"))

    def test_unknown_edge_endpoint_rejected(self):
        gfa = GFA()
        with pytest.raises(KeyError):
            gfa.add_edge(0, 1)

    def test_merge_redirects_and_self_loops(self):
        gfa = GFA()
        a = gfa.add_node(Sym("a"))
        b = gfa.add_node(Sym("b"))
        c = gfa.add_node(Sym("c"))
        gfa.add_edge(SOURCE, a)
        gfa.add_edge(a, b)
        gfa.add_edge(b, a)
        gfa.add_edge(b, c)
        gfa.add_edge(c, SINK)
        merged = gfa.merge([a, b], parse_regex("a + b"))
        assert gfa.has_edge(SOURCE, merged)
        assert gfa.has_edge(merged, merged)  # internal a<->b edges
        assert gfa.has_edge(merged, c)

    def test_merge_without_internal_edges_has_no_self_loop(self):
        gfa = GFA()
        a = gfa.add_node(Sym("a"))
        b = gfa.add_node(Sym("b"))
        gfa.add_edge(SOURCE, a)
        gfa.add_edge(SOURCE, b)
        gfa.add_edge(a, SINK)
        gfa.add_edge(b, SINK)
        merged = gfa.merge([a, b], parse_regex("a + b"))
        assert not gfa.has_edge(merged, merged)
        assert gfa.is_final()

    def test_is_single_occurrence(self):
        gfa = GFA.from_soa(small_soa())
        assert gfa.is_single_occurrence()
        gfa.add_node(Sym("a"))  # duplicates the symbol a
        assert not gfa.is_single_occurrence()

    def test_copy_is_independent(self):
        gfa = GFA.from_soa(small_soa())
        clone = gfa.copy()
        node = clone.nodes()[0]
        clone.remove_node(node)
        assert len(gfa.nodes()) == 2


def reference_closure(gfa: GFA) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """The Section 5 ε-closure by plain set search: (pred, succ)."""
    every_node = [SOURCE, SINK, *gfa.nodes()]
    succ: dict[int, set[int]] = {}
    for start in every_node:
        reachable: set[int] = set()
        frontier = list(gfa.successors(start))
        while frontier:
            node = frontier.pop()
            if node in reachable:
                continue
            reachable.add(node)
            if node not in (SOURCE, SINK) and gfa.labels[node].nullable():
                frontier.extend(gfa.successors(node))
        succ[start] = reachable
    for node, label in gfa.labels.items():
        if isinstance(label, Plus) or (
            isinstance(label, Opt) and isinstance(label.inner, Plus)
        ):
            succ[node].add(node)
    pred: dict[int, set[int]] = {node: set() for node in every_node}
    for tail, heads in succ.items():
        for head in heads:
            pred[head].add(tail)
    return pred, succ


def random_gfa(seed: int) -> GFA:
    """Random labels (plain, ``s?``, ``s+``, ``(s+)?``, nullable chains)."""
    rng = random.Random(seed)
    gfa = GFA()
    for index in range(rng.randint(1, 9)):
        base: Regex = Sym(f"s{index}")
        if rng.random() < 0.2:
            base = concat(Opt(base), Opt(Sym(f"t{index}")))
        shape = rng.choice(("plain", "opt", "plus", "star"))
        if shape == "opt":
            base = Opt(base)
        elif shape == "plus":
            base = Plus(base)
        elif shape == "star":
            base = Opt(Plus(base))
        gfa.add_node(base)
    nodes = gfa.nodes()
    density = rng.choice((0.15, 0.3, 0.5))
    for tail in [SOURCE, *nodes]:
        for head in [*nodes, SINK]:
            if rng.random() < density:
                gfa.add_edge(tail, head)
    if rng.random() < 0.3:
        gfa.add_edge(SOURCE, SINK)
    return gfa


class TestClosure:
    def test_bit_layout(self):
        assert bit(SINK) == 1
        assert bit(SOURCE) == 2
        assert bit(0) == 4
        assert members(bit(SINK) | bit(SOURCE) | bit(3)) == [SINK, SOURCE, 3]
        assert members(0) == []

    def test_plus_like_nodes_get_self_edges(self):
        gfa = GFA()
        plus = gfa.add_node(Plus(Sym("a")))
        optional_plus = gfa.add_node(Opt(Plus(Sym("b"))))
        plain = gfa.add_node(Sym("c"))
        closure = gfa.closure()
        assert plus in members(closure.succ[plus])
        assert optional_plus in members(closure.succ[optional_plus])
        assert plain not in members(closure.succ[plain])

    def test_paths_through_nullable_nodes(self):
        gfa = GFA()
        a = gfa.add_node(Sym("a"))
        b = gfa.add_node(Opt(Sym("b")))
        c = gfa.add_node(Sym("c"))
        gfa.add_edge(SOURCE, a)
        gfa.add_edge(a, b)
        gfa.add_edge(b, c)
        gfa.add_edge(c, SINK)
        closure = gfa.closure()
        assert c in members(closure.succ[a])  # through nullable b
        assert a in members(closure.pred[c])
        assert c in members(closure.succ[b])  # direct edge
        assert SINK in members(closure.succ[c])
        assert SINK not in members(closure.succ[b])  # c is not nullable
        assert SOURCE in members(closure.pred[a])

    def test_non_nullable_nodes_block_paths(self):
        gfa = GFA()
        a = gfa.add_node(Sym("a"))
        b = gfa.add_node(Sym("b"))
        c = gfa.add_node(Sym("c"))
        gfa.add_edge(a, b)
        gfa.add_edge(b, c)
        closure = gfa.closure()
        assert c not in members(closure.succ[a])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_masks_match_reference_closure(self, seed):
        gfa = random_gfa(seed)
        closure = gfa.closure()
        pred, succ = reference_closure(gfa)
        for node in [SOURCE, SINK, *gfa.nodes()]:
            assert set(members(closure.succ[node])) == succ[node]
            assert set(members(closure.pred[node])) == pred[node]
            assert set(members(closure.out[node])) == gfa.successors(node)


class TestAcceptance:
    def test_gfa_accepts_by_labels(self):
        gfa = GFA()
        node = gfa.add_node(parse_regex("a b?"))
        tail = gfa.add_node(parse_regex("c+"))
        gfa.add_edge(SOURCE, node)
        gfa.add_edge(node, tail)
        gfa.add_edge(tail, SINK)
        assert gfa.accepts(("a", "c"))
        assert gfa.accepts(("a", "b", "c", "c"))
        assert not gfa.accepts(("a", "b"))
        assert not gfa.accepts(("b", "c"))

    def test_empty_word_via_source_sink_edge(self):
        soa = small_soa()
        soa.accepts_empty = True
        gfa = GFA.from_soa(soa)
        assert gfa.accepts(())

    def test_final_regex(self):
        gfa = GFA()
        node = gfa.add_node(parse_regex("a+"))
        gfa.add_edge(SOURCE, node)
        gfa.add_edge(node, SINK)
        assert gfa.final_regex() == parse_regex("a+")
        gfa.add_node(Sym("z"))
        with pytest.raises(ValueError):
            gfa.final_regex()
