"""API-level rewrite helpers: explicit closure reuse, enumeration."""

from hypothesis import given, settings

from repro.automata.gfa import GFA, SOURCE, members
from repro.core.numeric import annotate_numeric
from repro.core.rewrite import (
    all_applications,
    apply_application,
    find_application,
)
from repro.learning.tinf import tinf
from repro.regex.glushkov import glushkov

from ..conftest import sores

FIGURE1_WORDS = [tuple(w) for w in ["bacacdacde", "cbacdbacde", "abccaadcde"]]


class TestFindApplication:
    def test_explicit_closure_reuse(self):
        gfa = GFA.from_soa(tinf(FIGURE1_WORDS))
        closure = gfa.closure()
        first = find_application(gfa, closure=closure)
        second = find_application(gfa)  # computes its own closure
        assert first == second
        initial = {str(gfa.labels[node]) for node in members(closure.succ[SOURCE])}
        assert initial == {"a", "b", "c"}  # the words start with b, c and a

    def test_custom_priority_changes_first_rule(self):
        gfa = GFA.from_soa(tinf(FIGURE1_WORDS))
        application = find_application(gfa, order=("self_loop", "optional"))
        assert application.rule == "self_loop"

    def test_all_applications_lists_each_enabled_rule_once(self):
        gfa = GFA.from_soa(tinf(FIGURE1_WORDS))
        enabled = all_applications(gfa)
        rules = [application.rule for application in enabled]
        assert len(rules) == len(set(rules))
        assert "optional" in rules
        assert "self_loop" in rules  # a->a exists

    def test_none_when_final(self):
        gfa = GFA.from_soa(tinf([("a",)]))
        while (application := find_application(gfa)) is not None:
            apply_application(gfa, application)
        assert gfa.is_final()
        assert all_applications(gfa) == []


class TestNumericProperty:
    @settings(max_examples=30, deadline=None)
    @given(sores(max_symbols=5))
    def test_annotated_expression_accepts_the_sample(self, expression):
        """Numeric tightening never rejects the data it came from."""
        from repro.datagen.strings import representative_sample

        sample = representative_sample(expression)
        annotated = annotate_numeric(expression, sample)
        automaton = glushkov(annotated)
        for word in sample:
            assert automaton.accepts(word), (word, annotated)
