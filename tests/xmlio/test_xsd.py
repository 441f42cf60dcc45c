"""XSD generation (Section 9)."""

from xml.etree import ElementTree

import pytest

from repro.api import InferenceConfig, infer
from repro.errors import UsageError
from repro.regex.ast import Concat, Opt, Plus, Repeat, Sym, concat, disj, inter
from repro.regex.language import matches
from repro.xmlio.dtd import Children, parse_dtd
from repro.xmlio.xsd import dtd_to_xsd


def test_structure_and_occurs():
    dtd = parse_dtd(
        "<!ELEMENT r (a, b?, c+, (d|e)*)>"
        "<!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>"
        "<!ELEMENT d EMPTY><!ELEMENT e EMPTY>"
    )
    xsd = dtd_to_xsd(dtd)
    assert '<xs:element ref="a"/>' in xsd
    assert '<xs:element ref="b" minOccurs="0"/>' in xsd
    assert '<xs:element ref="c" maxOccurs="unbounded"/>' in xsd
    assert '<xs:choice minOccurs="0" maxOccurs="unbounded">' in xsd


def test_numerical_predicates_become_occurs():
    """The paper's minOccurs/maxOccurs rendering of a=2 b>=2."""
    dtd = parse_dtd("<!ELEMENT r (a{2,2}, b{2,})><!ELEMENT a EMPTY><!ELEMENT b EMPTY>")
    xsd = dtd_to_xsd(dtd)
    assert '<xs:element ref="a" minOccurs="2" maxOccurs="2"/>' in xsd
    assert '<xs:element ref="b" minOccurs="2" maxOccurs="unbounded"/>' in xsd


def test_text_types_applied():
    dtd = parse_dtd("<!ELEMENT r (y)><!ELEMENT y (#PCDATA)>")
    xsd = dtd_to_xsd(dtd, text_types={"y": "xs:integer"})
    assert '<xs:element name="y" type="xs:integer"/>' in xsd


def test_mixed_content():
    dtd = parse_dtd("<!ELEMENT p (#PCDATA | em)*><!ELEMENT em (#PCDATA)>")
    xsd = dtd_to_xsd(dtd)
    assert '<xs:complexType mixed="true">' in xsd
    assert '<xs:element ref="em"/>' in xsd


def test_attributes():
    dtd = parse_dtd(
        "<!ELEMENT a EMPTY><!ATTLIST a id NMTOKEN #REQUIRED note CDATA #IMPLIED>"
    )
    xsd = dtd_to_xsd(dtd)
    assert '<xs:attribute name="id" type="xs:NMTOKEN" use="required"/>' in xsd
    assert '<xs:attribute name="note" type="xs:string"/>' in xsd


def test_single_particle_wrapped_in_sequence():
    dtd = parse_dtd("<!ELEMENT r (a+)><!ELEMENT a EMPTY>")
    xsd = dtd_to_xsd(dtd)
    assert "<xs:sequence>" in xsd


def test_target_namespace():
    dtd = parse_dtd("<!ELEMENT a EMPTY>")
    xsd = dtd_to_xsd(dtd, target_namespace="urn:example")
    assert 'targetNamespace="urn:example"' in xsd


def test_start_element_first():
    dtd = parse_dtd("<!ELEMENT z EMPTY><!ELEMENT a (z)>")
    dtd.start = "a"
    xsd = dtd_to_xsd(dtd)
    assert xsd.index('name="a"') < xsd.index('name="z"')


# -- soundness: the re-read XSD accepts every witness -------------------------

XS = "{http://www.w3.org/2001/XMLSchema}"


def _with_occurs(node, regex):
    low = int(node.get("minOccurs", "1"))
    raw_high = node.get("maxOccurs", "1")
    high = None if raw_high == "unbounded" else int(raw_high)
    return regex if (low, high) == (1, 1) else Repeat(regex, low, high)


def _read_particle(node):
    """One XSD particle back into a regex (the independent re-read)."""
    tag = node.tag.removeprefix(XS)
    if tag == "element":
        return _with_occurs(node, Sym(node.get("ref")))
    children = [_read_particle(child) for child in node]
    combine = {"sequence": concat, "choice": disj, "all": inter}[tag]
    return _with_occurs(node, combine(*children))


def read_xsd_models(text):
    """Element name → content-model regex, for complex element content."""
    schema = ElementTree.fromstring(text)
    models = {}
    for element in schema.findall(f"{XS}element"):
        complex_type = element.find(f"{XS}complexType")
        if complex_type is None or complex_type.get("mixed") == "true":
            continue
        particles = [
            child
            for child in complex_type
            if child.tag.removeprefix(XS) in ("sequence", "choice", "all")
        ]
        if particles:
            models[element.get("name")] = _read_particle(particles[0])
    return models


def _learned_xsd(method, words):
    documents = [
        "<r>" + "".join(f"<{name}/>" for name in word) + "</r>" for word in words
    ]
    result = infer(documents, config=InferenceConfig(method=method))
    return result.dtd, result.to_xsd()


class TestWitnessSoundness:
    def test_kore_outer_optional_survives_nested_repeat(self):
        words = [("a",), ("a", "a", "a")]
        dtd, xsd = _learned_xsd("kore", words)
        assert isinstance(dtd.elements["r"].regex, Concat)
        model = read_xsd_models(xsd)["r"]
        for word in words:
            assert matches(model, word), (word, xsd)
        assert '<xs:sequence minOccurs="0">' in xsd

    @pytest.mark.parametrize("method", ["idtd", "crx", "kore", "sire"])
    @pytest.mark.parametrize(
        "words",
        [
            [("a",), ("a", "a", "a")],
            [("a", "b", "a"), ("a", "b"), ("b", "a", "a")],
            [("a", "b", "c"), ("c", "a", "b"), ("b", "c", "a"), ("b", "a")],
            [(), ("x", "y"), ("x", "x", "y", "y")],
        ],
    )
    def test_every_witness_accepted(self, method, words):
        try:
            _, xsd = _learned_xsd(method, words)
        except UsageError:
            # Only an interleaving beyond xs:all's reach may refuse.
            assert method == "sire"
            return
        model = read_xsd_models(xsd)["r"]
        for word in words:
            assert matches(model, word), (word, xsd)

    def test_unary_bounds_compose_into_one_pair_when_contiguous(self):
        dtd = parse_dtd("<!ELEMENT r ((a{2,3})+)><!ELEMENT a EMPTY>")
        xsd = dtd_to_xsd(dtd)
        assert '<xs:element ref="a" minOccurs="2" maxOccurs="unbounded"/>' in xsd


class TestInterleaving:
    def _dtd(self, regex):
        dtd = parse_dtd("<!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>")
        dtd.elements["r"] = Children(regex=regex)
        return dtd

    def test_top_level_interleaving_becomes_xs_all(self):
        regex = inter(Sym("a"), Opt(Sym("b")), Sym("c"))
        xsd = dtd_to_xsd(self._dtd(regex))
        assert "<xs:all>" in xsd
        assert '<xs:element ref="b" minOccurs="0"/>' in xsd
        model = read_xsd_models(xsd)["r"]
        for word in [("a", "c"), ("c", "b", "a"), ("b", "a", "c")]:
            assert matches(model, word)
        assert not matches(model, ("a", "a", "c"))

    def test_optional_interleaving_is_an_optional_all_group(self):
        xsd = dtd_to_xsd(self._dtd(Opt(inter(Sym("a"), Sym("b")))))
        assert '<xs:all minOccurs="0">' in xsd

    @pytest.mark.parametrize(
        "regex",
        [
            inter(Plus(Sym("a")), Sym("b")),
            concat(Sym("c"), inter(Sym("a"), Sym("b"))),
        ],
    )
    def test_other_interleavings_are_usage_errors(self, regex):
        with pytest.raises(UsageError, match="'r'"):
            dtd_to_xsd(self._dtd(regex))

    def test_sire_result_renders_xsd(self):
        words = [("a", "b", "c"), ("c", "b", "a"), ("b", "a", "c")]
        _, xsd = _learned_xsd("sire", words)
        assert "<xs:all>" in xsd
        model = read_xsd_models(xsd)["r"]
        assert all(matches(model, word) for word in words)
