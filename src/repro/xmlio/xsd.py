"""XSD generation (Section 9).

85 % of real-world XSDs are structurally equivalent to a DTD [9], so
generating one from an inferred DTD "is merely a matter of using the
correct syntax": every element becomes a global ``xs:element``, its
content model becomes nested ``xs:sequence`` / ``xs:choice`` particles,
and the unary operators (including the numerical predicates of
:class:`~repro.regex.ast.Repeat`) become ``minOccurs`` / ``maxOccurs``.
Nested unary operators compose into one pair when their occurrence
counts form one interval; otherwise the outer pair rides on a wrapping
``xs:sequence``, so every witnessed word stays valid.  The SIRE
learner's top-level interleavings of single elements become
``xs:all``; other interleavings have no XSD 1.0 form and raise a
:class:`~repro.errors.UsageError`.
Text-only elements get a datatype from :func:`repro.xmlio.datatypes
.sniff_type` when sample values are provided.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..errors import InternalError, UsageError
from ..regex.ast import Concat, Disj, Inter, Opt, Plus, Regex, Repeat, Star, Sym
from .dtd import Any, AttributeDef, Dtd, Empty, Mixed


def _occurs(low: int, high: int | None) -> str:
    parts = []
    if low != 1:
        parts.append(f'minOccurs="{low}"')
    if high != 1:
        parts.append(f'maxOccurs="{"unbounded" if high is None else high}"')
    return (" " + " ".join(parts)) if parts else ""


def _bounds(regex: Regex) -> tuple[int, int | None] | None:
    """The occurrence bounds of a unary operator node, else ``None``."""
    if isinstance(regex, Opt):
        return 0, 1
    if isinstance(regex, Plus):
        return 1, None
    if isinstance(regex, Star):
        return 0, None
    if isinstance(regex, Repeat):
        return regex.low, regex.high
    return None


def _compose(
    outer: tuple[int, int | None], inner: tuple[int, int | None]
) -> tuple[int, int | None] | None:
    """The bounds of ``(x{inner}){outer}`` when they form one interval.

    ``k`` repetitions of ``x{il,ih}`` give ``[k*il, k*ih]`` occurrences;
    the union over ``k`` in ``[ol, oh]`` is one interval iff consecutive
    ``k`` leave no gap, and the tightest spot is the smallest ``k``.
    Otherwise (``(a{2,2})?`` is 0 or 2, never 1) there is no single
    ``minOccurs``/``maxOccurs`` pair, and ``None`` is returned.
    """
    (outer_low, outer_high), (inner_low, inner_high) = outer, inner
    if outer_low != outer_high:
        if inner_high is None:
            contiguous = outer_low > 0 or inner_low <= 1
        else:
            contiguous = (outer_low + 1) * inner_low <= outer_low * inner_high + 1
        if not contiguous:
            return None
    high = (
        None
        if outer_high is None or inner_high is None
        else outer_high * inner_high
    )
    return outer_low * inner_low, high


def _particle(regex: Regex, indent: str, low: int = 1, high: int | None = 1) -> list[str]:
    occurs = _occurs(low, high)
    bounds = _bounds(regex)
    if bounds is not None:
        inner = regex.children()[0]
        composed = _compose((low, high), bounds)
        if composed is not None:
            return _particle(inner, indent, *composed)
        # The outer bounds ride on a sequence wrapping the inner ones.
        return (
            [f"{indent}<xs:sequence{occurs}>"]
            + _particle(inner, indent + "  ", *bounds)
            + [f"{indent}</xs:sequence>"]
        )
    if isinstance(regex, Sym):
        return [f'{indent}<xs:element ref="{regex.name}"{occurs}/>']
    if isinstance(regex, Concat):
        lines = [f"{indent}<xs:sequence{occurs}>"]
        for part in regex.parts:
            lines.extend(_particle(part, indent + "  "))
        lines.append(f"{indent}</xs:sequence>")
        return lines
    if isinstance(regex, Disj):
        lines = [f"{indent}<xs:choice{occurs}>"]
        for option in regex.options:
            lines.extend(_particle(option, indent + "  "))
        lines.append(f"{indent}</xs:choice>")
        return lines
    raise InternalError(f"unknown regex node: {regex!r}")


def _all_group(regex: Regex, element: str, indent: str) -> list[str] | None:
    """An interleaving content model as an ``xs:all`` group, if it is one.

    XSD 1.0 allows ``xs:all`` only as the whole content model, over
    element particles occurring at most once.  So a top-level ``Inter``
    (optionally wrapped in ``?``) of ``a``/``a?`` operands lowers to
    it; any other interleaving has no XSD 1.0 form and is a
    :class:`~repro.errors.UsageError` naming the element.  Returns
    ``None`` for interleaving-free models.
    """
    group, occurs = regex, ""
    if isinstance(group, Opt) and isinstance(group.inner, Inter):
        group, occurs = group.inner, ' minOccurs="0"'
    if isinstance(group, Inter) and all(
        isinstance(branch, Sym)
        or (isinstance(branch, Opt) and isinstance(branch.inner, Sym))
        for branch in group.branches
    ):
        lines = [f"{indent}<xs:all{occurs}>"]
        for branch in group.branches:
            lines.extend(_particle(branch, indent + "  "))
        lines.append(f"{indent}</xs:all>")
        return lines
    if any(isinstance(node, Inter) for node in regex.walk()):
        raise UsageError(
            f"element {element!r}: the interleaving in its content model "
            "has no XSD 1.0 form (xs:all holds only single elements "
            "occurring at most once, as the whole content model)"
        )
    return None


def _attribute_lines(attributes: list[AttributeDef], indent: str) -> list[str]:
    lines = []
    for attribute in attributes:
        use = (
            ' use="required"'
            if attribute.default == "#REQUIRED"
            else ""
        )
        attr_type = (
            "xs:NMTOKEN" if attribute.attribute_type == "NMTOKEN" else "xs:string"
        )
        lines.append(
            f'{indent}<xs:attribute name="{attribute.name}" '
            f'type="{attr_type}"{use}/>'
        )
    return lines


def dtd_to_xsd(
    dtd: Dtd,
    text_types: Mapping[str, str] | None = None,
    target_namespace: str | None = None,
) -> str:
    """Render a DTD as an XML Schema document.

    ``text_types`` maps element names with text-only content to XSD
    built-in types (typically produced by datatype sniffing over the
    corpus); elements absent from the map default to ``xs:string``.
    """
    text_types = dict(text_types or {})
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    namespace = (
        f' targetNamespace="{target_namespace}"' if target_namespace else ""
    )
    lines.append(
        f'<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"{namespace}>'
    )
    ordered = list(dtd.elements)
    if dtd.start in dtd.elements:
        ordered.remove(dtd.start)
        ordered.insert(0, dtd.start)
    for name in ordered:
        model = dtd.elements[name]
        attributes = dtd.attributes.get(name, [])
        if isinstance(model, Mixed) and not model.names and not attributes:
            datatype = text_types.get(name, "xs:string")
            lines.append(f'  <xs:element name="{name}" type="{datatype}"/>')
            continue
        lines.append(f'  <xs:element name="{name}">')
        if isinstance(model, Empty):
            lines.append('    <xs:complexType>')
        elif isinstance(model, Any):
            lines.append('    <xs:complexType mixed="true">')
            lines.append('      <xs:sequence>')
            lines.append(
                '        <xs:any processContents="lax" minOccurs="0" '
                'maxOccurs="unbounded"/>'
            )
            lines.append("      </xs:sequence>")
        elif isinstance(model, Mixed):
            lines.append('    <xs:complexType mixed="true">')
            if model.names:
                lines.append('      <xs:choice minOccurs="0" maxOccurs="unbounded">')
                for child in model.names:
                    lines.append(f'        <xs:element ref="{child}"/>')
                lines.append("      </xs:choice>")
        else:  # Children
            lines.append("    <xs:complexType>")
            particle = _all_group(model.regex, name, "      ") or _particle(
                model.regex, "      "
            )
            stripped = particle[0].lstrip()
            if not stripped.startswith(("<xs:sequence", "<xs:choice", "<xs:all")):
                particle = (
                    ["      <xs:sequence>"]
                    + _particle(model.regex, "        ")
                    + ["      </xs:sequence>"]
                )
            lines.extend(particle)
        lines.extend(_attribute_lines(attributes, "      "))
        lines.append("    </xs:complexType>")
        lines.append("  </xs:element>")
    lines.append("</xs:schema>")
    return "\n".join(lines) + "\n"
