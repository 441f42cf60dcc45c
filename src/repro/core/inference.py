"""End-to-end DTD inference: XML corpus in, DTD out.

Per Section 1.2, a DTD is inferred element-wise: for every element name
occurring in the corpus, learn a regular expression from the child-name
sequences found below it.  The learner choice tracks the paper's two
regimes:

* ``"idtd"`` — SOREs via 2T-INF + rewrite + repair (Section 6): the
  most specific class, right when data is abundant;
* ``"crx"`` — CHAREs directly (Section 7): strong generalisation,
  right when data is sparse;
* ``"kore"`` — k-occurrence REs via marked 2T-INF + rewrite
  (:mod:`repro.learning.kore`): handles content models where a symbol
  legitimately repeats (``a b a``), degenerating to the iDTD SORE when
  k=1 suffices;
* ``"sire"`` — single-occurrence REs with interleaving ``&``
  (:mod:`repro.learning.sire`): handles unordered, attribute-like
  content, degenerating to the CRX CHARE when no interleaving is
  witnessed;
* ``"auto"`` — per element, CRX below ``sparse_threshold`` examples and
  iDTD above it (the paper's guidance made mechanical; the extension
  learners are opt-in, never auto-chosen).

Mixed content, text-only and empty elements are detected from the
corpus and mapped to the corresponding DTD content specifications;
attribute lists are generated from attribute usage.  Numerical
predicates (Section 9) can be switched on to tighten ``+``/``*``.

The public entry point is :func:`repro.api.infer`; this module is the
engine behind it.  Every pipeline shape hands it the same evidence, a
:class:`~repro.learning.evidence.StreamingEvidence`, and
:meth:`DTDInferencer._finalize` derives each element's content model
in one place (:meth:`DTDInferencer._content_model`): learner state is
built there, from the element's distinct child-name sequences, only
for the methods on the chosen method's fallback ladder that run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING, Literal, cast

from ..contracts import (
    check_cached_content_model,
    check_content_model,
    contracts_enabled,
)
from ..errors import CorpusError, UsageError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..regex.ast import Opt, Regex
from ..regex.normalize import normalize
from ..learning import evidence as evidence_module
from ..learning.evidence import (
    StreamingElementEvidence,
    StreamingEvidence,
    WordBag,
)
from ..xmlio.datatypes import sniff_type
from ..xmlio.dtd import Any as AnyContent
from ..xmlio.dtd import AttributeDef, Children, Dtd, Empty, Mixed
from .idtd import idtd_from_soa
from .numeric import annotate_numeric

if TYPE_CHECKING:
    from .crx import CrxState
    from ..learning.kore import IncrementalKore
    from ..learning.sire import IncrementalSire
    from ..runtime.cache import CacheKey, ContentModelCache
    from ..runtime.resilience import DegradationReport, FaultPlan

Method = Literal["idtd", "crx", "kore", "sire", "auto"]

#: Every accepted ``method=`` value, in the order help text shows them.
METHODS: tuple[str, ...] = ("auto", "idtd", "crx", "kore", "sire")

#: Below this many example sequences, ``auto`` prefers CRX's stronger
#: generalisation over iDTD's specificity (Section 1.2's two regimes).
DEFAULT_SPARSE_THRESHOLD = 50


def validate_method(method: str) -> None:
    """Reject unknown learner methods with the one canonical message.

    Every entry point — :class:`DTDInferencer`, the
    :class:`repro.api.InferenceConfig` facade, ``repro.cli`` and the
    serve ``/infer`` handler — funnels through this check, so a bad
    ``method=`` produces the same :class:`UsageError` text (and hence
    the same exit code / HTTP status) everywhere.
    """
    if method not in METHODS:
        supported = ", ".join(repr(name) for name in METHODS)
        raise UsageError(
            f"unknown method {method!r}: expected one of {supported}"
        )


@dataclass
class InferenceReport:
    """What the inferencer did for each element (for logging / tests)."""

    method_used: dict[str, str] = field(default_factory=dict)
    text_types: dict[str, str] = field(default_factory=dict)


class DTDInferencer:
    """Infers a complete DTD from corpus evidence.

    Parameters:
        method: which learner to use per element (see module docstring).
        sparse_threshold: the auto-mode cut-over sample size.
        numeric: tighten ``+``/``*`` into ``{m,n}`` bounds (Section 9).
        infer_attributes: also generate ``<!ATTLIST>`` declarations.
        recorder: instrumentation sink (see :mod:`repro.obs`); spans
            ``soa``/``rewrite``/``crx``/``kore``/``sire`` are opened
            per element.
        cache: an optional :class:`repro.runtime.cache.ContentModelCache`
            memoizing the per-element finalize step, keyed on a
            fingerprint of the merged learner state.  ``None`` (the
            default) derives every content model fresh; the façade
            passes the process-wide cache unless ``cache=False``.
        fault_plan: an optional
            :class:`repro.runtime.resilience.FaultPlan` whose
            element-failure entries make chosen learners raise — the
            deterministic injection hook the resilience tests drive.
            Plans with element failures also salt the content-model
            cache key (degraded derivations never leak into, or out
            of, fault-free runs).
        degradation: an optional
            :class:`repro.runtime.resilience.DegradationReport`.  When
            set, a failing learner *falls back* down the paper's
            specificity ladder (SORE → CHARE → ``ANY``) and records
            the fallback there; when ``None`` (strict), learner
            failures propagate exactly as they always have.
    """

    def __init__(
        self,
        method: Method = "auto",
        sparse_threshold: int = DEFAULT_SPARSE_THRESHOLD,
        numeric: bool = False,
        infer_attributes: bool = True,
        recorder: Recorder | None = None,
        cache: ContentModelCache | None = None,
        fault_plan: FaultPlan | None = None,
        degradation: DegradationReport | None = None,
    ) -> None:
        validate_method(method)
        self.method = method
        self.sparse_threshold = sparse_threshold
        self.numeric = numeric
        self.infer_attributes = infer_attributes
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.cache = cache
        self.fault_plan = fault_plan
        self.degradation = degradation
        self._cache_salt: tuple[object, ...] = (
            fault_plan.learner_salt() if fault_plan is not None else ()
        )
        self.report = InferenceReport()

    # -- learner selection ---------------------------------------------------

    def _pick_method(self, nonempty_count: int) -> str:
        if self.method == "auto":
            return "crx" if nonempty_count < self.sparse_threshold else "idtd"
        return self.method

    # -- content-model memoization ---------------------------------------------

    def _cache_key(
        self, method: str, state_fingerprint: tuple[object, ...]
    ) -> CacheKey:
        """Key = learner method + active reservoir cap + state digest.

        The state digest is the *canonical* (sorted-tuple) fingerprint
        — hash-seed independent, so the same key bytes would be derived
        in any process, which keeps cache keys consistent with the
        on-disk digests :mod:`repro.ckpt` computes from the same states.
        ``SAMPLE_CAP`` is looked up through the module so runs under a
        patched cap (tests, ablations) never alias cached entries.
        When a fault plan injects learner failures the key also carries
        the plan (:meth:`repro.runtime.resilience.FaultPlan.learner_salt`):
        those faults change the state→expression mapping, so their
        entries must never alias fault-free ones.
        """
        return (
            method,
            evidence_module.SAMPLE_CAP,
            state_fingerprint,
        ) + self._cache_salt

    def _memoized(
        self,
        method: str,
        fingerprint: Callable[[], tuple[object, ...]],
        derive: Callable[[], Regex],
        name: str,
    ) -> Regex:
        """``derive()`` through the content-model cache, if one is set.

        The fingerprint is only computed when a cache is attached, so
        the uncached engine pays nothing.  Under contracts every hit
        re-derives fresh and compares
        (:func:`repro.contracts.check_cached_content_model`), so
        ``REPRO_CHECKS=1`` runs prove cached-vs-fresh agreement on the
        live workload.
        """
        if self.cache is None:
            return derive()
        key = self._cache_key(method, fingerprint())
        cached = self.cache.get(key, self.recorder)
        if cached is not None:
            if contracts_enabled():
                check_cached_content_model(cached, derive(), name)
            return cached
        regex = derive()
        self.cache.put(key, regex, self.recorder)
        return regex

    def _learn_regex(
        self, evidence: StreamingElementEvidence, method: str
    ) -> Regex:
        """``method``'s content model for one element's evidence.

        The learner state is built here, from the distinct words (or
        taken from a compacted element), so only the methods that run
        pay for a fold.  The cache key is the state's canonical
        fingerprint.
        """
        name = evidence.name
        recorder = self.recorder
        if method == "idtd":
            with recorder.span("soa", element=name):
                soa = evidence.learner("idtd").soa

            def derive_sore() -> Regex:
                with recorder.span("rewrite", element=name):
                    return idtd_from_soa(soa, recorder=recorder).regex

            regex = self._memoized(
                "idtd", soa.canonical_fingerprint, derive_sore, name
            )
        else:
            with recorder.span(method, element=name):
                state: CrxState | IncrementalKore | IncrementalSire = (
                    evidence.learner("crx").state
                    if method == "crx"
                    else cast(
                        "IncrementalKore | IncrementalSire",
                        evidence.learner(method),
                    )
                )
                regex = self._memoized(
                    method,
                    state.canonical_fingerprint,
                    lambda: state.infer(recorder=recorder),
                    name,
                )
        if self.numeric:
            # Numeric bounds read the full distinct-word sample, which
            # the fingerprint deliberately does not cover — annotation
            # therefore always runs fresh, on top of the cached core.
            regex = annotate_numeric(regex, evidence.sample().distinct_words())
        return regex

    def _derive_children(
        self,
        name: str,
        nonempty_count: int,
        learn: Callable[[str], Regex],
    ) -> tuple[Regex | None, str]:
        """Run the learner ladder for ``name``; ``None`` means ``ANY``.

        With no degradation report attached (strict mode, the default)
        this is exactly one ``learn(primary)`` call and failures
        propagate untouched.  With one, a failing learner — injected
        via the fault plan or a genuine :class:`CorpusError` — falls
        down the paper's specificity ladder
        (:data:`repro.runtime.resilience.FALLBACK_ORDER`): SORE to
        CHARE to ``ANY``, recording each step.  Injection is checked
        *before* ``learn`` runs so a warm content-model cache can never
        mask an injected failure.
        """
        # Lazy: repro.runtime sits above repro.core in the layer table
        # (lint rule R010), so core may only reach up at call time.
        from ..runtime.resilience import (
            FALLBACK_ORDER,
            ElementFallback,
            InjectedElementFailure,
        )

        ladder = FALLBACK_ORDER[self._pick_method(nonempty_count)]
        for position, method in enumerate(ladder):
            fallback_to = (
                ladder[position + 1] if position + 1 < len(ladder) else "any"
            )
            try:
                if self.fault_plan is not None and self.fault_plan.fails_element(
                    name, method
                ):
                    raise InjectedElementFailure(
                        f"injected fault: {method} learner failure for "
                        f"element {name!r}"
                    )
                return learn(method), method
            except (CorpusError, InjectedElementFailure) as exc:
                if self.degradation is None:
                    raise
                self.degradation.add_fallback(
                    ElementFallback(
                        element=name,
                        from_method=method,
                        to_method=fallback_to,
                        cause=str(exc),
                    ),
                    self.recorder,
                )
        return None, "any"

    # -- content model per element --------------------------------------------

    def _wrap_optional(self, regex: Regex, saw_empty: bool) -> Regex:
        if saw_empty and not regex.nullable():
            return normalize(Opt(regex))
        return regex

    def _content_model(
        self, evidence: StreamingElementEvidence
    ) -> Children | Mixed | Empty | AnyContent:
        has_children = evidence.nonempty_count > 0
        if evidence.has_text and has_children:
            self.report.method_used[evidence.name] = "mixed"
            return Mixed(names=tuple(sorted(evidence.child_alphabet)))
        if evidence.has_text:
            self.report.method_used[evidence.name] = "pcdata"
            self.report.text_types[evidence.name] = sniff_type(
                evidence.text_values
            )
            return Mixed(names=())
        if not has_children:
            self.report.method_used[evidence.name] = "empty"
            return Empty()
        regex, method = self._derive_children(
            evidence.name,
            evidence.nonempty_count,
            lambda chosen: self._learn_regex(evidence, chosen),
        )
        if regex is None:
            self.report.method_used[evidence.name] = "any"
            return AnyContent()
        regex = self._wrap_optional(regex, evidence.empty_count > 0)
        if contracts_enabled():
            check_content_model(regex, evidence.name)
        self.report.method_used[evidence.name] = method
        return Children(regex=regex)

    def _attlist(self, evidence: StreamingElementEvidence) -> list[AttributeDef]:
        definitions: list[AttributeDef] = []
        for attribute in sorted(evidence.attribute_presence):
            always = (
                evidence.attribute_presence[attribute] == evidence.occurrences
            )
            sniffed = sniff_type(evidence.attribute_values.get(attribute, ()))
            # Everything below xs:string on the specificity ladder
            # (integers, dates, NMTOKENs, ...) is lexically an NMTOKEN.
            attribute_type = "CDATA" if sniffed == "xs:string" else "NMTOKEN"
            definitions.append(
                AttributeDef(
                    name=attribute,
                    attribute_type=attribute_type,
                    default="#REQUIRED" if always else "#IMPLIED",
                )
            )
        return definitions

    # -- the engine ------------------------------------------------------------

    def _finalize(self, evidence: StreamingEvidence) -> Dtd:
        dtd = Dtd(start=evidence.majority_root())
        for name in sorted(evidence.elements):
            element_evidence = evidence.elements[name]
            dtd.elements[name] = self._content_model(element_evidence)
            if self.infer_attributes and element_evidence.attribute_presence:
                dtd.attributes[name] = self._attlist(element_evidence)
        return dtd

    # The span tracer of perfbench/spans.py binds these names.
    _finalize_batch = _finalize_streaming = _finalize
    _content_model_streaming = _content_model


def apply_support_threshold(
    evidence: StreamingEvidence,
    threshold: int,
    recorder: Recorder = NULL_RECORDER,
) -> None:
    """Noise handling (Section 9): drop element names mentioned in
    fewer than ``threshold`` parent sequences, corpus-wide.

    Re-reads every sample, so ``evidence`` must be built with
    ``keep_sample=True``."""
    support: dict[str, int] = {}
    for element in evidence.elements.values():
        for sequence, count in element.sample().distinct():
            for name in set(sequence):
                support[name] = support.get(name, 0) + count
    noisy = {
        name
        for name, count in support.items()
        if count < threshold and name in evidence.elements
    }
    if recorder.enabled:
        recorder.count("filter.dropped_names", len(noisy))
    if not noisy:
        return
    for element in evidence.elements.values():
        filtered = WordBag()
        for sequence, count in element.child_sequences.distinct():
            filtered.add(
                tuple(name for name in sequence if name not in noisy), count
            )
        element.child_sequences = filtered
    for name in noisy:
        evidence.elements.pop(name, None)
