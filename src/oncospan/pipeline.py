"""Annotator composition: one configured engine, one result per document.

Normalization runs once per document.  Each annotator module declares
anchors: literals on the folded shadow that every one of its annotations
contains.  The note is never split as a whole: only the sentences holding
an anchor of an enabled annotator are looked up, each gets one view, and
each annotator runs only on the sentences that hold one of its own anchors.
The pipeline object is immutable after build.
"""

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence, Union

from . import _textops, mutation, perfstatus, staging
from .assertion import CueLexicon, load_cue_lexicon
from .document import ABBREVIATION_STOPLIST, Diagnostic, Document, SentenceView, Span
from .errors import ConfigError, DuplicateDocumentId
from .mutation import Gene, MutationAnnotation
from .perfstatus import PSAnnotation
from .staging import ConsistencyReport, StageAnnotation, TNMAnnotation

Annotation = Union[MutationAnnotation, TNMAnnotation, StageAnnotation, PSAnnotation]


class AnnotatorKind(Enum):
    EGFR = "EGFR"
    ALK = "ALK"
    ROS1 = "ROS1"
    TNM = "TNM"
    STAGE = "Stage"
    ECOG = "ECOG"
    KARNOFSKY = "Karnofsky"


ALL_ANNOTATORS = frozenset(AnnotatorKind)

_GENE_BY_KIND = {
    AnnotatorKind.EGFR: Gene.EGFR,
    AnnotatorKind.ALK: Gene.ALK,
    AnnotatorKind.ROS1: Gene.ROS1,
}

# The annotator calls, in the order they run on a sentence (and so the
# order of their diagnostics), and the anchor each one needs.
_MUTATION, _TNM, _STAGE, _ECOG, _KARNOFSKY = range(5)
_ANCHOR_BY_CALL = (
    mutation.ANCHOR,
    staging.TNM_ANCHOR,
    staging.STAGE_ANCHOR,
    perfstatus.ECOG_ANCHOR,
    perfstatus.KARNOFSKY_ANCHOR,
)
_CALL_BY_KIND = {
    AnnotatorKind.EGFR: _MUTATION,
    AnnotatorKind.ALK: _MUTATION,
    AnnotatorKind.ROS1: _MUTATION,
    AnnotatorKind.TNM: _TNM,
    AnnotatorKind.STAGE: _STAGE,
    AnnotatorKind.ECOG: _ECOG,
    AnnotatorKind.KARNOFSKY: _KARNOFSKY,
}


@dataclass(frozen=True)
class PipelineConfig:
    enabled_annotators: frozenset[AnnotatorKind] = ALL_ANNOTATORS
    lexicon_path: str | Path | None = None


@dataclass(frozen=True)
class DocumentResult:
    document_id: str
    text: str
    annotations: tuple[Annotation, ...] = ()
    diagnostics: tuple[Diagnostic, ...] = ()
    consistency: tuple[ConsistencyReport, ...] = ()


class Pipeline:
    """Immutable bundle of compiled rules; see build_pipeline."""

    __slots__ = ("config", "lexicon", "_genes", "_anchors")

    def __init__(self, config: PipelineConfig, lexicon: CueLexicon):
        self.config = config
        self.lexicon = lexicon
        enabled = config.enabled_annotators
        self._genes = frozenset(
            gene for kind, gene in _GENE_BY_KIND.items() if kind in enabled
        )
        self._anchors = tuple(
            (call, re.compile(_ANCHOR_BY_CALL[call]))
            for call in sorted({_CALL_BY_KIND[kind] for kind in enabled})
        )

    def process_document(self, document: Document) -> DocumentResult:
        return process_document(self, document)


def build_pipeline(config: PipelineConfig) -> Pipeline:
    enabled = frozenset(config.enabled_annotators)
    if not enabled:
        raise ConfigError("no annotators enabled")
    try:
        lexicon = load_cue_lexicon(config.lexicon_path)
    except OSError as exc:
        raise ConfigError(f"cannot read cue lexicon: {exc}") from exc
    return Pipeline(config, lexicon)


def process_document(pipeline: Pipeline, document: Document) -> DocumentResult:
    annotations: list[Annotation] = []
    diagnostics: list[Diagnostic] = []
    text = document.text
    folded = _textops.normalize_text(text)
    norm, offsets = folded
    # An annotator can find something only in a sentence where one of its
    # anchors starts; the offsets place each hit on the shadow back in the
    # text.  Matches of one anchor do not overlap, which hides no sentence:
    # a start skipped inside a match lies in the same run of letters and
    # digits, except in a TNM match, whose separator may end a sentence but
    # which holds no second "t".
    hits = sorted(
        (offsets[m.start()], call)
        for call, anchor in pipeline._anchors
        for m in anchor.finditer(norm)
    )
    live: list[tuple[Span, set[int]]] = []
    end = 0
    for at, call in hits:
        if at >= end:
            begin, end = _textops.sentence_span_at(text, at, end, ABBREVIATION_STOPLIST)
            calls: set[int] = set()
            live.append((Span(begin, end), calls))
        calls.add(call)
    # The annotators are looked up at call time, so a wrapper set on a
    # module attribute sees every call.
    for span, calls in live:
        view = SentenceView.in_folded(text, folded, span)
        if _MUTATION in calls:
            annotations.extend(
                mutation.annotate_view(view, pipeline.lexicon, pipeline._genes)
            )
        if _TNM in calls:
            annotations.extend(staging.tnm_in_view(view))
        if _STAGE in calls:
            annotations.extend(staging.stages_in_view(view))
        if _ECOG in calls:
            anns, diags = perfstatus.ecog_in_view(view)
            annotations.extend(anns)
            diagnostics.extend(diags)
        if _KARNOFSKY in calls:
            anns, diags = perfstatus.karnofsky_in_view(view)
            annotations.extend(anns)
            diagnostics.extend(diags)
    annotations.sort(key=lambda a: (a.span.begin, a.span.end, a.annotator))
    # A disabled annotator finds nothing, so it leaves no pair to check.
    reports = staging.consistency_reports(
        [a for a in annotations if isinstance(a, TNMAnnotation)],
        [a for a in annotations if isinstance(a, StageAnnotation)],
    )
    return DocumentResult(
        document_id=document.id,
        text=document.text,
        annotations=tuple(annotations),
        diagnostics=tuple(diagnostics),
        consistency=tuple(reports),
    )


def process_corpus(
    pipeline: Pipeline, documents: Sequence[Document], jobs: int = 1
) -> list[DocumentResult]:
    """Annotate *documents* and return their results sorted by document id.

    *jobs* must be at least 1, and every value runs the documents serially
    in this thread.  The annotators are pure Python, so worker threads only
    take turns on the interpreter lock (two measured slower than one), and
    a process pool would add a second interpreter's memory to the run.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seen: set[str] = set()
    for doc in documents:
        if doc.id in seen:
            raise DuplicateDocumentId(doc.id)
        seen.add(doc.id)
    results = [process_document(pipeline, doc) for doc in documents]
    results.sort(key=lambda r: r.document_id)
    return results


__all__ = [
    "Annotation",
    "AnnotatorKind",
    "ALL_ANNOTATORS",
    "PipelineConfig",
    "DocumentResult",
    "Pipeline",
    "build_pipeline",
    "process_document",
    "process_corpus",
]
