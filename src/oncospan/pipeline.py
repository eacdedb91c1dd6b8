"""Annotator composition: one configured engine, one result per document.

Segmentation and normalization run once per document.  Each annotator
module declares anchors: literals on the folded shadow that every one of
its annotations contains.  Only the sentences holding an anchor of an
enabled annotator get a view, and every enabled annotator consumes the same
views.  The pipeline object is immutable after build, so one instance can
serve any number of worker threads.
"""

import re
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence, Union

from . import _textops, mutation, perfstatus, staging
from .assertion import CueLexicon, load_cue_lexicon
from .document import Diagnostic, Document, SentenceView, split_sentences
from .errors import ConfigError, DuplicateDocumentId
from .mutation import Gene, MutationAnnotation
from .perfstatus import PSAnnotation
from .staging import ConsistencyReport, StageAnnotation, TNMAnnotation, check_consistency

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

_ANCHOR_BY_KIND = {
    AnnotatorKind.EGFR: mutation.ANCHOR,
    AnnotatorKind.ALK: mutation.ANCHOR,
    AnnotatorKind.ROS1: mutation.ANCHOR,
    AnnotatorKind.TNM: staging.TNM_ANCHOR,
    AnnotatorKind.STAGE: staging.STAGE_ANCHOR,
    AnnotatorKind.ECOG: perfstatus.ECOG_ANCHOR,
    AnnotatorKind.KARNOFSKY: perfstatus.KARNOFSKY_ANCHOR,
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

    __slots__ = (
        "config", "lexicon", "_genes", "_tnm", "_stage", "_ecog", "_karnofsky", "_anchor"
    )

    def __init__(self, config: PipelineConfig, lexicon: CueLexicon):
        self.config = config
        self.lexicon = lexicon
        enabled = config.enabled_annotators
        self._genes = frozenset(
            gene for kind, gene in _GENE_BY_KIND.items() if kind in enabled
        )
        self._tnm = AnnotatorKind.TNM in enabled
        self._stage = AnnotatorKind.STAGE in enabled
        self._ecog = AnnotatorKind.ECOG in enabled
        self._karnofsky = AnnotatorKind.KARNOFSKY in enabled
        # A lookahead, so that every position an anchor starts at is a hit.
        anchors = sorted({_ANCHOR_BY_KIND[kind] for kind in enabled})
        self._anchor = re.compile("(?=" + "|".join(f"(?:{a})" for a in anchors) + ")")

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
    sentences = split_sentences(text)
    folded = _textops.normalize_text(text)
    norm, offsets = folded
    # A sentence can hold an annotation only if an anchor starts inside it;
    # the offsets place each hit on the shadow back in the text.
    begins = [s.span.begin for s in sentences]
    live: list[int] = []
    for hit in pipeline._anchor.finditer(norm):
        index = bisect_right(begins, offsets[hit.start()]) - 1
        if not live or live[-1] != index:
            live.append(index)
    for index in live:
        view = SentenceView.in_folded(text, folded, sentences[index].span)
        if pipeline._genes:
            annotations.extend(
                mutation.annotate_view(view, pipeline.lexicon, pipeline._genes)
            )
        if pipeline._tnm:
            annotations.extend(staging.tnm_in_view(view))
        if pipeline._stage:
            annotations.extend(staging.stages_in_view(view))
        if pipeline._ecog:
            anns, diags = perfstatus.ecog_in_view(view)
            annotations.extend(anns)
            diagnostics.extend(diags)
        if pipeline._karnofsky:
            anns, diags = perfstatus.karnofsky_in_view(view)
            annotations.extend(anns)
            diagnostics.extend(diags)
    annotations.sort(key=lambda a: (a.span.begin, a.span.end, a.annotator))
    reports: list[ConsistencyReport] = []
    if pipeline._tnm and pipeline._stage:
        tnms = [a for a in annotations if isinstance(a, TNMAnnotation)]
        stages = [a for a in annotations if isinstance(a, StageAnnotation)]
        for tnm in tnms:
            for stage in stages:
                reports.append(check_consistency(tnm, stage))
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
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seen: set[str] = set()
    for doc in documents:
        if doc.id in seen:
            raise DuplicateDocumentId(doc.id)
        seen.add(doc.id)
    if jobs <= 1 or len(documents) <= 1:
        results = [process_document(pipeline, doc) for doc in documents]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda d: process_document(pipeline, d), documents))
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
