"""Annotator composition: one configured engine, one result per document.

Normalization runs once per document.  Each annotator module declares
anchors on the folded shadow, literals or literal-prefixed patterns (ROS1,
TNM, ECOG, Karnofsky), and every one of its annotations holds a match of one.
``_CALLS`` lists each annotator once: the kinds that enable it, its
anchors and its place in the run order.  The note is never split as a
whole: only the sentences holding an anchor of an enabled annotator are
looked up, each gets one view, and each annotator runs only on the
sentences that hold one of its own anchors.  The pipeline object is
immutable after build.
"""

import re
from pathlib import Path
from typing import NamedTuple, Sequence

from . import _textops, mutation, perfstatus, staging
from ._typesystem import Annotation, AnnotatorKind, Diagnostic, DocumentResult, Gene, Span
from .assertion import CueLexicon, load_cue_lexicon
from .document import Document, SentenceView
from .errors import ConfigError, DuplicateDocumentId

ALL_ANNOTATORS = frozenset(AnnotatorKind)

# The kinds named after a gene, each enabling that gene's annotations.
_GENE_BY_KIND = {kind: Gene[kind.name] for kind in AnnotatorKind if kind.name in Gene.__members__}

# One row per annotator, in the order the annotators run on a sentence (and
# so the order of their diagnostics): the kinds that enable it, its anchors
# and its call.  Each anchor is a literal or a compiled literal-prefixed
# pattern, and every annotation of the row holds a match of one.  Each call
# looks its annotator up at call time, so a wrapper set on a module
# attribute sees every call.
_CALLS = (
    (
        tuple(_GENE_BY_KIND),
        mutation.ANCHOR,
        lambda view, pipeline: (
            mutation.annotate_view(view, pipeline.lexicon, pipeline._genes),
            (),
        ),
    ),
    (
        (AnnotatorKind.TNM,),
        (re.compile(staging.TNM_ANCHOR),),
        lambda view, pipeline: (staging.tnm_in_view(view), ()),
    ),
    (
        (AnnotatorKind.STAGE,),
        staging.STAGE_ANCHOR,
        lambda view, pipeline: (staging.stages_in_view(view), ()),
    ),
    (
        (AnnotatorKind.ECOG,),
        (re.compile(perfstatus.ECOG_ANCHOR),),
        lambda view, pipeline: perfstatus.ecog_in_view(view),
    ),
    (
        (AnnotatorKind.KARNOFSKY,),
        (re.compile(perfstatus.KARNOFSKY_ANCHOR),),
        lambda view, pipeline: perfstatus.karnofsky_in_view(view),
    ),
)


class PipelineConfig(NamedTuple):
    enabled_annotators: frozenset[AnnotatorKind] = ALL_ANNOTATORS
    lexicon_path: str | Path | None = None


class Pipeline:
    """Immutable bundle of compiled rules; see build_pipeline."""

    __slots__ = ("config", "lexicon", "_genes", "_calls")

    def __init__(self, config: PipelineConfig, lexicon: CueLexicon):
        self.config = config
        self.lexicon = lexicon
        enabled = config.enabled_annotators
        self._genes = frozenset(
            gene for kind, gene in _GENE_BY_KIND.items() if kind in enabled
        )
        # The indexes in _CALLS of the enabled annotators.
        self._calls = tuple(
            row
            for row, (kinds, _, _) in enumerate(_CALLS)
            if any(kind in enabled for kind in kinds)
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


def _anchor_hits(
    pipeline: Pipeline, norm: str, offsets: Sequence[int]
) -> list[tuple[int, int]]:
    """Sorted ``(index in the text, row in _CALLS)`` of each anchor start
    on the shadow *norm*; *offsets* maps the shadow back to the text."""
    # Each literal is found at every start, overlapping or not.  Matches of
    # a pattern do not overlap, which hides no start: none can start inside
    # another, as a TNM match holds one "t", an ECOG match one "e", a ROS1
    # match one "r", and the second "k" of "karnofsky" is followed by "y".
    hits: list[tuple[int, int]] = []
    find = norm.find
    for row in pipeline._calls:
        for anchor in _CALLS[row][1]:
            if isinstance(anchor, re.Pattern):
                hits += [(offsets[m.start()], row) for m in anchor.finditer(norm)]
                continue
            at = find(anchor)
            while at >= 0:
                hits.append((offsets[at], row))
                at = find(anchor, at + 1)
    hits.sort()
    return hits


def process_document(pipeline: Pipeline, document: Document) -> DocumentResult:
    annotations: list[Annotation] = []
    diagnostics: list[Diagnostic] = []
    text = document.text
    folded = _textops.normalize_text(text)
    # An annotator can find something only in a sentence where one of its
    # anchors starts.
    live: list[tuple[Span, set[int]]] = []
    end = 0
    for at, row in _anchor_hits(pipeline, *folded):
        if at >= end:
            begin, end = _textops.sentence_span_at(text, at, end)
            rows: set[int] = set()
            live.append((Span(begin, end), rows))
        rows.add(row)
    for span, rows in live:
        view = SentenceView.in_folded(text, folded, span)
        for row in sorted(rows):
            anns, diags = _CALLS[row][2](view, pipeline)
            annotations.extend(anns)
            diagnostics.extend(diags)
    annotations.sort(key=lambda a: (a.span.begin, a.span.end, a.annotator))
    return DocumentResult(
        document_id=document.id,
        text=document.text,
        annotations=tuple(annotations),
        diagnostics=tuple(diagnostics),
    )


def process_corpus(
    pipeline: Pipeline, documents: Sequence[Document]
) -> list[DocumentResult]:
    """Annotate *documents* in this thread and return their results sorted
    by document id.

    The annotators are pure Python, so worker threads would only take turns
    on the interpreter lock (two measured slower than one), and a process
    pool would add a second interpreter's memory to the run.
    """
    seen: set[str] = set()
    for doc in documents:
        if doc.id in seen:
            raise DuplicateDocumentId(doc.id)
        seen.add(doc.id)
    results = [process_document(pipeline, doc) for doc in documents]
    results.sort(key=lambda r: r.document_id)
    return results
