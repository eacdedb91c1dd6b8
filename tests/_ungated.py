"""The per-document loop without the anchor gate: one view for every sentence.

The executable specification of ``pipeline.process_document``, which builds
views only for the sentences that hold an anchor of an enabled annotator.
Both must return equal results for every document, and the result's derived
``consistency`` must equal the reports checked here pair by pair
(``test_pipeline.py`` checks this property on generated clinical text).
"""

from oncospan import mutation, perfstatus, staging
from oncospan.document import Document, SentenceView, split_sentences
from oncospan.pipeline import AnnotatorKind, DocumentResult, Pipeline
from oncospan.staging import (
    ConsistencyReport,
    StageAnnotation,
    TNMAnnotation,
    check_consistency,
)


def process_document(
    pipeline: Pipeline, document: Document
) -> tuple[DocumentResult, list[ConsistencyReport]]:
    enabled = pipeline.config.enabled_annotators
    annotations = []
    diagnostics = []
    for sentence in split_sentences(document.text):
        view = SentenceView.from_sentence(document, sentence)
        if pipeline._genes:
            annotations.extend(
                mutation.annotate_view(view, pipeline.lexicon, pipeline._genes)
            )
        if AnnotatorKind.TNM in enabled:
            annotations.extend(staging.tnm_in_view(view))
        if AnnotatorKind.STAGE in enabled:
            annotations.extend(staging.stages_in_view(view))
        if AnnotatorKind.ECOG in enabled:
            anns, diags = perfstatus.ecog_in_view(view)
            annotations.extend(anns)
            diagnostics.extend(diags)
        if AnnotatorKind.KARNOFSKY in enabled:
            anns, diags = perfstatus.karnofsky_in_view(view)
            annotations.extend(anns)
            diagnostics.extend(diags)
    annotations.sort(key=lambda a: (a.span.begin, a.span.end, a.annotator))
    reports = []
    if AnnotatorKind.TNM in enabled and AnnotatorKind.STAGE in enabled:
        tnms = [a for a in annotations if isinstance(a, TNMAnnotation)]
        stages = [a for a in annotations if isinstance(a, StageAnnotation)]
        for tnm in tnms:
            for stage in stages:
                reports.append(check_consistency(tnm, stage))
    result = DocumentResult(
        document_id=document.id,
        text=document.text,
        annotations=tuple(annotations),
        diagnostics=tuple(diagnostics),
    )
    return result, reports
