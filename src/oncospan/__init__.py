"""Rule-based annotation of lung-cancer concepts in Spanish clinical notes.

Extracts tumor mutation status (EGFR, ALK, ROS1 with exon and point
detail), TNM expressions and stage groups with 8th-edition consistency
checking, and performance status (ECOG, Karnofsky), as character-offset
annotations over the original text.

Importing the package loads the pipeline's modules only.  ``standoff``,
``query`` and ``sqlexport``, which write and read stored results, load on
first access to one of them or to a name they export: ``StandoffFile``,
``StandoffRecord``, ``serialize_result``, ``deserialize_result``,
``QueryPredicate``, ``parse_filter``, ``query_results`` and ``emit_sql``.
"""

from importlib import import_module as _import_module

from .assertion import CueLexicon, Polarity, load_cue_lexicon
from .document import (
    Diagnostic,
    Document,
    Sentence,
    Span,
    covered_text,
    split_sentences,
)
from .errors import (
    AmbiguousCategory,
    ConfigError,
    ConflictingEntry,
    DuplicateDocumentId,
    EmptyPredicate,
    InvalidFilter,
    InvalidStage,
    MalformedFile,
    MalformedLexicon,
    OncospanError,
    OutOfBounds,
    SpanMismatch,
)
from .mutation import (
    ExonKind,
    ExonMention,
    Gene,
    MutationAnnotation,
    MutationPoint,
    PointVariant,
    find_exon_mentions,
    find_gene_mentions,
    find_mutation_points,
)
from .perfstatus import PSAnnotation, PSScale, annotate_ecog, annotate_karnofsky
from .pipeline import (
    ALL_ANNOTATORS,
    AnnotatorKind,
    DocumentResult,
    Pipeline,
    PipelineConfig,
    build_pipeline,
    process_corpus,
    process_document,
)
from .staging import (
    ConsistencyReport,
    ConsistencyVerdict,
    MCategory,
    NCategory,
    StageAnnotation,
    StageGroup,
    TCategory,
    TNMAnnotation,
    TnmPrefix,
    check_consistency,
    normalize_stage,
    parse_stage,
    parse_tnm,
    tnm_to_stage_group,
)

__version__ = "0.1.0"

# The names ``__getattr__`` resolves, each mapped to the submodule that
# defines it; a submodule maps to itself.
_LAZY_EXPORTS = {
    "query": "query",
    "QueryPredicate": "query",
    "parse_filter": "query",
    "query_results": "query",
    "sqlexport": "sqlexport",
    "emit_sql": "sqlexport",
    "standoff": "standoff",
    "StandoffFile": "standoff",
    "StandoffRecord": "standoff",
    "deserialize_result": "standoff",
    "serialize_result": "standoff",
}

__all__ = [
    # submodules
    "assertion", "document", "errors", "mutation", "perfstatus", "pipeline", "query",
    "sqlexport", "staging", "standoff",
    # assertion
    "CueLexicon", "Polarity", "load_cue_lexicon",
    # document
    "Diagnostic", "Document", "Sentence", "Span", "covered_text", "split_sentences",
    # errors
    "AmbiguousCategory", "ConfigError", "ConflictingEntry", "DuplicateDocumentId",
    "EmptyPredicate", "InvalidFilter", "InvalidStage", "MalformedFile",
    "MalformedLexicon", "OncospanError", "OutOfBounds", "SpanMismatch",
    # mutation
    "ExonKind", "ExonMention", "Gene", "MutationAnnotation", "MutationPoint",
    "PointVariant", "find_exon_mentions", "find_gene_mentions", "find_mutation_points",
    # perfstatus
    "PSAnnotation", "PSScale", "annotate_ecog", "annotate_karnofsky",
    # pipeline
    "ALL_ANNOTATORS", "AnnotatorKind", "DocumentResult", "Pipeline", "PipelineConfig",
    "build_pipeline", "process_corpus", "process_document",
    # query
    "QueryPredicate", "parse_filter", "query_results",
    # sqlexport
    "emit_sql",
    # staging
    "ConsistencyReport", "ConsistencyVerdict", "MCategory", "NCategory",
    "StageAnnotation", "StageGroup", "TCategory", "TNMAnnotation", "TnmPrefix",
    "check_consistency", "normalize_stage", "parse_stage", "parse_tnm",
    "tnm_to_stage_group",
    # standoff
    "StandoffFile", "StandoffRecord", "deserialize_result", "serialize_result",
]


def __getattr__(name: str):
    try:
        submodule = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = _import_module(f"{__name__}.{submodule}")
    return module if name == submodule else getattr(module, name)


def __dir__() -> list[str]:
    return list(__all__)
