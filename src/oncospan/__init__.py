"""Rule-based annotation of lung-cancer concepts in Spanish clinical notes.

Extracts tumor mutation status (EGFR, ALK, ROS1 with exon and point
detail), TNM expressions and stage groups with 8th-edition consistency
checking, and performance status (ECOG, Karnofsky), as character-offset
annotations over the original text.
"""

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
from .query import QueryPredicate, parse_filter, query_results
from .sqlexport import emit_sql
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
    consistency_reports,
    normalize_stage,
    parse_stage,
    parse_tnm,
    tnm_to_stage_group,
)
from .standoff import StandoffFile, StandoffRecord, deserialize_result, serialize_result

__version__ = "0.1.0"
