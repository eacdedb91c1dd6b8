"""Rule-based annotation of lung-cancer concepts in Spanish clinical notes.

Extracts tumor mutation status (EGFR, ALK, ROS1 with exon and point
detail), TNM expressions and stage groups with 8th-edition consistency
checking, and performance status (ECOG, Karnofsky), as character-offset
annotations over the original text.

Importing the package loads none of its modules.  ``_EXPORTS`` names each
public submodule and the names it defines; the first access to one of them
imports the submodule and binds the value here, so later accesses are plain
attribute reads.
"""

import sys as _sys

__version__ = "0.1.0"

# Each public submodule, with the public names it defines.
_EXPORTS = {
    "assertion": "CueLexicon Polarity load_cue_lexicon",
    "document": "Diagnostic Document Span split_sentences",
    "errors": (
        "AmbiguousCategory ConfigError ConflictingEntry DuplicateDocumentId EmptyPredicate"
        " InvalidFilter InvalidStage MalformedFile MalformedLexicon OncospanError OutOfBounds"
        " SpanMismatch"
    ),
    "mutation": "ExonKind ExonMention Gene MutationAnnotation MutationPoint PointVariant",
    "perfstatus": "PSAnnotation PSScale",
    "pipeline": (
        "ALL_ANNOTATORS AnnotatorKind DocumentResult Pipeline PipelineConfig build_pipeline"
        " process_corpus process_document"
    ),
    "query": "QueryPredicate parse_filter query_results",
    "sqlexport": "emit_sql",
    "staging": (
        "ConsistencyReport ConsistencyVerdict MCategory NCategory StageAnnotation StageGroup"
        " TCategory TNMAnnotation TnmPrefix check_consistency normalize_stage parse_stage"
        " parse_tnm tnm_to_stage_group"
    ),
    "standoff": "StandoffFile StandoffRecord deserialize_result serialize_result",
}

# Every public name mapped to its submodule; a submodule maps to itself.
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in (module, *names.split())
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    try:
        module_name = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # Through __import__, which -X importtime times, unlike import_module.
    __import__(f"{__name__}.{module_name}")
    module = _sys.modules[f"{__name__}.{module_name}"]
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
