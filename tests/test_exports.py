"""The package's public names.

``oncospan`` imports none of its modules until a name is first read; then
it imports the submodule the name belongs to, and the name is that
submodule's own object.
"""

import importlib

import pytest

import oncospan

# Every public name of ``oncospan``, with the submodule it is read from
# (None for a submodule itself).
PUBLIC = {
    "assertion": None,
    "document": None,
    "errors": None,
    "mutation": None,
    "perfstatus": None,
    "pipeline": None,
    "query": None,
    "sqlexport": None,
    "staging": None,
    "standoff": None,
    "CueLexicon": "assertion",
    "Polarity": "assertion",
    "load_cue_lexicon": "assertion",
    "Diagnostic": "document",
    "Document": "document",
    "Sentence": "document",
    "Span": "document",
    "covered_text": "document",
    "split_sentences": "document",
    "AmbiguousCategory": "errors",
    "ConfigError": "errors",
    "ConflictingEntry": "errors",
    "DuplicateDocumentId": "errors",
    "EmptyPredicate": "errors",
    "InvalidFilter": "errors",
    "InvalidStage": "errors",
    "MalformedFile": "errors",
    "MalformedLexicon": "errors",
    "OncospanError": "errors",
    "OutOfBounds": "errors",
    "SpanMismatch": "errors",
    "ExonKind": "mutation",
    "ExonMention": "mutation",
    "Gene": "mutation",
    "MutationAnnotation": "mutation",
    "MutationPoint": "mutation",
    "PointVariant": "mutation",
    "PSAnnotation": "perfstatus",
    "PSScale": "perfstatus",
    "ALL_ANNOTATORS": "pipeline",
    "AnnotatorKind": "pipeline",
    "DocumentResult": "pipeline",
    "Pipeline": "pipeline",
    "PipelineConfig": "pipeline",
    "build_pipeline": "pipeline",
    "process_corpus": "pipeline",
    "process_document": "pipeline",
    "QueryPredicate": "query",
    "parse_filter": "query",
    "query_results": "query",
    "emit_sql": "sqlexport",
    "ConsistencyReport": "staging",
    "ConsistencyVerdict": "staging",
    "MCategory": "staging",
    "NCategory": "staging",
    "StageAnnotation": "staging",
    "StageGroup": "staging",
    "TCategory": "staging",
    "TNMAnnotation": "staging",
    "TnmPrefix": "staging",
    "check_consistency": "staging",
    "normalize_stage": "staging",
    "parse_stage": "staging",
    "parse_tnm": "staging",
    "tnm_to_stage_group": "staging",
    "StandoffFile": "standoff",
    "StandoffRecord": "standoff",
    "deserialize_result": "standoff",
    "serialize_result": "standoff",
}


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 69
    assert sorted(oncospan.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_name_is_the_defining_modules_object(name):
    defining = PUBLIC[name]
    expected = (
        importlib.import_module(f"oncospan.{name}")
        if defining is None
        else getattr(importlib.import_module(f"oncospan.{defining}"), name)
    )
    assert getattr(oncospan, name) is expected
    assert name in dir(oncospan)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from oncospan import *", namespace)
    assert [name for name in PUBLIC if namespace.get(name) is not getattr(oncospan, name)] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'oncospan' has no attribute 'nope'"):
        oncospan.nope  # noqa: B018
    assert not hasattr(oncospan, "nope")
