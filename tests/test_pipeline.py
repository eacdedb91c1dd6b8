import functools
import itertools
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _ungated
from conftest import MUTATION_NOTE, STAGING_NOTE, COMBINED_NOTE, PERFSTATUS_NOTE
from oncospan import _textops, corpusgen, mutation, perfstatus, staging
from oncospan import (
    ALL_ANNOTATORS,
    AnnotatorKind,
    ConfigError,
    Document,
    DocumentResult,
    DuplicateDocumentId,
    PipelineConfig,
    build_pipeline,
    deserialize_result,
    process_corpus,
    serialize_result,
)
from oncospan.document import SentenceView
from oncospan.mutation import MutationAnnotation
from oncospan.perfstatus import PSAnnotation
from oncospan.pipeline import _CALLS, _anchor_hits
from oncospan.staging import StageAnnotation, TNMAnnotation


def _pipe(*kinds):
    enabled = frozenset(kinds) if kinds else ALL_ANNOTATORS
    return build_pipeline(PipelineConfig(enabled_annotators=enabled))


def test_all_annotators_has_seven():
    assert len(ALL_ANNOTATORS) == 7
    assert AnnotatorKind.EGFR in ALL_ANNOTATORS
    assert AnnotatorKind.KARNOFSKY in ALL_ANNOTATORS


def test_empty_config_rejected():
    with pytest.raises(ConfigError):
        build_pipeline(PipelineConfig(enabled_annotators=frozenset()))


def test_missing_lexicon_rejected():
    with pytest.raises(ConfigError):
        build_pipeline(PipelineConfig(lexicon_path="/nonexistent/cues.tsv"))


def test_result_fields(default_pipeline):
    doc = Document("d1", MUTATION_NOTE)
    result = default_pipeline.process_document(doc)
    assert isinstance(result, DocumentResult)
    assert result.document_id == "d1"
    assert result.text == MUTATION_NOTE
    assert len(result.annotations) == 3
    assert result.consistency == ()


def test_annotations_sorted(default_pipeline):
    text = " ".join([COMBINED_NOTE, STAGING_NOTE, PERFSTATUS_NOTE])
    result = default_pipeline.process_document(Document("d", text))
    keys = [
        (a.span.begin, a.span.end, a.annotator) for a in result.annotations
    ]
    assert keys == sorted(keys)


def test_consistency_cross_product(default_pipeline):
    text = "pT1aN0M0, estadio IA1. Luego T3N3M0 con estadio IIB."
    result = default_pipeline.process_document(Document("d", text))
    tnm = [a for a in result.annotations if isinstance(a, TNMAnnotation)]
    stages = [a for a in result.annotations if isinstance(a, StageAnnotation)]
    assert len(tnm) == 2 and len(stages) == 2
    assert len(result.consistency) == 4
    pairs = {(r.tnm.raw, r.stage.raw, r.verdict.value) for r in result.consistency}
    assert ("pT1aN0M0", "IA1", "Consistent") in pairs
    assert ("T3N3M0", "IIB", "Inconsistent") in pairs


def test_no_consistency_without_stage_annotator():
    pipe = _pipe(AnnotatorKind.TNM)
    result = pipe.process_document(Document("d", "pT1aN0M0, estadio IA1."))
    assert len(result.annotations) == 1
    assert result.consistency == ()


def test_no_consistency_without_tnm_annotator():
    pipe = _pipe(AnnotatorKind.STAGE)
    result = pipe.process_document(Document("d", "pT1aN0M0, estadio IA1."))
    assert len(result.annotations) == 1
    assert result.consistency == ()


def test_single_annotator_filtering():
    pipe = _pipe(AnnotatorKind.ECOG)
    text = " ".join([MUTATION_NOTE, STAGING_NOTE, PERFSTATUS_NOTE])
    result = pipe.process_document(Document("d", text))
    assert all(isinstance(a, PSAnnotation) for a in result.annotations)
    assert [a.value for a in result.annotations] == [0]


def test_gene_annotator_filtering():
    pipe = _pipe(AnnotatorKind.ALK)
    result = pipe.process_document(Document("d", MUTATION_NOTE))
    assert len(result.annotations) == 1
    ann = result.annotations[0]
    assert isinstance(ann, MutationAnnotation)
    assert ann.gene.value == "ALK"


def test_diagnostics_flag():
    noisy = "ECOG 7 y Karnofsky 95."
    result = _pipe().process_document(Document("d", noisy))
    assert len(result.diagnostics) == 2
    assert len(result.annotations) == 1


def test_empty_document(default_pipeline):
    result = default_pipeline.process_document(Document("d", ""))
    assert result.annotations == ()
    assert result.diagnostics == ()
    assert result.consistency == ()


def test_annotator_independence(default_pipeline):
    # each annotator alone produces exactly its slice of the full run
    text = " ".join([MUTATION_NOTE, STAGING_NOTE, PERFSTATUS_NOTE, COMBINED_NOTE])
    doc = Document("d", text)
    full = default_pipeline.process_document(doc)
    by_kind = {}
    for kind in ALL_ANNOTATORS:
        solo = _pipe(kind).process_document(doc)
        by_kind[kind] = solo.annotations
    merged = sorted(
        itertools.chain.from_iterable(by_kind.values()),
        key=lambda a: (a.span.begin, a.span.end, a.annotator),
    )
    assert list(full.annotations) == merged


def test_idempotence(default_pipeline):
    doc = Document("d", " ".join([MUTATION_NOTE, STAGING_NOTE]))
    first = default_pipeline.process_document(doc)
    second = default_pipeline.process_document(doc)
    assert first == second
    assert serialize_result(first) == serialize_result(second)


def test_corpus_sorted_by_id(default_pipeline):
    docs = [
        Document("zeta", MUTATION_NOTE),
        Document("alfa", STAGING_NOTE),
        Document("mu", PERFSTATUS_NOTE),
    ]
    results = process_corpus(default_pipeline, docs)
    assert [r.document_id for r in results] == ["alfa", "mu", "zeta"]


def test_corpus_duplicate_id(default_pipeline):
    docs = [Document("a", "x"), Document("a", "y")]
    with pytest.raises(DuplicateDocumentId):
        process_corpus(default_pipeline, docs)


def test_corpus_empty(default_pipeline):
    assert process_corpus(default_pipeline, []) == []


def test_pipeline_pickles(default_pipeline):
    # The pipeline is a plain value: a copy sent to another process by
    # pickle annotates alike.
    copy = pickle.loads(pickle.dumps(default_pipeline))
    assert copy.config == default_pipeline.config
    assert copy.lexicon == default_pipeline.lexicon
    assert copy._calls == default_pipeline._calls
    text = " ".join([MUTATION_NOTE, STAGING_NOTE, PERFSTATUS_NOTE, COMBINED_NOTE])
    doc = Document("d", text)
    assert copy.process_document(doc) == default_pipeline.process_document(doc)


@given(
    st.lists(
        st.sampled_from([MUTATION_NOTE, STAGING_NOTE, PERFSTATUS_NOTE, COMBINED_NOTE, "", "Sin datos."]),
        max_size=4,
    )
)
@settings(deadline=None, max_examples=25)
def test_concatenation_only_adds(default_pipeline, parts):
    # annotating a concatenation never loses the leading document's spans when
    # parts are joined on sentence boundaries
    text = " ".join(parts)
    lead = default_pipeline.process_document(Document("d", parts[0] if parts else ""))
    combined = default_pipeline.process_document(Document("d", text))
    lead_spans = [(a.span.begin, a.span.end) for a in lead.annotations]
    combined_spans = [(a.span.begin, a.span.end) for a in combined.annotations]
    for span in lead_spans:
        assert span in combined_spans


# Clinical text as the annotators see it, cut up and spliced with what
# breaks naive code: digit bursts (past int()'s 4,300-digit limit too),
# Hangul syllables and bare combining marks, which fold to more or fewer
# than one character and shift the normalized shadow against the text, and
# lone surrogates, which no output format can encode.
_clinical_units = st.one_of(
    st.sampled_from(
        [
            "EGFR", "ALK", "Ros-1", "exón", "exon", "del", "ins", "L858R",
            "T790M", "ECOG", "ECOG-PS", "Karnofsky", "KPS", "estadio", "stage",
            "IV", "I-A1", "IIIB", "pT1aN0M0", "cT2b N1 M1c", "no", "no se detecta",
            "mutado", "positivo", "negativo", "+", "-", "%", "(", ")", ":",
            ".", "\n\n", "\t", "\u0301", "\ud55c", "exo\u0301n", "\uac00\u0301",
            "\ud800",
        ]
    ),
    st.text("0123456789", min_size=1, max_size=8),
    st.sampled_from(["7" * 4400, "0" * 4399 + "19", "1" * 5000]),
    st.characters(),
)
_pipeline_texts = st.one_of(
    st.text(max_size=200), st.lists(_clinical_units, max_size=40).map(" ".join)
)


@given(_pipeline_texts)
@settings(deadline=None, max_examples=200)
def test_any_text_annotates_and_round_trips(default_pipeline, text):
    # A lone surrogate cannot be written as UTF-8, so Document rejects it.
    if any("\ud800" <= c <= "\udfff" for c in text):
        with pytest.raises(ValueError, match="lone surrogate"):
            Document("d", text)
        return
    result = default_pipeline.process_document(Document("d", text))
    spans = [a.span for a in result.annotations]
    spans += [d.span for d in result.diagnostics]
    for ann in result.annotations:
        for part in (getattr(ann, "exon", None), getattr(ann, "point", None)):
            if part is not None:
                spans.append(part.span)
    for span in spans:
        assert 0 <= span.begin < span.end <= len(text)
    assert deserialize_result(serialize_result(result)) == result


@functools.lru_cache(maxsize=None)
def _pipe_of(kinds: frozenset[AnnotatorKind]):
    return _pipe(*kinds)


# Every anchor word, near misses of each, and what moves sentence
# boundaries or offsets: terminators glued to numbers, abbreviations,
# blank lines and characters whose fold is not one character.  Each group
# is drawn equally often, however many words it holds.
_gate_units = st.one_of(
    st.sampled_from(
        [
            "EGFR", "egfr", "ALK", "ROS1", "Ros-1", "ROS 1", "ros 1", "G719X", "T790M",
            "L858R", "L861Q", "ex\u00f3n", "exon", "pT1aN0M0", "T2b-N1-M1c",
            "t1.n0", "T3 N2", "estadio", "Estadio", "stage", "ECOG", "ECOG-PS",
            "Karnofsky", "KPS",
        ]
    ),
    st.sampled_from(
        [
            "egf", "al", "ro", "kp", "ecg", "eco", "karnofsk", "estadi", "stag",
            "exo", "t5n0", "t1m0", "l858", "g719", "n0", "m1", "otros", "numerosos",
        ]
    ),
    # Near misses of the ECOG and Karnofsky anchor patterns, and keywords
    # glued to the separator, "ps" or value after them.
    st.sampled_from(
        [
            "Ecograf\u00eda", "ecogr", "ECOGPS 1", "ECOG.2", "ecog(1)", "KPSx",
            "kps:80", "Karnofskyano",
        ]
    ),
    # Literals glued together, some overlapping: one alternation's finditer
    # skips the second start of "egfros", "l858ros" and "stagestadio".
    st.sampled_from(
        [
            "rosalk", "exonexon", "egfros", "EGFRos1", "l858ros", "stagestadio",
            "KPSkarnofsky", "ecogecog",
        ]
    ),
    st.sampled_from(
        [
            "IV", "IIIA", "I-A1", "del", "ins", "no", "no se detecta", "mutado",
            "+", "-", "%", "(", ")", ":",
        ]
    ),
    st.sampled_from(
        [
            "1.", "19.", "2!", "3?", "0.5", "Dr.", "Dra.", "J.", "fig.", ".", "!",
            "?", "\n", "\n\n", "\t",
        ]
    ),
    st.sampled_from(
        [
            "\u0301", "\u0301\u0301\u0301", "\ud55c", "\ud55c\uad6d\uc5b4",
            "exo\u0301n", "EG\ud55cFR", "ECO\u0301G", "\uac00\u0301", "\u0130",
            "\x00",
        ]
    ),
    st.text("0123456789", min_size=1, max_size=6),
)
_gate_texts = st.lists(
    st.tuples(_gate_units, st.sampled_from(["", " ", " ", ". ", "\n", "-"])),
    max_size=40,
).map(lambda parts: "".join(unit + sep for unit, sep in parts))


_annotator_sets = st.sets(
    st.sampled_from(sorted(ALL_ANNOTATORS, key=lambda kind: kind.value)), min_size=1
)


# The examples: each anchor alone, and hits that the shadow's offsets, not
# its indexes, place in their sentence (Hangul pushes the shadow ahead of
# the text, bare combining marks pull it behind).
@given(_gate_texts, _annotator_sets)
@settings(deadline=None, max_examples=300)
@example("Sin datos. Stage IV.", {AnnotatorKind.STAGE})
@example("Sin datos. Del exo\u0301n 19.", {AnnotatorKind.EGFR})
@example("Sin datos. pT1a N0 M0.", {AnnotatorKind.TNM})
@example("Sin datos. KPS 80.", {AnnotatorKind.KARNOFSKY})
@example("\ud55c\uad6d\uc5b4 \ud55c\uad6d\uc5b4 ECOG 1. Sin datos.", {AnnotatorKind.ECOG})
@example("Sin " + "\u0301" * 12 + "datos. ECOG 1.", {AnnotatorKind.ECOG})
@example("Karnofsky 95 y ECOG 7.", {AnnotatorKind.ECOG, AnnotatorKind.KARNOFSKY})
def test_gate_equals_every_sentence(text, kinds):
    # Skipping the sentences without an anchor never changes the result.
    pipe = _pipe_of(frozenset(kinds))
    doc = Document("d", text)
    result = pipe.process_document(doc)
    expected, reports = _ungated.process_document(pipe, doc)
    assert result == expected
    assert result.consistency == tuple(reports)


# The annotator pattern of each row with a pattern anchor, and the group of
# its match where the anchor starts: a TNM expression's T, after its prefix.
_ROW_PATTERNS = {
    AnnotatorKind.EGFR: (mutation._GENE_RE, 0),
    AnnotatorKind.TNM: (staging._TNM_RE, 2),
    AnnotatorKind.ECOG: (perfstatus._ECOG_RE, 0),
    AnnotatorKind.KARNOFSKY: (perfstatus._KARNOFSKY_RE, 0),
}


@given(_gate_texts)
@settings(deadline=None, max_examples=300)
@example("egfros stagestadio l858ros exonexon rosalk")
@example("ECOG-PS 1, ECOG:2, ecog(3), KPS80 y Karnofsky: 90%; pT1aN0M0 T2-N1-M0.")
@example("Ros-1, ROS 1 y ros1rosalk; otros numerosos EGFRos-1 l858ros1.")
def test_find_loops_cover_finditer(default_pipeline, text):
    # Every start that one alternation of a row's literals finds is among
    # the hits; the find loops may add the starts that it skips.  Every
    # match of the annotator of a row with a pattern anchor starts an
    # anchor at a hit.
    norm, offsets = _textops.normalize_text(text)
    hits = set(_anchor_hits(default_pipeline, norm, offsets))
    for row, (kinds, anchors, _) in enumerate(_CALLS):
        literals = [anchor for anchor in anchors if isinstance(anchor, str)]
        if literals:
            for m in re.finditer("|".join(literals), norm):
                assert (offsets[m.start()], row) in hits
        if len(literals) < len(anchors):
            pattern, group = _ROW_PATTERNS[kinds[0]]
            for m in pattern.finditer(norm):
                assert (offsets[m.start(group)], row) in hits


def test_gate_skips_sentences_without_anchors(default_pipeline, monkeypatch):
    built = []
    original = SentenceView.__init__

    def counting(self, text, *args, **kwargs):
        built.append(text)
        original(self, text, *args, **kwargs)

    monkeypatch.setattr(SentenceView, "__init__", counting)
    text = "Paciente de 70 a\u00f1os. Sin datos. ECOG 1. Fumador. EGFR mutado."
    result = default_pipeline.process_document(Document("d", text))
    assert built == ["ECOG 1.", "EGFR mutado."]
    assert len(result.annotations) == 2


def test_lookups_over_the_seeded_corpus(default_pipeline, monkeypatch):
    # One sentence lookup and one view per sentence that holds an anchor: a
    # leaky anchor shows here as a count before it shows as time.
    looked_up = []
    built = []
    sentence_span_at = _textops.sentence_span_at
    original = SentenceView.__init__

    def looking_up(text, at, *args):
        looked_up.append(at)
        return sentence_span_at(text, at, *args)

    def counting(self, text, *args, **kwargs):
        built.append(text)
        original(self, text, *args, **kwargs)

    monkeypatch.setattr(_textops, "sentence_span_at", looking_up)
    monkeypatch.setattr(SentenceView, "__init__", counting)
    for doc in corpusgen.generate_corpus(100, seed=7):
        default_pipeline.process_document(doc)
    assert (len(looked_up), len(built)) == (256, 256)
    for text in [
        "Ecograf\u00eda abdominal sin hallazgos significativos.",
        "Sin otros hallazgos. Numerosos controles previos.",
    ]:
        built.clear()
        result = default_pipeline.process_document(Document("d", text))
        assert built == []
        assert result.annotations == result.diagnostics == ()


def test_each_annotator_reads_only_its_sentences(default_pipeline, monkeypatch):
    received = {}
    for module, name in [
        (mutation, "annotate_view"),
        (staging, "tnm_in_view"),
        (staging, "stages_in_view"),
        (perfstatus, "ecog_in_view"),
        (perfstatus, "karnofsky_in_view"),
    ]:
        def recording(view, *args, _name=name, _original=getattr(module, name)):
            received.setdefault(_name, []).append(view.text)
            return _original(view, *args)

        monkeypatch.setattr(module, name, recording)
    tokenized = []
    token_spans = _textops.token_spans

    def counting(text):
        tokenized.append(text)
        return token_spans(text)

    monkeypatch.setattr(_textops, "token_spans", counting)
    text = "ECOG 1. Sin datos. EGFR mutado. pT1aN0M0. Karnofsky 90%."
    result = default_pipeline.process_document(Document("d", text))
    assert received == {
        "annotate_view": ["EGFR mutado."],
        "tnm_in_view": ["pT1aN0M0."],
        "ecog_in_view": ["ECOG 1."],
        "karnofsky_in_view": ["Karnofsky 90%."],
    }
    assert tokenized == ["EGFR mutado."]
    assert len(result.annotations) == 4


def test_polarity_reads_the_view(default_pipeline, monkeypatch):
    # Polarity works on the view's triples and folded surfaces: no token is
    # folded again.
    folded = []
    normalize_text = _textops.normalize_text

    def counting(text):
        folded.append(text)
        return normalize_text(text)

    text = (
        "EGFR mutado con deleción del exón 19. ALK no traslocado. "
        "Se detecta ROS1 +. No se detecta mutación en EGFR T790M."
    )
    # Every character folds to one, so the view slices its folded surfaces
    # out of the note's shadow.
    assert type(_textops.normalize_text(text)[1]) is range
    monkeypatch.setattr(_textops, "normalize_text", counting)
    result = default_pipeline.process_document(Document("d", text))
    assert [(a.gene.value, a.polarity.value) for a in result.annotations] == [
        ("EGFR", "Positive"),
        ("ALK", "Negative"),
        ("ROS1", "Positive"),
        ("EGFR", "Negative"),
    ]
    # The note's own fold is the only one.
    assert folded == [text]
