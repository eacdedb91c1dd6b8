import importlib.util
import itertools
import re
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import _standoff_oracle
from conftest import MUTATION_NOTE, STAGING_NOTE, COMBINED_NOTE, PERFSTATUS_NOTE
from test_contract import EDGE_NOTES
from oncospan import (
    Document,
    DocumentResult,
    MalformedFile,
    SpanMismatch,
    deserialize_result,
    serialize_result,
)
from oncospan import standoff
from oncospan.assertion import Polarity
from oncospan.corpusgen import generate_corpus
from oncospan.document import Span
from oncospan.errors import OncospanError
from oncospan.mutation import (
    ExonKind,
    ExonMention,
    Gene,
    MutationAnnotation,
    MutationPoint,
    PointVariant,
)
from oncospan.perfstatus import PSAnnotation, PSScale
from oncospan.pipeline import Annotation
from oncospan.staging import (
    ConsistencyReport,
    ConsistencyVerdict,
    MCategory,
    NCategory,
    StageAnnotation,
    StageGroup,
    TCategory,
    TNMAnnotation,
    TnmPrefix,
)
from oncospan.standoff import ANNOTATION_TYPES, read_standoff


def _serialized(pipeline, text, doc_id="d"):
    return serialize_result(pipeline.process_document(Document(doc_id, text)))


def _lines(data: bytes) -> list[str]:
    return data.decode("utf-8").split("\n")


def test_mutation_note_records(default_pipeline):
    data = _serialized(default_pipeline, MUTATION_NOTE, "mut")
    lines = _lines(data)
    assert lines[0] == "#doc mut"
    assert lines[1] == f"#len {len(MUTATION_NOTE)}"
    assert lines[2] == MUTATION_NOTE
    records = [ln for ln in lines[3:] if ln and not ln.startswith("#")]
    assert len(records) == 3
    egfr = records[0].split("\t")
    assert egfr[2] == "mutation"
    assert egfr[3] == "EGFR"
    features = dict(item.split("=", 1) for item in egfr[4].split(";"))
    assert features["gene"] == "EGFR"
    assert features["polarity"] == "Positive"
    assert features["exon"] == "19"
    assert features["exon_kind"] == "Deletion"
    assert features["implied"] == "false"


def test_staging_note_records(default_pipeline):
    data = _serialized(default_pipeline, STAGING_NOTE, "stg")
    lines = _lines(data)
    records = [ln for ln in lines[3:] if ln and not ln.startswith("#")]
    assert len(records) == 2
    tnm_feats = dict(i.split("=", 1) for i in records[0].split("\t")[4].split(";"))
    assert tnm_feats == {"prefix": "P", "t": "T1a", "n": "N0", "m": "M0"}
    stage_feats = dict(i.split("=", 1) for i in records[1].split("\t")[4].split(";"))
    assert stage_feats == {"stage": "IA1"}
    checks = [ln for ln in lines if ln.startswith("#check\t")]
    assert checks == ["#check\t0\t1\tConsistent\tIA1"]


def _benchmark_checks():
    """``perfbench/checks.py``, the benchmark's own reader, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "order, positions",
    [("TTS", [(0, 2), (1, 2)]), ("TSS", [(0, 1), (0, 2)])],
    ids=["tnm_twice", "stage_twice"],
)
def test_check_indexes_are_record_positions(default_pipeline, order, positions):
    # Two equal records are two records: each #check line names its TNM and
    # stage by position, as DocumentResult.consistency pairs them.
    result = default_pipeline.process_document(Document("stg", STAGING_NOTE))
    tnm, stage = result.annotations
    doubled = result._replace(annotations=tuple({"T": tnm, "S": stage}[c] for c in order))
    data = serialize_result(doubled)
    checks = [ln.split("\t") for ln in _lines(data) if ln.startswith("#check\t")]
    assert [(int(f[1]), int(f[2])) for f in checks] == positions
    assert [f[3:] for f in checks] == [["Consistent", "IA1"]] * 2
    assert len(doubled.consistency) == 2
    for decode in (deserialize_result, _standoff_oracle.deserialize_result):
        assert decode(data) == doubled
    checks_module = _benchmark_checks()
    ann = checks_module.read_ann(data, "stg.ann")
    assert [c[:2] for c in ann.checks] == positions
    checks_module.check_file(ann, "stg", STAGING_NOTE)


@pytest.mark.parametrize("tnms, stages", [(1, 1)])
def test_check_indexes_when_a_type_has_one_record(default_pipeline, tnms, stages):
    # A stage record before the TNM: the line names each by its position.
    result = default_pipeline.process_document(Document("stg", STAGING_NOTE))
    tnm, stage = result.annotations
    annotations = (stage, *[tnm] * tnms, *[stage] * (stages - 1))
    data = serialize_result(result._replace(annotations=annotations))
    checks = [ln.split("\t")[1:3] for ln in _lines(data) if ln.startswith("#check\t")]
    assert checks == [["1", "0"]]
    for decode in (deserialize_result, _standoff_oracle.deserialize_result):
        assert decode(data).annotations == annotations


def test_round_trip_fixtures(default_pipeline):
    for doc_id, text in [
        ("mut", MUTATION_NOTE),
        ("stg", STAGING_NOTE),
        ("ps", PERFSTATUS_NOTE),
        ("cmb", COMBINED_NOTE),
    ]:
        result = default_pipeline.process_document(Document(doc_id, text))
        data = serialize_result(result)
        back = deserialize_result(data)
        assert back == result
        assert serialize_result(back) == data


def test_round_trip_generated_corpus(default_pipeline):
    for doc in generate_corpus(40, seed=7):
        result = default_pipeline.process_document(doc)
        data = serialize_result(result)
        back = deserialize_result(data)
        assert back == result
        assert serialize_result(back) == data


def test_round_trip_diagnostics(default_pipeline):
    result = default_pipeline.process_document(
        Document("d", "ECOG 7 y Karnofsky 95 registrado.")
    )
    assert len(result.diagnostics) == 2
    back = deserialize_result(serialize_result(result))
    assert back.diagnostics == result.diagnostics


def test_escaping_multiline_covered_text(default_pipeline):
    # a TNM expression never spans a newline, but a diagnostic message or
    # covered text slice could contain one after a manual edit; verify both
    # escape paths through a crafted result
    text = "linea uno\tpT1aN0M0 y estadio IB."
    result = default_pipeline.process_document(Document("d", text))
    data = serialize_result(result)
    back = deserialize_result(data)
    assert back.text == text
    lines = _lines(data)
    # the source text block keeps the literal tab; records are still 5 fields
    for ln in lines[3:]:
        if ln and not ln.startswith("#"):
            assert len(ln.split("\t")) == 5


def test_escape_round_trip_in_text():
    # raw text containing every escaped character still round-trips, because
    # the text block is length-prefixed, not escaped
    text = "a\\b\tc d. pT2aN1M0, estadio IIB.\r final"
    from oncospan import PipelineConfig, build_pipeline

    pipe = build_pipeline(PipelineConfig())
    result = pipe.process_document(Document("d", text))
    back = deserialize_result(serialize_result(result))
    assert back.text == text
    assert back == result


def test_empty_result_round_trip(default_pipeline):
    result = default_pipeline.process_document(Document("d", "Sin hallazgos."))
    assert result.annotations == ()
    data = serialize_result(result)
    back = deserialize_result(data)
    assert back == result


@pytest.fixture
def pattern_only(monkeypatch):
    """Fail a test when a record line misses its type's canonical pattern."""

    def reject(line, text, line_no):
        raise AssertionError(f"line {line_no} missed its pattern: {line!r}")

    monkeypatch.setattr(standoff, "_reject_record", reject)


# Covered text that needs every escape: backslash, tab, newline, carriage return.
_ESCAPED = "a\\b\tc\nd\re"


def test_every_enum_value_round_trips(pattern_only):
    span, inner = Span(0, len(_ESCAPED)), Span(1, 3)
    annotations = [
        MutationAnnotation(span, gene, polarity, None, None, False)
        for gene in Gene
        for polarity in Polarity
    ]
    annotations += [
        MutationAnnotation(
            span, Gene.EGFR, Polarity.POSITIVE, ExonMention(inner, 19, kind), None, implied
        )
        for kind in (*ExonKind, None)
        for implied in (True, False)
    ]
    annotations += [
        MutationAnnotation(
            span,
            Gene.EGFR,
            Polarity.NEGATIVE,
            ExonMention(inner, 21, None),
            MutationPoint(Span(2, 4), point),
            True,
        )
        for point in PointVariant
    ]
    categories = [list(cls) for cls in (TnmPrefix, TCategory, NCategory, MCategory)]
    annotations += [
        TNMAnnotation(span, *(members[i % len(members)] for members in categories), _ESCAPED)
        for i in range(max(map(len, categories)))
    ]
    annotations += [StageAnnotation(span, stage, _ESCAPED) for stage in StageGroup]
    annotations += [
        PSAnnotation(span, scale, value, _ESCAPED)
        for scale, top in ((PSScale.ECOG, 5), (PSScale.KARNOFSKY, 100))
        for value in (0, top)
    ]
    result = DocumentResult("d", _ESCAPED, tuple(annotations))
    data = serialize_result(result)
    assert all(escape in data for escape in (b"\\\\", b"\\t", b"\\n", b"\\r"))
    for decode in (deserialize_result, _standoff_oracle.deserialize_result):
        assert decode(data) == result
    assert serialize_result(deserialize_result(data)) == data


def test_every_check_cell_is_written_and_read_as_text():
    # One TNM record per (T, N, M) key and one stage record per group, so the
    # #check section holds every cell of the rule; the line-by-line oracle
    # checks each line's text against check_consistency.
    span = Span(0, 1)
    tnms = [
        TNMAnnotation(span, TnmPrefix.NONE, t, n, m, "x")
        for t, n, m in itertools.product(TCategory, NCategory, MCategory)
    ]
    stages = [StageAnnotation(span, stage, "x") for stage in StageGroup]
    result = DocumentResult("d", "x", tuple(tnms + stages))
    data = serialize_result(result)
    assert data.count(b"\n#check\t") == 180 * 16 == 2880
    assert _standoff_oracle.deserialize_result(data) == result
    assert deserialize_result(data) == result


def test_written_records_match_their_pattern(default_pipeline, pattern_only):
    documents = [Document(f"edge-{i:02d}", text) for i, text in enumerate(EDGE_NOTES)]
    for document in [*generate_corpus(200, seed=5), *documents]:
        result = default_pipeline.process_document(document)
        assert deserialize_result(serialize_result(result)) == result


def _valid() -> bytes:
    return b"#doc d\n#len 4\nEGFR\n0\t4\tmutation\tEGFR\tgene=EGFR;polarity=Unknown;implied=false\n"


def test_minimal_valid_file():
    result = deserialize_result(_valid())
    assert result.document_id == "d"
    assert result.text == "EGFR"
    assert len(result.annotations) == 1


@pytest.mark.parametrize(
    "data, line_no",
    [
        (b"", 1),
        (b"doc d\n#len 0\n\n", 1),
        (b"#doc \n#len 0\n\n", 1),
        (b"#doc a\tb\n#len 0\n\n", 1),
        (b"#doc a\rb\n#len 0\n\n", 1),
        (b"#doc d\n#length 0\n\n", 2),
        (b"#doc d\n#len x\n\n", 2),
        (b"#doc d\n#len -1\n\n", 2),
        (b"#doc d\n#len 10\nshort\n", 3),
        (b"#doc d\n#len 4\nEGFRno-delimiter", 3),
    ],
)
def test_header_errors(data, line_no):
    for decode in (deserialize_result, _standoff_oracle.deserialize_result):
        with pytest.raises(MalformedFile) as exc:
            decode(data)
        assert exc.value.line_no == line_no


def test_not_utf8():
    with pytest.raises(MalformedFile):
        deserialize_result(b"#doc d\n#len 1\n\xff\n")


def test_missing_trailing_newline():
    data = _valid()[:-1]
    with pytest.raises(MalformedFile):
        deserialize_result(data)


@pytest.mark.parametrize(
    "record",
    [
        "0\t4\tmutation\tEGFR",  # 4 fields
        "0\t4\tmutation\tEGFR\tgene=EGFR\textra",  # 6 fields
        "0\t4\tunknown\tEGFR\tgene=EGFR",  # unknown annotator
        "x\t4\tmutation\tEGFR\tgene=EGFR;polarity=Unknown;implied=false",
        "0\t9\tmutation\tEGFR\tgene=EGFR;polarity=Unknown;implied=false",  # oob
        "4\t4\tmutation\t\tgene=EGFR;polarity=Unknown;implied=false",  # empty span
        "0\t4\tmutation\tEGFR\tgene=EGFR;polarity=Unknown",  # missing implied
        "0\t4\tmutation\tEGFR\tgene=EGFR;gene=EGFR;polarity=Unknown;implied=false",
        "0\t4\tmutation\tEGFR\tgene=EGFR;polarity=Unknown;implied=false;color=red",
        "0\t4\tmutation\tEGFR\tgene=EGFR;polarity=Unknown;implied=maybe",
        "0\t4\tmutation\tEGFR\tgene=BRAF;polarity=Unknown;implied=false",
        "0\t4\tmutation\tEGFR\tgene=EGFR;polarity=Sideways;implied=false",
        "0\t4\tmutation\tEGFR\tgarbage",
        "0\t4\tmutation\tEGFR\t=x;gene=EGFR;polarity=Unknown;implied=false",
        "0\t4\tmutation\tEG\\qR\tgene=EGFR;polarity=Unknown;implied=false",  # bad escape
        # A raw CR, named before the covered text is compared.
        "0\t4\tmutation\tEG\rR\tgene=EGFR;polarity=Unknown;implied=false",
        "0\t4\tmutation\tEGFR\tgene=EGFR;polarity=Unknown;implied=false;exon=19",
        "0\t4\tmutation\tEGFR\tgene=EGFR;polarity=Unknown;implied=false;exon_kind=Deletion",
        "0\t4\ttnm\tEGFR\tprefix=None;t=T9;n=N0;m=M0",
        "0\t4\tstage\tEGFR\tstage=IVZ",
        "0\t4\tps\tEGFR\tscale=ECOG;value=9",  # validation error wrapped
        "0\t4\tps\tEGFR\tscale=ECOG;value=x",
        # Every feature valid, but not in the order serialize_result writes.
        "0\t4\tmutation\tEGFR\tpolarity=Unknown;gene=EGFR;implied=false",
        "0\t4\tps\tEGFR\tvalue=1;scale=ECOG",
        "0\t4\tmutation\tEGFR\tgene=EGFR;polarity=Unknown;exon=19;exon_begin=0;"
        "exon_end=4;exon_kind=Deletion;implied=false",
        "0\t4\ttnm\tEGFR\tt=T1;prefix=None;n=N0;m=M0",
    ],
)
def test_record_errors(record):
    data = f"#doc d\n#len 4\nEGFR\n{record}\n".encode()
    for decode in (deserialize_result, _standoff_oracle.deserialize_result):
        with pytest.raises(MalformedFile) as exc:
            decode(data)
        assert exc.value.line_no == 4


@pytest.mark.parametrize(
    "data, line_no, where",
    [
        (
            b"#doc d\n#len 6\nEG\rFR \n"
            b"0\t5\tmutation\tEG\rFR\tgene=EGFR;polarity=Unknown;implied=false\n",
            4,
            "covered text",
        ),
        (_valid() + b"#diag\t0\t4\ta\rb\n", 5, "#diag message"),
    ],
)
def test_raw_carriage_return_rejected(data, line_no, where):
    # serialize_result writes a CR as "\\r", so a raw one would not come back
    # as it was read, even where the text holds one at that place.
    for decode in (deserialize_result, _standoff_oracle.deserialize_result):
        with pytest.raises(MalformedFile, match=f"raw carriage return in {where}") as exc:
            decode(data)
        assert exc.value.line_no == line_no
    escaped = data.replace(b"EG\rFR\tgene", b"EG\\rFR\tgene").replace(b"a\rb", b"a\\rb")
    assert serialize_result(deserialize_result(escaped)) == escaped


def _with_int(field: str, raw: str) -> bytes:
    """A valid file with one integer field written as *raw*."""
    text = "EGFR del exon 19"
    lines = {
        "len": f"#len {raw}\n{text}\n",
        "begin": f"#len 16\n{text}\n{raw}\t4\tmutation\tEGFR\t"
        "gene=EGFR;polarity=Unknown;implied=false\n",
        "end": f"#len 16\n{text}\n0\t{raw}\tmutation\tEGFR\t"
        "gene=EGFR;polarity=Unknown;implied=false\n",
        "exon": f"#len 16\n{text}\n0\t4\tmutation\tEGFR\tgene=EGFR;"
        f"polarity=Unknown;exon={raw};exon_begin=5;exon_end=16;implied=false\n",
        "exon_begin": f"#len 16\n{text}\n0\t4\tmutation\tEGFR\tgene=EGFR;"
        f"polarity=Unknown;exon=19;exon_begin={raw};exon_end=16;implied=false\n",
        "point_end": f"#len 16\n{text}\n0\t4\tmutation\tEGFR\tgene=EGFR;"
        f"polarity=Unknown;point=T790M;point_begin=5;point_end={raw};implied=false\n",
        "value": f"#len 16\n{text}\n0\t4\tps\tEGFR\tscale=ECOG;value={raw}\n",
        "diag": f"#len 16\n{text}\n#diag\t{raw}\t4\tmessage\n",
    }
    return f"#doc d\n{lines[field]}".encode()


_CANONICAL = {
    "len": "16", "begin": "0", "end": "4", "exon": "19", "exon_begin": "5",
    "point_end": "16", "value": "1", "diag": "0",
}


@pytest.mark.parametrize("field", sorted(_CANONICAL))
def test_canonical_integers_decode(field):
    data = _with_int(field, _CANONICAL[field])
    assert serialize_result(deserialize_result(data)) == data


@pytest.mark.parametrize("field", sorted(_CANONICAL))
@pytest.mark.parametrize("form", ["+{}", " {}", "{} ", "0{}", "0_{}", "-{}", "arabic", ""])
def test_non_canonical_integers_rejected(field, form):
    # int() reads every form but the empty one as the canonical value, and
    # serialize_result would write that value back as other bytes.
    canonical = _CANONICAL[field]
    if form == "arabic":
        raw = "".join(chr(0x660 + int(d)) for d in canonical)  # U+0660..U+0669
    else:
        raw = form.format(canonical)
    with pytest.raises(MalformedFile, match="is not an integer") as exc:
        deserialize_result(_with_int(field, raw))
    assert exc.value.line_no == (2 if field == "len" else 4)


@pytest.mark.parametrize("field", sorted(_CANONICAL))
def test_integer_past_int_digits_rejected(field):
    # Canonical digits, but more of them than int() converts.
    raw = "1" * (sys.get_int_max_str_digits() + 1)
    for decode in (deserialize_result, _standoff_oracle.deserialize_result):
        with pytest.raises(MalformedFile, match="is not an integer") as exc:
            decode(_with_int(field, raw))
        assert exc.value.line_no == (2 if field == "len" else 4)


def test_span_mismatch():
    data = b"#doc d\n#len 4\nEGFR\n0\t4\tmutation\tALK1\tgene=EGFR;polarity=Unknown;implied=false\n"
    with pytest.raises(SpanMismatch):
        deserialize_result(data)


def test_line_numbers_after_multiline_text():
    # 2 header lines + 3 text lines -> first record line is 6
    data = b"#doc d\n#len 12\nuno\ndos\ntres\nbroken\n"
    with pytest.raises(MalformedFile) as exc:
        deserialize_result(data)
    assert exc.value.line_no == 6


def test_unknown_directive():
    data = _valid() + b"#note\thello\n"
    with pytest.raises(MalformedFile) as exc:
        deserialize_result(data)
    assert "directive" in str(exc.value)


def test_record_after_diag_rejected():
    data = (
        b"#doc d\n#len 4\nEGFR\n"
        b"#diag\t0\t4\tmsg\n"
        b"0\t4\tmutation\tEGFR\tgene=EGFR;polarity=Unknown;implied=false\n"
    )
    with pytest.raises(MalformedFile) as exc:
        deserialize_result(data)
    assert "after" in str(exc.value)


def test_diag_after_check_rejected():
    base = (
        b"#doc d\n#len 17\npT1aN0M0 pT1aN0M0\n"
        b"0\t8\ttnm\tpT1aN0M0\tprefix=P;t=T1a;n=N0;m=M0\n"
        b"9\t17\tstage\tpT1aN0M0\tstage=IA1\n"
    )
    ok = base + b"#check\t0\t1\tConsistent\tIA1\n"
    deserialize_result(ok)  # sanity
    bad = ok + b"#diag\t0\t1\tlate\n"
    with pytest.raises(MalformedFile):
        deserialize_result(bad)


def test_diag_field_count():
    data = _valid() + b"#diag\t0\t4\n"
    with pytest.raises(MalformedFile):
        deserialize_result(data)


_CHECK = b"#check\t0\t1\tConsistent\tIA1\n"
_NOT_PAIRING = "#check section is not the pairing of the records: expected "
_WANT_CHECK = _NOT_PAIRING + repr(_CHECK[:-1].decode())
_WANT_END = _NOT_PAIRING + "the end of the file"


# Each section after the records of test_check_errors, with the line it is
# rejected at and the message.
_CHECK_ERRORS = {
    b"#check\t0\t0\tConsistent\tIA1\n": (7, _WANT_CHECK),  # index 0 is the tnm record
    b"#check\t5\t0\tConsistent\tIA1\n": (7, _WANT_CHECK),  # out of range
    b"#check\t0\t1\tMaybe\tIA1\n": (7, _WANT_CHECK),
    b"#check\t0\t1\tConsistent\n": (7, _WANT_CHECK),  # 4 fields
    b"#check\t0\t1\tConsistent\tIA1\textra\n": (7, _WANT_CHECK),  # 6 fields
    b"#check\t0\t1\tConsistent\tZZ\n": (7, _WANT_CHECK),
    b"#check\t0\t1\tNotComparable\tIA1\n": (7, _WANT_CHECK),  # expected must be '-'
    b"#check\t0\t1\tConsistent\t-\n": (7, _WANT_CHECK),  # expected required
    b"#check\t01\t1\tConsistent\tIA1\n": (7, _WANT_CHECK),
    b"#check\t+0\t1\tConsistent\tIA1\n": (7, _WANT_CHECK),
    b"#check\t 0\t1\tConsistent\tIA1\n": (7, _WANT_CHECK),
    b"#check\t0\t-1\tConsistent\tIA1\n": (7, _WANT_CHECK),
    b"#check\t1\t1\tConsistent\tIA1\n": (7, _WANT_CHECK),  # index 1 is the stage record
    b"#check\t0\t2\tConsistent\tIA1\n": (7, _WANT_CHECK),  # index 2 is the mutation record
    _CHECK + b"#check\t0\t01\tConsistent\tIA1\n": (8, _WANT_END),
    _CHECK + b"#diag\t0\t1\tlate\n": (8, "#diag after #check"),
    _CHECK + b"#note\n": (8, "unknown directive '#note'"),
    # A well-formed line that differs is the error, not a malformed one after it.
    b"#check\t0\t1\tInconsistent\tIA1\n"
    b"#check\t0\t1\tMaybe\tIA1\n": (7, _WANT_CHECK),
    # A blank line inside or after the section is no #check line.
    _CHECK + b"\n" + _CHECK: (8, "record after #diag/#check section"),
    _CHECK + b"\n": (8, "record after #diag/#check section"),
}


@pytest.mark.parametrize("check", list(_CHECK_ERRORS))
def test_check_errors(check):
    base = (
        b"#doc d\n#len 22\npT1aN0M0 pT1aN0M0 EGFR\n"
        b"0\t8\ttnm\tpT1aN0M0\tprefix=P;t=T1a;n=N0;m=M0\n"
        b"9\t17\tstage\tpT1aN0M0\tstage=IA1\n"
        b"18\t22\tmutation\tEGFR\tgene=EGFR;polarity=Unknown;implied=false\n"
    )
    assert len(deserialize_result(base + _CHECK).consistency) == 1
    with pytest.raises(MalformedFile) as exc:
        deserialize_result(base + check)
    # base ends on line 6.
    line_no, message = _CHECK_ERRORS[check]
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: {message}"


def test_read_standoff(default_pipeline):
    data = _serialized(default_pipeline, STAGING_NOTE, "stg")
    standoff = read_standoff(data)
    assert standoff.document_id == "stg"
    assert standoff.source_text == STAGING_NOTE
    assert [r.annotator for r in standoff.records] == ["tnm", "stage"]
    assert standoff.records[0].covered_text == "pT1aN0M0"
    assert ("t", "T1a") in standoff.records[0].features


def test_annotation_type_table_covers_every_annotation_class():
    names = [cls.annotator for cls in typing.get_args(Annotation)]
    assert len(set(names)) == len(names)
    assert names == list(ANNOTATION_TYPES)


@given(
    st.lists(
        st.sampled_from(
            [MUTATION_NOTE, STAGING_NOTE, PERFSTATUS_NOTE, COMBINED_NOTE, "ECOG 7.", "Karnofsky 95."]
        ),
        min_size=1,
        max_size=3,
    )
)
@settings(deadline=None, max_examples=30)
def test_round_trip_property(default_pipeline, parts):
    text = "\n\n".join(parts)
    result = default_pipeline.process_document(Document("d", text))
    data = serialize_result(result)
    back = deserialize_result(data)
    assert back == result
    assert serialize_result(back) == data


# Notes whose results hold every kind of line: records of each annotator,
# exon and point features, escapes, #diag lines and #check lines of all
# three verdicts.
_ORACLE_NOTES = [
    MUTATION_NOTE,
    STAGING_NOTE,
    PERFSTATUS_NOTE,
    COMBINED_NOTE,
    "ECOG 7 y Karnofsky 95 registrado.",
    "EGFR mutado L858R en exón 21. cT2N0M0, estadio IB.",
    "Estadio IIIA con T1N0M0.",
    "a\\b\tc d. pT2aN1M0, estadio IIB.",
] + [doc.text for doc in generate_corpus(4, seed=11)]

_NUMBERS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["-1", "01", "+1", " 1", "1_0", "\u0661", "", "99999"]),
)

_VALUES = sorted(
    {
        member.value
        for enum_cls in (
            ConsistencyVerdict, StageGroup, Gene, Polarity, ExonKind, PointVariant,
            TnmPrefix, TCategory, NCategory, MCategory, PSScale,
        )
        for member in enum_cls
    }
    | {"-", "true", "false", "ZZ"}
)


def _decoded(decode, data: bytes):
    """The result of *decode*, or the class and line number of its error."""
    try:
        return decode(data)
    except OncospanError as exc:
        return type(exc), getattr(exc, "line_no", None)


def _line_kind(line: str) -> str:
    return line.partition(" ")[0].partition("\t")[0] if line[:1] == "#" else "record"


def _mutate(line: str, draw) -> str:
    """*line* with one field dropped or duplicated, a tab added, two items of
    its last field swapped, an integer rewritten, or a value swapped for
    another annotation or check value."""
    how = draw(st.sampled_from(["drop", "duplicate", "tab", "swap", "integer", "value"]))
    fields = line.split("\t")
    if how == "swap":
        items = fields[-1].split(";")
        j, k = draw(st.integers(0, len(items) - 1)), draw(st.integers(0, len(items) - 1))
        items[j], items[k] = items[k], items[j]
        fields[-1] = ";".join(items)
        return "\t".join(fields)
    if how in ("drop", "duplicate"):
        k = draw(st.integers(0, len(fields) - 1))
        if how == "drop":
            del fields[k]
        else:
            fields.insert(k, fields[k])
        return "\t".join(fields)
    if how == "tab":
        at = draw(st.integers(0, len(line)))
        return line[:at] + "\t" + line[at:]
    if how == "integer":
        # Not the digits of a category or group, which "value" swaps.
        spots = [m.span() for m in re.finditer(r"(?<![A-Za-z])[0-9]+", line)]
        new = _NUMBERS
    else:
        spots = [m.span() for m in re.finditer(r"[^\t;=]+", line) if m[0] in _VALUES]
        new = st.sampled_from(_VALUES)
    if not spots:
        return line
    begin, end = draw(st.sampled_from(spots))
    return line[:begin] + draw(new) + line[end:]


class _Draws:
    """Stands in for ``st.data()`` in an explicit example: each ``draw``
    returns the next of the given values."""

    def __init__(self, *values):
        self._values = iter(values)

    def draw(self, strategy):
        return next(self._values)


@given(st.lists(st.sampled_from(_ORACLE_NOTES), min_size=1, max_size=3), st.data())
# The T1N0M0 record moved behind the section: its first #check line is
# well-formed but differs, and the next names a stage record out of range.
# The first is the error.
@example(
    ["Estadio IIIA con T1N0M0.", "a\\b\tc d. pT2aN1M0, estadio IIB."],
    _Draws("record", 2, 0),
)
@settings(deadline=None, max_examples=500)
def test_decoder_equals_line_by_line_oracle(default_pipeline, parts, data):
    # On any input the table-driven decoder returns what the line-by-line one
    # returns, or raises the same class at the same line.
    text = "\n\n".join(parts)
    serialized = serialize_result(default_pipeline.process_document(Document("d", text)))
    head = f"#doc d\n#len {len(text)}\n{text}\n"
    lines = serialized.decode("utf-8")[len(head) :].split("\n")[:-1]
    lines.insert(0, f"#len {len(text)}")
    kind = data.draw(st.sampled_from(sorted({_line_kind(ln) for ln in lines})))
    target = data.draw(
        st.sampled_from([i for i, ln in enumerate(lines) if _line_kind(ln) == kind])
    )
    if target > 0 and data.draw(st.integers(0, 5)) == 0:
        lines.append(lines.pop(target))  # move a body line to the end
    else:
        lines[target] = _mutate(lines[target], data.draw)
    mutated = f"#doc d\n{lines[0]}\n{text}\n" + "".join(f"{ln}\n" for ln in lines[1:])
    mutated = mutated.encode("utf-8")
    expected = _decoded(_standoff_oracle.deserialize_result, mutated)
    assert _decoded(deserialize_result, mutated) == expected
    if isinstance(expected, DocumentResult):
        assert serialize_result(expected) == mutated


# The bytes that separate or escape fields, digits, and a non-ASCII
# character (two bytes in UTF-8, so one of them alone is not UTF-8).
_MUTANT_BYTES = [b"\r", b"\t", b"\n", b"\\", b";", b"=", *(b"%d" % d for d in range(10))]
_MUTANT_BYTES += ["é".encode(), "é".encode()[:1]]


@given(
    st.lists(st.sampled_from(_ORACLE_NOTES), min_size=1, max_size=2),
    st.sampled_from(["insert", "delete", "replace"]),
    st.sampled_from(_MUTANT_BYTES),
    st.data(),
)
@settings(deadline=None, max_examples=300)
def test_byte_mutants_decode_as_the_oracle_does(default_pipeline, parts, how, new, data):
    # One byte inserted, deleted or replaced anywhere in a written file: the
    # decoder raises what the oracle raises, at the same line, or returns
    # what it returns, which then writes back exactly the mutant.
    serialized = _serialized(default_pipeline, "\n\n".join(parts))
    at = data.draw(st.integers(0, len(serialized) - (how != "insert")))
    end = at if how == "insert" else at + 1
    mutant = serialized[:at] + (b"" if how == "delete" else new) + serialized[end:]
    expected = _decoded(_standoff_oracle.deserialize_result, mutant)
    assert _decoded(deserialize_result, mutant) == expected
    if isinstance(expected, DocumentResult):
        assert serialize_result(expected) == mutant


# Notes with several (TNM, stage) pairs, and one with none.
_PAIRED_NOTES = [
    STAGING_NOTE,
    "pT2aN0M0, estadio IB. Luego T3 N1 M0: estadio IIIA; estadio IV.",
    "cT2 N0 M0, estadio IB. T1 N0 M0, estadio I. ypT1b N2 M1b, estadio IV.",
    "Estadio IIIA con T1N0M0. ECOG 1. EGFR mutado.",
]
_VERDICT_FLIP = {"Consistent": "Inconsistent", "Inconsistent": "Consistent"}


def _mutate_section(lines: list[str], draw) -> list[str]:
    """*lines* with one well-formed change: a verdict or group flipped, or a
    line dropped, duplicated or swapped with another."""
    how = draw(st.sampled_from(["verdict", "group", "drop", "duplicate", "swap"]))
    k = draw(st.integers(0, len(lines) - 1))
    lines = list(lines)
    fields = lines[k].split("\t")
    if how == "verdict" and fields[3] in _VERDICT_FLIP:
        fields[3] = _VERDICT_FLIP[fields[3]]
        lines[k] = "\t".join(fields)
    elif how == "group" and fields[4] != "-":
        others = [g.value for g in StageGroup if g.value != fields[4]]
        fields[4] = draw(st.sampled_from(others))
        lines[k] = "\t".join(fields)
    elif how == "drop":
        del lines[k]
    elif how == "duplicate":
        lines.insert(k, lines[k])
    else:
        j = draw(st.integers(0, len(lines) - 1))
        lines[j], lines[k] = lines[k], lines[j]
    return lines


@given(st.lists(st.sampled_from(_PAIRED_NOTES), min_size=1, max_size=3), st.data())
@settings(deadline=None, max_examples=200)
def test_section_not_the_pairing_rejected_at_first_differing_line(
    default_pipeline, parts, data
):
    text = "\n\n".join(parts)
    serialized = _serialized(default_pipeline, text).decode("utf-8")
    at = serialized.index("\n#check\t") + 1
    head, section = serialized[:at], serialized[at:].split("\n")[:-1]
    mutated = _mutate_section(section, data.draw)
    differing = [
        k for k, (a, b) in enumerate(itertools.zip_longest(section, mutated)) if a != b
    ]
    assume(differing)
    file = head + "".join(f"{ln}\n" for ln in mutated)
    with pytest.raises(MalformedFile) as exc:
        deserialize_result(file.encode("utf-8"))
    assert exc.value.line_no == head.count("\n") + 1 + differing[0]


@pytest.mark.parametrize(
    "text", [MUTATION_NOTE, PERFSTATUS_NOTE, "pT1a N0 M0.", "Estadio IIIA.", ""]
)
def test_section_appended_to_a_file_without_pairs_rejected(default_pipeline, text):
    data = _serialized(default_pipeline, text)
    assert b"#check" not in data
    lines = data.count(b"\n")
    for check in (b"#check\t0\t0\tConsistent\tIA1\n", b"#check\t0\t1\tNotComparable\t-\n"):
        with pytest.raises(MalformedFile) as exc:
            deserialize_result(data + check)
        assert exc.value.line_no == lines + 1


def test_reports_built_only_when_read(default_pipeline, monkeypatch):
    built = []
    original = ConsistencyReport.__new__

    def counting(cls, *fields):
        built.append(fields)
        return original(cls, *fields)

    monkeypatch.setattr(ConsistencyReport, "__new__", counting)
    text = "cT2 N0 M0, estadio IB. T1 N0 M0, estadio I. ypT1b N2 M1b, estadio IV."
    result = default_pipeline.process_document(Document("d", text))
    back = deserialize_result(serialize_result(result))
    assert back == result
    assert built == []
    reports = back.consistency
    assert len(built) == len(reports) == 9
    assert [(r.tnm.raw, r.stage.raw) for r in reports] == [
        (t, s) for t in ("cT2 N0 M0", "T1 N0 M0", "ypT1b N2 M1b") for s in ("IB", "I", "IV")
    ]
