import dataclasses
import re
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _standoff_oracle
from conftest import MUTATION_NOTE, STAGING_NOTE, COMBINED_NOTE, PERFSTATUS_NOTE
from oncospan import (
    Document,
    DocumentResult,
    MalformedFile,
    SpanMismatch,
    deserialize_result,
    serialize_result,
)
from oncospan.assertion import Polarity
from oncospan.corpusgen import generate_corpus
from oncospan.errors import OncospanError
from oncospan.mutation import ExonKind, Gene, PointVariant
from oncospan.perfstatus import PSScale
from oncospan.pipeline import Annotation
from oncospan.staging import (
    ConsistencyVerdict,
    MCategory,
    NCategory,
    StageGroup,
    TCategory,
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


def test_check_indexes_first_of_equal_annotations(default_pipeline):
    result = default_pipeline.process_document(Document("stg", STAGING_NOTE))
    tnm, stage = result.annotations
    doubled = dataclasses.replace(result, annotations=(tnm, tnm, stage, stage))
    checks = [ln for ln in _lines(serialize_result(doubled)) if ln.startswith("#check\t")]
    assert checks == ["#check\t0\t2\tConsistent\tIA1"]


def test_check_indexes_equal_copies_by_value(default_pipeline):
    # Reports holding records equal to, but not the same objects as, the
    # first ones name the first equal record: copies that are later records
    # of the result, and copies that are not records of it at all.
    result = default_pipeline.process_document(Document("stg", STAGING_NOTE))
    tnm, stage = result.annotations
    (report,) = result.consistency
    later = dataclasses.replace(tnm), dataclasses.replace(stage)
    outside = dataclasses.replace(tnm), dataclasses.replace(stage)
    for copy, original in zip(later + outside, (tnm, stage) * 2):
        assert copy == original and copy is not original
    doubled = dataclasses.replace(
        result,
        annotations=(tnm, stage, *later),
        consistency=tuple(
            dataclasses.replace(report, tnm=t, stage=s)
            for t, s in (later, outside, (tnm, stage))
        ),
    )
    checks = [ln for ln in _lines(serialize_result(doubled)) if ln.startswith("#check\t")]
    assert checks == ["#check\t0\t1\tConsistent\tIA1"] * 3


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
        "0\t4\tmutation\tEGFR\tgene=EGFR;polarity=Unknown;implied=false;exon=19",
        "0\t4\tmutation\tEGFR\tgene=EGFR;polarity=Unknown;implied=false;exon_kind=Deletion",
        "0\t4\ttnm\tEGFR\tprefix=None;t=T9;n=N0;m=M0",
        "0\t4\tstage\tEGFR\tstage=IVZ",
        "0\t4\tps\tEGFR\tscale=ECOG;value=9",  # validation error wrapped
        "0\t4\tps\tEGFR\tscale=ECOG;value=x",
    ],
)
def test_record_errors(record):
    data = f"#doc d\n#len 4\nEGFR\n{record}\n".encode()
    with pytest.raises(MalformedFile) as exc:
        deserialize_result(data)
    assert exc.value.line_no == 4


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


@pytest.mark.parametrize(
    "check",
    [
        b"#check\t0\t0\tConsistent\tIA1\n",  # index 0 is the tnm record
        b"#check\t5\t0\tConsistent\tIA1\n",  # out of range
        b"#check\t0\t1\tMaybe\tIA1\n",
        b"#check\t0\t1\tConsistent\n",  # 4 fields
        b"#check\t0\t1\tConsistent\tIA1\textra\n",  # 6 fields
        b"#check\t0\t1\tConsistent\tZZ\n",
        b"#check\t0\t1\tNotComparable\tIA1\n",  # expected must be '-'
        b"#check\t0\t1\tConsistent\t-\n",  # expected required
        b"#check\t01\t1\tConsistent\tIA1\n",
        b"#check\t+0\t1\tConsistent\tIA1\n",
        b"#check\t 0\t1\tConsistent\tIA1\n",
        b"#check\t0\t-1\tConsistent\tIA1\n",
        b"#check\t1\t1\tConsistent\tIA1\n",  # index 1 is the stage record
        b"#check\t0\t2\tConsistent\tIA1\n",  # index 2 is the mutation record
        b"#check\t0\t1\tConsistent\tIA1\n#check\t0\t01\tConsistent\tIA1\n",
        b"#check\t0\t1\tConsistent\tIA1\n#diag\t0\t1\tlate\n",
        b"#check\t0\t1\tConsistent\tIA1\n#note\n",
    ],
)
def test_check_errors(check):
    base = (
        b"#doc d\n#len 22\npT1aN0M0 pT1aN0M0 EGFR\n"
        b"0\t8\ttnm\tpT1aN0M0\tprefix=P;t=T1a;n=N0;m=M0\n"
        b"9\t17\tstage\tpT1aN0M0\tstage=IA1\n"
        b"18\t22\tmutation\tEGFR\tgene=EGFR;polarity=Unknown;implied=false\n"
    )
    assert len(deserialize_result(base + b"#check\t0\t1\tConsistent\tIA1\n").consistency) == 1
    with pytest.raises(MalformedFile) as exc:
        deserialize_result(base + check)
    # The last line of *check* is the bad one; base ends on line 6.
    assert exc.value.line_no == 6 + check.count(b"\n")


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
    """*line* with one field dropped or duplicated, a tab added, an integer
    rewritten, or a value swapped for another annotation or check value."""
    how = draw(st.sampled_from(["drop", "duplicate", "tab", "integer", "value"]))
    fields = line.split("\t")
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


@given(st.lists(st.sampled_from(_ORACLE_NOTES), min_size=1, max_size=3), st.data())
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
