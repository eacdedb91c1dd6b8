"""Per-document standoff files (.ann).

Layout, all UTF-8:

    #doc <document id>
    #len <source text length in code points>
    <source text, exactly that many code points, then one newline>
    <one record per line>
    <#diag lines>
    <#check lines>

Record line: ``begin<TAB>end<TAB>annotator<TAB>covered_text<TAB>features``
with features ``key=value;key=value``; ``ANNOTATION_TYPES`` declares each
annotator's keys, encoder and decoder.  Covered text and diagnostic messages
escape backslash, tab, newline and carriage return so one record is always
one line.  ``#diag`` carries a diagnostic (begin, end, message);
``#check`` carries a consistency report as two record indexes, the verdict
and the expected group (``-`` when not comparable).  Every integer is a
canonical ASCII decimal, ``0`` or ``[1-9][0-9]*``, and the id follows
``document.check_document_id``.  Deserialization is the
exact inverse of serialization and is strict: anything unexpected raises
MalformedFile with a line number, and a covered-text disagreement raises
SpanMismatch.  It reads enum values and whole ``#check`` lines by table
lookup and works out which diagnostic applies only when a lookup misses.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .assertion import Polarity
from .document import Diagnostic, Span, check_document_id
from .errors import MalformedFile, SpanMismatch
from .mutation import (
    ExonKind,
    ExonMention,
    Gene,
    MutationAnnotation,
    MutationPoint,
    PointVariant,
)
from .perfstatus import PSAnnotation, PSScale
from .pipeline import Annotation, DocumentResult
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
)


@dataclass(frozen=True, slots=True)
class StandoffRecord:
    begin: int
    end: int
    annotator: str
    covered_text: str
    features: tuple[tuple[str, str], ...]


@dataclass(frozen=True, slots=True)
class StandoffFile:
    document_id: str
    source_text: str
    records: tuple[StandoffRecord, ...]


class AnnotationType(NamedTuple):
    """The record format of one annotation type; see ``ANNOTATION_TYPES``."""

    required: frozenset[str]
    encode: Callable[[Annotation], list[tuple[str, str]]]
    decode: Callable[[Span, str, dict[str, str], int], Annotation]
    optional: frozenset[str] = frozenset()


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _unescape(value: str, line_no: int) -> str:
    if "\\" not in value:
        return value
    out = []
    i = 0
    n = len(value)
    while i < n:
        ch = value[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n or value[i + 1] not in _UNESCAPE:
            raise MalformedFile("bad escape sequence", line_no)
        out.append(_UNESCAPE[value[i + 1]])
        i += 2
    return "".join(out)


def serialize_result(result: DocumentResult) -> bytes:
    text = result.text
    parts = [f"#doc {result.document_id}\n#len {len(text)}\n{text}\n"]
    annotations = list(result.annotations)
    for ann in annotations:
        covered = text[ann.span.begin : ann.span.end]
        features = ";".join(f"{k}={v}" for k, v in features_of(ann))
        parts.append(
            f"{ann.span.begin}\t{ann.span.end}\t{ann.annotator}\t"
            f"{_escape(covered)}\t{features}\n"
        )
    for diag in result.diagnostics:
        parts.append(
            f"#diag\t{diag.span.begin}\t{diag.span.end}\t{_escape(diag.message)}\n"
        )
    # Record index of each annotation; equal annotations keep the first
    # index, as list.index would give.  A report names its annotations by
    # identity when they are the result's own objects, which saves hashing
    # them per report; any other object is looked up by value.
    position: dict[Annotation, int] = {}
    by_id: dict[int, int] = {}
    for i, ann in enumerate(annotations):
        by_id[id(ann)] = position.setdefault(ann, i)
    for report in result.consistency:
        tnm = by_id.get(id(report.tnm))
        if tnm is None:
            tnm = position[report.tnm]
        stage = by_id.get(id(report.stage))
        if stage is None:
            stage = position[report.stage]
        expected = "-" if report.expected is None else report.expected.value
        parts.append(
            f"#check\t{tnm}\t{stage}\t{report.verdict.value}\t{expected}\n"
        )
    return "".join(parts).encode("utf-8")


def _parse_int(raw: str, what: str, line_no: int) -> int:
    # Canonical decimals only, "0" or [1-9][0-9]*: int() would also take a
    # sign, spaces, underscores, leading zeros and non-ASCII digits, which
    # serialize_result would write back as other bytes.
    if raw.isdigit() and raw.isascii() and (raw[0] != "0" or len(raw) == 1):
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            pass
    raise MalformedFile(f"{what} is not an integer: {raw!r}", line_no)


def _by_value(enum_cls) -> dict:
    """Each member of *enum_cls* keyed by its value, the string a file holds."""
    return {member.value: member for member in enum_cls}


_GENES = _by_value(Gene)
_POLARITIES = _by_value(Polarity)
_EXON_KINDS = _by_value(ExonKind)
_POINTS = _by_value(PointVariant)
_PREFIXES = _by_value(TnmPrefix)
_TS = _by_value(TCategory)
_NS = _by_value(NCategory)
_MS = _by_value(MCategory)
_STAGES = _by_value(StageGroup)
_SCALES = _by_value(PSScale)
_VERDICTS = _by_value(ConsistencyVerdict)

# The verdict<TAB>expected tail of every valid #check line: a comparable
# verdict names one of the groups, NotComparable names none.
_CHECK_TAILS = {
    f"{verdict.value}\t{group.value}": (verdict, group)
    for verdict in (ConsistencyVerdict.CONSISTENT, ConsistencyVerdict.INCONSISTENT)
    for group in StageGroup
}
_CHECK_TAILS[f"{ConsistencyVerdict.NOT_COMPARABLE.value}\t-"] = (
    ConsistencyVerdict.NOT_COMPARABLE,
    None,
)


def _parse_enum(members: dict, raw: str, what: str, line_no: int):
    member = members.get(raw)
    if member is None:
        raise MalformedFile(f"unknown {what} {raw!r}", line_no)
    return member


def _parse_span(begin: str, end: str, text_len: int, line_no: int) -> Span:
    b = _parse_int(begin, "begin", line_no)
    e = _parse_int(end, "end", line_no)
    if e <= b or e > text_len:
        raise MalformedFile(f"span [{b}, {e}) out of bounds", line_no)
    return Span(b, e)


def _parse_features(
    raw: str, annotator: str, kind: AnnotationType, line_no: int
) -> dict[str, str]:
    features: dict[str, str] = {}
    for item in raw.split(";"):
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise MalformedFile(f"bad feature item {item!r}", line_no)
        if key in features:
            raise MalformedFile(f"duplicate feature key {key!r}", line_no)
        if key not in kind.required and key not in kind.optional:
            raise MalformedFile(
                f"unknown feature key {key!r} for annotator {annotator!r}", line_no
            )
        features[key] = value
    missing = kind.required - features.keys()
    if missing:
        raise MalformedFile(
            f"missing feature keys: {', '.join(sorted(missing))}", line_no
        )
    return features


_EXON_KEYS = frozenset({"exon", "exon_begin", "exon_end"})
_POINT_KEYS = frozenset({"point", "point_begin", "point_end"})


def _mutation_features(ann: MutationAnnotation) -> list[tuple[str, str]]:
    pairs = [("gene", ann.gene.value), ("polarity", ann.polarity.value)]
    if ann.exon is not None:
        pairs.append(("exon", str(ann.exon.number)))
        if ann.exon.kind is not None:
            pairs.append(("exon_kind", ann.exon.kind.value))
        pairs.append(("exon_begin", str(ann.exon.span.begin)))
        pairs.append(("exon_end", str(ann.exon.span.end)))
    if ann.point is not None:
        pairs.append(("point", ann.point.value.value))
        pairs.append(("point_begin", str(ann.point.span.begin)))
        pairs.append(("point_end", str(ann.point.span.end)))
    pairs.append(("implied", "true" if ann.implied else "false"))
    return pairs


def _mutation_from(
    span: Span, covered: str, features: dict[str, str], line_no: int
) -> MutationAnnotation:
    gene = _parse_enum(_GENES, features["gene"], "gene", line_no)
    polarity = _parse_enum(_POLARITIES, features["polarity"], "polarity", line_no)
    implied_raw = features["implied"]
    if implied_raw not in ("true", "false"):
        raise MalformedFile(f"implied must be true/false, got {implied_raw!r}", line_no)
    exon = None
    if _EXON_KEYS & features.keys():
        if _EXON_KEYS - features.keys():
            raise MalformedFile("incomplete exon feature group", line_no)
        kind = None
        if "exon_kind" in features:
            kind = _parse_enum(_EXON_KINDS, features["exon_kind"], "exon kind", line_no)
        exon = ExonMention(
            Span(
                _parse_int(features["exon_begin"], "exon_begin", line_no),
                _parse_int(features["exon_end"], "exon_end", line_no),
            ),
            _parse_int(features["exon"], "exon", line_no),
            kind,
        )
    elif "exon_kind" in features:
        raise MalformedFile("exon_kind without exon", line_no)
    point = None
    if _POINT_KEYS & features.keys():
        if _POINT_KEYS - features.keys():
            raise MalformedFile("incomplete point feature group", line_no)
        point = MutationPoint(
            Span(
                _parse_int(features["point_begin"], "point_begin", line_no),
                _parse_int(features["point_end"], "point_end", line_no),
            ),
            _parse_enum(_POINTS, features["point"], "mutation point", line_no),
        )
    return MutationAnnotation(
        span, gene, polarity, exon, point, implied_raw == "true"
    )


# Keyed by each class's ``annotator`` name, in the order ``oncospan annotate``
# reports counts in.  A decoder raises MalformedFile, or ValueError where the
# annotation rejects a value.
ANNOTATION_TYPES: dict[str, AnnotationType] = {
    MutationAnnotation.annotator: AnnotationType(
        frozenset({"gene", "polarity", "implied"}),
        _mutation_features,
        _mutation_from,
        _EXON_KEYS | _POINT_KEYS | {"exon_kind"},
    ),
    TNMAnnotation.annotator: AnnotationType(
        frozenset({"prefix", "t", "n", "m"}),
        lambda a: [(key, getattr(a, key).value) for key in ("prefix", "t", "n", "m")],
        lambda span, covered, f, line_no: TNMAnnotation(
            span,
            _parse_enum(_PREFIXES, f["prefix"], "prefix", line_no),
            _parse_enum(_TS, f["t"], "T category", line_no),
            _parse_enum(_NS, f["n"], "N category", line_no),
            _parse_enum(_MS, f["m"], "M category", line_no),
            covered,
        ),
    ),
    StageAnnotation.annotator: AnnotationType(
        frozenset({"stage"}),
        lambda a: [("stage", a.stage.value)],
        lambda span, covered, f, line_no: StageAnnotation(
            span, _parse_enum(_STAGES, f["stage"], "stage group", line_no), covered
        ),
    ),
    PSAnnotation.annotator: AnnotationType(
        frozenset({"scale", "value"}),
        lambda a: [("scale", a.scale.value), ("value", str(a.value))],
        lambda span, covered, f, line_no: PSAnnotation(
            span,
            _parse_enum(_SCALES, f["scale"], "scale", line_no),
            _parse_int(f["value"], "value", line_no),
            covered,
        ),
    ),
}


def features_of(ann: Annotation) -> list[tuple[str, str]]:
    """Feature pairs of *ann* as its standoff record and SQL rows hold them."""
    return ANNOTATION_TYPES[ann.annotator].encode(ann)


def deserialize_result(data: bytes) -> DocumentResult:
    try:
        content = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"not valid UTF-8: {exc}") from None

    nl1 = content.find("\n")
    if nl1 == -1 or not content.startswith("#doc "):
        raise MalformedFile("first line must be '#doc <id>'", 1)
    document_id = content[5:nl1]
    try:
        check_document_id(document_id)
    except ValueError as exc:
        raise MalformedFile(str(exc), 1) from None

    nl2 = content.find("\n", nl1 + 1)
    if nl2 == -1 or not content.startswith("#len ", nl1 + 1):
        raise MalformedFile("second line must be '#len <n>'", 2)
    length = _parse_int(content[nl1 + 6 : nl2], "text length", 2)

    text_start = nl2 + 1
    text_end = text_start + length
    if text_end > len(content):
        raise MalformedFile("source text shorter than declared length", 3)
    text = content[text_start:text_end]
    if text_end == len(content) or content[text_end] != "\n":
        raise MalformedFile("source text must end with a newline delimiter", 3)

    first_line = 4 + text.count("\n")
    lines = content[text_end + 1 :].split("\n")
    if lines[-1] != "":
        raise MalformedFile("file must end with a newline", first_line + len(lines) - 1)
    lines.pop()

    # The sections come in order: records, #diag lines, then #check lines to
    # the end, where _parse_check reports any line out of place.
    annotations: list[Annotation] = []
    i = 0
    while i < len(lines) and not lines[i].startswith("#"):
        annotations.append(_parse_record(lines[i], text, first_line + i))
        i += 1
    diagnostics: list[Diagnostic] = []
    while i < len(lines) and lines[i].startswith("#diag\t"):
        diagnostics.append(_parse_diag(lines[i], len(text), first_line + i))
        i += 1
    reports: list[ConsistencyReport] = []
    if i < len(lines):
        # A #check line is valid exactly when its two indexes are keys of
        # these maps and its tail is a key of _CHECK_TAILS.  A miss goes to
        # _parse_check, which raises the diagnostic.
        tnm_at = {
            str(k): a for k, a in enumerate(annotations) if isinstance(a, TNMAnnotation)
        }
        stage_at = {
            str(k): a for k, a in enumerate(annotations) if isinstance(a, StageAnnotation)
        }
        for line_no, line in enumerate(lines[i:], first_line + i):
            fields = line.split("\t", 3)
            if len(fields) == 4 and fields[0] == "#check":
                tnm = tnm_at.get(fields[1])
                stage = stage_at.get(fields[2])
                tail = _CHECK_TAILS.get(fields[3])
                if tnm is not None and stage is not None and tail is not None:
                    reports.append(ConsistencyReport(tnm, stage, *tail))
                    continue
            reports.append(_parse_check(line, annotations, line_no))

    return DocumentResult(
        document_id=document_id,
        text=text,
        annotations=tuple(annotations),
        diagnostics=tuple(diagnostics),
        consistency=tuple(reports),
    )


def _parse_record(line: str, text: str, line_no: int) -> Annotation:
    fields = line.split("\t")
    if len(fields) != 5:
        raise MalformedFile("record needs 5 tab-separated fields", line_no)
    begin_raw, end_raw, annotator, covered_raw, features_raw = fields
    kind = ANNOTATION_TYPES.get(annotator)
    if kind is None:
        raise MalformedFile(f"unknown annotator {annotator!r}", line_no)
    span = _parse_span(begin_raw, end_raw, len(text), line_no)
    covered = _unescape(covered_raw, line_no)
    if text[span.begin : span.end] != covered:
        raise SpanMismatch(
            f"line {line_no}: covered text {covered!r} does not match "
            f"text[{span.begin}:{span.end}]"
        )
    features = _parse_features(features_raw, annotator, kind, line_no)
    try:
        return kind.decode(span, covered, features, line_no)
    except ValueError as exc:
        raise MalformedFile(str(exc), line_no) from None


def _parse_diag(line: str, text_len: int, line_no: int) -> Diagnostic:
    fields = line.split("\t")
    if len(fields) != 4:
        raise MalformedFile("#diag needs 4 tab-separated fields", line_no)
    span = _parse_span(fields[1], fields[2], text_len, line_no)
    return Diagnostic(span, _unescape(fields[3], line_no))


def _parse_check(
    line: str, annotations: list[Annotation], line_no: int
) -> ConsistencyReport:
    """Parse a line of the #check section field by field, raising the first
    diagnostic that applies."""
    if not line.startswith("#check\t"):
        if line.startswith("#diag\t"):
            raise MalformedFile("#diag after #check", line_no)
        if line.startswith("#"):
            raise MalformedFile(f"unknown directive {line.split(chr(9))[0]!r}", line_no)
        raise MalformedFile("record after #diag/#check section", line_no)
    fields = line.split("\t")
    if len(fields) != 5:
        raise MalformedFile("#check needs 5 tab-separated fields", line_no)
    tnm_idx = _parse_int(fields[1], "tnm record index", line_no)
    stage_idx = _parse_int(fields[2], "stage record index", line_no)
    if tnm_idx >= len(annotations) or not isinstance(
        annotations[tnm_idx], TNMAnnotation
    ):
        raise MalformedFile(f"index {tnm_idx} is not a tnm record", line_no)
    if stage_idx >= len(annotations) or not isinstance(
        annotations[stage_idx], StageAnnotation
    ):
        raise MalformedFile(f"index {stage_idx} is not a stage record", line_no)
    verdict = _parse_enum(_VERDICTS, fields[3], "verdict", line_no)
    expected = None
    if fields[4] != "-":
        expected = _parse_enum(_STAGES, fields[4], "stage group", line_no)
    try:
        return ConsistencyReport(
            annotations[tnm_idx], annotations[stage_idx], verdict, expected
        )
    except ValueError as exc:
        raise MalformedFile(str(exc), line_no) from None


def read_standoff(data: bytes) -> StandoffFile:
    """Decode *data* with the strict ``deserialize_result`` and return its id,
    text and annotation records.

    Every line is checked, the ``#diag`` and ``#check`` lines too, and an
    error raises as ``deserialize_result`` raises it; only the records are
    returned.
    """
    result = deserialize_result(data)
    records = tuple(
        StandoffRecord(
            ann.span.begin,
            ann.span.end,
            ann.annotator,
            result.text[ann.span.begin : ann.span.end],
            tuple(features_of(ann)),
        )
        for ann in result.annotations
    )
    return StandoffFile(result.document_id, result.text, records)


__all__ = [
    "ANNOTATION_TYPES",
    "StandoffFile",
    "StandoffRecord",
    "serialize_result",
    "deserialize_result",
    "read_standoff",
    "features_of",
]
