"""Per-document standoff files (.ann).

Layout, all UTF-8:

    #doc <document id>
    #len <source text length in code points>
    <source text, exactly that many code points, then one newline>
    <one record per line>
    <#diag lines>
    <#check lines>

Record line: ``begin<TAB>end<TAB>annotator<TAB>covered_text<TAB>features``
with features ``key=value;key=value`` in the order the encoder writes them;
``ANNOTATION_TYPES`` declares each annotator's keys, encoder, record pattern
and decoders.  Covered text and diagnostic messages escape backslash, tab,
newline and carriage return so one record is always one line, and a raw
carriage return in them is rejected.  ``#diag``
carries a diagnostic (begin, end, message); ``#check`` carries a consistency
report as two record indexes, the verdict and the expected group (``-``
when not comparable); the section is every (TNM, stage) pair, TNM-major,
through the 8th-edition verdict table, each record named by the first index
of an equal one, which is looked up, and the records hashed, only for a
type with more than one record.  Every integer is a canonical ASCII
decimal, ``0`` or ``[1-9][0-9]*``, and the id follows
``document.check_document_id``.  Deserialization is the exact inverse of
serialization and is strict: anything unexpected raises MalformedFile with a
line number, and a covered-text disagreement raises SpanMismatch.  It
accepts a record with one ``fullmatch`` of its type's pattern, which admits
exactly the line the encoder writes, then checks the span, the covered text
and the values the annotation itself rejects; a line the pattern misses is
read field by field only to name its error, and one with nothing else wrong
has its features out of canonical order.  It compares the ``#check``
section with the one the records give as one string, reading it line by
line only to report a mismatch; so a well-formed section that is not that
pairing is rejected.
"""

import re
from typing import Callable, NamedTuple, NoReturn, Sequence

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
    _STAGE_INDEX,
    _VERDICTS,
    ConsistencyVerdict,
    MCategory,
    NCategory,
    StageAnnotation,
    StageGroup,
    TCategory,
    TNMAnnotation,
    TnmPrefix,
)


class StandoffRecord(NamedTuple):
    begin: int
    end: int
    annotator: str
    covered_text: str
    features: tuple[tuple[str, str], ...]


class StandoffFile(NamedTuple):
    document_id: str
    source_text: str
    records: tuple[StandoffRecord, ...]


class AnnotationType(NamedTuple):
    """The record format of one annotation type; see ``ANNOTATION_TYPES``."""

    required: frozenset[str]
    encode: Callable[[Annotation], list[tuple[str, str]]]
    # The record line encode gives, features in its order: groups begin,
    # end and covered text, then the feature values, which build reads.
    pattern: re.Pattern[str]
    build: Callable[[Span, str, list[str | None]], Annotation]
    # The field-by-field reading that names what is wrong with a line the
    # pattern misses.
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
# A backslash and the character after it, if any.
_ESCAPE_RE = re.compile(r"\\(.?)", re.DOTALL)


def _unescape(value: str, line_no: int) -> str:
    if "\\" not in value:
        return value
    try:
        return _ESCAPE_RE.sub(lambda match: _UNESCAPE[match[1]], value)
    except KeyError:
        raise MalformedFile("bad escape sequence", line_no) from None


def _first_equal(records: list[tuple[int, Annotation]]) -> list[tuple[int, Annotation]]:
    """*records* of one type, each index replaced by that of the first equal
    one; a lone record is its own first, and is not hashed."""
    if len(records) < 2:
        return records
    first: dict[Annotation, int] = {}
    return [(first.setdefault(ann, i), ann) for i, ann in records]


def _check_section(annotations: Sequence[Annotation]) -> str:
    """The ``#check`` section of *annotations*, as the module doc gives it."""
    tnms, stages = [], []
    for i, ann in enumerate(annotations):
        if isinstance(ann, TNMAnnotation):
            tnms.append((i, ann))
        elif isinstance(ann, StageAnnotation):
            stages.append((i, ann))
    if not stages:
        return ""
    # _first_equal sees the records of one class at a time, so the first
    # equal one of a TNM is a TNM and of a stage a stage.
    cells = [(j, _STAGE_INDEX[stage.stage]) for j, stage in _first_equal(stages)]
    # The TNMs that share a verdict row share the tails of their lines.
    tails: dict[int, list[str]] = {}
    parts = []
    for i, tnm in _first_equal(tnms):
        row = _VERDICTS[tnm.t, tnm.n, tnm.m]
        if id(row) not in tails:
            text = _ROW_TEXT[id(row)]
            tails[id(row)] = [f"{j}\t{text[k]}\n" for j, k in cells]
        head = f"#check\t{i}\t"
        parts.append(head + head.join(tails[id(row)]))
    return "".join(parts)


def serialize_result(result: DocumentResult) -> bytes:
    text = result.text
    parts = [f"#doc {result.document_id}\n#len {len(text)}\n{text}\n"]
    for ann in result.annotations:
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
    parts.append(_check_section(result.annotations))
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
_VERDICT_NAMES = _by_value(ConsistencyVerdict)

# The verdict<TAB>expected of each cell, by row id, built once per row the
# keys share; the table keeps rows alive.
_ROW_TEXT = {
    key: [f"{verdict.value}\t{'-' if group is None else group.value}" for verdict, group in row]
    for key, row in {id(row): row for row in _VERDICTS.values()}.items()
}

# A canonical integer as a regex group.
_INT = "(0|[1-9][0-9]*)"


def _one_of(members: dict) -> str:
    """A regex group matching exactly the keys of *members*."""
    return "(" + "|".join(map(re.escape, members)) + ")"


def _record_pattern(annotator: str, features: str) -> re.Pattern[str]:
    """The record lines of *annotator* whose feature field matches *features*."""
    return re.compile(f"{_INT}\t{_INT}\t{annotator}\t([^\t\r]*)\t{features}")


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


def _mutation_build(
    span: Span, covered: str, values: list[str | None]
) -> MutationAnnotation:
    gene, polarity, number, kind, exon_begin, exon_end = values[:6]
    point, point_begin, point_end, implied = values[6:]
    exon = None
    if number is not None:
        exon = ExonMention(
            Span(int(exon_begin), int(exon_end)), int(number), _EXON_KINDS.get(kind)
        )
    mutation_point = None
    if point is not None:
        mutation_point = MutationPoint(
            Span(int(point_begin), int(point_end)), _POINTS[point]
        )
    return MutationAnnotation(
        span, _GENES[gene], _POLARITIES[polarity], exon, mutation_point, implied == "true"
    )


# Keyed by each class's ``annotator`` name, in the order ``oncospan annotate``
# reports counts in.  A builder or decoder raises ValueError where the
# annotation rejects a value, and a decoder MalformedFile where the features
# do.
ANNOTATION_TYPES: dict[str, AnnotationType] = {
    MutationAnnotation.annotator: AnnotationType(
        frozenset({"gene", "polarity", "implied"}),
        _mutation_features,
        _record_pattern(
            MutationAnnotation.annotator,
            f"gene={_one_of(_GENES)};polarity={_one_of(_POLARITIES)};"
            f"(?:exon={_INT};(?:exon_kind={_one_of(_EXON_KINDS)};)?"
            f"exon_begin={_INT};exon_end={_INT};)?"
            f"(?:point={_one_of(_POINTS)};point_begin={_INT};point_end={_INT};)?"
            "implied=(true|false)",
        ),
        _mutation_build,
        _mutation_from,
        _EXON_KEYS | _POINT_KEYS | {"exon_kind"},
    ),
    TNMAnnotation.annotator: AnnotationType(
        frozenset({"prefix", "t", "n", "m"}),
        lambda a: [(key, getattr(a, key).value) for key in ("prefix", "t", "n", "m")],
        _record_pattern(
            TNMAnnotation.annotator,
            f"prefix={_one_of(_PREFIXES)};t={_one_of(_TS)};"
            f"n={_one_of(_NS)};m={_one_of(_MS)}",
        ),
        lambda span, covered, v: TNMAnnotation(
            span, _PREFIXES[v[0]], _TS[v[1]], _NS[v[2]], _MS[v[3]], covered
        ),
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
        _record_pattern(StageAnnotation.annotator, f"stage={_one_of(_STAGES)}"),
        lambda span, covered, v: StageAnnotation(span, _STAGES[v[0]], covered),
        lambda span, covered, f, line_no: StageAnnotation(
            span, _parse_enum(_STAGES, f["stage"], "stage group", line_no), covered
        ),
    ),
    PSAnnotation.annotator: AnnotationType(
        frozenset({"scale", "value"}),
        lambda a: [("scale", a.scale.value), ("value", str(a.value))],
        _record_pattern(PSAnnotation.annotator, f"scale={_one_of(_SCALES)};value={_INT}"),
        lambda span, covered, v: PSAnnotation(span, _SCALES[v[0]], int(v[1]), covered),
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
    if not content.endswith("\n"):
        last = first_line + content.count("\n", text_end + 1)
        raise MalformedFile("file must end with a newline", last)
    # Records, #diag lines, then the #check section: from the first line that
    # starts with "#check\t", as no record or #diag line does, to the end.
    check_at = content.find("\n#check\t", text_end) + 1 or len(content)
    lines = content[text_end + 1 : check_at].split("\n")
    lines.pop()

    annotations: list[Annotation] = []
    i = 0
    while i < len(lines) and not lines[i].startswith("#"):
        annotations.append(_parse_record(lines[i], text, first_line + i))
        i += 1
    diagnostics: list[Diagnostic] = []
    while i < len(lines) and lines[i].startswith("#diag\t"):
        diagnostics.append(_parse_diag(lines[i], len(text), first_line + i))
        i += 1
    if i < len(lines):
        _parse_check(lines[i], annotations, first_line + i)  # raises: out of place
    # The section must be what serialize_result writes for these records,
    # which is nothing when they hold no (TNM, stage) pair.
    section = content[check_at:]
    expected = _check_section(annotations)
    if section != expected:
        _reject_check_section(section, expected, annotations, first_line + len(lines))

    return DocumentResult(
        document_id=document_id,
        text=text,
        annotations=tuple(annotations),
        diagnostics=tuple(diagnostics),
    )


def _parse_record(line: str, text: str, line_no: int) -> Annotation:
    fields = line.split("\t", 3)
    kind = ANNOTATION_TYPES.get(fields[2]) if len(fields) == 4 else None
    match = None if kind is None else kind.pattern.fullmatch(line)
    if match:
        begin, end, covered, *values = match.groups()
        try:
            span = Span(int(begin), int(end))
            if span.end <= len(text):
                covered = _unescape(covered, line_no)
                if text[span.begin : span.end] == covered:
                    return kind.build(span, covered, values)
        except ValueError:  # an integer int() cannot convert, or a bad value
            pass
    _reject_record(line, text, line_no)


def _reject_record(line: str, text: str, line_no: int) -> NoReturn:
    """Raise for the record *line*, which is not one the decoder accepts: at
    its first malformed field, or else because its features are out of order."""
    fields = line.split("\t")
    if len(fields) != 5:
        raise MalformedFile("record needs 5 tab-separated fields", line_no)
    begin_raw, end_raw, annotator, covered_raw, features_raw = fields
    kind = ANNOTATION_TYPES.get(annotator)
    if kind is None:
        raise MalformedFile(f"unknown annotator {annotator!r}", line_no)
    span = _parse_span(begin_raw, end_raw, len(text), line_no)
    if "\r" in covered_raw:  # serialize_result escapes every one
        raise MalformedFile("raw carriage return in covered text", line_no)
    covered = _unescape(covered_raw, line_no)
    if text[span.begin : span.end] != covered:
        raise SpanMismatch(
            f"line {line_no}: covered text {covered!r} does not match "
            f"text[{span.begin}:{span.end}]"
        )
    features = _parse_features(features_raw, annotator, kind, line_no)
    try:
        kind.decode(span, covered, features, line_no)
    except ValueError as exc:
        raise MalformedFile(str(exc), line_no) from None
    raise MalformedFile(
        f"features of {annotator!r} are not in canonical order", line_no
    )


def _parse_diag(line: str, text_len: int, line_no: int) -> Diagnostic:
    fields = line.split("\t")
    if len(fields) != 4:
        raise MalformedFile("#diag needs 4 tab-separated fields", line_no)
    span = _parse_span(fields[1], fields[2], text_len, line_no)
    if "\r" in fields[3]:
        raise MalformedFile("raw carriage return in #diag message", line_no)
    return Diagnostic(span, _unescape(fields[3], line_no))


def _parse_check(line: str, annotations: list[Annotation], line_no: int) -> None:
    """Check a line of the #check section field by field, raising the first
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
    for raw, cls in ((fields[1], TNMAnnotation), (fields[2], StageAnnotation)):
        index = _parse_int(raw, f"{cls.annotator} record index", line_no)
        if index >= len(annotations) or not isinstance(annotations[index], cls):
            raise MalformedFile(f"index {index} is not a {cls.annotator} record", line_no)
    verdict = _parse_enum(_VERDICT_NAMES, fields[3], "verdict", line_no)
    if fields[4] != "-":
        _parse_enum(_STAGES, fields[4], "stage group", line_no)
    if (fields[4] == "-") != (verdict is ConsistencyVerdict.NOT_COMPARABLE):
        raise MalformedFile("expected group is set exactly when comparable", line_no)


def _reject_check_section(
    section: str, expected: str, annotations: list[Annotation], line_no: int
) -> NoReturn:
    """Raise for the #check *section* from *line_no*, which is not *expected*:
    at its first malformed line, or else at the first line that differs."""
    lines = section.split("\n")
    for k, line in enumerate(lines[:-1]):
        _parse_check(line, annotations, line_no + k)
    # Both end in "", so a missing line differs at the end of the file.
    for k, (line, want) in enumerate(zip(lines, expected.split("\n"))):
        if line != want:
            raise MalformedFile(
                "#check section is not the pairing of the records: expected "
                + (repr(want) if want else "the end of the file"),
                line_no + k,
            )


def read_standoff(data: bytes) -> StandoffFile:
    """Decode *data* with the strict ``deserialize_result``, which checks every
    line and raises as it does, and return its id, text and records."""
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
