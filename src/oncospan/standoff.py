"""Per-document standoff files (.ann).

Layout, all UTF-8:

    #doc <document id>
    #len <source text length in code points>
    <source text, exactly that many code points, then one newline>
    <one record per line>
    <#diag lines>
    <#check lines>

Record line: ``begin<TAB>end<TAB>annotator<TAB>covered_text<TAB>features``
with features ``key=value;key=value``.  ``ANNOTATION_TYPES``, below, is the
one place a record type is defined: it declares each annotator's features in
the order a record lists them, and the encoder behind ``features_of``, the
record pattern, the builder, the reader that joins those two and the error
namer are all derived from that declaration.  Covered text and diagnostic
messages escape backslash, tab, newline and carriage return so one record is
always one line, and a raw carriage return in them is rejected.  ``#diag``
carries a diagnostic (begin, end, message); ``#check`` carries a consistency
report as two record indexes, the verdict and the expected group (``-`` when
not comparable); the section is every (TNM, stage) pair, TNM-major, with the
verdict of ``_typesystem``'s one rule, each record named by its position
among the records.  Every integer is a canonical ASCII decimal,
``0`` or ``[1-9][0-9]*``, and the id follows
``_typesystem.check_document_id``.  Deserialization is the exact inverse of
serialization and is strict: anything unexpected raises MalformedFile with a
line number, and a covered-text disagreement raises SpanMismatch.  A record
line goes to its type's reader: one ``fullmatch`` of the pattern, which
admits exactly the line the encoder writes, then the span, the covered text
and the values the annotation itself rejects.  The error namer runs only on
a line the reader refuses, reading it field by field, and one with nothing
else wrong has its features out of canonical order.  The readers are made on
the first decode, so a process that only writes records never builds them.
Everything after the ``#diag`` lines must be the ``#check`` section the
records give, compared as one string, so a well-formed section that is not
that pairing is rejected.  Only a mismatch is read line by line, to name the
first line that differs: a line that is not a ``#check`` line by what it is,
a wrong or missing ``#check`` line by the line expected there.
"""

import re
import typing
from functools import cache
from itertools import groupby, zip_longest
from operator import attrgetter
from typing import Callable, NamedTuple, NoReturn, Sequence

from ._typesystem import (
    Annotation, Diagnostic, DocumentResult, ExonKind, Gene, MCategory,
    MutationAnnotation, NCategory, PointVariant, Polarity, PSAnnotation, PSScale, Span,
    StageAnnotation, StageGroup, TCategory, TNMAnnotation, TnmPrefix, _verdicts,
    check_document_id, checked_tuple,
)
from .errors import MalformedFile, SpanMismatch


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


class Feature(
    checked_tuple(
        "Feature", [("key", str), ("domain", type), ("path", str), ("optional", bool)]
    )
):
    """One feature of a record type; see ``ANNOTATION_TYPES``.

    The *domain* is an Enum class (a record holds the member's value), int (a
    canonical decimal) or bool (true or false).  The *path* of the value on
    the annotation is the key unless given.  A dotted path reads inside an
    object the annotation may lack, such as a mutation's exon: the features
    under it form its group, which a record holds whole or not at all.  An
    *optional* feature is left out, within its group, when the value is None.
    """

    __slots__ = ()

    def __new__(cls, key, domain, path=None, optional=False):
        return tuple.__new__(cls, (key, domain, path or key, optional))

    @property
    def group(self) -> str | None:
        head, dot, _ = self.path.partition(".")
        return head if dot else None


class AnnotationType(NamedTuple):
    """One record type: the annotation class and its features, in the order
    a record lists them.  The class's ``span`` field is the record's span and
    its ``raw`` field, if any, the covered text."""

    cls: type
    features: tuple[Feature, ...]


# Keyed by each class's ``annotator`` name, in the order ``oncospan annotate``
# reports counts in.  The last feature of each type is in no group.
ANNOTATION_TYPES: dict[str, AnnotationType] = {
    MutationAnnotation.annotator: AnnotationType(
        MutationAnnotation,
        (
            Feature("gene", Gene),
            Feature("polarity", Polarity),
            Feature("exon", int, "exon.number"),
            Feature("exon_kind", ExonKind, "exon.kind", optional=True),
            Feature("exon_begin", int, "exon.span.begin"),
            Feature("exon_end", int, "exon.span.end"),
            Feature("point", PointVariant, "point.value"),
            Feature("point_begin", int, "point.span.begin"),
            Feature("point_end", int, "point.span.end"),
            Feature("implied", bool),
        ),
    ),
    TNMAnnotation.annotator: AnnotationType(
        TNMAnnotation,
        (Feature("prefix", TnmPrefix), Feature("t", TCategory), Feature("n", NCategory),
         Feature("m", MCategory)),
    ),
    StageAnnotation.annotator: AnnotationType(
        StageAnnotation, (Feature("stage", StageGroup),)
    ),
    PSAnnotation.annotator: AnnotationType(
        PSAnnotation, (Feature("scale", PSScale), Feature("value", int))
    ),
}


def _values(domain: type) -> dict | None:
    """The value each string a file may hold for *domain* stands for, or None
    for int, whose strings are the canonical decimals."""
    if domain is bool:
        return {"true": True, "false": False}
    return None if domain is int else {member.value: member for member in domain}


# The encoder and the builder of a type are compiled from Python source made
# from its declaration, so that a record costs what hand-written code would.
# The source holds only the declaration's keys, paths and class names.
def _encoder(features: tuple[Feature, ...]) -> Callable[[Annotation], list[tuple[str, str]]]:
    """``features_of`` for the annotations of one type: ``(key, text)`` for
    each feature the annotation holds, in declaration order."""
    parts = []
    for group, run in groupby(features, attrgetter("group")):
        items = []
        for f in run:
            value = f"a.{f.path}"
            text = (
                f"str({value})" if f.domain is int
                else f'"true" if {value} else "false"' if f.domain is bool
                else f"{value}.value"
            )
            item = f"({f.key!r}, {text})"
            items.append(f"*(() if {value} is None else [{item}])" if f.optional else item)
        part = ", ".join(items)
        parts.append(part if group is None else f"*(() if a.{group} is None else [{part}])")
    return eval(f"lambda a: [{', '.join(parts)}]", {})


_ENCODERS = {name: _encoder(kind.features) for name, kind in ANNOTATION_TYPES.items()}


def features_of(ann: Annotation) -> list[tuple[str, str]]:
    """Feature pairs of *ann* as its standoff record and SQL rows hold them."""
    return _ENCODERS[ann.annotator](ann)


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
    try:
        # A backslash and the character after it, if any; re compiles the
        # pattern on its first use and caches it.
        return re.sub(r"(?s)\\(.?)", lambda match: _UNESCAPE[match[1]], value)
    except KeyError:
        raise MalformedFile("bad escape sequence", line_no) from None


@cache
def _cell_texts(
    t: TCategory, n: NCategory, m: MCategory
) -> tuple[StageGroup | None, dict[StageGroup, str]]:
    """The expected group of (*t*, *n*, *m*) and, for each written stage, the
    ``verdict<TAB>expected`` end of its ``#check`` line."""
    expected, verdicts = _verdicts(t, n, m)
    group = "-" if expected is None else expected.value
    return expected, {w: f"{v.value}\t{group}\n" for w, v in verdicts.items()}


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
    cells = [(f"{j}\t", stage.stage) for j, stage in stages]
    # The TNMs with one expected group share the tails of their lines.
    tails: dict[StageGroup | None, list[str]] = {}
    parts = []
    for i, tnm in tnms:
        expected, text = _cell_texts(tnm.t, tnm.n, tnm.m)
        if expected not in tails:
            tails[expected] = [j + text[w] for j, w in cells]
        head = f"#check\t{i}\t"
        parts.append(head + head.join(tails[expected]))
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


# A canonical integer as a regex group.
_INT = "(0|[1-9][0-9]*)"


def _pattern(annotator: str, features: tuple[Feature, ...]) -> re.Pattern[str]:
    """The record lines of *annotator* that hold *features* as the encoder
    writes them; it captures begin, end and covered text, then one value
    per feature."""
    parts = []
    for group, run in groupby(features, attrgetter("group")):
        items = ""
        for f in run:
            values = _values(f.domain)
            value = _INT if values is None else "(" + "|".join(map(re.escape, values)) + ")"
            item = f"{f.key}={value};"
            items += f"(?:{item})?" if f.optional else item
        parts.append(items if group is None else f"(?:{items})?")
    # The last feature is in no group, so the line ends at its separator.
    return re.compile(f"{_INT}\t{_INT}\t{annotator}\t([^\t\r]*)\t{''.join(parts)[:-1]}")


def _field_class(cls: type, name: str) -> type:
    """The class of field *name* of *cls*, which may also hold None."""
    hint = typing.get_type_hints(cls)[name]
    return next(c for c in typing.get_args(hint) or (hint,) if c is not type(None))


def _builder(kind: AnnotationType) -> Callable[[Span, str, Sequence[str | None]], Annotation]:
    """The annotation from a record's span, covered text and the feature
    values ``v`` the pattern captured (None for an absent feature), in
    declaration order.  It raises ValueError where the annotation rejects a
    value."""
    index = {f.path: i for i, f in enumerate(kind.features)}
    namespace = {
        f"t{i}": _values(f.domain) for i, f in enumerate(kind.features) if f.domain is not int
    }

    def construct(cls: type, prefix: str) -> str:
        args = []
        for name in cls._fields:
            path = prefix + name
            i = index.get(path)
            if i is not None:
                f = kind.features[i]
                args.append(
                    f"int(v[{i}])" if f.domain is int
                    else f"t{i}.get(v[{i}])" if f.optional else f"t{i}[v[{i}]]"
                )
            elif path in ("span", "raw"):
                args.append("span" if path == "span" else "covered")
            else:
                nested = construct(_field_class(cls, name), f"{path}.")
                if not prefix:  # a group, absent with its first required feature
                    first = next(
                        i for i, f in enumerate(kind.features)
                        if f.group == name and not f.optional
                    )
                    nested = f"None if v[{first}] is None else {nested}"
                args.append(nested)
        namespace[cls.__name__] = cls
        return f"{cls.__name__}({', '.join(args)})"

    return eval(f"lambda span, covered, v: {construct(kind.cls, '')}", namespace)


@cache
def _readers() -> dict[str, tuple[Callable, Callable]]:
    """Each annotator's reader and builder, made on first decode: a process
    that only writes records, as ``oncospan annotate`` does, makes none."""
    return {name: _reader(name, kind) for name, kind in ANNOTATION_TYPES.items()}


def _reader(annotator: str, kind: AnnotationType) -> tuple[Callable, Callable]:
    """The reader of *annotator*'s record lines and the builder it joins to
    the pattern.  The reader returns the annotation of a line, given the
    source text, or None for a line the decoder does not accept."""
    fullmatch, build = _pattern(annotator, kind.features).fullmatch, _builder(kind)

    def read(line: str, text: str) -> Annotation | None:
        match = fullmatch(line)
        if match is None:
            return None
        begin, end, covered, *values = match.groups()
        try:
            # Span() refuses an empty or reversed span.
            b, e = int(begin), int(end)
            if e <= len(text):
                if "\\" in covered:
                    covered = _unescape(covered, None)
                if text[b:e] == covered:
                    return build(Span(b, e), covered, values)
        except (ValueError, MalformedFile):  # a huge integer, a bad span, value or escape
            return None

    return read, build


def _parse_span(begin: str, end: str, text_len: int, line_no: int) -> Span:
    b = _parse_int(begin, "begin", line_no)
    e = _parse_int(end, "end", line_no)
    if e <= b or e > text_len:
        raise MalformedFile(f"span [{b}, {e}) out of bounds", line_no)
    return Span(b, e)


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

    # Line numbers, 4 + text.count("\n") on, are counted only where needed.
    if not content.endswith("\n"):
        last = 4 + text.count("\n") + content.count("\n", text_end + 1)
        raise MalformedFile("file must end with a newline", last)
    # Records, #diag lines, then the #check section: from the first line that
    # starts with "#check\t", as no record or #diag line does, to the end.
    check_at = content.find("\n#check\t", text_end) + 1 or len(content)
    lines = content[text_end + 1 : check_at].split("\n")
    lines.pop()

    annotations: list[Annotation] = []
    readers = _readers()
    for line in lines:
        if line.startswith("#"):
            break
        fields = line.split("\t", 3)
        reader = readers.get(fields[2]) if len(fields) == 4 else None
        annotation = reader and reader[0](line, text)
        if annotation is None:
            # Looked up at call time, so that a test can patch it.
            _reject_record(line, text, 4 + text.count("\n") + len(annotations))
        annotations.append(annotation)
    i = len(annotations)
    first_line = 4 + text.count("\n") if i < len(lines) else None
    diagnostics: list[Diagnostic] = []
    while i < len(lines) and lines[i].startswith("#diag\t"):
        diagnostics.append(_parse_diag(lines[i], len(text), first_line + i))
        i += 1
    # The rest must be what serialize_result writes for these records, which
    # is nothing when they hold no (TNM, stage) pair.
    expected = _check_section(annotations)
    if i < len(lines) or content[check_at:] != expected:
        rest = lines[i:] + content[check_at:].split("\n")[:-1]
        _reject_check_section(rest, expected, 4 + text.count("\n") + i)

    return DocumentResult(document_id, text, tuple(annotations), tuple(diagnostics))


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
    items: dict[str, str] = {}
    keys = {f.key for f in kind.features}
    for item in features_raw.split(";"):
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise MalformedFile(f"bad feature item {item!r}", line_no)
        if key in items:
            raise MalformedFile(f"duplicate feature key {key!r}", line_no)
        if key not in keys:
            raise MalformedFile(
                f"unknown feature key {key!r} for annotator {annotator!r}", line_no
            )
        items[key] = value
    # The declared features in order: each is present unless it is optional
    # or its group is absent, and its value is in its domain.
    for group, run in groupby(kind.features, attrgetter("group")):
        run = list(run)
        missing = [f.key for f in run if not f.optional and f.key not in items]
        if missing and (group is None or any(f.key in items for f in run)):
            raise MalformedFile(f"missing feature key {missing[0]!r}", line_no)
        for f in run:
            raw = items.get(f.key)
            if raw is not None and f.domain is int:
                _parse_int(raw, f.key, line_no)
            elif raw is not None and raw not in _values(f.domain):
                raise MalformedFile(f"unknown {f.key} value {raw!r}", line_no)
    try:
        _readers()[annotator][1](span, covered, [items.get(f.key) for f in kind.features])
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


def _reject_check_section(lines: list[str], expected: str, line_no: int) -> NoReturn:
    """Raise for *lines*, the last lines of the file from *line_no* on, which
    are not the #check section *expected*: at the first line that differs,
    over both whole lists, so a line past the end of either differs."""
    for k, (line, want) in enumerate(zip_longest(lines, expected.split("\n")[:-1])):
        if line != want:
            break
    line_no += k
    if line is None or line.startswith("#check\t"):
        raise MalformedFile(
            "#check section is not the pairing of the records: expected "
            + ("the end of the file" if want is None else repr(want)),
            line_no,
        )
    if line.startswith("#diag\t"):
        raise MalformedFile("#diag after #check", line_no)
    if line.startswith("#"):
        raise MalformedFile(f"unknown directive {line.split(chr(9))[0]!r}", line_no)
    raise MalformedFile("record after #diag/#check section", line_no)


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
