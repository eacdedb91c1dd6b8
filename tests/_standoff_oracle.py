"""The line-by-line standoff decoder: one validation call per field.

The executable specification of ``standoff.deserialize_result``, which
matches each record line with one canonical pattern, compares the ``#check``
section with the one the records give as one string, and runs these
diagnostics only when a match or that comparison misses.  For every input
both must return equal results or raise the same exception class with the
same line number (``test_standoff.py`` checks this property on serialized
pipeline results and single-line mutations of them).  Integers are
canonical ASCII decimals: ``0`` or ``[1-9][0-9]*``.  Covered text and
``#diag`` messages hold no raw carriage return, which the encoder always
escapes; the check comes after the span and before the escapes.  A record's feature keys
come in the order ``serialize_result`` writes them; a record that breaks
only that rule is rejected after every other check.  Records come
first, then ``#diag`` lines; every line from the first that is neither must
be the ``#check`` section of the records: every (TNM, stage) pair in record
order, TNM-major, checked by ``staging.check_consistency`` and named by
their positions.  Its fields are not read one by one: the first line that
differs from that pairing, or the end of the file when lines are missing, is
the error, named by what the line is.
"""

import re

from oncospan.assertion import Polarity
from oncospan.document import Diagnostic, Span
from oncospan.errors import MalformedFile, SpanMismatch
from oncospan.mutation import (
    ExonKind,
    ExonMention,
    Gene,
    MutationAnnotation,
    MutationPoint,
    PointVariant,
)
from oncospan.perfstatus import PSAnnotation, PSScale
from oncospan.pipeline import DocumentResult
from oncospan.staging import (
    MCategory,
    NCategory,
    StageAnnotation,
    StageGroup,
    TCategory,
    TNMAnnotation,
    TnmPrefix,
    check_consistency,
)

_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _unescape(value, line_no):
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(value) or value[i + 1] not in _UNESCAPE:
            raise MalformedFile("bad escape sequence", line_no)
        out.append(_UNESCAPE[value[i + 1]])
        i += 2
    return "".join(out)


_CANONICAL_INT = re.compile(r"0|[1-9][0-9]*")


def _parse_int(raw, what, line_no):
    if not _CANONICAL_INT.fullmatch(raw):
        raise MalformedFile(f"{what} is not an integer: {raw!r}", line_no)
    try:
        return int(raw)
    except ValueError:  # more digits than int() converts
        raise MalformedFile(f"{what} is not an integer: {raw!r}", line_no) from None


def _parse_enum(enum_cls, raw, what, line_no):
    try:
        return enum_cls(raw)
    except ValueError:
        raise MalformedFile(f"unknown {what} {raw!r}", line_no) from None


def _parse_span(begin, end, text_len, line_no):
    b = _parse_int(begin, "begin", line_no)
    e = _parse_int(end, "end", line_no)
    if b < 0 or e <= b or e > text_len:
        raise MalformedFile(f"span [{b}, {e}) out of bounds", line_no)
    return Span(b, e)


_EXON_KEYS = frozenset({"exon", "exon_begin", "exon_end"})
_POINT_KEYS = frozenset({"point", "point_begin", "point_end"})

# annotator -> (required keys, optional keys)
_KEYS = {
    "mutation": (
        frozenset({"gene", "polarity", "implied"}),
        _EXON_KEYS | _POINT_KEYS | {"exon_kind"},
    ),
    "tnm": (frozenset({"prefix", "t", "n", "m"}), frozenset()),
    "stage": (frozenset({"stage"}), frozenset()),
    "ps": (frozenset({"scale", "value"}), frozenset()),
}


# annotator -> every feature key, in the order a record lists those it holds
_ORDER = {
    "mutation": (
        "gene", "polarity", "exon", "exon_kind", "exon_begin", "exon_end",
        "point", "point_begin", "point_end", "implied",
    ),
    "tnm": ("prefix", "t", "n", "m"),
    "stage": ("stage",),
    "ps": ("scale", "value"),
}


def _parse_features(raw, annotator, line_no):
    required, optional = _KEYS[annotator]
    features = {}
    for item in raw.split(";"):
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise MalformedFile(f"bad feature item {item!r}", line_no)
        if key in features:
            raise MalformedFile(f"duplicate feature key {key!r}", line_no)
        if key not in required and key not in optional:
            raise MalformedFile(
                f"unknown feature key {key!r} for annotator {annotator!r}", line_no
            )
        features[key] = value
    missing = required - features.keys()
    if missing:
        raise MalformedFile(
            f"missing feature keys: {', '.join(sorted(missing))}", line_no
        )
    return features


def _mutation_from(span, covered, features, line_no):
    gene = _parse_enum(Gene, features["gene"], "gene", line_no)
    polarity = _parse_enum(Polarity, features["polarity"], "polarity", line_no)
    implied_raw = features["implied"]
    if implied_raw not in ("true", "false"):
        raise MalformedFile(f"implied must be true/false, got {implied_raw!r}", line_no)
    exon = None
    if _EXON_KEYS & features.keys():
        if _EXON_KEYS - features.keys():
            raise MalformedFile("incomplete exon feature group", line_no)
        kind = None
        if "exon_kind" in features:
            kind = _parse_enum(ExonKind, features["exon_kind"], "exon kind", line_no)
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
            _parse_enum(PointVariant, features["point"], "mutation point", line_no),
        )
    return MutationAnnotation(
        span, gene, polarity, exon, point, implied_raw == "true"
    )


def _tnm_from(span, covered, f, line_no):
    return TNMAnnotation(
        span,
        _parse_enum(TnmPrefix, f["prefix"], "prefix", line_no),
        _parse_enum(TCategory, f["t"], "T category", line_no),
        _parse_enum(NCategory, f["n"], "N category", line_no),
        _parse_enum(MCategory, f["m"], "M category", line_no),
        covered,
    )


def _stage_from(span, covered, f, line_no):
    return StageAnnotation(
        span, _parse_enum(StageGroup, f["stage"], "stage group", line_no), covered
    )


def _ps_from(span, covered, f, line_no):
    return PSAnnotation(
        span,
        _parse_enum(PSScale, f["scale"], "scale", line_no),
        _parse_int(f["value"], "value", line_no),
        covered,
    )


_DECODERS = {
    "mutation": _mutation_from,
    "tnm": _tnm_from,
    "stage": _stage_from,
    "ps": _ps_from,
}


def deserialize_result(data: bytes) -> DocumentResult:
    try:
        content = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"not valid UTF-8: {exc}") from None

    nl1 = content.find("\n")
    if nl1 == -1 or not content.startswith("#doc "):
        raise MalformedFile("first line must be '#doc <id>'", 1)
    document_id = content[5:nl1]
    # Document's id rule: the id ends at the first newline, and decoded
    # UTF-8 holds no lone surrogate, so only emptiness, tab and CR remain.
    if not document_id or "\t" in document_id or "\r" in document_id:
        raise MalformedFile("document id must be non-empty, without tab or CR", 1)

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
    if lines and lines[-1] == "":
        lines.pop()
    else:
        raise MalformedFile("file must end with a newline", first_line + len(lines) - 1)

    annotations = []
    diagnostics = []
    section = "records"
    checks_at = len(lines)
    for offset, line in enumerate(lines):
        line_no = first_line + offset
        if line.startswith("#diag\t"):
            section = "diags"
            fields = line.split("\t")
            if len(fields) != 4:
                raise MalformedFile("#diag needs 4 tab-separated fields", line_no)
            span = _parse_span(fields[1], fields[2], len(text), line_no)
            if "\r" in fields[3]:
                raise MalformedFile("raw carriage return in #diag message", line_no)
            diagnostics.append(Diagnostic(span, _unescape(fields[3], line_no)))
            continue
        if line.startswith("#") or section != "records":
            checks_at = offset  # the #check section starts here
            break
        fields = line.split("\t")
        if len(fields) != 5:
            raise MalformedFile("record needs 5 tab-separated fields", line_no)
        begin_raw, end_raw, annotator, covered_raw, features_raw = fields
        if annotator not in _DECODERS:
            raise MalformedFile(f"unknown annotator {annotator!r}", line_no)
        span = _parse_span(begin_raw, end_raw, len(text), line_no)
        if "\r" in covered_raw:
            raise MalformedFile("raw carriage return in covered text", line_no)
        covered = _unescape(covered_raw, line_no)
        if text[span.begin : span.end] != covered:
            raise SpanMismatch(
                f"line {line_no}: covered text {covered!r} does not match "
                f"text[{span.begin}:{span.end}]"
            )
        features = _parse_features(features_raw, annotator, line_no)
        try:
            annotation = _DECODERS[annotator](span, covered, features, line_no)
        except ValueError as exc:
            raise MalformedFile(str(exc), line_no) from None
        # Last of all, the keys must come in the order serialize_result
        # writes them.
        if list(features) != [key for key in _ORDER[annotator] if key in features]:
            raise MalformedFile("features not in canonical order", line_no)
        annotations.append(annotation)

    # The lines from there on must be the records' pairing, line for line.
    # The first line that differs is the error, named by what it is; a
    # missing line is reported where it would start, at the end of the file.
    pairing = [
        _check_line(i, j, check_consistency(tnm, stage))
        for i, tnm in enumerate(annotations)
        if isinstance(tnm, TNMAnnotation)
        for j, stage in enumerate(annotations)
        if isinstance(stage, StageAnnotation)
    ]
    checks = lines[checks_at:]
    for k in range(max(len(checks), len(pairing))):
        line = checks[k] if k < len(checks) else None
        want = pairing[k] if k < len(pairing) else None
        if line == want:
            continue
        line_no = first_line + checks_at + k
        if line is None:
            raise MalformedFile("missing #check line", line_no)
        if line.startswith("#check\t"):
            what = "extra #check line" if want is None else "#check line differs"
            raise MalformedFile(what, line_no)
        if line.startswith("#diag\t"):
            raise MalformedFile("#diag after #check", line_no)
        if line.startswith("#"):
            raise MalformedFile(f"unknown directive {line.split(chr(9))[0]!r}", line_no)
        raise MalformedFile("record after #diag/#check section", line_no)

    return DocumentResult(
        document_id=document_id,
        text=text,
        annotations=tuple(annotations),
        diagnostics=tuple(diagnostics),
    )


def _check_line(i, j, report):
    """The #check line of *report* on the records at positions *i* and *j*."""
    expected = "-" if report.expected is None else report.expected.value
    return f"#check\t{i}\t{j}\t{report.verdict.value}\t{expected}"
