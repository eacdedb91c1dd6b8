"""The type system: each value and annotation type, declared once.

Annotators create these annotations, ``standoff`` and ``sqlexport`` store
them and ``query`` reads them, each importing the types from here, so a
process that only reads records loads no annotator.  The features a record
stores are declared in ``standoff`` and the query filters in ``query``, the
modules that read them.  The public names are also bound in the modules
that ``oncospan`` exports them from.

The 8th-edition stage grouping is here too, for the ``#check`` section,
the stage filter and ``DocumentResult.consistency``.  Coarse inputs (T1,
T2, M1 without a sub-letter) resolve only when every covered cell agrees;
T1,N0,M0 collapses to coarse IA because its cells differ only in the
substage digit.  ``_verdicts`` is the one verdict rule: a written stage
is not comparable when the (T, N, M) key is ambiguous, else consistent
exactly when it covers the expected group; it runs on a key's first use.
"""

import re
from enum import Enum
from functools import cache
from typing import NamedTuple, Union

from .errors import AmbiguousCategory, InvalidStage

_BAD_ID_CHAR = re.compile("[\t\n\r\ud800-\udfff]")


def checked_tuple(name: str, fields: list[tuple[str, object]]) -> type:
    """The ``NamedTuple`` base of a value type whose ``__new__`` checks its
    fields: ``_make``, and so ``_replace``, build through that ``__new__``."""
    base = NamedTuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class IdentityEnum(Enum):
    """An enum whose members hash by identity, as they compare, in C."""
    __hash__ = object.__hash__


class Span(checked_tuple("Span", [("begin", int), ("end", int)])):
    __slots__ = ()

    def __new__(cls, begin, end):
        if begin < 0 or end <= begin:
            raise ValueError(f"invalid span [{begin}, {end})")
        return tuple.__new__(cls, (begin, end))


def check_document_id(document_id: str) -> None:
    """Raise ValueError unless *document_id* can name a document.

    The id heads a standoff file on a line of its own, so it is non-empty
    and holds no tab, newline, carriage return or lone surrogate.
    """
    if not document_id:
        raise ValueError("document id must be non-empty")
    if _BAD_ID_CHAR.search(document_id):
        raise ValueError(
            "document id must not hold a tab, newline, carriage return or lone surrogate"
        )


class Diagnostic(NamedTuple):
    """A non-fatal finding tied to a text location."""

    span: Span
    message: str


class AnnotatorKind(IdentityEnum):
    EGFR = "EGFR"
    ALK = "ALK"
    ROS1 = "ROS1"
    TNM = "TNM"
    STAGE = "Stage"
    ECOG = "ECOG"
    KARNOFSKY = "Karnofsky"


class Polarity(IdentityEnum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    UNKNOWN = "Unknown"


class Gene(IdentityEnum):
    EGFR = "EGFR"
    ALK = "ALK"
    ROS1 = "ROS1"


class ExonKind(IdentityEnum):
    DELETION = "Deletion"
    INSERTION = "Insertion"


class PointVariant(IdentityEnum):
    G719X = "G719X"
    T790M = "T790M"
    L858R = "L858R"
    L861Q = "L861Q"


# The EGFR exons a mention may name.
_EXONS = range(18, 22)


class ExonMention(
    checked_tuple("ExonMention", [("span", Span), ("number", int), ("kind", ExonKind | None)])
):
    __slots__ = ()

    def __new__(cls, span, number, kind):
        if number not in _EXONS:
            raise ValueError(f"exon {number} outside the EGFR range {_EXONS[0]}-{_EXONS[-1]}")
        return tuple.__new__(cls, (span, number, kind))


class MutationPoint(NamedTuple):
    span: Span
    value: PointVariant


class MutationAnnotation(
    checked_tuple(
        "MutationAnnotation",
        [("span", Span), ("gene", Gene), ("polarity", Polarity), ("exon", ExonMention | None),
         ("point", MutationPoint | None), ("implied", bool)],
    )
):
    __slots__ = ()
    annotator = "mutation"

    def __new__(cls, span, gene, polarity, exon, point, implied):
        if gene is not Gene.EGFR and (exon is not None or point is not None or implied):
            raise ValueError("exon, point and implied apply to EGFR only")
        return tuple.__new__(cls, (span, gene, polarity, exon, point, implied))


class TnmPrefix(IdentityEnum):
    NONE = "None"
    C = "C"
    P = "P"
    YC = "YC"
    YP = "YP"
    R = "R"
    A = "A"


class TCategory(IdentityEnum):
    T1 = "T1"
    T1A = "T1a"
    T1B = "T1b"
    T1C = "T1c"
    T2 = "T2"
    T2A = "T2a"
    T2B = "T2b"
    T3 = "T3"
    T4 = "T4"


class NCategory(IdentityEnum):
    N0 = "N0"
    N1 = "N1"
    N2 = "N2"
    N3 = "N3"


class MCategory(IdentityEnum):
    M0 = "M0"
    M1 = "M1"
    M1A = "M1a"
    M1B = "M1b"
    M1C = "M1c"


class StageGroup(IdentityEnum):
    I = "I"
    IA = "IA"
    IA1 = "IA1"
    IA2 = "IA2"
    IA3 = "IA3"
    IB = "IB"
    II = "II"
    IIA = "IIA"
    IIB = "IIB"
    III = "III"
    IIIA = "IIIA"
    IIIB = "IIIB"
    IIIC = "IIIC"
    IV = "IV"
    IVA = "IVA"
    IVB = "IVB"


COARSE_STAGES = frozenset(
    {StageGroup.I, StageGroup.IA, StageGroup.II, StageGroup.III, StageGroup.IV}
)


class TNMAnnotation(NamedTuple):
    annotator = "tnm"
    span: Span
    prefix: TnmPrefix
    t: TCategory
    n: NCategory
    m: MCategory
    raw: str


class StageAnnotation(NamedTuple):
    annotator = "stage"
    span: Span
    stage: StageGroup
    raw: str


class PSScale(IdentityEnum):
    ECOG = "ECOG"
    KARNOFSKY = "Karnofsky"


# The largest value of each scale; every value from 0 up to it is valid.
_LIMIT = {PSScale.ECOG: 5, PSScale.KARNOFSKY: 100}


class PSAnnotation(
    checked_tuple(
        "PSAnnotation",
        [("span", Span), ("scale", PSScale), ("value", int), ("raw", str)],
    )
):
    __slots__ = ()
    annotator = "ps"

    def __new__(cls, span, scale, value, raw):
        limit = _LIMIT[scale]
        if not 0 <= value <= limit:
            raise ValueError(f"{scale.value} value {value} outside 0-{limit}")
        return tuple.__new__(cls, (span, scale, value, raw))


Annotation = Union[MutationAnnotation, TNMAnnotation, StageAnnotation, PSAnnotation]


class ConsistencyVerdict(IdentityEnum):
    CONSISTENT = "Consistent"
    INCONSISTENT = "Inconsistent"
    NOT_COMPARABLE = "NotComparable"


class ConsistencyReport(
    checked_tuple(
        "ConsistencyReport",
        [("tnm", TNMAnnotation), ("stage", StageAnnotation),
         ("verdict", ConsistencyVerdict), ("expected", StageGroup | None)],
    )
):
    __slots__ = ()

    def __new__(cls, tnm, stage, verdict, expected):
        if (expected is None) != (verdict is ConsistencyVerdict.NOT_COMPARABLE):
            raise ValueError("expected group is set exactly when comparable")
        return tuple.__new__(cls, (tnm, stage, verdict, expected))


class DocumentResult(NamedTuple):
    document_id: str
    text: str
    annotations: tuple[Annotation, ...] = ()
    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def consistency(self) -> tuple[ConsistencyReport, ...]:
        """Every (TNM, stage) pair's 8th-edition check, TNM-major, built on
        each read."""
        tnms = [a for a in self.annotations if isinstance(a, TNMAnnotation)]
        stages = [a for a in self.annotations if isinstance(a, StageAnnotation)]
        return tuple(check_consistency(t, s) for t in tnms for s in stages)


T = TCategory
N = NCategory
S = StageGroup

_M0_TABLE = {
    (T.T1A, N.N0): S.IA1,
    (T.T1A, N.N1): S.IIB,
    (T.T1A, N.N2): S.IIIA,
    (T.T1A, N.N3): S.IIIB,
    (T.T1B, N.N0): S.IA2,
    (T.T1B, N.N1): S.IIB,
    (T.T1B, N.N2): S.IIIA,
    (T.T1B, N.N3): S.IIIB,
    (T.T1C, N.N0): S.IA3,
    (T.T1C, N.N1): S.IIB,
    (T.T1C, N.N2): S.IIIA,
    (T.T1C, N.N3): S.IIIB,
    (T.T2A, N.N0): S.IB,
    (T.T2A, N.N1): S.IIB,
    (T.T2A, N.N2): S.IIIA,
    (T.T2A, N.N3): S.IIIB,
    (T.T2B, N.N0): S.IIA,
    (T.T2B, N.N1): S.IIB,
    (T.T2B, N.N2): S.IIIA,
    (T.T2B, N.N3): S.IIIB,
    (T.T3, N.N0): S.IIB,
    (T.T3, N.N1): S.IIIA,
    (T.T3, N.N2): S.IIIB,
    (T.T3, N.N3): S.IIIC,
    (T.T4, N.N0): S.IIIA,
    (T.T4, N.N1): S.IIIA,
    (T.T4, N.N2): S.IIIB,
    (T.T4, N.N3): S.IIIC,
}

_COARSE_T = {
    T.T1: (T.T1A, T.T1B, T.T1C),
    T.T2: (T.T2A, T.T2B),
}

del T, N, S

_STAGE_BY_KEY = {s.value: s for s in StageGroup}


def normalize_stage(raw: str) -> StageGroup:
    key = re.sub(r"[\-_.() \t\n\r]+", "", raw).upper()
    stage = _STAGE_BY_KEY.get(key)
    if stage is None:
        raise InvalidStage(f"{raw!r} does not normalize to a stage group")
    return stage


def tnm_to_stage_group(t: TCategory, n: NCategory, m: MCategory) -> StageGroup:
    if m in (MCategory.M1A, MCategory.M1B):
        return StageGroup.IVA
    if m is MCategory.M1C:
        return StageGroup.IVB
    if m is MCategory.M1:
        raise AmbiguousCategory("M1 without sub-letter spans IVA and IVB")
    subcategories = _COARSE_T.get(t)
    if subcategories is None:
        return _M0_TABLE[(t, n)]
    groups = {_M0_TABLE[(sub, n)] for sub in subcategories}
    if len(groups) == 1:
        return next(iter(groups))
    # Cells that differ only in the substage digit collapse to its letter.
    letters = {g.value.rstrip("123") for g in groups}
    if len(letters) == 1:
        return _STAGE_BY_KEY[letters.pop()]
    cells = ", ".join(sorted(g.value for g in groups))
    raise AmbiguousCategory(f"{t.value} {n.value} M0 spans {cells}")


def check_consistency(tnm: TNMAnnotation, stage: StageAnnotation) -> ConsistencyReport:
    expected, verdicts = _verdicts(tnm.t, tnm.n, tnm.m)
    return ConsistencyReport(tnm, stage, verdicts[stage.stage], expected)


def stage_covers(written: StageGroup, expected: StageGroup) -> bool:
    """True when *written* equals *expected* or coarsely subsumes it."""
    if written is expected:
        return True
    # A coarse stage covers each group that extends it by a letter or a
    # digit; one that extends its numeral ("I" to "II") is another stage.
    rest = expected.value.removeprefix(written.value)
    return written in COARSE_STAGES and rest != expected.value and rest[0] not in "IV"


@cache
def _verdicts(
    t: TCategory, n: NCategory, m: MCategory
) -> tuple[StageGroup | None, dict[StageGroup, ConsistencyVerdict]]:
    """The expected group of (*t*, *n*, *m*), None when it is ambiguous, and
    the verdict on each written stage: not comparable when ambiguous, else
    consistent exactly when the written stage covers the expected group."""
    try:
        expected = tnm_to_stage_group(t, n, m)
    except AmbiguousCategory:
        return None, dict.fromkeys(StageGroup, ConsistencyVerdict.NOT_COMPARABLE)
    return expected, {
        written: ConsistencyVerdict.CONSISTENT
        if stage_covers(written, expected)
        else ConsistencyVerdict.INCONSISTENT
        for written in StageGroup
    }
