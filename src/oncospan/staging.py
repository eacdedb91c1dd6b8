"""TNM expressions, stage groups, and the mapping between them.

The M0 grid and the M1 rows reproduce the 8th-edition lung-cancer stage
grouping.  Coarse inputs (T1, T2, M1 without a sub-letter) resolve only
when every covered cell agrees; T1,N0,M0 collapses to coarse IA because its
cells differ only in the substage digit.

``tnm_to_stage_group`` and ``stage_covers`` define the rule.  The
consistency check reads a verdict table built from them at import: each
(T, N, M) key points at the row of its expected group, or at the
not-comparable row when the key is ambiguous, and a row holds the
(verdict, expected group) for each written stage.
"""

import re
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Sequence

from .document import SentenceView, Span
from .errors import AmbiguousCategory, InvalidStage


class TnmPrefix(Enum):
    NONE = "None"
    C = "C"
    P = "P"
    YC = "YC"
    YP = "YP"
    R = "R"
    A = "A"


class TCategory(Enum):
    T1 = "T1"
    T1A = "T1a"
    T1B = "T1b"
    T1C = "T1c"
    T2 = "T2"
    T2A = "T2a"
    T2B = "T2b"
    T3 = "T3"
    T4 = "T4"


class NCategory(Enum):
    N0 = "N0"
    N1 = "N1"
    N2 = "N2"
    N3 = "N3"


class MCategory(Enum):
    M0 = "M0"
    M1 = "M1"
    M1A = "M1a"
    M1B = "M1b"
    M1C = "M1c"


class StageGroup(Enum):
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


@dataclass(frozen=True, slots=True)
class TNMAnnotation:
    annotator: ClassVar[str] = "tnm"
    span: Span
    prefix: TnmPrefix
    t: TCategory
    n: NCategory
    m: MCategory
    raw: str


@dataclass(frozen=True, slots=True)
class StageAnnotation:
    annotator: ClassVar[str] = "stage"
    span: Span
    stage: StageGroup
    raw: str


class ConsistencyVerdict(Enum):
    CONSISTENT = "Consistent"
    INCONSISTENT = "Inconsistent"
    NOT_COMPARABLE = "NotComparable"


@dataclass(frozen=True, slots=True)
class ConsistencyReport:
    tnm: TNMAnnotation
    stage: StageAnnotation
    verdict: ConsistencyVerdict
    expected: StageGroup | None

    def __post_init__(self):
        if (self.expected is None) != (
            self.verdict is ConsistencyVerdict.NOT_COMPARABLE
        ):
            raise ValueError("expected group is set exactly when comparable")


_T_BY_KEY = {t.value.lower(): t for t in TCategory}
_N_BY_KEY = {n.value.lower(): n for n in NCategory}
_M_BY_KEY = {m.value.lower(): m for m in MCategory}
_PREFIX_BY_KEY = {p.value.lower(): p for p in TnmPrefix if p is not TnmPrefix.NONE}
_STAGE_BY_KEY = {s.value: s for s in StageGroup}

_SEP = r"[ \-_:.]?"
_T = r"t(?:1[abc]?|2[ab]?|3|4)"
_TNM_RE = re.compile(
    r"(?<![0-9a-z])(yc|yp|c|p|r|a)?"
    r"(" + _T + r")" + _SEP + r"(n[0-3])" + _SEP + r"(m(?:0|1[abc]?))"
    r"(?![0-9a-z])"
)

# Roman numeral, optional letter, optional digit, separators allowed between
# components; a closing parenthesis may trail ("I(A1)").
_STAGE_SEP = r"[\-_.() ]*"
_STAGE_RE = re.compile(
    r"(?<![0-9a-z])"
    r"(?:iv|i{1,3})"
    r"(?:" + _STAGE_SEP + r"[abc](?:" + _STAGE_SEP + r"[123])?)?"
    r"\)?"
    r"(?![0-9a-z])"
)

_TRIGGERS = frozenset({"estadio", "stage"})
_TRIGGER_DISTANCE = 3

# Literals on the folded shadow that every annotation contains (see
# mutation.ANCHOR): the T and N categories of a TNM expression, and the
# trigger token that a stage needs.
TNM_ANCHOR = _T + _SEP + r"n[0-3]"
STAGE_ANCHOR = "|".join(sorted(_TRIGGERS))


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


def tnm_in_view(view: SentenceView) -> list[TNMAnnotation]:
    out = []
    for m in _TNM_RE.finditer(view.norm):
        span = view.orig_span(m.start(), m.end())
        prefix = (
            _PREFIX_BY_KEY[m.group(1)] if m.group(1) is not None else TnmPrefix.NONE
        )
        out.append(
            TNMAnnotation(
                span,
                prefix,
                _T_BY_KEY[m.group(2)],
                _N_BY_KEY[m.group(3)],
                _M_BY_KEY[m.group(4)],
                view.covered(span),
            )
        )
    return out


def stages_in_view(view: SentenceView) -> list[StageAnnotation]:
    out = []
    for m in _STAGE_RE.finditer(view.norm):
        span = view.orig_span(m.start(), m.end())
        rng = view.token_range(span)
        if rng is None or not _has_trigger(view, rng[0]):
            continue
        try:
            stage = normalize_stage(view.covered(span))
        except InvalidStage:
            continue
        out.append(StageAnnotation(span, stage, view.covered(span)))
    return out


def _has_trigger(view: SentenceView, first_token: int) -> bool:
    lo = max(0, first_token - _TRIGGER_DISTANCE)
    return any(
        view.norm_surfaces[i] in _TRIGGERS for i in range(lo, first_token)
    )


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
    collapsed = _collapse_to_letter(groups)
    if collapsed is not None:
        return collapsed
    cells = ", ".join(sorted(g.value for g in groups))
    raise AmbiguousCategory(f"{t.value} {n.value} M0 spans {cells}")


def _stage_parts(stage: StageGroup) -> tuple[str, str | None, str | None]:
    m = re.fullmatch(r"(IV|I{1,3})([ABC])?([123])?", stage.value)
    assert m is not None
    return m.group(1), m.group(2), m.group(3)


def _collapse_to_letter(groups: set[StageGroup]) -> StageGroup | None:
    parts = [_stage_parts(g) for g in groups]
    romans = {p[0] for p in parts}
    letters = {p[1] for p in parts}
    if len(romans) != 1 or len(letters) != 1 or None in letters:
        return None
    return _STAGE_BY_KEY[next(iter(romans)) + next(iter(letters))]


def check_consistency(tnm: TNMAnnotation, stage: StageAnnotation) -> ConsistencyReport:
    verdict, expected = _VERDICTS[tnm.t, tnm.n, tnm.m][_STAGE_INDEX[stage.stage]]
    return ConsistencyReport(tnm, stage, verdict, expected)


def consistency_reports(
    tnms: Sequence[TNMAnnotation], stages: Sequence[StageAnnotation]
) -> list[ConsistencyReport]:
    """``check_consistency`` of every (TNM, stage) pair, TNM-major."""
    columns = [(stage, _STAGE_INDEX[stage.stage]) for stage in stages]
    reports = []
    for tnm in tnms:
        row = _VERDICTS[tnm.t, tnm.n, tnm.m]
        reports += [
            ConsistencyReport(tnm, stage, *row[i]) for stage, i in columns
        ]
    return reports


def stage_covers(written: StageGroup, expected: StageGroup) -> bool:
    """True when *written* equals *expected* or coarsely subsumes it."""
    if written is expected:
        return True
    if written not in COARSE_STAGES:
        return False
    wr, wl, wd = _stage_parts(written)
    er, el, ed = _stage_parts(expected)
    if wr != er:
        return False
    if wl is not None and wl != el:
        return False
    if wd is not None and wd != ed:
        return False
    return True


_STAGE_INDEX = {stage: i for i, stage in enumerate(StageGroup)}


def _verdict_row(
    expected: StageGroup | None,
) -> tuple[tuple[ConsistencyVerdict, StageGroup | None], ...]:
    if expected is None:
        return ((ConsistencyVerdict.NOT_COMPARABLE, None),) * len(StageGroup)
    return tuple(
        (
            ConsistencyVerdict.CONSISTENT
            if stage_covers(written, expected)
            else ConsistencyVerdict.INCONSISTENT,
            expected,
        )
        for written in StageGroup
    )


def _verdict_table() -> dict[tuple[TCategory, NCategory, MCategory], tuple]:
    rows: dict[StageGroup | None, tuple] = {}
    table = {}
    for t in TCategory:
        for n in NCategory:
            for m in MCategory:
                try:
                    expected = tnm_to_stage_group(t, n, m)
                except AmbiguousCategory:
                    expected = None
                if expected not in rows:
                    rows[expected] = _verdict_row(expected)
                table[t, n, m] = rows[expected]
    return table


# Row of (verdict, expected) for each (T, N, M), indexed by _STAGE_INDEX of
# the written stage; the keys with one expected group share one row.
_VERDICTS = _verdict_table()


def parse_tnm(text: str) -> list[TNMAnnotation]:
    return tnm_in_view(SentenceView(text))


def parse_stage(text: str) -> list[StageAnnotation]:
    return stages_in_view(SentenceView(text))


__all__ = [
    "TnmPrefix",
    "TCategory",
    "NCategory",
    "MCategory",
    "StageGroup",
    "COARSE_STAGES",
    "TNMAnnotation",
    "StageAnnotation",
    "ConsistencyVerdict",
    "ConsistencyReport",
    "parse_tnm",
    "parse_stage",
    "normalize_stage",
    "tnm_to_stage_group",
    "check_consistency",
    "consistency_reports",
    "stage_covers",
]
