"""TNM expressions and stage groups found in text.

A TNM expression is matched on the normalized shadow with its optional
prefix and separators ("pT1a N0 M0", "ypT2b-N1-M0").  A stage group needs a
staging trigger ("estadio", "stage") at most three tokens before it, and
normalizes through ``normalize_stage`` ("I-A1", "IIIb", "I(A1)").  The
8th-edition grouping and the consistency verdicts live in ``_typesystem``
with the types; the names bound here from it are the ones this module has
always offered.
"""

import re

from ._typesystem import (
    COARSE_STAGES, ConsistencyReport, ConsistencyVerdict, MCategory, NCategory,
    StageAnnotation, StageGroup, TCategory, TNMAnnotation, TnmPrefix, check_consistency,
    normalize_stage, stage_covers, tnm_to_stage_group,
)
from .document import SentenceView
from .errors import InvalidStage

_T_BY_KEY = {t.value.lower(): t for t in TCategory}
_N_BY_KEY = {n.value.lower(): n for n in NCategory}
_M_BY_KEY = {m.value.lower(): m for m in MCategory}
_PREFIX_BY_KEY = {p.value.lower(): p for p in TnmPrefix if p is not TnmPrefix.NONE}

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

# What every annotation contains on the folded shadow (see
# mutation.ANCHOR): for a TNM expression, its T and N categories, matched
# by a pattern; for a stage, one of the trigger literals.
TNM_ANCHOR = _T + _SEP + r"n[0-3]"
STAGE_ANCHOR = tuple(sorted(_TRIGGERS))


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


def parse_tnm(text: str) -> list[TNMAnnotation]:
    return tnm_in_view(SentenceView(text))


def parse_stage(text: str) -> list[StageAnnotation]:
    return stages_in_view(SentenceView(text))
