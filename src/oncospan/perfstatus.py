"""Performance status: ECOG (0-5) and Karnofsky (0-100).

Keyword plus nearby integer, tolerant of the separators clinicians actually
type ("ECOG-PS 0", "ECOG_PS: 0", "ECOG (3)", "Karnofsky: 100%").  Out-of-
range values produce a diagnostic instead of an annotation; a Karnofsky
value that is not a multiple of ten is annotated but flagged.
"""

import re

from ._typesystem import _LIMIT, Diagnostic, PSAnnotation, PSScale
from .document import SentenceView

_PS_SEP_CHARS = r" :\-_()."
_PS_SEP = "[" + _PS_SEP_CHARS + "]*"
# Patterns on the folded shadow that every annotation and diagnostic of the
# scale starts with: the keyword, then a separator, a digit or (ECOG only)
# the "p" of "ps".  "Ecografía" matches neither.
ECOG_ANCHOR = "ecog[" + _PS_SEP_CHARS + "p0-9]"
KARNOFSKY_ANCHOR = "k(?:arnofsky|ps)[" + _PS_SEP_CHARS + "0-9]"

_ECOG_RE = re.compile(
    r"(?<![0-9a-z])ecog(?:" + _PS_SEP + r"ps)?" + _PS_SEP +
    r"([0-9]+)(?![0-9a-z])\)?"
)
_KARNOFSKY_RE = re.compile(
    r"(?<![0-9a-z])(?:karnofsky|kps)" + _PS_SEP +
    r"([0-9]+)(?![0-9a-z])(?: ?%)?\)?"
)


def ecog_in_view(view: SentenceView) -> tuple[list[PSAnnotation], list[Diagnostic]]:
    return _scan(view, _ECOG_RE, PSScale.ECOG)


def karnofsky_in_view(
    view: SentenceView,
) -> tuple[list[PSAnnotation], list[Diagnostic]]:
    annotations, diagnostics = _scan(view, _KARNOFSKY_RE, PSScale.KARNOFSKY)
    for ann in annotations:
        if ann.value % 10 != 0:
            diagnostics.append(
                Diagnostic(
                    ann.span,
                    f"Karnofsky value {ann.value} is not a multiple of 10",
                )
            )
    return annotations, diagnostics


def _scan(
    view: SentenceView, pattern: re.Pattern, scale: PSScale
) -> tuple[list[PSAnnotation], list[Diagnostic]]:
    limit = _LIMIT[scale]
    annotations = []
    diagnostics = []
    for m in pattern.finditer(view.norm):
        span = view.orig_span(m.start(), m.end())
        # The decimal form of the value, without converting it: int() refuses
        # runs of more than 4,300 digits, and any run with more significant
        # digits than the limit is out of range anyway.
        digits = m.group(1).lstrip("0") or "0"
        if len(digits) > len(str(limit)) or int(digits) > limit:
            diagnostics.append(
                Diagnostic(
                    span,
                    f"{scale.value} value {digits} outside 0-{limit}",
                )
            )
            continue
        annotations.append(
            PSAnnotation(span, scale, int(digits), view.covered(span))
        )
    return annotations, diagnostics
