"""Tumor mutation annotations: EGFR, ALK, ROS1.

Gene mentions are matched on the normalized shadow text, so "Ros-1" and
"ROS1" both hit.  EGFR mentions attach the nearest exon mention and the
nearest known point mutation from the same sentence.  An exon or point in a
sentence that never names EGFR yields an implied EGFR annotation, since
these exons and points are only reported for that gene in this domain.
"""

import re
import unicodedata
from bisect import bisect_left
from typing import Sequence

from ._textops import NUMBER
from ._typesystem import (
    _EXONS, ExonKind, ExonMention, Gene, MutationAnnotation, MutationPoint, PointVariant,
    Polarity, Span,
)
from .assertion import CueLexicon, polarity_in_view
from .document import SentenceView

# One group per gene, in the order of _GENES.
_GENE_RE = re.compile(r"(?<![0-9a-z])(?:(egfr)|(alk)|(ros[ \-]?1))(?![0-9a-z])")
_GENES = (None, Gene.EGFR, Gene.ALK, Gene.ROS1)
_POINTS = [p.value.lower() for p in PointVariant]
_POINT_RE = re.compile(r"(?<![0-9a-z])(" + "|".join(_POINTS) + r")(?![0-9a-z])")

_EXON_KEYWORD = "exon"
_EXON_LOOKAHEAD = 2  # tokens after the keyword that may hold the number

# Anchors on the folded shadow, one of which every mutation annotation
# contains: a gene name (ROS1 as _GENE_RE matches it, since the literal "ros"
# starts inside "otros"), a point variant or the exon keyword.  The pipeline
# analyses only the sentences that hold an enabled annotator's anchor.
ANCHOR = ("egfr", "alk", re.compile(r"ros[ \-]?1"), *_POINTS, _EXON_KEYWORD)

_KIND_CUES = {
    "del": ExonKind.DELETION,
    "delecion": ExonKind.DELETION,
    "ins": ExonKind.INSERTION,
    "insercion": ExonKind.INSERTION,
}


def gene_mentions_in_view(view: SentenceView) -> list[tuple[Gene, Span]]:
    out = []
    for m in _GENE_RE.finditer(view.norm):
        out.append((_GENES[m.lastindex], view.orig_span(m.start(), m.end())))
    return out


def exon_mentions_in_view(view: SentenceView) -> list[ExonMention]:
    # Every token surface is a part of the shadow.
    if _EXON_KEYWORD not in view.norm:
        return []
    out = []
    tokens = view.tokens
    surfaces = view.norm_surfaces
    for i, surf in enumerate(surfaces):
        if surf != _EXON_KEYWORD:
            continue
        num_idx = -1
        for j in range(i + 1, min(i + 1 + _EXON_LOOKAHEAD, len(tokens))):
            if tokens[j][2] == NUMBER:
                num_idx = j
                break
        if num_idx == -1:
            continue
        num_begin, num_end, _ = tokens[num_idx]
        surface = view.text[num_begin:num_end]
        # int() refuses runs of more than 4,300 digits; a nonzero digit
        # before the last two already puts the number out of range.
        if any(unicodedata.decimal(c) for c in surface[:-2]):
            continue
        number = int(surface[-2:])
        if number not in _EXONS:
            continue
        # del/ins may sit up to two tokens before the keyword or after the
        # number, nearest first.
        kind = None
        for k in (i - 1, i - 2, num_idx + 1, num_idx + 2):
            if 0 <= k < len(tokens) and surfaces[k] in _KIND_CUES:
                kind = _KIND_CUES[surfaces[k]]
                break
        span = Span(view.base + tokens[i][0], view.base + num_end)
        out.append(ExonMention(span, number, kind))
    return out


def mutation_points_in_view(view: SentenceView) -> list[MutationPoint]:
    out = []
    for m in _POINT_RE.finditer(view.norm):
        out.append(
            MutationPoint(
                view.orig_span(m.start(), m.end()),
                PointVariant[m.group(1).upper()],
            )
        )
    return out


def _nearest(view: SentenceView, items: Sequence):
    """A lookup of the item nearest a span in tokens, the earliest of a tie.

    Each item span holds a token, since every character whose fold is in
    [0-9a-z] is a token character.  The items' first and last tokens never
    decrease in text order (an exon ends at the first number after its
    keyword), so one of two items is nearest: the first to end at the latest
    token before the span, and the first of the rest.
    """
    if not items:
        return lambda span: None
    ranges = [view.token_range(item.span) for item in items]
    lasts = [hi for _, hi in ranges]

    def nearest(span: Span):
        first, last = view.token_range(span)
        k = bisect_left(lasts, first)
        gaps = [(max(0, ranges[k][0] - last), k)] if k < len(items) else []
        if k:
            gaps.append((first - lasts[k - 1], bisect_left(lasts, lasts[k - 1])))
        return items[min(gaps)[1]]

    return nearest


def annotate_view(
    view: SentenceView,
    lexicon: CueLexicon,
    genes: frozenset[Gene] = frozenset(Gene),
) -> list[MutationAnnotation]:
    mentions = gene_mentions_in_view(view)
    exons = exon_mentions_in_view(view)
    points = mutation_points_in_view(view)
    nearest_exon, nearest_point = _nearest(view, exons), _nearest(view, points)
    out: list[MutationAnnotation] = []
    for gene, span in mentions:
        if gene not in genes:
            continue
        polarity = polarity_in_view(view, span, lexicon)
        exon = point = None
        if gene is Gene.EGFR:
            exon, point = nearest_exon(span), nearest_point(span)
        out.append(MutationAnnotation(span, gene, polarity, exon, point, False))
    sentence_names_egfr = any(g is Gene.EGFR for g, _ in mentions)
    if Gene.EGFR in genes and not sentence_names_egfr and (exons or points):
        # Each exon with its nearest point, then each point no exon took.
        pairs = [(exon, nearest_point(exon.span)) for exon in exons]
        taken = {point for _, point in pairs}
        pairs += [(None, point) for point in points if point not in taken]
        for exon, point in pairs:
            span = (exon or point).span
            out.append(
                MutationAnnotation(
                    span, Gene.EGFR, _implied_polarity(view, span, lexicon), exon, point, True
                )
            )
    out.sort(key=lambda a: (a.span.begin, a.span.end))
    return out


def _implied_polarity(view: SentenceView, span: Span, lexicon: CueLexicon) -> Polarity:
    # Writing out an exon or point asserts the finding unless it is
    # explicitly negated.
    found = polarity_in_view(view, span, lexicon)
    return Polarity.NEGATIVE if found is Polarity.NEGATIVE else Polarity.POSITIVE
