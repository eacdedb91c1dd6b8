"""Tumor mutation annotations: EGFR, ALK, ROS1.

Gene mentions are matched on the normalized shadow text, so "Ros-1" and
"ROS1" both hit.  EGFR mentions attach the nearest exon mention and the
nearest known point mutation from the same sentence.  An exon or point in a
sentence that never names EGFR yields an implied EGFR annotation, since
these exons and points are only reported for that gene in this domain.
"""

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Sequence

from ._textops import NUMBER
from .assertion import CueLexicon, Polarity, polarity_in_view
from .document import SentenceView, Span


class Gene(Enum):
    EGFR = "EGFR"
    ALK = "ALK"
    ROS1 = "ROS1"


class ExonKind(Enum):
    DELETION = "Deletion"
    INSERTION = "Insertion"


class PointVariant(Enum):
    G719X = "G719X"
    T790M = "T790M"
    L858R = "L858R"
    L861Q = "L861Q"


@dataclass(frozen=True, slots=True)
class ExonMention:
    span: Span
    number: int
    kind: ExonKind | None

    def __post_init__(self):
        if not 18 <= self.number <= 21:
            raise ValueError(f"exon {self.number} outside the EGFR range 18-21")


@dataclass(frozen=True, slots=True)
class MutationPoint:
    span: Span
    value: PointVariant


@dataclass(frozen=True, slots=True)
class MutationAnnotation:
    annotator: ClassVar[str] = "mutation"
    span: Span
    gene: Gene
    polarity: Polarity
    exon: ExonMention | None
    point: MutationPoint | None
    implied: bool

    def __post_init__(self):
        if self.gene is not Gene.EGFR and (
            self.exon is not None or self.point is not None or self.implied
        ):
            raise ValueError("exon, point and implied apply to EGFR only")


_GENE_RE = re.compile(r"(?<![0-9a-z])(egfr|alk|ros[ \-]?1)(?![0-9a-z])")
_POINT_RE = re.compile(r"(?<![0-9a-z])(g719x|t790m|l858r|l861q)(?![0-9a-z])")

_EXON_KEYWORD = "exon"
_EXON_LOOKAHEAD = 2  # tokens after the keyword that may hold the number

# Literals on the folded shadow that every mutation annotation contains: a
# gene name, a point variant or the exon keyword.  The pipeline analyses
# only the sentences that hold one of the enabled annotators' anchors.
ANCHOR = "|".join(
    ["egfr", "alk", "ros", *(p.value.lower() for p in PointVariant), _EXON_KEYWORD]
)

_KIND_CUES = {
    "del": ExonKind.DELETION,
    "delecion": ExonKind.DELETION,
    "ins": ExonKind.INSERTION,
    "insercion": ExonKind.INSERTION,
}


def _classify_gene(matched: str) -> Gene:
    if matched == "egfr":
        return Gene.EGFR
    if matched == "alk":
        return Gene.ALK
    return Gene.ROS1


def gene_mentions_in_view(view: SentenceView) -> list[tuple[Gene, Span]]:
    out = []
    for m in _GENE_RE.finditer(view.norm):
        out.append((_classify_gene(m.group(1)), view.orig_span(m.start(), m.end())))
    return out


def exon_mentions_in_view(view: SentenceView) -> list[ExonMention]:
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
        if not 18 <= number <= 21:
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


def _token_distance(view: SentenceView, a: Span, b: Span) -> int:
    ra = view.token_range(a)
    rb = view.token_range(b)
    if ra is None or rb is None:
        return abs(a.begin - b.begin)
    if rb[0] > ra[1]:
        return rb[0] - ra[1]
    if ra[0] > rb[1]:
        return ra[0] - rb[1]
    return 0


def _nearest(view: SentenceView, anchor: Span, items: Sequence, key=lambda x: x.span):
    if not items:
        return None
    return min(
        items,
        key=lambda item: (_token_distance(view, anchor, key(item)), key(item).begin),
    )


def annotate_view(
    view: SentenceView,
    lexicon: CueLexicon,
    genes: frozenset[Gene] = frozenset(Gene),
) -> list[MutationAnnotation]:
    mentions = gene_mentions_in_view(view)
    exons = exon_mentions_in_view(view)
    points = mutation_points_in_view(view)
    out: list[MutationAnnotation] = []
    for gene, span in mentions:
        if gene not in genes:
            continue
        polarity = polarity_in_view(view, span, lexicon)
        exon = point = None
        if gene is Gene.EGFR:
            exon = _nearest(view, span, exons)
            point = _nearest(view, span, points)
        out.append(MutationAnnotation(span, gene, polarity, exon, point, False))
    sentence_names_egfr = any(g is Gene.EGFR for g, _ in mentions)
    if Gene.EGFR in genes and not sentence_names_egfr and (exons or points):
        taken: set[MutationPoint] = set()
        for exon in exons:
            point = _nearest(view, exon.span, points)
            if point is not None:
                taken.add(point)
            out.append(
                MutationAnnotation(
                    exon.span,
                    Gene.EGFR,
                    _implied_polarity(view, exon.span, lexicon),
                    exon,
                    point,
                    True,
                )
            )
        for point in points:
            if point in taken:
                continue
            out.append(
                MutationAnnotation(
                    point.span,
                    Gene.EGFR,
                    _implied_polarity(view, point.span, lexicon),
                    None,
                    point,
                    True,
                )
            )
    out.sort(key=lambda a: (a.span.begin, a.span.end))
    return out


def _implied_polarity(view: SentenceView, span: Span, lexicon: CueLexicon) -> Polarity:
    # Writing out an exon or point asserts the finding unless it is
    # explicitly negated.
    found = polarity_in_view(view, span, lexicon)
    return Polarity.NEGATIVE if found is Polarity.NEGATIVE else Polarity.POSITIVE


def find_gene_mentions(text: str) -> list[tuple[Gene, Span]]:
    view = SentenceView(text)
    return gene_mentions_in_view(view)


def find_exon_mentions(text: str) -> list[ExonMention]:
    view = SentenceView(text)
    return exon_mentions_in_view(view)


def find_mutation_points(text: str) -> list[MutationPoint]:
    view = SentenceView(text)
    return mutation_points_in_view(view)


__all__ = [
    "Gene",
    "ExonKind",
    "PointVariant",
    "ExonMention",
    "MutationPoint",
    "MutationAnnotation",
    "find_gene_mentions",
    "find_exon_mentions",
    "find_mutation_points",
    "annotate_view",
]
