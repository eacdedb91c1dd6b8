"""Document-level queries over annotation results.

A predicate is a conjunction of optional filters; a document matches when
every set filter is satisfied by at least one of its annotations.  The
stage filter accepts coarse groups: stage=IV matches documents staged IVA
or IVB.
"""

import re
from dataclasses import dataclass
from typing import Sequence

from .assertion import Polarity
from .errors import EmptyPredicate, InvalidFilter, InvalidStage
from .mutation import Gene, MutationAnnotation
from .perfstatus import PSAnnotation, PSScale
from .pipeline import DocumentResult
from .staging import (
    _M_BY_KEY,
    _N_BY_KEY,
    _T_BY_KEY,
    MCategory,
    NCategory,
    StageAnnotation,
    StageGroup,
    TCategory,
    TNMAnnotation,
    normalize_stage,
    stage_covers,
)


@dataclass(frozen=True, slots=True)
class QueryPredicate:
    gene: Gene | None = None
    polarity: Polarity | None = None
    stage: StageGroup | None = None
    ecog: tuple[int, int] | None = None
    karnofsky: tuple[int, int] | None = None
    t: TCategory | None = None
    n: NCategory | None = None
    m: MCategory | None = None

    def __post_init__(self):
        if all(
            getattr(self, f) is None
            for f in ("gene", "polarity", "stage", "ecog", "karnofsky", "t", "n", "m")
        ):
            raise EmptyPredicate("predicate has no filters")
        for rng in (self.ecog, self.karnofsky):
            if rng is not None and rng[0] > rng[1]:
                raise ValueError(f"empty range {rng[0]}..{rng[1]}")


def matches(result: DocumentResult, predicate: QueryPredicate) -> bool:
    anns = result.annotations
    if predicate.gene is not None or predicate.polarity is not None:
        found = any(
            isinstance(a, MutationAnnotation)
            and (predicate.gene is None or a.gene is predicate.gene)
            and (predicate.polarity is None or a.polarity is predicate.polarity)
            for a in anns
        )
        if not found:
            return False
    if predicate.stage is not None:
        if not any(
            isinstance(a, StageAnnotation) and stage_covers(predicate.stage, a.stage)
            for a in anns
        ):
            return False
    if predicate.ecog is not None:
        if not _any_ps(anns, PSScale.ECOG, predicate.ecog):
            return False
    if predicate.karnofsky is not None:
        if not _any_ps(anns, PSScale.KARNOFSKY, predicate.karnofsky):
            return False
    for field_name, want in (("t", predicate.t), ("n", predicate.n), ("m", predicate.m)):
        if want is not None:
            if not any(
                isinstance(a, TNMAnnotation) and getattr(a, field_name) is want
                for a in anns
            ):
                return False
    return True


def _any_ps(anns, scale: PSScale, rng: tuple[int, int]) -> bool:
    lo, hi = rng
    return any(
        isinstance(a, PSAnnotation) and a.scale is scale and lo <= a.value <= hi
        for a in anns
    )


def query_results(
    results: Sequence[DocumentResult], predicate: QueryPredicate
) -> list[str]:
    return [r.document_id for r in results if matches(r, predicate)]


_GENE_BY_NAME = {g.value.lower(): g for g in Gene}
_POLARITY_BY_NAME = {
    "pos": Polarity.POSITIVE,
    "positive": Polarity.POSITIVE,
    "neg": Polarity.NEGATIVE,
    "negative": Polarity.NEGATIVE,
    "unk": Polarity.UNKNOWN,
    "unknown": Polarity.UNKNOWN,
}

# ASCII digits only, as in the .ann files the filters are matched against.
_RANGE_RE = re.compile(r"([0-9]+)(?:\.\.([0-9]+))?")


def _parse_range(value: str) -> tuple[int, int]:
    m = _RANGE_RE.fullmatch(value)
    if m is None:
        raise InvalidFilter(f"expected N or N..M, got {value!r}")
    try:
        lo = int(m.group(1))
        hi = int(m.group(2)) if m.group(2) is not None else lo
    except ValueError:  # int() refuses more than 4,300 digits
        raise InvalidFilter("range bound has too many digits") from None
    if lo > hi:
        raise InvalidFilter(f"empty range {value!r}")
    return (lo, hi)


def parse_filter(expression: str) -> QueryPredicate:
    """Parse a CLI filter: comma-separated key=value pairs.

    Keys: gene, polarity, stage, ecog, karnofsky, t, n, m.  Ranges are
    ``N`` or ``N..M``; polarity accepts POS/NEG/UNK or the long names;
    stage accepts separator variants ("I-A1").
    """
    fields: dict[str, object] = {}
    items = [item.strip() for item in expression.split(",") if item.strip()]
    if not items:
        raise InvalidFilter("empty filter expression")
    for item in items:
        key, sep, value = item.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not sep or not value:
            raise InvalidFilter(f"expected key=value, got {item!r}")
        if key in fields:
            raise InvalidFilter(f"duplicate key {key!r}")
        if key == "gene":
            gene = _GENE_BY_NAME.get(value.lower())
            if gene is None:
                raise InvalidFilter(f"unknown gene {value!r}")
            fields[key] = gene
        elif key == "polarity":
            polarity = _POLARITY_BY_NAME.get(value.lower())
            if polarity is None:
                raise InvalidFilter(f"unknown polarity {value!r}")
            fields[key] = polarity
        elif key == "stage":
            try:
                fields[key] = normalize_stage(value)
            except InvalidStage as exc:
                raise InvalidFilter(str(exc)) from None
        elif key in ("ecog", "karnofsky"):
            fields[key] = _parse_range(value)
        elif key == "t":
            fields[key] = _lookup(_T_BY_KEY, value, "T category")
        elif key == "n":
            fields[key] = _lookup(_N_BY_KEY, value, "N category")
        elif key == "m":
            fields[key] = _lookup(_M_BY_KEY, value, "M category")
        else:
            raise InvalidFilter(f"unknown filter key {key!r}")
    return QueryPredicate(**fields)  # type: ignore[arg-type]


def _lookup(table: dict, value: str, what: str):
    member = table.get(value.lower())
    if member is None:
        raise InvalidFilter(f"unknown {what} {value!r}")
    return member


__all__ = ["QueryPredicate", "matches", "query_results", "parse_filter"]
