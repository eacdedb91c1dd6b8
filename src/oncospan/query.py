"""Document-level queries over annotation results.

``FILTERS`` declares each query filter once: the record type and feature
it tests and how.  A predicate is a conjunction of optional filters, one
field per key, each a member of the feature's enum or a ``(lo, hi)`` tuple
of ints.  A document matches when each set filter holds on one of its
annotations of the filter's record type, and the joined filters of a type
(gene and polarity) on the same one.  Each filter becomes one membership
test of a feature value, built once per query: an equal filter accepts its
member, a covers filter the stage groups its stage covers (stage=IV
matches documents staged IVA or IVB), and a range filter the integers of
``range(lo, hi + 1)``.
"""

import re
from enum import Enum
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

from ._typesystem import (
    DocumentResult, MutationAnnotation, Polarity, PSAnnotation, PSScale, StageAnnotation,
    StageGroup, TNMAnnotation, checked_tuple, normalize_stage, stage_covers,
)
from .errors import EmptyPredicate, InvalidFilter, InvalidStage
from .standoff import ANNOTATION_TYPES


class Filter(NamedTuple):
    """One query filter; see ``FILTERS``."""

    # The annotation class of the record type that the filter tests.
    record: type
    # "equal" (one member of the feature's enum), "covers" (the stage
    # groups a stage covers) or "range" (the integers N..M).
    compare: str = "equal"
    # Whether the filter must hold on the same annotation as the other
    # joined filters of its record type, or on any annotation of it.
    joined: bool = False
    # The key of the feature it tests, when not the filter's own key.
    feature: str | None = None
    # A (feature key, value) that the same annotation must also hold.
    fixed: tuple[str, Enum] | None = None
    # Other names of the members of an "equal" filter's enum.
    aliases: dict[str, Enum] | None = None


# Keyed by filter, in the order of ``QueryPredicate``'s fields.
FILTERS: dict[str, Filter] = {
    "gene": Filter(MutationAnnotation, joined=True),
    "polarity": Filter(
        MutationAnnotation, joined=True,
        aliases={"pos": Polarity.POSITIVE, "neg": Polarity.NEGATIVE, "unk": Polarity.UNKNOWN},
    ),
    "stage": Filter(StageAnnotation, "covers"),
    "ecog": Filter(PSAnnotation, "range", feature="value", fixed=("scale", PSScale.ECOG)),
    "karnofsky": Filter(
        PSAnnotation, "range", feature="value", fixed=("scale", PSScale.KARNOFSKY)
    ),
    "t": Filter(TNMAnnotation),
    "n": Filter(TNMAnnotation),
    "m": Filter(TNMAnnotation),
}

# The record feature that each filter tests.
_FEATURES = {
    key: {x.key: x for x in ANNOTATION_TYPES[f.record.annotator].features}[f.feature or key]
    for key, f in FILTERS.items()
}
_RANGES = [key for key, f in FILTERS.items() if f.compare == "range"]

_Fields = checked_tuple(
    "QueryPredicate",
    [(key, (tuple[int, int] if key in _RANGES else _FEATURES[key].domain) | None)
     for key in FILTERS],
)
_Fields.__new__.__defaults__ = (None,) * len(FILTERS)


class QueryPredicate(_Fields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if all(f is None for f in self):
            raise EmptyPredicate("predicate has no filters")
        for key, value in zip(FILTERS, self):
            if value is None:
                continue
            if key not in _RANGES:
                domain = _FEATURES[key].domain
                if type(value) is not domain:
                    raise TypeError(f"{key} must be a {domain.__name__} member, not {value!r}")
            elif type(value) is not tuple or [type(x) for x in value] != [int, int]:
                raise TypeError(f"{key} must be a (lo, hi) tuple of ints, not {value!r}")
            elif value[0] > value[1]:
                raise ValueError(f"empty range {value[0]}..{value[1]}")
        return self


# Each comparison's feature values that a filter's value accepts.
_ACCEPTED = {
    "equal": lambda member: (member,),
    "covers": lambda stage: frozenset(s for s in StageGroup if stage_covers(stage, s)),
    "range": lambda rng: range(rng[0], rng[1] + 1),
}


def _clauses(predicate: QueryPredicate) -> list[tuple[type, list]]:
    """*predicate* as (annotation class, [(feature getter, accepted values)])
    clauses, each of which must hold on one annotation of a document."""
    clauses: dict[tuple, tuple[type, list]] = {}
    for (key, f), value in zip(FILTERS.items(), predicate):
        if value is not None:
            # The joined filters of a record type share one clause.
            tests = clauses.setdefault((f.record, f.joined or key), (f.record, []))[1]
            tests.append((attrgetter(_FEATURES[key].path), _ACCEPTED[f.compare](value)))
            if f.fixed is not None:
                tests.append((attrgetter(f.fixed[0]), (f.fixed[1],)))
    return list(clauses.values())


def _holds(annotations, cls: type, tests: list) -> bool:
    """Whether one of *annotations* is a *cls* that passes every test."""
    for a in annotations:
        if isinstance(a, cls):
            for get, accepted in tests:
                if get(a) not in accepted:
                    break
            else:
                return True
    return False


def matches(result: DocumentResult, predicate: QueryPredicate) -> bool:
    return all(_holds(result.annotations, *clause) for clause in _clauses(predicate))


def query_results(
    results: Sequence[DocumentResult], predicate: QueryPredicate
) -> list[str]:
    for cls, tests in _clauses(predicate):
        results = [r for r in results if _holds(r.annotations, cls, tests)]
    return [r.document_id for r in results]


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


def _reader(key: str, f) -> Callable:
    """The reader of filter *key*'s value: a stage, a range, or a member of
    an enum by its value in any letter case or by an alias, which raises
    KeyError for any other value."""
    if f.compare != "equal":
        return normalize_stage if f.compare == "covers" else _parse_range
    members = {m.value.lower(): m for m in _FEATURES[key].domain} | (f.aliases or {})
    return lambda value: members[value.lower()]


_READERS = {key: _reader(key, f) for key, f in FILTERS.items()}


def parse_filter(expression: str) -> QueryPredicate:
    """Parse a CLI filter: comma-separated key=value pairs.

    Keys: those of ``FILTERS``.  Ranges are ``N`` or ``N..M``; polarity
    accepts POS/NEG/UNK or the long names; stage accepts separator variants
    ("I-A1").
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
        read = _READERS.get(key)
        if read is None:
            raise InvalidFilter(f"unknown filter key {key!r}")
        try:
            fields[key] = read(value)
        except InvalidStage as exc:
            raise InvalidFilter(str(exc)) from None
        except KeyError:
            raise InvalidFilter(f"unknown {key} value {value!r}") from None
    return QueryPredicate(**fields)
