"""Polarity of a mention: stated present, stated absent, or neither.

Cues are short phrases looked up in a window of tokens around the target
mention, after case/accent folding.  Negative evidence always beats
positive evidence, and a positive cue preceded by "no" inside the window
counts as negative ("no se detecta mutación" must not fire as positive).
``polarity_in_view`` applies the rule to the folded token surfaces of a
sentence view, looking each window token up in an index from a first word
to the lexicon's phrases that start with it (as NegEx indexes its
triggers).  Phrase cues come from the lexicon; the window widths and the
symbol cues are fixed.
"""

from functools import lru_cache
from pathlib import Path

from ._typesystem import Polarity, Span, checked_tuple
from .document import SentenceView, normalize_word
from .errors import ConflictingEntry, MalformedLexicon

MAX_PHRASE_WORDS = 4
# Tokens on each side of the mention searched for phrase cues, and for
# symbol cues.  No character but "+" and "-" folds to them, so a folded
# surface equals one of them only where the written one does.
WINDOW = 5
SYMBOL_ADJACENCY = 1
SYMBOL_POSITIVE = frozenset({"+"})
SYMBOL_NEGATIVE = frozenset({"-"})

DEFAULT_NEGATIVE = (
    "no",
    "no se detecta",
    "ausencia de",
    "negativo",
    "no traslocado",
    "no mutado",
)

DEFAULT_POSITIVE = (
    "positivo",
    "mutado",
    "traslocado",
    "presencia de",
    "se detecta",
    "detectado",
)


def _phrase_key(phrase: str) -> tuple[str, ...]:
    words = tuple(normalize_word(w) for w in phrase.split())
    if not words or any(not w for w in words):
        raise MalformedLexicon(f"unusable phrase {phrase!r}")
    if len(words) > MAX_PHRASE_WORDS:
        raise MalformedLexicon(
            f"phrase {phrase!r} longer than {MAX_PHRASE_WORDS} words"
        )
    return words


class CueLexicon(
    checked_tuple(
        "CueLexicon",
        [("positive", frozenset[tuple[str, ...]]), ("negative", frozenset[tuple[str, ...]])],
    )
):
    __slots__ = ()

    def __new__(cls, positive, negative):
        clash = positive & negative
        if clash:
            listing = ", ".join(" ".join(p) for p in sorted(clash))
            raise ConflictingEntry(f"phrases in both polarities: {listing}")
        for phrase in positive | negative:
            if not 1 <= len(phrase) <= MAX_PHRASE_WORDS:
                raise ValueError(f"phrase length out of range: {phrase!r}")
        return tuple.__new__(cls, (positive, negative))


def load_cue_lexicon(path: str | Path | None = None) -> CueLexicon:
    """Built-in cues, optionally merged with a lexicon file.

    File format: UTF-8 text, one entry per line, ``POS`` or ``NEG``, a tab,
    then the phrase (1-4 words).  Blank lines and lines starting with ``#``
    are ignored.
    """
    positive = {_phrase_key(p) for p in DEFAULT_POSITIVE}
    negative = {_phrase_key(p) for p in DEFAULT_NEGATIVE}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise MalformedLexicon(
                    "expected <polarity><TAB><phrase>", line_no
                )
            tag, phrase = parts[0].strip(), parts[1].strip()
            if tag not in ("POS", "NEG"):
                raise MalformedLexicon(f"unknown polarity tag {tag!r}", line_no)
            try:
                key = _phrase_key(phrase)
            except MalformedLexicon as exc:
                raise MalformedLexicon(str(exc), line_no) from None
            (positive if tag == "POS" else negative).add(key)
    return CueLexicon(positive=frozenset(positive), negative=frozenset(negative))


def _around(rng: tuple[int, int], n: int, width: int) -> tuple[range, range]:
    """Token indexes up to *width* before and after *rng*, of *n* tokens."""
    first, last = rng
    return range(max(0, first - width), first), range(last + 1, min(n, last + 1 + width))


@lru_cache(maxsize=16)
def _cue_index(lexicon: CueLexicon) -> dict[str, list[tuple[list[str], bool]]]:
    """Each phrase of *lexicon* under its first word: (other words, negative)."""
    index: dict[str, list[tuple[list[str], bool]]] = {}
    for negative, phrases in ((True, lexicon.negative), (False, lexicon.positive)):
        for phrase in phrases:
            index.setdefault(phrase[0], []).append((list(phrase[1:]), negative))
    return index


def polarity_in_view(view: SentenceView, target: Span, lexicon: CueLexicon) -> Polarity:
    """Polarity of the mention at *target* inside *view*'s sentence."""
    rng = view.token_range(target)
    if rng is None:
        return Polarity.UNKNOWN
    norm = view.norm_surfaces
    n = len(norm)
    index = _cue_index(lexicon)
    negative = False
    # Phrase cues, each side of the target separately; a phrase must fit
    # entirely inside the window on its side.  The sides come in text
    # order, so the last positive start found is the latest.
    sides = _around(rng, n, WINDOW)
    positive_start = -1
    for side in sides:
        for i in side:
            for rest, is_negative in index.get(norm[i], ()):
                stop = i + 1 + len(rest)
                if stop <= side.stop and norm[i + 1 : stop] == rest:
                    if is_negative:
                        negative = True
                    else:
                        positive_start = i
    positive = positive_start >= 0
    # A positive cue with "no" earlier in the window flips to negative.  Only
    # a hand-built CueLexicon without "no" reaches this: load_cue_lexicon
    # always merges in the negative cue "no", which alone makes it negative.
    if positive and not negative:
        earliest_no = next((k for side in sides for k in side if norm[k] == "no"), n)
        negative = positive_start > earliest_no
    # Symbol cues immediately adjacent to the target.
    for side in _around(rng, n, SYMBOL_ADJACENCY):
        for i in side:
            if norm[i] in SYMBOL_NEGATIVE:
                negative = True
            elif norm[i] in SYMBOL_POSITIVE:
                positive = True

    if negative:
        return Polarity.NEGATIVE
    if positive:
        return Polarity.POSITIVE
    return Polarity.UNKNOWN
