"""Polarity of a mention: stated present, stated absent, or neither.

One rule, read in one pass over the tokens around the target mention:
cue phrases in a window of ``WINDOW`` tokens on each side, and a ``+`` or
``-`` sign right next to the mention (or after it behind one ``(`` or
``:``) that no word or number touches.  A negative cue beats a positive
one; "no" is a negative cue like any other ("no se detecta mutación" has
no positive reading).  Cues are compared with the folded token surfaces of
a sentence view, and a lexicon phrase is split into tokens and folded the
same way, so "wild-type" is the three tokens "wild", "-" and "type".  Each
window token is looked up in an index from a first token to the lexicon's
phrases that start with it (as NegEx indexes its triggers).  Phrase cues
come from the lexicon; the window width and the symbol cues are fixed.
"""

from functools import lru_cache
from pathlib import Path

from ._textops import SYMBOL
from ._typesystem import Polarity, Span, checked_tuple
from .document import SentenceView
from .errors import ConflictingEntry, MalformedLexicon

MAX_PHRASE_WORDS = 4
# Tokens on each side of the mention searched for phrase cues.
WINDOW = 5

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
    # The tokens and folding of a note, so the key compares with a window.
    words = tuple(SentenceView(phrase).norm_surfaces)
    if not words or any(not w for w in words):
        raise MalformedLexicon(f"unusable phrase {phrase!r}")
    if len(words) > MAX_PHRASE_WORDS:
        raise MalformedLexicon(
            f"phrase {phrase!r} longer than {MAX_PHRASE_WORDS} tokens"
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

    File format: UTF-8 text (a leading byte-order mark is dropped), one
    entry per line, ``POS`` or ``NEG``, a tab, then the phrase (1-4 tokens,
    split as a note is).  Blank lines and lines starting with ``#`` are
    ignored.
    """
    positive = {_phrase_key(p) for p in DEFAULT_POSITIVE}
    negative = {_phrase_key(p) for p in DEFAULT_NEGATIVE}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8-sig")
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
    first, last = rng
    norm = view.norm_surfaces
    index = _cue_index(lexicon)
    positive = False
    # Phrase cues, each side of the target separately; a phrase must fit
    # entirely inside the window on its side.
    before = range(max(0, first - WINDOW), first)
    after = range(last + 1, min(len(norm), last + 1 + WINDOW))
    for side in (before, after):
        for i in side:
            for rest, is_negative in index.get(norm[i], ()):
                stop = i + 1 + len(rest)
                if stop <= side.stop and norm[i + 1 : stop] == rest:
                    if is_negative:
                        return Polarity.NEGATIVE
                    positive = True
    # Symbol cues: a "+" or "-" token right before the target, or right
    # after it, where one "(" or ":" may stand between.  No character but
    # "+" and "-" folds to them, so the folded surfaces show the written
    # ones.  A symbol that a word or number touches on its far side is a
    # hyphen or a minus, not a sign: "EML4-ALK", "EGFR-TKI", "EGFR: -3".
    n = len(norm)
    j = last + 2 if last + 1 < n and norm[last + 1] in ("(", ":") else last + 1
    signs = ""
    for i, far in ((first - 1, first - 2), (j, j + 1)):
        if 0 <= i < n and norm[i] in ("+", "-") and not _glued(view.tokens, i, far):
            signs += norm[i]
    if "-" in signs:
        return Polarity.NEGATIVE
    if positive or "+" in signs:
        return Polarity.POSITIVE
    return Polarity.UNKNOWN


def _glued(tokens: list[tuple[int, int, int]], i: int, far: int) -> bool:
    """Whether token *far*, next to token *i*, is a word or number touching it."""
    touching = 0 <= far < len(tokens) and tokens[min(i, far)][1] == tokens[max(i, far)][0]
    return touching and tokens[far][2] != SYMBOL
