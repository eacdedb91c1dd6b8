"""Polarity of a mention: stated present, stated absent, or neither.

Cues are short phrases looked up in a window of tokens around the target
mention, after case/accent folding.  Negative evidence always beats
positive evidence, and a positive cue preceded by "no" inside the window
counts as negative ("no se detecta mutación" must not fire as positive).
``polarity_in_view`` applies the rule to the tokens of a sentence view:
phrase cues are compared with their folded surfaces, symbol cues with the
tokens as written.
"""

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .document import SentenceView, Span, normalize_word
from .errors import ConflictingEntry, MalformedLexicon

MAX_PHRASE_WORDS = 4


class Polarity(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    UNKNOWN = "Unknown"


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


@dataclass(frozen=True)
class CueLexicon:
    positive: frozenset[tuple[str, ...]]
    negative: frozenset[tuple[str, ...]]
    symbol_positive: frozenset[str] = frozenset({"+"})
    symbol_negative: frozenset[str] = frozenset({"-"})
    window: int = 5
    symbol_adjacency: int = 1

    def __post_init__(self):
        clash = self.positive & self.negative
        if clash:
            listing = ", ".join(" ".join(p) for p in sorted(clash))
            raise ConflictingEntry(f"phrases in both polarities: {listing}")
        if self.window < 1 or self.symbol_adjacency < 1:
            raise ValueError("window sizes must be at least 1")
        for phrase in self.positive | self.negative:
            if not 1 <= len(phrase) <= MAX_PHRASE_WORDS:
                raise ValueError(f"phrase length out of range: {phrase!r}")


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


def polarity_in_view(view: SentenceView, target: Span, lexicon: CueLexicon) -> Polarity:
    """Polarity of the mention at *target* inside *view*'s sentence."""
    rng = view.token_range(target)
    if rng is None:
        return Polarity.UNKNOWN
    norm = view.norm_surfaces
    n = len(norm)
    negative = False
    positive = False
    # Phrase cues, each side of the target separately; a phrase must fit
    # entirely inside the window on its side.
    sides = _around(rng, n, lexicon.window)
    positive_starts: list[int] = []
    for side in sides:
        for i in side:
            for length in range(1, min(side.stop - i, MAX_PHRASE_WORDS) + 1):
                key = tuple(norm[i : i + length])
                if key in lexicon.negative:
                    negative = True
                if key in lexicon.positive:
                    positive = True
                    positive_starts.append(i)
    # A positive cue with "no" earlier in the window flips to negative.
    if positive_starts and not negative:
        earliest_no = next((k for side in sides for k in side if norm[k] == "no"), n)
        negative = max(positive_starts) > earliest_no
    # Symbol cues immediately adjacent to the target.
    for side in _around(rng, n, lexicon.symbol_adjacency):
        for i in side:
            begin, end, _ = view.tokens[i]
            surf = view.text[begin:end]
            if surf in lexicon.symbol_negative:
                negative = True
            elif surf in lexicon.symbol_positive:
                positive = True

    if negative:
        return Polarity.NEGATIVE
    if positive:
        return Polarity.POSITIVE
    return Polarity.UNKNOWN
