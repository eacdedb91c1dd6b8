"""Polarity of a mention: stated present, stated absent, or neither.

Cues are short phrases looked up in a window of tokens around the target
mention, after case/accent folding.  Negative evidence always beats
positive evidence, and a positive cue preceded by "no" inside the window
counts as negative ("no se detecta mutación" must not fire as positive).
"""

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

from .document import Span, Token, normalize_word, token_range
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


def detect_polarity(
    tokens: Sequence[Token], target: Span, lexicon: CueLexicon
) -> Polarity:
    """Polarity of the mention at *target* given its sentence *tokens*."""
    rng = token_range(tokens, target)
    if rng is None:
        return Polarity.UNKNOWN
    t_first, t_last = rng
    n = len(tokens)
    norm = [normalize_word(t.surface) for t in tokens]
    lo = max(0, t_first - lexicon.window)
    hi = min(n - 1, t_last + lexicon.window)

    negative = False
    positive = False
    # Phrase cues, each side of the target separately; a phrase must fit
    # entirely inside the window on its side.
    sides = ((lo, t_first - 1), (t_last + 1, hi))
    positive_starts: list[int] = []
    for side_lo, side_hi in sides:
        for i in range(side_lo, side_hi + 1):
            limit = min(side_hi - i + 1, MAX_PHRASE_WORDS)
            for length in range(1, limit + 1):
                key = tuple(norm[i : i + length])
                if key in lexicon.negative:
                    negative = True
                if key in lexicon.positive:
                    positive = True
                    positive_starts.append(i)
    # A positive cue with "no" earlier in the window flips to negative.
    if positive_starts and not negative:
        no_positions = [
            k
            for side_lo, side_hi in sides
            for k in range(side_lo, side_hi + 1)
            if norm[k] == "no"
        ]
        if no_positions:
            earliest_no = min(no_positions)
            if any(start > earliest_no for start in positive_starts):
                negative = True
    # Symbol cues immediately adjacent to the target.
    adj = lexicon.symbol_adjacency
    for i in range(max(0, t_first - adj), t_first):
        surf = tokens[i].surface
        if surf in lexicon.symbol_negative:
            negative = True
        elif surf in lexicon.symbol_positive:
            positive = True
    for i in range(t_last + 1, min(n, t_last + adj + 1)):
        surf = tokens[i].surface
        if surf in lexicon.symbol_negative:
            negative = True
        elif surf in lexicon.symbol_positive:
            positive = True

    if negative:
        return Polarity.NEGATIVE
    if positive:
        return Polarity.POSITIVE
    return Polarity.UNKNOWN
