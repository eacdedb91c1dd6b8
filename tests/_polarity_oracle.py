"""The tuple-window polarity rule: every phrase length at every window token.

The executable specification of ``assertion.polarity_in_view``, which looks
each window token up in a first-word index of the lexicon instead.  Both
must return the same polarity for every view, target and lexicon
(``test_assertion.py`` checks this property on generated windows).
"""

from oncospan.assertion import (
    MAX_PHRASE_WORDS,
    SYMBOL_ADJACENCY,
    SYMBOL_NEGATIVE,
    SYMBOL_POSITIVE,
    WINDOW,
    CueLexicon,
    Polarity,
)
from oncospan.document import SentenceView, Span


def _around(rng: tuple[int, int], n: int, width: int) -> tuple[range, range]:
    first, last = rng
    return range(max(0, first - width), first), range(last + 1, min(n, last + 1 + width))


def polarity_in_view(view: SentenceView, target: Span, lexicon: CueLexicon) -> Polarity:
    rng = view.token_range(target)
    if rng is None:
        return Polarity.UNKNOWN
    norm = view.norm_surfaces
    n = len(norm)
    negative = False
    positive = False
    # Phrase cues, each side of the target separately; a phrase must fit
    # entirely inside the window on its side.
    sides = _around(rng, n, WINDOW)
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
