"""The tuple-window polarity rule: every phrase length at every window token.

The executable specification of ``assertion.polarity_in_view``, which looks
each window token up in a first-word index of the lexicon instead.  The
rule: cue phrases within ``WINDOW`` tokens on each side of the target, a
phrase wholly inside its side; a "+" or "-" token right next to the target;
a negative cue beats a positive one.  Both must return the same polarity
for every view, target and lexicon (``test_assertion.py`` checks this
property on generated windows).
"""

from oncospan.assertion import MAX_PHRASE_WORDS, WINDOW, CueLexicon, Polarity
from oncospan.document import SentenceView, Span


def polarity_in_view(view: SentenceView, target: Span, lexicon: CueLexicon) -> Polarity:
    rng = view.token_range(target)
    if rng is None:
        return Polarity.UNKNOWN
    first, last = rng
    norm = view.norm_surfaces
    n = len(norm)
    negative = False
    positive = False
    sides = (range(max(0, first - WINDOW), first), range(last + 1, min(n, last + 1 + WINDOW)))
    for side in sides:
        for i in side:
            for length in range(1, min(side.stop - i, MAX_PHRASE_WORDS) + 1):
                key = tuple(norm[i : i + length])
                if key in lexicon.negative:
                    negative = True
                if key in lexicon.positive:
                    positive = True
    for i in (first - 1, last + 1):
        if 0 <= i < n:
            if norm[i] == "-":
                negative = True
            elif norm[i] == "+":
                positive = True

    if negative:
        return Polarity.NEGATIVE
    if positive:
        return Polarity.POSITIVE
    return Polarity.UNKNOWN
