"""The tuple-window polarity rule: every phrase length at every window token.

The executable specification of ``assertion.polarity_in_view``, which looks
each window token up in a first-word index of the lexicon instead.  The
rule: cue phrases within ``WINDOW`` tokens on each side of the target, a
phrase wholly inside its side; a "+" or "-" token right next to the target,
or after it behind one "(" or ":", that no word or number touches on the
side away from the target; a negative cue beats a positive one.  Both must
return the same polarity for every view, target and lexicon
(``test_assertion.py`` checks this property on generated windows).
"""

from oncospan._textops import NUMBER, WORD
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
    tokens = view.tokens

    def sign(i, away):
        # Token i's surface if it is a sign; away is 1 after the target, -1
        # before it.
        if not (0 <= i < n and norm[i] in ("+", "-")):
            return None
        j = i + away
        if 0 <= j < n and tokens[j][2] in (WORD, NUMBER):
            between = view.text[min(tokens[i][1], tokens[j][1]) : max(tokens[i][0], tokens[j][0])]
            if between == "":
                return None
        return norm[i]

    signs = [sign(first - 1, -1), sign(last + 1, 1)]
    if last + 1 < n and norm[last + 1] in ("(", ":"):
        signs.append(sign(last + 2, 1))
    if "-" in signs:
        negative = True
    if "+" in signs:
        positive = True

    if negative:
        return Polarity.NEGATIVE
    if positive:
        return Polarity.POSITIVE
    return Polarity.UNKNOWN
