import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _polarity_oracle

from oncospan import (
    ConflictingEntry,
    Document,
    MalformedLexicon,
    Polarity,
    Span,
    load_cue_lexicon,
    split_sentences,
)
from oncospan import _textops
from oncospan.assertion import (
    DEFAULT_POSITIVE,
    MAX_PHRASE_WORDS,
    WINDOW,
    CueLexicon,
    _phrase_key,
    polarity_in_view,
)
from oncospan.document import SentenceView


def view_of(text):
    sentences = split_sentences(text)
    assert len(sentences) == 1
    return SentenceView.from_sentence(Document("d", text), sentences[0])


def span_of(text, fragment):
    begin = text.index(fragment)
    return Span(begin, begin + len(fragment))


def polarity_of(text, fragment, lexicon=None):
    lexicon = lexicon or load_cue_lexicon()
    return polarity_in_view(view_of(text), span_of(text, fragment), lexicon)


def test_default_lexicon_contents():
    lexicon = load_cue_lexicon()
    assert ("no", "se", "detecta") in lexicon.negative
    assert ("mutado",) in lexicon.positive
    assert WINDOW == 5


def test_negative_phrase_before_target():
    text = "no se detecta traslocación de ALK"
    assert polarity_of(text, "ALK") is Polarity.NEGATIVE


def test_positive_symbol_adjacent():
    assert polarity_of("EGFR +", "EGFR") is Polarity.POSITIVE
    assert polarity_of("EGFR+", "EGFR") is Polarity.POSITIVE


def test_negative_symbol_adjacent():
    assert polarity_of("EGFR - en la biopsia", "EGFR") is Polarity.NEGATIVE


def test_unknown_without_cue():
    assert polarity_of("se solicita EGFR", "EGFR") is Polarity.UNKNOWN


def test_negative_phrase_after_target():
    assert polarity_of("ALK no traslocado", "ALK") is Polarity.NEGATIVE
    assert polarity_of("ROS1 no traslocado", "ROS1") is Polarity.NEGATIVE


def test_positive_phrase_after_target():
    assert polarity_of("ALK traslocado", "ALK") is Polarity.POSITIVE


def test_accent_case_folding_of_cues():
    assert polarity_of("EGFR MUTADO", "EGFR") is Polarity.POSITIVE
    assert polarity_of("ausencia de mutación en EGFR", "EGFR") is Polarity.NEGATIVE


def test_no_between_positive_flips_negative():
    assert polarity_of("EGFR no mutado", "EGFR") is Polarity.NEGATIVE


def test_negative_beats_positive():
    # both cues inside the window; negative wins
    assert polarity_of("EGFR positivo no confirmado", "EGFR") is Polarity.NEGATIVE


def test_symbol_adjacency_limit():
    # A "+" right next to the target is read; one token further is not.
    assert polarity_of("EGFR +", "EGFR") is Polarity.POSITIVE
    assert polarity_of("EGFR x +", "EGFR") is Polarity.UNKNOWN
    assert polarity_of("+ EGFR", "EGFR") is Polarity.POSITIVE
    assert polarity_of("+ x EGFR", "EGFR") is Polarity.UNKNOWN


def test_window_excludes_distant_cue():
    # WINDOW filler tokens push "no mutado" out of the window; one fewer
    # leaves "mutado" as its last token.
    assert polarity_of("EGFR " + "x " * WINDOW + "no mutado", "EGFR") is Polarity.UNKNOWN
    assert polarity_of("EGFR " + "x " * (WINDOW - 1) + "mutado", "EGFR") is Polarity.POSITIVE


def test_only_the_symbol_cues_fold_to_them():
    # Symbol cues are compared with folded surfaces, which is comparing the
    # written ones while no other character folds to a symbol cue.
    text = "".join(chr(c) for c in range(0x10000) if not 0xD800 <= c < 0xE000)
    norm, offsets = _textops.normalize_text(text)
    for cue in "+-":
        at = norm.find(cue)
        while at >= 0:
            assert text[offsets[at]] == cue
            at = norm.find(cue, at + 1)


def test_locality_distant_tokens_ignored():
    base = "x " * 12 + "EGFR mutado"
    variant = "y " * 12 + "EGFR mutado"
    assert polarity_of(base, "EGFR") is polarity_of(variant, "EGFR")


def test_determinism():
    text = "no se detecta mutación en EGFR"
    results = {polarity_of(text, "EGFR") for _ in range(10)}
    assert results == {Polarity.NEGATIVE}


def test_target_outside_tokens_unknown():
    view = view_of("EGFR mutado")
    assert polarity_in_view(view, Span(100, 104), load_cue_lexicon()) is (
        Polarity.UNKNOWN
    )


def test_load_lexicon_file(tmp_path):
    path = tmp_path / "cues.tsv"
    path.write_text(
        "# extra cues\nNEG\tdescartado\nPOS\tconfirmado\n\n", encoding="utf-8"
    )
    lexicon = load_cue_lexicon(path)
    assert ("descartado",) in lexicon.negative
    assert ("confirmado",) in lexicon.positive
    assert ("no", "se", "detecta") in lexicon.negative
    assert polarity_of("EGFR descartado", "EGFR", lexicon) is Polarity.NEGATIVE


def test_load_lexicon_bad_line(tmp_path):
    path = tmp_path / "cues.tsv"
    path.write_text("NEG descartado\n", encoding="utf-8")
    with pytest.raises(MalformedLexicon) as excinfo:
        load_cue_lexicon(path)
    assert "line 1" in str(excinfo.value)


def test_load_lexicon_bad_tag(tmp_path):
    path = tmp_path / "cues.tsv"
    path.write_text("MAYBE\tdudoso\n", encoding="utf-8")
    with pytest.raises(MalformedLexicon):
        load_cue_lexicon(path)


def test_load_lexicon_too_many_words(tmp_path):
    path = tmp_path / "cues.tsv"
    path.write_text("NEG\tuno dos tres cuatro cinco\n", encoding="utf-8")
    with pytest.raises(MalformedLexicon):
        load_cue_lexicon(path)


def test_load_lexicon_too_many_tokens(tmp_path):
    # "wild-type" is three tokens, as in a note.
    path = tmp_path / "cues.tsv"
    path.write_text("NEG\twild-type para EGFR\n", encoding="utf-8")
    with pytest.raises(MalformedLexicon, match="longer than 4 tokens"):
        load_cue_lexicon(path)


def test_lexicon_phrases_split_like_notes(tmp_path):
    path = tmp_path / "cues.tsv"
    path.write_text("NEG\twild-type\nPOS\tc/mutación\n", encoding="utf-8")
    lexicon = load_cue_lexicon(path)
    assert ("wild", "-", "type") in lexicon.negative
    assert ("c", "/", "mutacion") in lexicon.positive
    assert polarity_of("EGFR wild-type.", "EGFR", lexicon) is Polarity.NEGATIVE
    assert polarity_of("ALK C/Mutación.", "ALK", lexicon) is Polarity.POSITIVE


@pytest.mark.parametrize("cue", [*DEFAULT_POSITIVE, "confirmado"])
def test_no_before_a_positive_cue_is_negative(tmp_path, cue):
    # "no" is one of the negative cues that load_cue_lexicon always adds,
    # also to a file that lists only positive ones.
    path = tmp_path / "cues.tsv"
    path.write_text("POS\tconfirmado\n", encoding="utf-8")
    lexicon = load_cue_lexicon(path)
    assert ("no",) in lexicon.negative
    for text in (f"no {cue} EGFR", f"EGFR no {cue}"):
        assert polarity_of(text, "EGFR", lexicon) is Polarity.NEGATIVE, text


def test_no_is_a_cue_only_when_listed():
    # A hand-built lexicon without "no" reads "no se detecta" as its
    # positive cue "se detecta".
    lexicon = CueLexicon(positive=frozenset({("se", "detecta")}), negative=frozenset())
    assert polarity_of("no se detecta EGFR", "EGFR", lexicon) is Polarity.POSITIVE


def test_load_lexicon_conflicting_entry(tmp_path):
    path = tmp_path / "cues.tsv"
    path.write_text("NEG\tpositivo\n", encoding="utf-8")
    with pytest.raises(ConflictingEntry):
        load_cue_lexicon(path)


# Sentence pieces for the view-cutting property: cue words, "no", the symbol
# cues, a character that folds to a look-alike ("≠" folds to "="), a Hangul
# syllable and a bare combining mark (both fold to other than one character).
_pieces = st.sampled_from(
    [
        "EGFR", "ALK", "no", "se", "detecta", "mutado", "MUTADO", "positivo",
        "negativo", "ausencia", "de", "traslocado", "mutación", "x",
        "+", "-", "≠", "=", "\ud55c", "\u0301", "19",
    ]
)
_sentences = st.lists(
    st.tuples(_pieces, st.sampled_from([" ", "", ", "])), max_size=14
).map(lambda parts: "".join(p + sep for p, sep in parts))

_DEFAULT = load_cue_lexicon()


# Notes of a few such sentences: a Hangul syllable or a bare mark in an
# earlier sentence shifts the note's fold against its text.
_notes = st.lists(_sentences, min_size=1, max_size=3).map(". ".join)


@given(text=_notes)
@settings(max_examples=150, deadline=None)
def test_in_folded_view_equals_standalone_view(text):
    # The pipeline cuts each sentence's view out of the note's fold; it must
    # read like a view that folds the sentence text on its own.
    folded = _textops.normalize_text(text)
    for sentence in split_sentences(text):
        begin, end = sentence.span.begin, sentence.span.end
        cut = SentenceView.in_folded(text, folded, sentence.span)
        alone = SentenceView(text[begin:end], begin)
        assert (cut.text, cut.base, cut.norm) == (alone.text, alone.base, alone.norm)
        assert list(cut.norm_map) == list(alone.norm_map)
        assert cut.tokens == alone.tokens
        assert cut.norm_surfaces == alone.norm_surfaces
        pairs = itertools.combinations_with_replacement(alone.tokens, 2)
        for (first, _, _), (_, last, _) in pairs:
            target = Span(begin + first, begin + last)
            assert polarity_in_view(cut, target, _DEFAULT) is polarity_in_view(
                alone, target, _DEFAULT
            ), (text, target)



def _lexicon(negative, positive):
    return CueLexicon(
        positive=frozenset(map(_phrase_key, positive)),
        negative=frozenset(map(_phrase_key, negative)),
    )


# Lexicons whose phrases share a first word, run to four words, or leave
# out "no" (where "no" before a positive cue leaves it positive).
_FIXED_LEXICONS = [
    _DEFAULT,
    _lexicon(["no", "no se detecta", "no mutado"], ["se detecta", "mutado"]),
    _lexicon(
        ["no se ha detectado", "ausencia de mutación"],
        ["se ha detectado mutación", "se detecta", "detectado"],
    ),
    _lexicon(["negativo", "no se detecta"], ["mutado", "se detecta", "presencia de"]),
]
_CUE_WORDS = [
    "no", "se", "ha", "detecta", "detectado", "Detectado", "mutado", "mutación",
    "positivo", "negativo", "ausencia", "presencia", "de", "traslocado",
    "descartado", "confirmado",
]


def _loaded(entries):
    # What load_cue_lexicon makes of a file of these entries (minus the
    # lines it would refuse as conflicting): the built-in cues plus each
    # phrase, folded.
    positive, negative = set(_DEFAULT.positive), set(_DEFAULT.negative)
    for is_positive, phrase in entries:
        key = _phrase_key(phrase)
        same, other = (positive, negative) if is_positive else (negative, positive)
        if key not in other:
            same.add(key)
    return CueLexicon(positive=frozenset(positive), negative=frozenset(negative))


_user_phrases = st.lists(
    st.sampled_from(_CUE_WORDS), min_size=1, max_size=MAX_PHRASE_WORDS
).map(" ".join)
_lexicons = st.one_of(
    st.sampled_from(_FIXED_LEXICONS),
    st.lists(st.tuples(st.booleans(), _user_phrases), max_size=6).map(_loaded),
)


# Units for the sign rules: symbols, a sign glued to a word ("EML4-",
# "-TKI"), and a number a sign may be glued to.
_SIGN_UNITS = ["+", "-", "(", ")", ":", "+/-", "EML4-", "-TKI", "3"]


@st.composite
def _windows(draw):
    # The lexicon, then the text on each side of the target: whole phrases
    # of the lexicon and single words, up to six of them, so that phrases
    # often run past the window edge or into the target.  A unit is joined
    # to the next (or to the target) without a space one time in three, so
    # that signs are sometimes glued to words: "EGFR(+)", "EML4-ALK".
    lexicon = draw(_lexicons)
    phrases = sorted(" ".join(p) for p in lexicon.positive | lexicon.negative)
    unit = st.one_of(
        st.sampled_from(phrases),
        st.sampled_from(_CUE_WORDS + _SIGN_UNITS + ["x", "biopsia", ","]),
    )
    units = st.lists(st.tuples(unit, st.sampled_from([" ", " ", ""])), max_size=6)
    target = draw(st.sampled_from(["EGFR", "exón 19", "ROS-1"]))
    before = "".join(u + space for u, space in draw(units))
    after = "".join(space + u for u, space in draw(units))
    return lexicon, before, target, after


@given(_windows())
@settings(max_examples=300, deadline=None)
# A positive phrase whose last word is just past the window.
@example((_FIXED_LEXICONS[3], "", "EGFR", " x" * (WINDOW - 1) + " se detecta"))
# A hyphen glued to a word, and signs behind a parenthesis and a colon.
@example((_DEFAULT, "EML4-", "EGFR", " positivo"))
@example((_DEFAULT, "", "EGFR", "(-)"))
@example((_DEFAULT, "", "EGFR", ": +"))
def test_cue_index_equals_tuple_windows(window):
    lexicon, head, target, tail = window
    text = head + target + tail
    view = SentenceView(text)
    span = Span(len(head), len(head) + len(target))
    assert polarity_in_view(view, span, lexicon) is _polarity_oracle.polarity_in_view(
        view, span, lexicon
    ), text
