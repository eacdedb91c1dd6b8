import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oncospan import (
    ConflictingEntry,
    Document,
    MalformedLexicon,
    Polarity,
    Span,
    detect_polarity,
    load_cue_lexicon,
    split_sentences,
    tokenize,
)
from oncospan.assertion import CueLexicon, _phrase_key, polarity_in_view
from oncospan.document import SentenceView


def tokens_of(text):
    doc = Document("d", text)
    sentences = split_sentences(text)
    assert len(sentences) == 1
    return tokenize(doc, sentences[0])


def span_of(text, fragment):
    begin = text.index(fragment)
    return Span(begin, begin + len(fragment))


def polarity_of(text, fragment, lexicon=None):
    lexicon = lexicon or load_cue_lexicon()
    return detect_polarity(tokens_of(text), span_of(text, fragment), lexicon)


def test_default_lexicon_contents():
    lexicon = load_cue_lexicon()
    assert ("no", "se", "detecta") in lexicon.negative
    assert ("mutado",) in lexicon.positive
    assert lexicon.window == 5
    assert lexicon.symbol_adjacency == 1


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
    # "+" two tokens away exceeds symbol_adjacency=1
    assert polarity_of("EGFR x +", "EGFR") is Polarity.UNKNOWN


def test_window_excludes_distant_cue():
    # five filler tokens push "no" out of the 5-token window... the target
    # window covers exactly 5 tokens beyond the mention.
    text = "EGFR a b c d e no mutado"
    tokens = tokens_of(text)
    target = span_of(text, "EGFR")
    lexicon = load_cue_lexicon()
    # "no" sits at index 6, inside token window [1..5]? no: indexes 1..5 are
    # a b c d e, so "no" (6) and "mutado" (7) are outside.
    assert detect_polarity(tokens, target, lexicon) is Polarity.UNKNOWN


def test_locality_distant_tokens_ignored():
    base = "x " * 12 + "EGFR mutado"
    variant = "y " * 12 + "EGFR mutado"
    assert polarity_of(base, "EGFR") is polarity_of(variant, "EGFR")


def test_determinism():
    text = "no se detecta mutación en EGFR"
    results = {polarity_of(text, "EGFR") for _ in range(10)}
    assert results == {Polarity.NEGATIVE}


def test_target_outside_tokens_unknown():
    tokens = tokens_of("EGFR mutado")
    assert detect_polarity(tokens, Span(100, 104), load_cue_lexicon()) is (
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


def test_load_lexicon_conflicting_entry(tmp_path):
    path = tmp_path / "cues.tsv"
    path.write_text("NEG\tpositivo\n", encoding="utf-8")
    with pytest.raises(ConflictingEntry):
        load_cue_lexicon(path)


def test_cue_lexicon_validates_window():
    with pytest.raises(ValueError):
        CueLexicon(
            positive=frozenset({_phrase_key("si")}),
            negative=frozenset({_phrase_key("no")}),
            window=0,
        )


# Sentence pieces for the two-path property: cue words, "no", the symbol
# cues and their folded look-alikes ("≠" folds to "="), a Hangul syllable
# and a bare combining mark (both fold to other than one character).
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
_LEXICONS = [
    _DEFAULT,
    dataclasses.replace(_DEFAULT, symbol_negative=frozenset({"≠"})),
    dataclasses.replace(_DEFAULT, symbol_negative=frozenset({"="})),
]


@pytest.mark.parametrize("lexicon", _LEXICONS)
@given(text=_sentences)
@settings(max_examples=150, deadline=None)
def test_view_polarity_equals_token_polarity(lexicon, text):
    doc = Document("d", text)
    for sentence in split_sentences(text):
        tokens = tokenize(doc, sentence)
        view = SentenceView.from_sentence(doc, sentence)
        pairs = itertools.combinations_with_replacement(range(len(tokens)), 2)
        for first, last in pairs:
            target = Span(tokens[first].span.begin, tokens[last].span.end)
            assert polarity_in_view(view, target, lexicon) is detect_polarity(
                tokens, target, lexicon
            ), (text, target)


@pytest.mark.parametrize(
    "symbols, expected",
    [
        (frozenset({"≠"}), {"EGFR ≠": Polarity.NEGATIVE, "EGFR =": Polarity.UNKNOWN}),
        (frozenset({"="}), {"EGFR ≠": Polarity.UNKNOWN, "EGFR =": Polarity.NEGATIVE}),
    ],
)
def test_symbol_cues_compare_written_surface(symbols, expected):
    lexicon = dataclasses.replace(_DEFAULT, symbol_negative=symbols)
    for text, polarity in expected.items():
        assert polarity_of(text, "EGFR", lexicon) is polarity
        target = span_of(text, "EGFR")
        assert polarity_in_view(SentenceView(text), target, lexicon) is polarity
