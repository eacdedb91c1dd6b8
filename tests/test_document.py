import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _textops_py
from oncospan import Document, OutOfBounds, Span, _textops, covered_text, split_sentences
from oncospan._textops import NUMBER, SYMBOL, WORD
from oncospan.document import SentenceView


def spans(sentences):
    return [(s.span.begin, s.span.end) for s in sentences]


def test_span_invariants():
    Span(0, 1)
    with pytest.raises(ValueError):
        Span(-1, 2)
    with pytest.raises(ValueError):
        Span(3, 3)
    with pytest.raises(ValueError):
        Span(4, 2)


def test_document_id_required():
    with pytest.raises(ValueError):
        Document("", "text")
    for control in "\n\r\t":
        with pytest.raises(ValueError, match="tab, newline, carriage return"):
            Document(f"a{control}b", "text")
    with pytest.raises(ValueError, match="lone surrogate"):
        Document("a\udcff", "text")


def test_split_two_sentences():
    # Terminators belong to their sentence, so the second span ends at 34,
    # covering the final period just as the first span covers its own.
    text = "ECOG-PS 0. Regular estado general."
    got = spans(split_sentences(text))
    assert got == [(0, 10), (11, 34)]
    assert text[slice(*got[0])] == "ECOG-PS 0."
    assert text[slice(*got[1])] == "Regular estado general."


def test_split_empty():
    assert split_sentences("") == []


def test_split_no_terminator():
    assert spans(split_sentences("pT1aN0M0")) == [(0, 8)]


def test_split_blank_line():
    text = "primera linea\n\nsegunda linea"
    assert spans(split_sentences(text)) == [(0, 13), (15, 28)]


def test_split_decimal_not_terminator():
    text = "SUVmax 8.4 en mediastino."
    assert len(split_sentences(text)) == 1


def test_split_abbreviation_not_terminator():
    text = "Ver Fig. 12 del informe."
    assert len(split_sentences(text)) == 1
    text = "Dr. García lo confirma."
    assert len(split_sentences(text)) == 1


def test_split_single_letter_abbreviation():
    text = "J. García presenta disnea."
    assert len(split_sentences(text)) == 1


def test_split_accented_abbreviation():
    # "pág." folds to the stoplist entry "pag"
    text = "Ver pág. 4 del informe."
    assert len(split_sentences(text)) == 1


def test_split_terminator_run():
    text = "Sin cambios... Continuar tratamiento."
    assert spans(split_sentences(text)) == [(0, 14), (15, 37)]


def test_sentences_ordered_and_disjoint():
    text = "Una frase. Otra frase! Y una tercera? Final sin punto"
    sents = split_sentences(text)
    assert [s.index for s in sents] == list(range(len(sents)))
    for a, b in zip(sents, sents[1:]):
        assert a.span.end <= b.span.begin


@pytest.mark.parametrize(
    "text,expected",
    [
        ("EGFR + (del exon 19)", ["EGFR", "+", "(", "del", "exon", "19", ")"]),
        ("Karnofsky: 100%", ["Karnofsky", ":", "100", "%"]),
        ("I_A1", ["I", "_", "A1"]),
    ],
)
def test_tokenize_surfaces(text, expected):
    view = SentenceView(text)
    assert [text[b:e] for b, e, _ in view.tokens] == expected


def test_tokenize_kinds():
    view = SentenceView("T1a G719X 19 +")
    assert [kind for _, _, kind in view.tokens] == [WORD, WORD, NUMBER, SYMBOL]


def test_tokenize_spans_match_surfaces():
    text = "EGFR+ (del exón 19), ECOG 3."
    doc = Document("d", text)
    for sentence in split_sentences(text):
        view = SentenceView.from_sentence(doc, sentence)
        previous_end = 0
        for (b, e, _), norm in zip(view.tokens, view.norm_surfaces, strict=True):
            assert previous_end <= b < e <= len(view.text)
            assert norm == _textops.normalize_text(view.text[b:e])[0]
            previous_end = e


def test_covered_text():
    doc = Document("d", "EGFR+")
    assert covered_text(doc, Span(0, 4)) == "EGFR"
    assert covered_text(doc, Span(4, 5)) == "+"


def test_covered_text_out_of_bounds():
    with pytest.raises(OutOfBounds):
        covered_text(Document("d", "abc"), Span(1, 7))


# Clinical characters, with and without the ones that fold to more or fewer
# than one character (a bare acute vanishes, a Hangul syllable becomes three
# jamo): those texts cannot slice token surfaces out of the folded shadow.
_regular = "abcdeginorsxyzEGFRALKOS áéíóúñÁÉÑ0123456789 .,:()+-%_\n"
_view_texts = st.one_of(
    st.text(_regular, max_size=120),
    st.text(_regular + "\u0301\ud55c\u212a", max_size=120),
    st.text(max_size=80),
)


def _check_view(text, cuts):
    # The view tokenizes like the loop tokenizer of _textops_py: the same
    # triples and folded surfaces, and token_range gives the first and last
    # triple overlapping the span.
    doc = Document("d", text)
    for sentence in split_sentences(text):
        view = SentenceView.from_sentence(doc, sentence)
        begin, end = sentence.span.begin, sentence.span.end
        expected = _textops_py.token_spans(text, begin, end)
        assert [(begin + b, begin + e, k) for b, e, k in view.tokens] == expected
        assert view.norm_surfaces == [
            _textops_py._norm_token(text, b, e) for b, e, _ in expected
        ]
        points = sorted({begin, end, *(begin + c for c in cuts if begin + c < end)})
        for lo, hi in itertools.combinations(points, 2):
            hits = [i for i, (b, e, _) in enumerate(expected) if b < hi and lo < e]
            want = (hits[0], hits[-1]) if hits else None
            assert view.token_range(Span(lo, hi)) == want, (lo, hi)


@pytest.mark.parametrize(
    "text",
    [
        "EGFR + (del exón 19). Ros-1 negativo",
        "EGFR exo\u0301n 19 del; \ud55c ALK no traslocado. pT1aN0M0 estadio IA1",
        # Three jamo in, two marks out: as long as the text, not aligned to it.
        "EGFR \ud55c ex \u0301\u0301 exon 19 del. ECOG 1",
    ],
)
def test_view_matches_tokenize_examples(text):
    _check_view(text, [2, 5, 9, 30])


@given(_view_texts, st.lists(st.integers(0, 120), max_size=6))
@settings(max_examples=200, deadline=None)
def test_view_matches_tokenize(text, cuts):
    _check_view(text, cuts)
