"""The text kernels must agree with the loop version, byte for byte."""

import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _textops_py
from oncospan import _textops
from oncospan.corpusgen import generate_corpus
from oncospan.document import ABBREVIATION_STOPLIST

# Mix of plain ASCII, Spanish clinical text, digits, symbols and a few
# surprises that reach the kernels' slow and edge paths: a bare combining
# acute (folds to nothing), a Hangul syllable (folds to three jamo), a
# superscript two (a word, not a number), an Arabic-Indic three (a decimal
# number), a vertical tab between newlines (not a blank line), and the
# letters whose lower() is special: capital and final sigma (lowered by
# context), dotted capital I (lowers to two characters), capital sharp s,
# the Kelvin sign and the titlecase dz digraph.
_clinical = st.lists(
    st.sampled_from(
        list(
            "abcdefghijklmnopqrstuvwxyz"
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
            "áéíóúüñÁÉÍÓÚÜÑ"
            "0123456789"
            " \t\n\r.,;:()/%+-_!?"
            "\u0301한²٣"
            "\u03a3\u03c2\u0130\u1e9e\u212a\u01c5"
        )
        + ["\n\x0b\n"]
    ),
    max_size=200,
).map("".join)
_wild = st.text(max_size=120)
# The _clinical alphabet plus what decides a period locally: abbreviations,
# single letters, a decimal point, runs of terminators, and blank and
# near-blank lines.
_CLINICAL_UNITS = (
    list(
        "abcdefghijklmnopqrstuvwxyz"
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        "áéíóúüñÁÉÍÓÚÜÑ"
        "0123456789"
        " \t\n\r.,;:()/%+-_!?"
        "\u0301한²٣"
    )
    + ["\n\x0b\n", "Dr.", "J.", "1.5", "..", "?!", "\n \t\n", "\r", "\x0b"]
)
# Text below U+0100, which the kernels fold and classify through their byte
# tables: the units above that are Latin-1, and the Latin-1 characters whose
# fold or class is not a plain letter's: ordinal indicators, the micro sign,
# sharp s, y with diaeresis, superscript digits (words, not numbers), a
# vulgar fraction, spacing accents, the no-break space, next line and the
# information separators (all whitespace), and symbols that stay symbols.
_LATIN1_UNITS = [u for u in _CLINICAL_UNITS if max(u) < "\u0100"] + list(
    "ªºµßÿ¹³¼´¨¸\xa0\x85\x1c\x1f×÷ÆÐÞ¿¡«»°"
)
_latin1 = st.one_of(
    st.lists(st.sampled_from(_LATIN1_UNITS), max_size=80).map("".join),
    st.text(st.characters(max_codepoint=0xFF), max_size=120),
)
_texts = st.one_of(_clinical, _wild, _latin1)


@given(_texts)
@settings(max_examples=300, deadline=None)
def test_normalize_agrees(text):
    norm, offsets = _textops.normalize_text(text)
    assert (norm, list(offsets)) == _textops_py.normalize_text(text)


@given(_texts)
@settings(max_examples=300, deadline=None)
def test_sentence_spans_agree(text):
    assert _textops.sentence_spans(text) == (
        _textops_py.sentence_spans(text, ABBREVIATION_STOPLIST)
    )


@given(_texts)
@settings(max_examples=300, deadline=None)
def test_token_spans_agree(text):
    assert _textops.token_spans(text) == _textops_py.token_spans(text, 0, len(text))


@given(_texts)
@settings(max_examples=200, deadline=None)
def test_normalize_offsets_valid(text):
    norm, offsets = _textops.normalize_text(text)
    assert len(norm) == len(offsets)
    assert all(0 <= i < len(text) for i in offsets)
    assert list(offsets) == sorted(offsets)


def test_normalize_folds_case_and_accents():
    norm, offsets = _textops.normalize_text("Exón T790M")
    assert norm == "exon t790m"
    assert offsets == range(10)


def test_normalize_enie_keeps_n():
    norm, _ = _textops.normalize_text("año")
    assert norm == "ano"


def test_normalize_expansion_maps_to_source():
    # A Hangul syllable folds to its three jamo, a bare combining acute
    # vanishes, and the Kelvin sign folds to a plain k.
    norm, offsets = _textops.normalize_text("\ud55c a\u0301\u212aelvin")
    assert norm == "\u1112\u1161\u11ab akelvin"
    assert offsets == [0, 0, 0, 1, 2, 4, 5, 6, 7, 8, 9]


@given(_texts)
@settings(max_examples=200, deadline=None)
def test_sentences_within_bounds_and_ordered(text):
    spans = _textops.sentence_spans(text)
    previous_end = 0
    for begin, end in spans:
        assert 0 <= begin < end <= len(text)
        assert begin >= previous_end
        assert not text[begin].isspace()
        previous_end = end


@given(
    st.one_of(
        st.lists(st.sampled_from(_CLINICAL_UNITS), max_size=80).map("".join), _latin1
    )
)
@settings(max_examples=300, deadline=None)
@example("")
@example("Dr. J. Ruiz. 1.5 mg.. ECOG 1?! KPS\n \t\nEGFR\r\x0b.")
def test_sentence_span_at_equals_split(text):
    _assert_lookups_equal_split(text)


def _assert_lookups_equal_split(text):
    # Each position that can start an anchor finds the sentence holding it,
    # whether the scan back runs to the start or to the previous sentence.
    previous_end = 0
    for begin, end in _textops.sentence_spans(text):
        for at in range(begin, end):
            if text[at].isspace() or text[at] in ".!?":
                continue
            for floor in (0, previous_end):
                found = _textops.sentence_span_at(text, at, floor)
                assert found == (begin, end), (text, at, floor)
        previous_end = end


# What decides a sentence boundary: each terminator, a newline alone, a
# blank line holding a space, spaces and carriage returns, a letter (an
# abbreviation on its own), a digit (a decimal point), and an abbreviation
# from the stoplist.
_LOOKUP_PIECES = (".", "!", "?", "\n", "\n \n", " ", "\r", "a", "1", "dr.")


def test_sentence_span_at_equals_split_on_every_short_text():
    for size in range(5):
        for pieces in itertools.product(_LOOKUP_PIECES, repeat=size):
            _assert_lookups_equal_split("".join(pieces))


@given(_texts)
@settings(max_examples=200, deadline=None)
def test_tokens_cover_all_non_whitespace(text):
    spans = _textops.token_spans(text)
    covered = set()
    previous_end = 0
    for begin, end, kind in spans:
        assert kind in (0, 1, 2)
        assert previous_end <= begin < end <= len(text)
        covered.update(range(begin, end))
        previous_end = end
    for i, ch in enumerate(text):
        if not ch.isspace():
            assert i in covered


def test_number_kind_is_int_parseable():
    spans = _textops.token_spans("exon 19 y 2²")
    numbers = ["exon 19 y 2²"[b:e] for b, e, k in spans if k == 1]
    for surface in numbers:
        int(surface)


def test_irregular_character_recorded_before_its_fold_entry(monkeypatch):
    # Annotate threads share the fold table.  A thread that finds a
    # character's entry does not fold it again, so the irregular-character
    # set must already hold it for that thread to take the slow offset
    # path.
    recorded_when_written = []

    class RecordingTable(_textops._FoldTable):
        def __setitem__(self, code, folded):
            if len(folded) != 1:
                recorded_when_written.append(chr(code) in _textops._IRREGULAR)
            super().__setitem__(code, folded)

    monkeypatch.setattr(_textops, "_FOLD", RecordingTable())
    monkeypatch.setattr(_textops, "_IRREGULAR", {})
    text = "a\u0301 \uac00"
    assert _textops.normalize_text(text) == _textops_py.normalize_text(text)
    assert recorded_when_written == [True, True]
    # A text without them still takes the identity offsets.
    assert _textops.normalize_text("abc") == ("abc", range(3))


def test_astral_characters_leave_the_tables_unchanged(monkeypatch):
    # Linear B to Old Persian, then musical symbols, some of which fold to
    # two characters (U+1D15E) or to none (U+1D167, a bare combining mark).
    codes = list(range(0x10000, 0x10C00)) + list(range(0x1D100, 0x1D1E0))
    text = " ".join(
        "".join(map(chr, codes[i : i + 7])) + ".\n" for i in range(0, len(codes), 7)
    )
    # The text's BMP characters, through the offset loop as well.
    _textops.normalize_text(" .\n\u0301")
    _textops.token_spans(" .\n")
    sizes = len(_textops._FOLD), len(_textops._CLASS)
    norm, offsets = _textops.normalize_text(text)
    assert (norm, list(offsets)) == _textops_py.normalize_text(text)
    assert {"\U0001d15e", "\U0001d167"} <= _textops._IRREGULAR.keys()
    assert _textops.token_spans(text) == _textops_py.token_spans(text, 0, len(text))
    assert _textops.sentence_spans(text) == (
        _textops_py.sentence_spans(text, ABBREVIATION_STOPLIST)
    )
    # Meeting the irregular characters again compiles no pattern.
    compiled = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda *a: compiled.append(a) or compile_(*a))
    _textops.normalize_text(text)
    assert compiled == []
    assert (len(_textops._FOLD), len(_textops._CLASS)) == sizes


def test_first_fold_of_new_irregular_characters_compiles_at_most_once(monkeypatch):
    # Each new Hangul syllable folds to three jamo.  Recording one must not
    # rebuild anything that grows with the characters recorded so far.
    monkeypatch.setattr(_textops, "_FOLD", _textops._FoldTable())
    monkeypatch.setattr(_textops, "_IRREGULAR", {})
    text = "".join(map(chr, range(0xAC00, 0xAC00 + 4000)))
    compiled = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda *a: compiled.append(a) or compile_(*a))
    norm, offsets = _textops.normalize_text(text)
    assert len(compiled) <= 1
    assert (norm, list(offsets)) == _textops_py.normalize_text(text)


# About 20 kB of accented notes, into which one character whose fold is not
# one character is put first, in the middle or last.
_LONG = " ".join(doc.text for doc in generate_corpus(20, seed=7))


@pytest.mark.parametrize("where", [0, len(_LONG) // 2, len(_LONG)])
def test_long_text_with_one_regular_non_latin1_character(where):
    # An en dash takes the text off the byte tables; it folds to itself, so
    # the offsets stay the identity.
    text = _LONG[:where] + "\u2013" + _LONG[where:]
    norm, offsets = _textops.normalize_text(text)
    assert isinstance(offsets, range)
    assert (norm, list(offsets)) == _textops_py.normalize_text(text)
    assert _textops.token_spans(text) == _textops_py.token_spans(text, 0, len(text))


@pytest.mark.parametrize("irregular", ["한", "\u0301", "é\u0301한ñ", "\U0001d15e"])
@pytest.mark.parametrize("where", [0, len(_LONG) // 2, len(_LONG)])
def test_offsets_of_long_text_with_one_irregular_character(irregular, where):
    text = _LONG[:where] + irregular + _LONG[where:]
    norm, offsets = _textops.normalize_text(text)
    assert isinstance(offsets, list)
    assert (norm, offsets) == _textops_py.normalize_text(text)


def test_fold_table_read_once_per_non_ascii_character(monkeypatch):
    # The fold table is read at most once per character above U+00FF, also
    # when the offsets of a text holding an irregular character are built;
    # Latin-1 characters go through the byte table and never read it.
    lookups = []

    class CountingTable(_textops._FoldTable):
        def __getitem__(self, code):
            lookups.append(code)
            return super().__getitem__(code)

    monkeypatch.setattr(_textops, "_FOLD", CountingTable())
    monkeypatch.setattr(_textops, "_IRREGULAR", {})
    for text in (_LONG + "한", "\u0301" + _LONG, _LONG):
        lookups.clear()
        norm, offsets = _textops.normalize_text(text)
        assert (norm, list(offsets)) == _textops_py.normalize_text(text)
        if text is _LONG:
            assert lookups == []
        else:
            assert 0 < len(lookups) <= sum(ch > "\xff" for ch in text)


def _reference_class(ch):
    if ch.isdecimal():
        return "d"
    if _textops_py._is_token_char(ch):
        return "w"
    return " " if ch.isspace() else "s"


def test_byte_tables_equal_the_reference():
    # A Latin-1 text is folded and classified through 256-byte tables: each
    # entry must be the loop version's fold and token class of its code
    # point, and the class the lazy table gives any other text.
    chars = list(map(chr, range(256)))
    assert list(_textops._FOLD_LATIN1.decode("latin-1")) == list(
        map(_textops_py._norm_char, chars)
    )
    classes = list(_textops._CLASS_LATIN1.decode("ascii"))
    assert classes == list(map(_reference_class, chars))
    assert classes == [_textops._CLASS[ord(ch)] for ch in chars]


class _Uncached(dict):
    """A fold cache that keeps nothing, for a walk over every code point."""

    def __setitem__(self, key, value):
        pass


def test_every_character_folding_to_an_ascii_letter_or_digit_is_a_token_character(
    monkeypatch,
):
    # A gene, exon or point span holds a character whose fold is in
    # [0-9a-z], so it always overlaps a token: mutation._nearest needs no
    # rule for a span without one.
    monkeypatch.setattr(_textops_py, "_CHAR_CACHE", _Uncached())
    ascii_alnum = re.compile("[0-9a-z]")
    outside = [
        hex(code)
        for code in range(0x110000)
        if not 0xD800 <= code <= 0xDFFF
        and _reference_class(chr(code)) not in "dw"
        and ascii_alnum.search(_textops_py._norm_char(chr(code)))
    ]
    assert outside == []
