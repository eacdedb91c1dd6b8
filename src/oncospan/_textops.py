"""Text kernels: normalization, sentence splitting and tokenization.

They are the hot path of the whole package: every document is normalized,
and each sentence holding an anchor is found by ``sentence_span_at`` and
tokenized if an annotator reads its tokens.  ``sentence_spans`` splits a
whole text; the lookup is checked against it.  The per-character work runs
inside ``bytes.translate``, ``str.translate`` and ``re``.  A text whose
every character is below U+0100 (Latin-1, which holds Spanish notes) is
folded and classified through two 256-byte tables.  In any other text the
fold sends its Latin-1 stretches through the byte table and its runs above
U+00FF through the lazy table, so each character goes through exactly one
table; the tokenizer classifies it through the lazy class table.
Python-level loops are left for the rare characters that fold to more or
fewer than one character and for the token before each period.
``tests/_textops_py.py`` keeps the plain loop version of the same contract,
and the test suite checks that both agree.

``document`` and the annotators call the kernels through this module, so a
wrapper set on a module attribute sees every call.
"""

import re
import unicodedata
from typing import Sequence

BACKEND_NAME = "python"


def backend_name() -> str:
    """Name of the kernel implementation; there is only ``"python"``."""
    return BACKEND_NAME


def available_backends() -> tuple[str, ...]:
    return (BACKEND_NAME,)


def set_backend(name: str) -> None:
    if name != BACKEND_NAME:
        raise ValueError(f"unknown backend {name!r}")


# Characters whose fold is not one character, with its length (combining
# marks vanish, Hangul syllables become jamo).  None of them is Latin-1 (see
# _FOLD_LATIN1), so normalize_text looks for them in the runs above U+00FF.
_IRREGULAR: dict[str, int] = {}

# The tables keep entries for the Basic Multilingual Plane only, so they stay
# bounded; rarer code points are folded and classified again on each call.
_CACHED_BELOW = 0x10000


class _FoldTable(dict):
    """Code point -> lowercased, accent-stripped string, filled lazily."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        folded = "".join(
            c
            for c in unicodedata.normalize("NFD", ch.lower())
            if unicodedata.category(c) != "Mn"
        )
        if len(folded) != 1:
            _IRREGULAR[ch] = len(folded)
        if code < _CACHED_BELOW:
            self[code] = folded
        return folded


_FOLD = _FoldTable()
# The fold of U+0000-U+00FF as a bytes.translate table.  Every such fold is
# one Latin-1 character (bytes(map(ord, ...)) fails at import otherwise),
# so a Latin-1 text keeps its length and its offsets are the identity.
_FOLD_LATIN1 = bytes(map(ord, map(_FOLD.__getitem__, range(256))))
# A run of characters above U+00FF; the group keeps the runs in split's output.
_ABOVE_LATIN1_RUN = re.compile(r"([^\x00-\xff]+)")


def _fold_latin1(text: str) -> str:
    """The fold of a Latin-1 *text*; UnicodeEncodeError for any other."""
    return text.encode("latin-1").translate(_FOLD_LATIN1).decode("latin-1")


def normalize_text(text: str) -> tuple[str, Sequence[int]]:
    """Lowercase *text* and strip combining marks, character by character.

    Returns ``(normalized, offsets)`` where ``offsets[i]`` is the index in
    *text* of the character that produced ``normalized[i]``.  Characters
    that vanish entirely (bare combining marks) emit nothing; characters
    that expand map every output character back to the same source index.
    When every character folds to exactly one, ``offsets`` is the identity
    ``range(len(text))``, and ``normalized[b:e]`` is the fold of
    ``text[b:e]``; otherwise it is a list.

    A Latin-1 text is folded by one ``bytes.translate``.  Any other text is
    split into runs above U+00FF, folded through the lazy table, and the
    Latin-1 stretches between them, folded through the byte table.
    """
    try:
        return _fold_latin1(text), range(len(text))
    except UnicodeEncodeError:
        pass
    parts = _ABOVE_LATIN1_RUN.split(text)
    runs = parts[1::2]
    parts[0::2] = map(_fold_latin1, parts[0::2])
    parts[1::2] = [run.translate(_FOLD) for run in runs]
    normalized = "".join(parts)
    if _IRREGULAR.keys().isdisjoint("".join(runs)):
        return normalized, range(len(text))
    # Only a run holding an irregular character is walked one by one.
    offsets: list[int] = []
    start = 0
    for run in _ABOVE_LATIN1_RUN.finditer(text):
        if not _IRREGULAR.keys().isdisjoint(run[0]):
            offsets += range(start, run.start())
            for i, ch in enumerate(run[0], run.start()):
                offsets += [i] * _IRREGULAR.get(ch, 1)
            start = run.end()
    offsets += range(start, len(text))
    return normalized, offsets


class _ClassTable(dict):
    """Code point -> token class: "d" decimal, "w" other token character,
    " " whitespace, "s" symbol.  Filled lazily."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        if ch.isdecimal():
            cls = "d"
        elif ch.isalnum() or unicodedata.category(ch) == "Mn":
            # Combining marks glue to the run they follow so that decomposed
            # input ("exo" + "´" + "n") tokenizes like its composed form.
            cls = "w"
        elif ch.isspace():
            cls = " "
        else:
            cls = "s"
        if code < _CACHED_BELOW:
            self[code] = cls
        return cls


_CLASS = _ClassTable()
# The class of U+0000-U+00FF as a bytes.translate table.
_CLASS_LATIN1 = "".join(map(_CLASS.__getitem__, range(256))).encode("ascii")
# Token kind codes.
WORD, NUMBER, SYMBOL = 0, 1, 2
# Kind code by lastindex: group 1 number, 2 word, 3 symbol.
_TOKEN_RE = re.compile(r"(d+)(?![dw])|([dw]+)|(s)")
_KIND_BY_GROUP = (None, NUMBER, WORD, SYMBOL)


def token_spans(text: str) -> list[tuple[int, int, int]]:
    """Tokenize *text* into ``(begin, end, kind)`` triples.

    Kind codes: 0 word, 1 number, 2 symbol.  Maximal alphanumeric runs form
    words (numbers when every character is a decimal digit); every other
    non-whitespace character is its own symbol token.  A Latin-1 text is
    classified by one ``bytes.translate``, any other through the lazy class
    table.
    """
    try:
        classes = text.encode("latin-1").translate(_CLASS_LATIN1).decode("latin-1")
    except UnicodeEncodeError:
        classes = text.translate(_CLASS)
    kinds = _KIND_BY_GROUP
    return [
        (m.start(), m.end(), kinds[m.lastindex])
        for m in _TOKEN_RE.finditer(classes)
    ]


_NON_SPACE = re.compile(r"\S")
# A terminator, or a newline that closes a blank line (only spaces, tabs
# and carriage returns up to the next newline or the end of the text).
_BOUNDARY = re.compile(r"[.!?]|\n[ \t\r]*(?:\n|\Z)")
_TERMINATOR_RUN = re.compile(r"[.!?]+")
# Tokens before a period that never end a sentence; single letters ("J.")
# are always treated as abbreviations.
ABBREVIATION_STOPLIST = frozenset({"dr", "dra", "sr", "sra", "vs", "fig", "pag"})


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """Split *text* into sentence spans.

    A sentence ends at a maximal run of ``.``, ``!``, ``?`` (the run is part
    of the span) or at a blank line (not part of the span).  A period is not
    a terminator when it sits between two digits, or when the token before
    it is an abbreviation: either a single letter or a member of
    ``ABBREVIATION_STOPLIST`` (compared after accent/case folding).  Spans
    start at the first non-whitespace character and never cover trailing
    whitespace.
    """
    spans: list[tuple[int, int]] = []
    pos = 0
    while (first := _NON_SPACE.search(text, pos)) is not None:
        start = first.start()
        end, pos = _sentence_end(text, start)
        spans.append((start, end))
    return spans


# The last terminator, or newline closing a blank line, in the searched
# range: _BOUNDARY's rule read backwards.
_LAST_BREAK = re.compile(r"(?s:.*)(?:[.!?]|\n[ \t\r]*\n)")


def sentence_span_at(text: str, at: int, floor: int = 0) -> tuple[int, int]:
    """The span ``sentence_spans(text)`` gives the sentence holding
    ``text[at]``, found without splitting the rest of *text*.

    ``text[at]`` must be neither whitespace nor a terminator.  *floor* is 0
    or the end of a sentence before that one; the scan back stops there.

    Every boundary's verdict is local.  As *at* is not a terminator, the
    nearest terminator before it closes a maximal run: the run ends a
    sentence if that terminator is ``!`` or ``?``, or a period that
    ``_period_terminates`` (which holds for any period after a terminator,
    so for every run of two or more).  A blank line always ends one.  So
    the sentence starts at the first non-whitespace character after the
    nearest such boundary, and ends where the forward scan of
    ``sentence_spans`` ends it.
    """
    stop, start = at, floor
    while (last := _LAST_BREAK.match(text, floor, stop)) is not None:
        p = last.end() - 1
        if text[p] != "." or _period_terminates(text, p):
            start = p + 1
            break
        stop = p
    start = _NON_SPACE.search(text, start).start()
    return start, _sentence_end(text, start)[0]


def _sentence_end(text: str, start: int) -> tuple[int, int]:
    """End of the sentence starting at *start*, and where the next one may."""
    scan = start
    while True:
        boundary = _BOUNDARY.search(text, scan)
        if boundary is None:
            return start + len(text[start:].rstrip()), len(text)
        at = boundary.start()
        if text[at] == "\n":
            return start + len(text[start:at].rstrip()), boundary.end()
        if text[at] == "." and not _period_terminates(text, at):
            scan = at + 1
            continue
        end = _TERMINATOR_RUN.match(text, at).end()
        return end, end


def _period_terminates(text: str, i: int) -> bool:
    n = len(text)
    if 0 < i < n - 1 and text[i - 1].isdigit() and text[i + 1].isdigit():
        return False
    # Find the token immediately before the period.
    j = i - 1
    while j >= 0 and text[j].isspace():
        j -= 1
    if j < 0 or _CLASS[ord(text[j])] not in "dw":
        # Start of text or a symbol token: the period terminates.
        return True
    k = j
    while k > 0 and _CLASS[ord(text[k - 1])] in "dw":
        k -= 1
    token = text[k : j + 1].translate(_FOLD)
    if len(token) == 1 and token.isalpha():
        return False
    if token in ABBREVIATION_STOPLIST:
        return False
    return True
