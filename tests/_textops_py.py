"""Pure-Python text kernels, one loop iteration per character.

The executable specification of ``oncospan._textops``: both must produce
identical output for identical input (``test_kernels.py`` checks this
property on fuzzed text).
"""

import unicodedata

BACKEND_NAME = "python"

_TERMINATORS = (".", "!", "?")

# Cache of single-character normalizations.  Clinical text reuses a small
# alphabet, so after the first few hundred characters nearly every lookup
# hits.
_CHAR_CACHE: dict[str, str] = {}


def _norm_char(ch: str) -> str:
    cached = _CHAR_CACHE.get(ch)
    if cached is None:
        cached = "".join(
            c
            for c in unicodedata.normalize("NFD", ch.lower())
            if unicodedata.category(c) != "Mn"
        )
        _CHAR_CACHE[ch] = cached
    return cached


def normalize_text(text: str) -> tuple[str, list[int]]:
    """Lowercase *text* and strip combining marks, character by character.

    Returns ``(normalized, offsets)`` where ``offsets[i]`` is the index in
    *text* of the character that produced ``normalized[i]``.  Characters
    that vanish entirely (bare combining marks) emit nothing; characters
    that expand map every output character back to the same source index.
    """
    parts: list[str] = []
    offsets: list[int] = []
    for i, ch in enumerate(text):
        repl = _norm_char(ch)
        if repl:
            parts.append(repl)
            offsets.extend([i] * len(repl))
    return "".join(parts), offsets


def _is_token_char(ch: str) -> bool:
    # Combining marks glue to the run they follow so that decomposed input
    # ("exo" + "´" + "n") tokenizes like its composed form.
    return ch.isalnum() or unicodedata.category(ch) == "Mn"


def _norm_token(text: str, begin: int, end: int) -> str:
    return "".join(_norm_char(text[i]) for i in range(begin, end))


def sentence_spans(
    text: str, abbreviations: frozenset[str] = frozenset()
) -> list[tuple[int, int]]:
    """Split *text* into sentence spans.

    A sentence ends at a maximal run of ``.``, ``!``, ``?`` (the run is part
    of the span) or at a blank line (not part of the span).  A period is not
    a terminator when it sits between two digits, or when the token before
    it is an abbreviation: either a single letter or a member of
    *abbreviations* (compared after accent/case folding).  Spans start at
    the first non-whitespace character and never cover trailing whitespace.
    """
    spans: list[tuple[int, int]] = []
    n = len(text)
    i = 0
    start = -1  # -1 while between sentences
    last = -1  # one past the last non-whitespace char of the open sentence
    while i < n:
        ch = text[i]
        if start == -1:
            if ch.isspace():
                i += 1
                continue
            start = i
        if ch == "\n":
            j = i + 1
            while j < n and text[j] in (" ", "\t", "\r"):
                j += 1
            if j >= n or text[j] == "\n":
                if last > start:
                    spans.append((start, last))
                start = -1
                i = j + 1
                continue
            i += 1
            continue
        if ch in _TERMINATORS:
            if ch == "." and not _period_terminates(text, i, abbreviations):
                last = i + 1
                i += 1
                continue
            j = i
            while j + 1 < n and text[j + 1] in _TERMINATORS:
                j += 1
            spans.append((start, j + 1))
            start = -1
            last = -1
            i = j + 1
            continue
        if not ch.isspace():
            last = i + 1
        i += 1
    if start != -1 and last > start:
        spans.append((start, last))
    return spans


def _period_terminates(text: str, i: int, abbreviations: frozenset[str]) -> bool:
    n = len(text)
    if 0 < i < n - 1 and text[i - 1].isdigit() and text[i + 1].isdigit():
        return False
    # Find the token immediately before the period.
    j = i - 1
    while j >= 0 and text[j].isspace():
        j -= 1
    if j < 0 or not _is_token_char(text[j]):
        # Start of text or a symbol token: the period terminates.
        return True
    k = j
    while k > 0 and _is_token_char(text[k - 1]):
        k -= 1
    token = _norm_token(text, k, j + 1)
    if len(token) == 1 and token.isalpha():
        return False
    if token in abbreviations:
        return False
    return True


def token_spans(text: str, begin: int, end: int) -> list[tuple[int, int, int]]:
    """Tokenize ``text[begin:end]`` into ``(begin, end, kind)`` triples.

    Offsets are absolute in *text*.  Kind codes: 0 word, 1 number,
    2 symbol.  Maximal alphanumeric runs form words (numbers when every
    character is a decimal digit); every other non-whitespace character is
    its own symbol token.
    """
    out: list[tuple[int, int, int]] = []
    run_start = -1
    all_decimal = True
    i = begin
    while i < end:
        ch = text[i]
        if _is_token_char(ch):
            if run_start == -1:
                run_start = i
                all_decimal = True
            if not ch.isdecimal():
                all_decimal = False
        else:
            if run_start != -1:
                out.append((run_start, i, 1 if all_decimal else 0))
                run_start = -1
            if not ch.isspace():
                out.append((i, i + 1, 2))
        i += 1
    if run_start != -1:
        out.append((run_start, end, 1 if all_decimal else 0))
    return out
