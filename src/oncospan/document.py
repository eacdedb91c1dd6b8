"""Document model: documents, sentences, sentence views.

All offsets are Unicode code-point indexes into the original document text,
begin inclusive, end exclusive.  Normalization (case and accent folding)
happens on shadow copies used for matching; spans always point back into
the text as written.  ``Span`` and ``Diagnostic`` are declared in
``_typesystem`` and bound here too.
"""

import re
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import NamedTuple, Sequence

from . import _textops
from ._typesystem import Diagnostic, Span, check_document_id, checked_tuple
from .errors import OutOfBounds

_SURROGATE = re.compile("[\ud800-\udfff]")


class Document(checked_tuple("Document", [("id", str), ("text", str)])):
    __slots__ = ()

    def __new__(cls, id, text):
        check_document_id(id)
        if _SURROGATE.search(text):
            # No output format could encode it.
            raise ValueError("document text must not hold a lone surrogate")
        return tuple.__new__(cls, (id, text))


class Sentence(NamedTuple):
    span: Span
    index: int


def covered_text(document: Document, span: Span) -> str:
    if span.end > len(document.text):
        raise OutOfBounds(
            f"span [{span.begin}, {span.end}) exceeds document "
            f"{document.id!r} of length {len(document.text)}"
        )
    return document.text[span.begin : span.end]


def split_sentences(text: str) -> list[Sentence]:
    return [
        Sentence(Span(b, e), i)
        for i, (b, e) in enumerate(_textops.sentence_spans(text))
    ]


class SentenceView:
    """One sentence prepared for matching.

    Carries the original slice, its normalized shadow with the offset map
    back to the original, and the kernel's tokens as ``(begin, end, kind)``
    triples with offsets relative to the sentence, kind codes as in
    ``_textops.token_spans``.  ``norm_surfaces[i]`` is the folded surface of
    token ``i``.  Built once per sentence and shared by every annotator;
    the tokens and their folded surfaces are built on first read.  *folded*,
    when given, is ``_textops.normalize_text(text)``, computed by the caller
    (see ``in_folded``).
    """

    __slots__ = (
        "text",
        "base",
        "norm",
        "norm_map",
        "_tokens",
        "_norm_surfaces",
    )

    def __init__(
        self,
        text: str,
        base: int = 0,
        folded: tuple[str, Sequence[int]] | None = None,
    ):
        self.text = text
        self.base = base
        self.norm, self.norm_map = (
            _textops.normalize_text(text) if folded is None else folded
        )
        self._tokens = self._norm_surfaces = None

    @property
    def tokens(self) -> list[tuple[int, int, int]]:
        if self._tokens is None:
            self._tokens = _textops.token_spans(self.text)
        return self._tokens

    @property
    def norm_surfaces(self) -> list[str]:
        if self._norm_surfaces is None:
            if type(self.norm_map) is range:
                # Every character folds to one: the shadow lines up with the text.
                norm = self.norm
                self._norm_surfaces = [norm[b:e] for b, e, _ in self.tokens]
            else:
                text, fold = self.text, _textops.normalize_text
                self._norm_surfaces = [fold(text[b:e])[0] for b, e, _ in self.tokens]
        return self._norm_surfaces

    @classmethod
    def from_sentence(cls, document: Document, sentence: Sentence) -> "SentenceView":
        return cls(covered_text(document, sentence.span), sentence.span.begin)

    @classmethod
    def in_folded(
        cls, text: str, folded: tuple[str, Sequence[int]], span: Span
    ) -> "SentenceView":
        """The view of ``text[span]``, cut from ``folded = normalize_text(text)``.

        The fold works character by character, so the part of the shadow
        that the characters of *span* produced is the fold of that slice.
        """
        norm, offsets = folded
        begin, end = span.begin, span.end
        if type(offsets) is range:
            own = norm[begin:end], range(end - begin)
        else:
            lo = bisect_left(offsets, begin)
            hi = bisect_left(offsets, end)
            own = norm[lo:hi], [i - begin for i in offsets[lo:hi]]
        return cls(text[begin:end], begin, own)

    def token_range(self, span: Span) -> tuple[int, int] | None:
        """Indexes (first, last) of the tokens overlapping *span*, or None."""
        first = bisect_right(self.tokens, span.begin - self.base, key=itemgetter(1))
        last = bisect_left(self.tokens, span.end - self.base, key=itemgetter(0)) - 1
        if first > last:
            return None
        return first, last

    def orig_span(self, norm_begin: int, norm_end: int) -> Span:
        """Map a half-open range on the normalized shadow to a source span."""
        if norm_begin >= norm_end:
            raise ValueError("empty normalized range")
        return Span(
            self.base + self.norm_map[norm_begin],
            self.base + self.norm_map[norm_end - 1] + 1,
        )

    def covered(self, span: Span) -> str:
        return self.text[span.begin - self.base : span.end - self.base]
