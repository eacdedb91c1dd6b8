"""Exception types raised across the package."""


class OncospanError(Exception):
    """Base class for all errors raised by this package."""


class OutOfBounds(OncospanError):
    """A span does not lie inside the text it is applied to."""


class _LineError(OncospanError):
    """An error at a line of an input file, named in the message when known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class MalformedLexicon(_LineError):
    """A cue lexicon file line could not be parsed."""


class ConflictingEntry(OncospanError):
    """The same cue phrase was declared both positive and negative."""


class InvalidStage(OncospanError):
    """A stage expression does not normalize to a known stage group."""


class AmbiguousCategory(OncospanError):
    """A coarse TNM category does not map to a single stage group."""


class ConfigError(OncospanError):
    """A pipeline configuration is unusable."""


class DuplicateDocumentId(OncospanError):
    """Two documents in one corpus share an id."""


class MalformedFile(_LineError):
    """A standoff file could not be parsed."""


class SpanMismatch(OncospanError):
    """A standoff record's covered text disagrees with the source text."""


class EmptyPredicate(OncospanError):
    """A query predicate with no constraints was given."""


class InvalidFilter(OncospanError):
    """A CLI filter expression could not be parsed."""
