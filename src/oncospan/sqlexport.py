"""Relational export as portable SQL text.

Three tables: documents, annotations, and a key-value feature table so one
schema serves every annotator.  Output is plain DDL + INSERT statements,
deterministic for a given result list, and replayable on any engine that
accepts standard SQL (identifiers are double-quoted; strings use doubled
single quotes).  A NUL cannot sit inside a string literal, so each one is
spliced in as ``' || char(0) || '`` (SQLite's ``char`` function).
"""

from typing import Sequence

from .pipeline import DocumentResult
from .standoff import features_of

_DDL = """\
CREATE TABLE documents (
    id VARCHAR(255) NOT NULL,
    text TEXT NOT NULL,
    PRIMARY KEY (id)
);

CREATE TABLE annotations (
    id INTEGER NOT NULL,
    document_id VARCHAR(255) NOT NULL,
    begin_off INTEGER NOT NULL,
    end_off INTEGER NOT NULL,
    annotator VARCHAR(32) NOT NULL,
    covered_text TEXT NOT NULL,
    PRIMARY KEY (id)
);

CREATE TABLE annotation_features (
    annotation_id INTEGER NOT NULL,
    "key" VARCHAR(32) NOT NULL,
    "value" TEXT NOT NULL,
    PRIMARY KEY (annotation_id, "key")
);
"""


def _quote(value: str) -> str:
    return "'" + value.replace("'", "''").replace("\0", "' || char(0) || '") + "'"


def emit_sql(results: Sequence[DocumentResult]) -> str:
    parts = [_DDL, "\n"]
    annotation_id = 0
    for result in results:
        parts.append(
            "INSERT INTO documents (id, text) VALUES "
            f"({_quote(result.document_id)}, {_quote(result.text)});\n"
        )
    for result in results:
        for ann in result.annotations:
            annotation_id += 1
            covered = result.text[ann.span.begin : ann.span.end]
            parts.append(
                "INSERT INTO annotations (id, document_id, begin_off, end_off, "
                "annotator, covered_text) VALUES "
                f"({annotation_id}, {_quote(result.document_id)}, "
                f"{ann.span.begin}, {ann.span.end}, "
                f"{_quote(ann.annotator)}, {_quote(covered)});\n"
            )
            for key, value in features_of(ann):
                parts.append(
                    'INSERT INTO annotation_features (annotation_id, "key", '
                    f'"value") VALUES ({annotation_id}, {_quote(key)}, '
                    f"{_quote(value)});\n"
                )
    return "".join(parts)


__all__ = ["emit_sql"]
