"""Relational export as portable SQL text.

Three tables: documents, annotations, and a key-value feature table so one
schema serves every annotator.  Output is plain DDL + INSERT statements,
deterministic for a given result list, and replayable on any engine that
accepts standard SQL (identifiers are double-quoted; strings use doubled
single quotes).  A NUL cannot sit inside a string literal, so each one is
spliced in as ``' || char(0) || '`` (SQLite's ``char`` function).
"""

from typing import Sequence

from ._typesystem import DocumentResult
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
    ids = [_quote(result.document_id) for result in results]
    for doc_id, result in zip(ids, results):
        parts.append(
            "INSERT INTO documents (id, text) VALUES "
            f"({doc_id}, {_quote(result.text)});\n"
        )
    # Each distinct feature pair is quoted once.
    quoted: dict[tuple[str, str], str] = {}
    annotation_id = 0
    for doc_id, result in zip(ids, results):
        for ann in result.annotations:
            annotation_id += 1
            covered = result.text[ann.span.begin : ann.span.end]
            parts.append(
                "INSERT INTO annotations (id, document_id, begin_off, end_off, "
                "annotator, covered_text) VALUES "
                f"({annotation_id}, {doc_id}, "
                f"{ann.span.begin}, {ann.span.end}, "
                f"{_quote(ann.annotator)}, {_quote(covered)});\n"
            )
            for pair in features_of(ann):
                values = quoted.get(pair)
                if values is None:
                    values = quoted[pair] = f"{_quote(pair[0])}, {_quote(pair[1])}"
                parts.append(
                    'INSERT INTO annotation_features (annotation_id, "key", '
                    f'"value") VALUES ({annotation_id}, {values});\n'
                )
    return "".join(parts)
