import sqlite3

from conftest import MUTATION_NOTE, STAGING_NOTE, PERFSTATUS_NOTE
from oncospan import Document, corpusgen, emit_sql, process_corpus, sqlexport
from oncospan.standoff import features_of


def _replay(sql: str) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    conn.executescript(sql)
    return conn


def _results(pipeline, docs):
    return process_corpus(pipeline, docs)


def test_ddl_present(default_pipeline):
    sql = emit_sql(_results(default_pipeline, []))
    assert "CREATE TABLE documents" in sql
    assert "CREATE TABLE annotations" in sql
    assert "CREATE TABLE annotation_features" in sql


def test_replay_counts(default_pipeline):
    docs = [
        Document("mut", MUTATION_NOTE),
        Document("stg", STAGING_NOTE),
        Document("ps", PERFSTATUS_NOTE),
    ]
    results = _results(default_pipeline, docs)
    expected_anns = sum(len(r.annotations) for r in results)
    conn = _replay(emit_sql(results))
    assert conn.execute("SELECT COUNT(*) FROM documents").fetchone()[0] == 3
    assert (
        conn.execute("SELECT COUNT(*) FROM annotations").fetchone()[0]
        == expected_anns
    )
    stored = conn.execute(
        "SELECT id, text FROM documents ORDER BY id"
    ).fetchall()
    assert stored == [
        ("mut", MUTATION_NOTE),
        ("ps", PERFSTATUS_NOTE),
        ("stg", STAGING_NOTE),
    ]


def test_staging_feature_rows(default_pipeline):
    results = _results(default_pipeline, [Document("stg", STAGING_NOTE)])
    conn = _replay(emit_sql(results))
    rows = set(
        conn.execute(
            'SELECT "key", "value" FROM annotation_features '
            "JOIN annotations ON annotations.id = annotation_id "
            "WHERE annotations.document_id = 'stg'"
        ).fetchall()
    )
    for expected in [
        ("t", "T1a"),
        ("n", "N0"),
        ("m", "M0"),
        ("prefix", "P"),
        ("stage", "IA1"),
    ]:
        assert expected in rows


def test_annotation_rows(default_pipeline):
    results = _results(default_pipeline, [Document("stg", STAGING_NOTE)])
    conn = _replay(emit_sql(results))
    rows = conn.execute(
        "SELECT id, document_id, begin_off, end_off, annotator, covered_text "
        "FROM annotations ORDER BY id"
    ).fetchall()
    assert [r[0] for r in rows] == [1, 2]
    assert rows[0][4] == "tnm" and rows[0][5] == "pT1aN0M0"
    assert rows[1][4] == "stage" and rows[1][5] == "I_A1"
    for _, _, begin, end, _, covered in rows:
        assert STAGING_NOTE[begin:end] == covered


def test_ids_sequential_across_documents(default_pipeline):
    docs = [Document("a", MUTATION_NOTE), Document("b", STAGING_NOTE)]
    conn = _replay(emit_sql(_results(default_pipeline, docs)))
    ids = [r[0] for r in conn.execute("SELECT id FROM annotations ORDER BY id")]
    assert ids == list(range(1, len(ids) + 1))


def test_deterministic(default_pipeline):
    docs = [Document("a", MUTATION_NOTE), Document("b", STAGING_NOTE)]
    first = emit_sql(_results(default_pipeline, docs))
    second = emit_sql(_results(default_pipeline, docs))
    assert first == second


def test_quote_escaping(default_pipeline):
    text = "Informe d'urgencias: EGFR no mutado."
    results = _results(default_pipeline, [Document("q'doc", text)])
    sql = emit_sql(results)
    assert "d''urgencias" in sql
    conn = _replay(sql)
    row = conn.execute("SELECT id, text FROM documents").fetchone()
    assert row == ("q'doc", text)


def test_feature_pk_holds(default_pipeline):
    # replaying twice into one database must fail on the primary keys,
    # proving they are declared
    docs = [Document("a", STAGING_NOTE)]
    sql = emit_sql(_results(default_pipeline, docs))
    conn = _replay(sql)
    import pytest

    with pytest.raises(sqlite3.IntegrityError):
        conn.executescript(
            "\n".join(
                line for line in sql.splitlines() if line.startswith("INSERT")
            )
        )


def test_nul_in_text_replays_exactly(default_pipeline):
    text = "EGFR mutado.\x00 fin \x00'\x00"
    results = _results(default_pipeline, [Document("nul", text)])
    sql = emit_sql(results)
    assert "\x00" not in sql
    conn = _replay(sql)
    assert conn.execute("SELECT text FROM documents").fetchall() == [(text,)]
    covered = conn.execute("SELECT covered_text FROM annotations").fetchall()
    assert covered == [("EGFR",)]


def test_each_id_and_feature_pair_quoted_once(default_pipeline, monkeypatch):
    # Text and covered text are quoted where they occur; a document id once
    # per document and a feature pair once per export, however often their
    # rows repeat them.
    results = _results(default_pipeline, corpusgen.generate_corpus(40, seed=7))
    expected = emit_sql(results)
    quoted = []
    quote = sqlexport._quote

    def counting(value):
        quoted.append(value)
        return quote(value)

    monkeypatch.setattr(sqlexport, "_quote", counting)
    assert emit_sql(results) == expected
    annotations = [ann for result in results for ann in result.annotations]
    pairs = {pair for ann in annotations for pair in features_of(ann)}
    assert len(quoted) == 2 * len(results) + 2 * len(annotations) + 2 * len(pairs)
