"""Acceptance gate: one test per shipping criterion.

Each test carries a ``criterion`` marker; the terminal summary prints one
PASS/FAIL line per criterion.  Timings use perf_counter around the
annotation call only.
"""

import itertools
import random
import sqlite3
import time

import pytest

from conftest import MUTATION_NOTE, STAGING_NOTE, COMBINED_NOTE, N_COLUMNS, PERFSTATUS_NOTE, STAGE_TABLE
from oncospan import (
    ConsistencyVerdict,
    Document,
    Gene,
    MCategory,
    NCategory,
    Polarity,
    PSScale,
    QueryPredicate,
    StageGroup,
    TCategory,
    TnmPrefix,
    deserialize_result,
    emit_sql,
    parse_stage,
    parse_tnm,
    normalize_stage,
    process_corpus,
    query_results,
    serialize_result,
    tnm_to_stage_group,
)
from oncospan.cli import cli_main
from oncospan.corpusgen import generate_corpus
from oncospan.mutation import ExonKind, MutationAnnotation
from oncospan.perfstatus import PSAnnotation
from oncospan.staging import StageAnnotation, TNMAnnotation
from oncospan.standoff import read_standoff

CORPUS_SIZE = 1000


@pytest.fixture(scope="module")
def corpus_docs():
    return generate_corpus(CORPUS_SIZE)


@pytest.fixture(scope="module")
def corpus_results(default_pipeline, corpus_docs):
    return process_corpus(default_pipeline, corpus_docs)


@pytest.mark.criterion(1, "mutation fixture: 3 annotations, < 1 s")
def test_criterion_1_mutation_fixture(default_pipeline):
    start = time.perf_counter()
    result = default_pipeline.process_document(Document("mut", MUTATION_NOTE))
    elapsed = time.perf_counter() - start
    anns = [a for a in result.annotations if isinstance(a, MutationAnnotation)]
    assert len(result.annotations) == 3
    assert len(anns) == 3
    egfr, alk, ros1 = sorted(anns, key=lambda a: a.span.begin)
    assert egfr.gene is Gene.EGFR
    assert egfr.polarity is Polarity.POSITIVE
    assert egfr.exon is not None
    assert egfr.exon.number == 19
    assert egfr.exon.kind is ExonKind.DELETION
    assert alk.gene is Gene.ALK and alk.polarity is Polarity.NEGATIVE
    assert ros1.gene is Gene.ROS1 and ros1.polarity is Polarity.NEGATIVE
    for ann in anns:
        covered = MUTATION_NOTE[ann.span.begin : ann.span.end]
        assert covered == ann.gene.value or covered.upper().startswith(ann.gene.value[:3])
    assert elapsed < 1.0


@pytest.mark.criterion(2, "staging fixture: TNM + stage + consistent, < 1 s")
def test_criterion_2_staging_fixture(default_pipeline):
    start = time.perf_counter()
    result = default_pipeline.process_document(Document("stg", STAGING_NOTE))
    elapsed = time.perf_counter() - start
    tnms = [a for a in result.annotations if isinstance(a, TNMAnnotation)]
    stages = [a for a in result.annotations if isinstance(a, StageAnnotation)]
    assert len(tnms) == 1 and len(stages) == 1
    tnm = tnms[0]
    assert (tnm.prefix, tnm.t, tnm.n, tnm.m) == (
        TnmPrefix.P,
        TCategory.T1A,
        NCategory.N0,
        MCategory.M0,
    )
    assert STAGING_NOTE[tnm.span.begin : tnm.span.end] == "pT1aN0M0"
    assert stages[0].stage is StageGroup.IA1
    assert STAGING_NOTE[stages[0].span.begin : stages[0].span.end] == "I_A1"
    assert len(result.consistency) == 1
    report = result.consistency[0]
    assert report.verdict is ConsistencyVerdict.CONSISTENT
    assert report.expected is StageGroup.IA1
    assert elapsed < 1.0


@pytest.mark.criterion(3, "performance-status fixture: ECOG 0 and Karnofsky 100 only")
def test_criterion_3_performance_status_fixture(default_pipeline):
    result = default_pipeline.process_document(Document("ps", PERFSTATUS_NOTE))
    assert len(result.annotations) == 2
    ecog, karnofsky = result.annotations
    assert isinstance(ecog, PSAnnotation)
    assert ecog.scale is PSScale.ECOG and ecog.value == 0
    assert isinstance(karnofsky, PSAnnotation)
    assert karnofsky.scale is PSScale.KARNOFSKY and karnofsky.value == 100
    assert result.diagnostics == ()
    assert result.consistency == ()


@pytest.mark.criterion(4, "combined fixture: ECOG 3, stage IV, EGFR/ALK negative")
def test_criterion_4_combined_fixture(default_pipeline):
    result = default_pipeline.process_document(Document("cmb", COMBINED_NOTE))
    ps = [a for a in result.annotations if isinstance(a, PSAnnotation)]
    stages = [a for a in result.annotations if isinstance(a, StageAnnotation)]
    mutations = [a for a in result.annotations if isinstance(a, MutationAnnotation)]
    assert [(a.scale, a.value) for a in ps] == [(PSScale.ECOG, 3)]
    assert [a.stage for a in stages] == [StageGroup.IV]
    assert [(a.gene, a.polarity) for a in mutations] == [
        (Gene.EGFR, Polarity.NEGATIVE),
        (Gene.ALK, Polarity.NEGATIVE),
    ]


@pytest.mark.criterion(5, "stage-group table: all 32 named cells, 0 tolerance")
def test_criterion_5_stage_table_fidelity():
    t_by_value = {t.value: t for t in TCategory}
    n_by_value = {n.value: n for n in NCategory}
    m_by_value = {m.value: m for m in MCategory}
    checked = 0
    for t_label in ("T1a", "T1b", "T1c", "T2a", "T2b"):
        for n_label, expected in zip(N_COLUMNS, STAGE_TABLE[t_label]):
            got = tnm_to_stage_group(
                t_by_value[t_label], n_by_value[n_label], MCategory.M0
            )
            assert got.value == expected, (t_label, n_label)
            checked += 1
    for m_label in ("M1a", "M1b", "M1c"):
        for n_label, expected in zip(N_COLUMNS, STAGE_TABLE[m_label]):
            # the M1 rows apply to any T; spot the corner categories
            for t in (TCategory.T1A, TCategory.T4):
                got = tnm_to_stage_group(t, n_by_value[n_label], m_by_value[m_label])
                assert got.value == expected, (m_label, n_label)
            checked += 1
    assert checked == 32
    # the remaining grid rows, same fixture, same tolerance
    for t_label in ("T3", "T4"):
        for n_label, expected in zip(N_COLUMNS, STAGE_TABLE[t_label]):
            got = tnm_to_stage_group(
                t_by_value[t_label], n_by_value[n_label], MCategory.M0
            )
            assert got.value == expected, (t_label, n_label)


@pytest.mark.criterion(6, "notation robustness: stage variants and TNM enumeration")
def test_criterion_6_notation_robustness():
    for variant in ("IA1", "I-A1", "I_A_1", "I(A1)", "I.A1"):
        assert normalize_stage(variant) is StageGroup.IA1, variant
        found = parse_stage(f"estadio {variant}")
        assert [a.stage for a in found] == [StageGroup.IA1], variant

    prefixes = {
        "": TnmPrefix.NONE,
        "c": TnmPrefix.C,
        "p": TnmPrefix.P,
        "yc": TnmPrefix.YC,
        "yp": TnmPrefix.YP,
        "r": TnmPrefix.R,
        "a": TnmPrefix.A,
    }
    separators = ("", " ", "-", "_", ":", ".")
    t_values = {t.value: t for t in TCategory}
    n_values = {n.value: n for n in NCategory}
    m_values = {m.value: m for m in MCategory}
    cases = 0
    for (ps, prefix), sep, (ts, t), (ns, n), (ms, m) in itertools.product(
        prefixes.items(), separators, t_values.items(), n_values.items(), m_values.items()
    ):
        surface = f"{ps}{ts}{sep}{ns}{sep}{ms}"
        got = parse_tnm(surface)
        assert len(got) == 1, surface
        ann = got[0]
        assert (ann.prefix, ann.t, ann.n, ann.m) == (prefix, t, n, m), surface
        assert ann.raw == surface, surface
        cases += 1
    assert cases == 7 * 6 * 9 * 4 * 5
    assert cases >= 6 * 6 * 9 * 4 * 4


@pytest.mark.criterion(7, "corpus invariants: offsets, round-trip, parallel identity")
def test_criterion_7_corpus_invariants(corpus_docs, corpus_results, tmp_path):
    assert len(corpus_results) == CORPUS_SIZE
    ids = [r.document_id for r in corpus_results]
    assert ids == sorted(ids) and len(set(ids)) == CORPUS_SIZE

    total = 0
    for result in corpus_results:
        for ann in result.annotations:
            covered = result.text[ann.span.begin : ann.span.end]
            raw = getattr(ann, "raw", None)
            if raw is not None:
                assert covered == raw, (result.document_id, ann)
            total += 1
        data = serialize_result(result)
        assert deserialize_result(data) == result
        standoff = read_standoff(data)
        for record in standoff.records:
            assert (
                standoff.source_text[record.begin : record.end]
                == record.covered_text
            )
    assert total > 0

    # --jobs is where a parallel run would be asked for: its files equal
    # those of the default run and of the results above.
    notes = tmp_path / "notes"
    notes.mkdir()
    for doc in corpus_docs:
        (notes / f"{doc.id}.txt").write_bytes(doc.text.encode("utf-8"))
    for out, extra in (("serial", []), ("jobs4", ["--jobs", "4"])):
        args = ["annotate", "--input", str(notes), "--out", str(tmp_path / out)]
        assert cli_main(args + extra) == 0
    for result in corpus_results:
        name = f"{result.document_id}.ann"
        data = (tmp_path / "serial" / name).read_bytes()
        assert data == serialize_result(result)
        assert (tmp_path / "jobs4" / name).read_bytes() == data


# coarse stage groups expanded by hand; the oracle must not call the
# package's own covering helper
_STAGE_EXPANSION = {
    "I": {"I", "IA", "IA1", "IA2", "IA3", "IB"},
    "IA": {"IA", "IA1", "IA2", "IA3"},
    "II": {"II", "IIA", "IIB"},
    "III": {"III", "IIIA", "IIIB", "IIIC"},
    "IV": {"IV", "IVA", "IVB"},
}


def _expand_stage(value: str) -> set[str]:
    return _STAGE_EXPANSION.get(value, {value})


def _random_predicates(count: int, rng: random.Random) -> list[QueryPredicate]:
    predicates = []
    keys = ("gene", "polarity", "stage", "ecog", "karnofsky", "t", "n", "m")
    while len(predicates) < count:
        chosen = rng.sample(keys, k=rng.randint(1, 3))
        fields = {}
        for key in chosen:
            if key == "gene":
                fields[key] = rng.choice(list(Gene))
            elif key == "polarity":
                fields[key] = rng.choice(list(Polarity))
            elif key == "stage":
                fields[key] = rng.choice(list(StageGroup))
            elif key == "ecog":
                lo = rng.randint(0, 5)
                fields[key] = (lo, rng.randint(lo, 5))
            elif key == "karnofsky":
                lo = rng.randint(0, 100)
                fields[key] = (lo, rng.randint(lo, 100))
            elif key == "t":
                fields[key] = rng.choice(list(TCategory))
            elif key == "n":
                fields[key] = rng.choice(list(NCategory))
            else:
                fields[key] = rng.choice(list(MCategory))
        predicates.append(QueryPredicate(**fields))
    return predicates


def _brute_force_match(records, predicate: QueryPredicate) -> bool:
    """Rescan standoff feature strings; shares no code with query_results."""
    feats = [(r.annotator, dict(r.features)) for r in records]
    if predicate.gene is not None or predicate.polarity is not None:
        ok = False
        for annotator, f in feats:
            if annotator != "mutation":
                continue
            if predicate.gene is not None and f["gene"] != predicate.gene.value:
                continue
            if (
                predicate.polarity is not None
                and f["polarity"] != predicate.polarity.value
            ):
                continue
            ok = True
            break
        if not ok:
            return False
    if predicate.stage is not None:
        wanted = _expand_stage(predicate.stage.value)
        if not any(
            annotator == "stage" and f["stage"] in wanted for annotator, f in feats
        ):
            return False
    for scale_name, rng_ in (("ECOG", predicate.ecog), ("Karnofsky", predicate.karnofsky)):
        if rng_ is None:
            continue
        lo, hi = rng_
        if not any(
            annotator == "ps"
            and f["scale"] == scale_name
            and lo <= int(f["value"]) <= hi
            for annotator, f in feats
        ):
            return False
    for key, want in (("t", predicate.t), ("n", predicate.n), ("m", predicate.m)):
        if want is None:
            continue
        if not any(
            annotator == "tnm" and f[key] == want.value for annotator, f in feats
        ):
            return False
    return True


def _sql_match_ids(conn: sqlite3.Connection, predicate: QueryPredicate) -> set[str]:
    """Evaluate the predicate with SELECTs over the exported schema."""
    sets: list[set[str]] = []

    if predicate.gene is not None or predicate.polarity is not None:
        sql = (
            "SELECT DISTINCT a.document_id FROM annotations a "
        )
        params: list[str] = []
        if predicate.gene is not None:
            sql += (
                "JOIN annotation_features fg ON fg.annotation_id = a.id "
                "AND fg.\"key\" = 'gene' AND fg.\"value\" = ? "
            )
            params.append(predicate.gene.value)
        if predicate.polarity is not None:
            sql += (
                "JOIN annotation_features fp ON fp.annotation_id = a.id "
                "AND fp.\"key\" = 'polarity' AND fp.\"value\" = ? "
            )
            params.append(predicate.polarity.value)
        sql += "WHERE a.annotator = 'mutation'"
        sets.append({row[0] for row in conn.execute(sql, params)})

    if predicate.stage is not None:
        wanted = sorted(_expand_stage(predicate.stage.value))
        marks = ",".join("?" for _ in wanted)
        sql = (
            "SELECT DISTINCT a.document_id FROM annotations a "
            "JOIN annotation_features f ON f.annotation_id = a.id "
            "AND f.\"key\" = 'stage' "
            f"WHERE a.annotator = 'stage' AND f.\"value\" IN ({marks})"
        )
        sets.append({row[0] for row in conn.execute(sql, wanted)})

    for scale_name, rng_ in (("ECOG", predicate.ecog), ("Karnofsky", predicate.karnofsky)):
        if rng_ is None:
            continue
        sql = (
            "SELECT DISTINCT a.document_id FROM annotations a "
            "JOIN annotation_features fs ON fs.annotation_id = a.id "
            "AND fs.\"key\" = 'scale' AND fs.\"value\" = ? "
            "JOIN annotation_features fv ON fv.annotation_id = a.id "
            "AND fv.\"key\" = 'value' "
            "WHERE a.annotator = 'ps' "
            "AND CAST(fv.\"value\" AS INTEGER) BETWEEN ? AND ?"
        )
        sets.append({row[0] for row in conn.execute(sql, (scale_name, *rng_))})

    for key, want in (("t", predicate.t), ("n", predicate.n), ("m", predicate.m)):
        if want is None:
            continue
        sql = (
            "SELECT DISTINCT a.document_id FROM annotations a "
            "JOIN annotation_features f ON f.annotation_id = a.id "
            "AND f.\"key\" = ? AND f.\"value\" = ? "
            "WHERE a.annotator = 'tnm'"
        )
        sets.append({row[0] for row in conn.execute(sql, (key, want.value))})

    matched = sets[0]
    for s in sets[1:]:
        matched &= s
    return matched


@pytest.mark.criterion(8, "query oracle: rescan and SQL replay agree, 50 predicates")
def test_criterion_8_query_oracle(corpus_results):
    standoffs = {
        r.document_id: read_standoff(serialize_result(r)) for r in corpus_results
    }
    conn = sqlite3.connect(":memory:")
    conn.executescript(emit_sql(corpus_results))

    rng = random.Random(20240819)
    predicates = _random_predicates(50, rng)
    nonempty = 0
    for predicate in predicates:
        engine = query_results(corpus_results, predicate)
        brute = [
            doc_id
            for doc_id, standoff in sorted(standoffs.items())
            if _brute_force_match(standoff.records, predicate)
        ]
        replay = sorted(_sql_match_ids(conn, predicate))
        assert engine == brute, predicate
        assert engine == replay, predicate
        if engine:
            nonempty += 1
    # the corpus is dense enough that the oracle must actually exercise hits
    assert nonempty >= 10


@pytest.mark.criterion(9, "throughput: 1,000 documents end-to-end < 5 s, single job")
def test_criterion_9_throughput(default_pipeline, corpus_docs):
    start = time.perf_counter()
    results = process_corpus(default_pipeline, corpus_docs)
    elapsed = time.perf_counter() - start
    assert len(results) == CORPUS_SIZE
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
