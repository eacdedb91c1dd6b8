"""The contract bytes, pinned: what the package writes for a seeded corpus
and for a set of hand-written edge notes, and what ``oncospan check`` prints
for them and for a few notes of its own.

A change that alters any of these digests changes the output format or the
annotations themselves, and must say why.  To see which document differs,
compare the ``.ann`` files of an ``oncospan annotate`` run before and after.
"""

import hashlib
import os
import shutil
import subprocess
from pathlib import Path

import pytest

import oncospan
from oncospan import (
    Document,
    PipelineConfig,
    build_pipeline,
    deserialize_result,
    emit_sql,
    parse_filter,
    process_corpus,
    query_results,
    serialize_result,
)
from oncospan.cli import cli_main
from oncospan.corpusgen import generate_corpus
from oncospan.standoff import read_standoff

# Every filter key, alone and combined, with ranges and coarse stages.
FILTERS = (
    "gene=EGFR,polarity=POS",
    "gene=ALK,polarity=NEG",
    "gene=ROS1",
    "polarity=UNK",
    "stage=IV",
    "stage=I-A1",
    "stage=IIIA",
    "ecog=0..2",
    "karnofsky=70..90",
    "t=T2a,n=N0",
    "m=M1c",
    "gene=EGFR,stage=IV,ecog=0..1",
)

ANN_SHA256 = "51425da673fbbff3f5de833d7c1d66b5c742e7a8585b3338176a185dcf769c33"
SQL_SHA256 = "eb4929e1d9567febd370cff061f9ba5a3063e5c4f251cf3e0504f03d07db1216"
QUERY_SHA256 = "ad7943996ea301aad899d363ae48fa17062cf66cde03cef89fc8e1db9d9ed63f"
RECORDS_SHA256 = "44ca9da79fd172e041a1c74b200822f78feb77fb4eb02d2f618fefb966ad2a6d"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def results():
    return process_corpus(
        build_pipeline(PipelineConfig()), generate_corpus(300, seed=7)
    )


@pytest.fixture(scope="module")
def ann_files(results):
    return [serialize_result(r) for r in results]


def test_ann_bytes(results, ann_files):
    assert [r.document_id for r in results] == sorted(r.document_id for r in results)
    assert _sha256(b"".join(ann_files)) == ANN_SHA256


def test_sql_script(results):
    assert _sha256(emit_sql(results).encode("utf-8")) == SQL_SHA256


def test_query_answers(ann_files):
    store = [deserialize_result(data) for data in ann_files]
    answers = "".join(
        f"{expression}\t{','.join(query_results(store, parse_filter(expression)))}\n"
        for expression in FILTERS
    )
    assert _sha256(answers.encode("utf-8")) == QUERY_SHA256


def test_read_standoff_records(ann_files):
    files = "".join(f"{read_standoff(data)!r}\n" for data in ann_files)
    assert _sha256(files.encode("utf-8")) == RECORDS_SHA256


# Notes that leave the fold's byte table: an en dash, a Greek beta, and a
# Hangul syllable, which folds to three jamo and so moves every offset.
_NON_LATIN1_NOTES = (
    "Paciente \u2013 EGFR mutado en ex\u00f3n 19. ECOG 1.",
    "Mutaci\u00f3n \u03b2: EGFR L858R positiva. Estadio IVA, T2aN1M1b.",
    "\ud55c EGFR negativo, ALK \u2013. Karnofsky 80%. pT1cN0M0, estadio IA3.",
)


def _non_latin1_documents():
    return [Document(f"u{i}", text) for i, text in enumerate(_NON_LATIN1_NOTES)]


# The .ann and SQL digests of the seeded corpus, of its .ann files decoded
# and written again, and the .ann digest of the notes above, with the
# standard library alone.
_DIGESTS = """
import hashlib, sys
from oncospan import Document, PipelineConfig, build_pipeline, process_corpus
from oncospan import deserialize_result, emit_sql, serialize_result
from oncospan.corpusgen import generate_corpus
results = process_corpus(build_pipeline(PipelineConfig()), generate_corpus(300, seed=7))
files = [serialize_result(r) for r in results]
print(*sys.version_info[:2])
print(hashlib.sha256(b"".join(files)).hexdigest())
print(hashlib.sha256(emit_sql(results).encode("utf-8")).hexdigest())
print(hashlib.sha256(b"".join(serialize_result(deserialize_result(f)) for f in files)).hexdigest())
notes = [Document(f"u{i}", text) for i, text in enumerate(%s)]
results = process_corpus(build_pipeline(PipelineConfig()), notes)
print(hashlib.sha256(b"".join(serialize_result(r) for r in results)).hexdigest())
""" % ascii(_NON_LATIN1_NOTES)


def test_other_pythons_write_the_same_bytes():
    # pyproject.toml admits Python 3.10 and later: check the oldest and the
    # newest python3.1x on PATH.
    minors = [m for m in range(10, 20) if shutil.which(f"python3.{m}")]
    if 10 not in minors:
        pytest.skip("no python3.10 on PATH")
    results = process_corpus(build_pipeline(PipelineConfig()), _non_latin1_documents())
    non_latin1_sha256 = _sha256(b"".join(serialize_result(r) for r in results))
    for minor in sorted({10, minors[-1]}):
        proc = subprocess.run(
            [f"python3.{minor}", "-c", _DIGESTS],
            capture_output=True,
            text=True,
            # A pyenv shim runs a version only once it is selected, and 3.N
            # selects the newest installed 3.N; other Pythons ignore it.
            env={
                **os.environ,
                "PYENV_VERSION": f"3.{minor}",
                "PYTHONPATH": str(Path(oncospan.__file__).parents[1]),
            },
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == [
            f"3 {minor}", ANN_SHA256, SQL_SHA256, ANN_SHA256, non_latin1_sha256, ""
        ]


# The seeded corpus holds no diagnostic and no Unknown polarity, and all of
# its text folds one character to one.  These notes cover what it misses:
# diagnostics, mentions with no cue, triggers out of reach, characters whose
# fold is not one character (inside anchor words too), a NUL, and matches
# that touch a sentence boundary.
EDGE_NOTES = (
    # Out-of-range ECOG and KPS, a non-decile Karnofsky, a zero-padded value.
    "ECOG 7. Karnofsky 85%. KPS 120. ECOG-PS: 0012.",
    # Genes with no cue: Unknown polarity.
    "Se solicita estudio de EGFR, ALK y ROS-1.",
    # A stage with no trigger, one whose trigger is four tokens away, and
    # one three tokens away.
    "Tumor IIIA sin m\u00e1s datos. Estadio seg\u00fan la TC IIB. "
    "Estadio seg\u00fan TC IV.",
    # Bare combining marks and Hangul inside and around anchor words.
    "\u0301ECO\u0301G 2. Karnofsky \ud55c 80. EG\ud55cFR mutado. "
    "E\u0301GFR mutado. Deleci\u00f3n del exo\u0301n 19.",
    # Hangul before the matches moves every later offset.
    "\ud658\uc790 \ud55c\uad6d. ECO\u0301G 1, pT2aN1M0, estadio IIB. "
    "L858R. KPS 75.",
    # A NUL.
    "EGFR mutado.\x00 ALK negativo.",
    # Matches that touch a sentence boundary.
    "ECOG 1.ECOG 2. T1.N0M0. estadio III.A. Karnofsky 90.KPS 70.",
    "",
)

EDGE_ANN_SHA256 = "fa870d640d5b5b383a4cb9f377ef31d7210d7894cb07d4914818dab065bd954d"
EDGE_SQL_SHA256 = "0f2886a44daf10016408bf45aa4ecf2dd15cee8d8d2d2ee5e9f541fb8b3ba8f0"
EDGE_RECORDS_SHA256 = "9057177fcb1665920272a8e5c84dcc48668d8695d45eb4d183fc77dc7f280b73"


@pytest.fixture(scope="module")
def edge_results():
    documents = [Document(f"edge-{i:02d}", text) for i, text in enumerate(EDGE_NOTES)]
    return process_corpus(build_pipeline(PipelineConfig()), documents)


@pytest.fixture(scope="module")
def edge_ann_files(edge_results):
    return [serialize_result(r) for r in edge_results]


def test_edge_notes_reach_what_the_corpus_misses(edge_ann_files):
    data = b"".join(edge_ann_files)
    assert b"#diag" in data
    assert b"polarity=Unknown" in data
    assert b"#check" in data


def test_edge_ann_bytes(edge_ann_files):
    assert _sha256(b"".join(edge_ann_files)) == EDGE_ANN_SHA256


def test_edge_sql_script(edge_results):
    assert _sha256(emit_sql(edge_results).encode("utf-8")) == EDGE_SQL_SHA256


def test_edge_read_standoff_records(edge_ann_files):
    files = "".join(f"{read_standoff(data)!r}\n" for data in edge_ann_files)
    assert _sha256(files.encode("utf-8")) == EDGE_RECORDS_SHA256


# Notes for ``oncospan check`` only: several TNM x stage pairs in one note,
# a coarse T that no stage group matches, and a coarse written stage.
CHECK_NOTES = (
    "pT2aN0M0, estadio IB. Luego T3 N1 M0: estadio IIIA; estadio IV.",
    "cT2 N0 M0, estadio IB. T1 N0 M0, estadio I.",
)

CHECK_SHA256 = "43f4c56a83f502cd781a3fa7c9dd625c457b632cb0c0867d88ad37b552aee439"


def test_check_output(tmp_path, capsys):
    documents = [*generate_corpus(300, seed=7)]
    documents += [Document(f"edge-{i:02d}", text) for i, text in enumerate(EDGE_NOTES)]
    documents += [Document(f"check-{i:02d}", t) for i, t in enumerate(CHECK_NOTES)]
    for document in documents:
        (tmp_path / f"{document.id}.txt").write_bytes(document.text.encode("utf-8"))
    assert cli_main(["check", "--input", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert "Inconsistent" in printed and "NotComparable" in printed
    assert _sha256(printed.encode("utf-8")) == CHECK_SHA256
