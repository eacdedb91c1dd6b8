"""The contract bytes, pinned: what the package writes for a seeded corpus.

A change that alters any of these digests changes the output format or the
annotations themselves, and must say why.  To see which document differs,
compare the ``.ann`` files of an ``oncospan annotate`` run before and after.
"""

import hashlib

import pytest

from oncospan import (
    PipelineConfig,
    build_pipeline,
    deserialize_result,
    emit_sql,
    parse_filter,
    process_corpus,
    query_results,
    serialize_result,
)
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
