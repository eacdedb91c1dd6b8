import pytest

from conftest import MUTATION_NOTE, STAGING_NOTE, COMBINED_NOTE, PERFSTATUS_NOTE
from oncospan import (
    Document,
    EmptyPredicate,
    Gene,
    InvalidFilter,
    MCategory,
    NCategory,
    Polarity,
    QueryPredicate,
    StageGroup,
    TCategory,
    parse_filter,
    process_corpus,
    query_results,
)
from oncospan.query import _parse_range


@pytest.fixture(scope="module")
def corpus(default_pipeline):
    docs = [
        Document("docMutation", MUTATION_NOTE),
        Document("docStaging", STAGING_NOTE),
        Document("docPerfstatus", PERFSTATUS_NOTE),
        Document("docCombined", COMBINED_NOTE),
    ]
    return process_corpus(default_pipeline, docs)


def test_gene_and_polarity(corpus):
    predicate = QueryPredicate(gene=Gene.EGFR, polarity=Polarity.POSITIVE)
    assert query_results(corpus, predicate) == ["docMutation"]


def test_gene_polarity_must_cooccur(corpus):
    # docMutation has EGFR Positive and ALK Negative; gene=ALK "+" polarity=POS
    # must not match by combining the two annotations
    predicate = QueryPredicate(gene=Gene.ALK, polarity=Polarity.POSITIVE)
    assert query_results(corpus, predicate) == []


def test_gene_only(corpus):
    assert query_results(corpus, QueryPredicate(gene=Gene.ROS1)) == ["docMutation"]
    assert query_results(corpus, QueryPredicate(gene=Gene.EGFR)) == [
        "docCombined",
        "docMutation",
    ]


def test_polarity_only(corpus):
    got = query_results(corpus, QueryPredicate(polarity=Polarity.NEGATIVE))
    assert got == ["docCombined", "docMutation"]


def test_stage_exact(corpus):
    assert query_results(corpus, QueryPredicate(stage=StageGroup.IA1)) == [
        "docStaging"
    ]


def test_stage_coarse_covers(corpus):
    # coarse IA covers the IA1 written in docStaging
    assert query_results(corpus, QueryPredicate(stage=StageGroup.IA)) == [
        "docStaging"
    ]
    assert query_results(corpus, QueryPredicate(stage=StageGroup.I)) == [
        "docStaging"
    ]
    # and coarse IV matches docCombined's literal IV
    assert query_results(corpus, QueryPredicate(stage=StageGroup.IV)) == [
        "docCombined"
    ]


def test_stage_subgroup_does_not_match_coarser_document(corpus):
    # docCombined is staged IV (no letter); asking for IVA must not match it
    assert query_results(corpus, QueryPredicate(stage=StageGroup.IVA)) == []


def test_ecog_range(corpus):
    assert query_results(corpus, QueryPredicate(ecog=(0, 5))) == [
        "docCombined",
        "docPerfstatus",
    ]
    assert query_results(corpus, QueryPredicate(ecog=(0, 0))) == ["docPerfstatus"]
    assert query_results(corpus, QueryPredicate(ecog=(2, 5))) == ["docCombined"]


def test_karnofsky_range(corpus):
    assert query_results(corpus, QueryPredicate(karnofsky=(90, 100))) == ["docPerfstatus"]
    assert query_results(corpus, QueryPredicate(karnofsky=(0, 80))) == []


def test_tnm_fields(corpus):
    assert query_results(corpus, QueryPredicate(t=TCategory.T1A)) == ["docStaging"]
    assert query_results(corpus, QueryPredicate(t=TCategory.T4)) == []


def test_conjunction(corpus):
    predicate = QueryPredicate(gene=Gene.EGFR, stage=StageGroup.IV)
    assert query_results(corpus, predicate) == ["docCombined"]
    predicate = QueryPredicate(gene=Gene.EGFR, stage=StageGroup.IA1)
    assert query_results(corpus, predicate) == []


def test_empty_corpus():
    assert query_results([], QueryPredicate(ecog=(0, 5))) == []


def test_order_preserved(corpus):
    # results come back in input (id-sorted) order
    reversed_corpus = list(reversed(corpus))
    got = query_results(reversed_corpus, QueryPredicate(gene=Gene.EGFR))
    assert got == ["docMutation", "docCombined"]


def test_empty_predicate():
    with pytest.raises(EmptyPredicate):
        QueryPredicate()


def test_inverted_range():
    with pytest.raises(ValueError):
        QueryPredicate(ecog=(3, 1))


# Fields that name a value of another type; the last one is the bad one.
WRONG_TYPES = [
    {"gene": "EGFR"},
    {"polarity": Gene.EGFR},
    {"stage": "IV"},
    {"gene": Gene.EGFR, "t": NCategory.N0},
    {"m": "M1"},
    {"ecog": 1},
    {"ecog": [0, 1]},
    {"ecog": ("0", "1")},
    {"karnofsky": (70,)},
    {"karnofsky": (70, 90, 100)},
    {"karnofsky": (70, 90.0)},
    {"ecog": (True, 2)},
]


@pytest.mark.parametrize("fields", WRONG_TYPES, ids=repr)
def test_predicate_rejects_a_value_its_filter_does_not_take(fields):
    key = list(fields)[-1]
    with pytest.raises(TypeError, match=f"^{key} must be "):
        QueryPredicate(**fields)
    with pytest.raises(TypeError, match=f"^{key} must be "):
        QueryPredicate(stage=StageGroup.IV)._replace(**fields)


def test_matches_single(corpus, default_pipeline):
    mutation_note = next(r for r in corpus if r.document_id == "docMutation")
    assert query_results([mutation_note], QueryPredicate(gene=Gene.EGFR)) == ["docMutation"]
    assert query_results([mutation_note], QueryPredicate(stage=StageGroup.IV)) == []


def test_tnm_filters_may_hold_on_different_annotations(default_pipeline):
    # t, n and m each hold on any TNM annotation, unlike gene and polarity.
    result = default_pipeline.process_document(
        Document("d", "Previo pT1aN0M0. Ahora T3N2M0.")
    )
    assert query_results([result], parse_filter("t=T1a,n=N2")) == [result.document_id]
    assert query_results([result], parse_filter("t=T1a,n=N3")) == []


def test_range_filters_hold_on_their_own_scale(default_pipeline):
    result = default_pipeline.process_document(Document("d", "KPS 3."))
    assert query_results([result], parse_filter("karnofsky=3")) == [result.document_id]
    assert query_results([result], parse_filter("ecog=3")) == []


def test_parse_filter_basic():
    predicate = parse_filter("gene=EGFR,polarity=POS")
    assert predicate.gene is Gene.EGFR
    assert predicate.polarity is Polarity.POSITIVE


def test_parse_filter_long_polarity_names():
    assert parse_filter("polarity=negative").polarity is Polarity.NEGATIVE
    assert parse_filter("polarity=UNK").polarity is Polarity.UNKNOWN


def test_parse_filter_stage_variants():
    assert parse_filter("stage=I-A1").stage is StageGroup.IA1
    assert parse_filter("stage=iv").stage is StageGroup.IV


def test_parse_filter_ranges():
    assert parse_filter("ecog=2").ecog == (2, 2)
    assert parse_filter("ecog=0..2").ecog == (0, 2)
    assert parse_filter("karnofsky=70..100").karnofsky == (70, 100)


def test_parse_filter_tnm():
    predicate = parse_filter("t=T1a,n=n0,m=M0")
    assert predicate.t is TCategory.T1A
    assert predicate.n.value == "N0"
    assert predicate.m.value == "M0"


# Each filter key over an enum, with every value a .ann file can hold for it.
STORED_VALUES = [
    (key, member)
    for key, enum in [
        ("gene", Gene), ("polarity", Polarity), ("stage", StageGroup),
        ("t", TCategory), ("n", NCategory), ("m", MCategory),
    ]
    for member in enum
]


@pytest.mark.parametrize(
    "key, member", STORED_VALUES, ids=[f"{key}={m.value}" for key, m in STORED_VALUES]
)
def test_parse_filter_reads_every_stored_value_in_any_case(key, member):
    value = member.value
    for written in (value, value.lower(), value.upper(), value.swapcase()):
        assert getattr(parse_filter(f"{key}={written}"), key) is member


def test_parse_filter_whitespace_tolerant():
    predicate = parse_filter(" gene = EGFR , ecog = 0..1 ")
    assert predicate.gene is Gene.EGFR
    assert predicate.ecog == (0, 1)


@pytest.mark.parametrize(
    "expression",
    [
        "",
        "   ",
        "gene",
        "gene=",
        "=EGFR",
        "gene=BRAF",
        "polarity=maybe",
        "stage=IVC",
        "ecog=x",
        "ecog=3..1",
        "ecog=1..2..3",
        "color=red",
        "gene=EGFR,gene=ALK",
        # Past int()'s 4,300-digit limit.
        pytest.param("ecog=" + "9" * 5000, id="ecog=<5000 digits>"),
        pytest.param("karnofsky=0.." + "9" * 5000, id="karnofsky=0..<5000 digits>"),
        # Decimal digits outside ASCII, which no .ann file holds.
        pytest.param("ecog=\u0660..\u0662", id="ecog=<arabic-indic 0..2>"),
        pytest.param("karnofsky=\u0667\u0660", id="karnofsky=<arabic-indic 70>"),
        pytest.param("ecog=\uff11", id="ecog=<fullwidth 1>"),
        pytest.param("karnofsky=7\u0660", id="karnofsky=<7, arabic-indic 0>"),
    ],
)
def test_parse_filter_errors(expression):
    with pytest.raises(InvalidFilter):
        parse_filter(expression)


@pytest.mark.parametrize("value", ["1\n", "1..2\n", "\n1"])
def test_parse_range_rejects_newline(value):
    # parse_filter strips its values; the range rule itself must not let
    # a newline through either.
    with pytest.raises(InvalidFilter):
        _parse_range(value)
