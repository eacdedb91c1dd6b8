import pytest

from oncospan import (
    Document,
    ExonKind,
    Gene,
    PointVariant,
    Polarity,
    find_exon_mentions,
    find_gene_mentions,
    find_mutation_points,
    load_cue_lexicon,
    split_sentences,
)
from oncospan.mutation import ExonMention, MutationAnnotation, annotate_view
from oncospan.document import SentenceView, Span


def annotate(text, genes=frozenset(Gene)):
    doc = Document("d", text)
    lexicon = load_cue_lexicon()
    return [
        ann
        for sentence in split_sentences(text)
        for ann in annotate_view(SentenceView.from_sentence(doc, sentence), lexicon, genes)
    ]


def test_find_gene_mentions_variants():
    text = "EGFR y alk; Ros-1 y ROS1 y egfr"
    got = find_gene_mentions(text)
    genes = [g for g, _ in got]
    assert genes == [Gene.EGFR, Gene.ALK, Gene.ROS1, Gene.ROS1, Gene.EGFR]
    for gene, span in got:
        assert text[span.begin : span.end].lower().replace("-", "").replace(
            " ", ""
        ) in ("egfr", "alk", "ros1")


def test_gene_mention_not_inside_word():
    assert find_gene_mentions("TALK1 proseguir EGFRv") == []


def test_find_exon_mentions():
    got = find_exon_mentions("del exon 19 y exón 21")
    assert [(e.number, e.kind) for e in got] == [
        (19, ExonKind.DELETION),
        (21, None),
    ]


def test_exon_out_of_range_ignored():
    assert find_exon_mentions("exon 7 sin interés") == []
    assert find_exon_mentions("exon 22") == []
    assert find_exon_mentions("exon 119") == []
    assert find_exon_mentions("exon 1" + "0" * 5000) == []


def test_exon_number_leading_zeros():
    assert [e.number for e in find_exon_mentions("exon 0019 y exon ٠٢١")] == [19, 21]


def test_exon_kind_after_number():
    got = find_exon_mentions("exon 20 ins")
    assert [(e.number, e.kind) for e in got] == [(20, ExonKind.INSERTION)]


def test_exon_kind_full_words():
    # "deleción" sits two tokens before the keyword; still within reach
    got = find_exon_mentions("deleción en exón 19")
    assert [(e.number, e.kind) for e in got] == [(19, ExonKind.DELETION)]
    got = find_exon_mentions("deleción exón 19")
    assert [(e.number, e.kind) for e in got] == [(19, ExonKind.DELETION)]


def test_exon_number_within_two_tokens():
    got = find_exon_mentions("exon ( 19 )")
    assert [e.number for e in got] == [19]
    assert find_exon_mentions("exon x y 19") == []


def test_find_mutation_points():
    text = "se detecta T790M y L858R, no g719x"
    got = find_mutation_points(text)
    assert [p.value for p in got] == [
        PointVariant.T790M,
        PointVariant.L858R,
        PointVariant.G719X,
    ]
    for p in got:
        assert text[p.span.begin : p.span.end].upper() == p.value.value


def test_point_needs_boundaries():
    assert find_mutation_points("XT790M T790MX") == []


@pytest.mark.parametrize(
    "text,gene,polarity",
    [
        ("EGFR mutado", Gene.EGFR, Polarity.POSITIVE),
        ("EGFR no mutado", Gene.EGFR, Polarity.NEGATIVE),
        ("se estudia EGFR", Gene.EGFR, Polarity.UNKNOWN),
        ("ALK traslocado", Gene.ALK, Polarity.POSITIVE),
        ("ALK no traslocado", Gene.ALK, Polarity.NEGATIVE),
        ("pendiente resultado de ALK", Gene.ALK, Polarity.UNKNOWN),
        ("ROS1 positivo", Gene.ROS1, Polarity.POSITIVE),
        ("ROS1 negativo", Gene.ROS1, Polarity.NEGATIVE),
        ("muestra enviada para ROS1", Gene.ROS1, Polarity.UNKNOWN),
    ],
)
def test_polarity_matrix(text, gene, polarity):
    got = annotate(text)
    assert len(got) == 1
    assert got[0].gene is gene
    assert got[0].polarity is polarity
    assert not got[0].implied


def test_mutation_note_sentence():
    text = (
        "EGFR + (del exon 19), no se detecta traslocación de ALK "
        "y ROS1 no traslocado."
    )
    got = annotate(text)
    assert len(got) == 3
    egfr, alk, ros1 = got
    assert (egfr.gene, egfr.polarity) == (Gene.EGFR, Polarity.POSITIVE)
    assert egfr.exon is not None
    assert (egfr.exon.number, egfr.exon.kind) == (19, ExonKind.DELETION)
    assert egfr.point is None
    assert (alk.gene, alk.polarity) == (Gene.ALK, Polarity.NEGATIVE)
    assert (ros1.gene, ros1.polarity) == (Gene.ROS1, Polarity.NEGATIVE)


def test_egfr_attaches_nearest_exon():
    text = "exon 21 sin cambios, EGFR mutado en exon 19"
    got = [a for a in annotate(text) if not a.implied]
    assert len(got) == 1
    assert got[0].exon.number == 19


def test_nearest_reads_each_token_range_once(monkeypatch):
    # 20 EGFR mentions, each with 20 exons to choose from: one range for the
    # polarity window and one for each mention and each exon it weighs.
    text = "EGFR exón 19 " * 20
    calls = []
    token_range = SentenceView.token_range
    monkeypatch.setattr(
        SentenceView, "token_range",
        lambda view, span: calls.append(span) or token_range(view, span),
    )
    got = annotate_view(SentenceView(text), load_cue_lexicon())
    assert [a.exon.number for a in got] == [19] * 20
    assert len(calls) == 20 + 20 * (1 + 20)


def test_egfr_attaches_point():
    got = annotate("EGFR mutado, L858R")
    assert len(got) == 1
    assert got[0].point.value is PointVariant.L858R


def test_implied_egfr_from_exon():
    got = annotate("con mutación de inserción en exon 19")
    assert len(got) == 1
    ann = got[0]
    assert ann.gene is Gene.EGFR
    assert ann.implied
    assert ann.polarity is Polarity.POSITIVE
    assert (ann.exon.number, ann.exon.kind) == (19, ExonKind.INSERTION)
    assert ann.span == ann.exon.span


def test_implied_egfr_from_point():
    got = annotate("se detecta T790M")
    assert len(got) == 1
    assert got[0].implied
    assert got[0].polarity is Polarity.POSITIVE
    assert got[0].point.value is PointVariant.T790M
    assert got[0].exon is None


def test_implied_egfr_negated():
    got = annotate("ausencia de mutación en exon 19")
    assert len(got) == 1
    assert got[0].implied
    assert got[0].polarity is Polarity.NEGATIVE


def test_no_implied_when_egfr_present():
    got = annotate("EGFR con del exon 19")
    assert len(got) == 1
    assert not got[0].implied


def test_implied_point_not_double_counted():
    got = annotate("inserción en exon 20, presencia de T790M")
    implied = [a for a in got if a.implied]
    # one annotation per exon mention; the point rides along on the nearest
    points = [a.point for a in implied if a.point is not None]
    assert len(implied) == 1
    assert len(points) == 1


def test_gene_filter_removes_only_that_gene():
    text = "EGFR mutado. ALK traslocado. ROS1 negativo."
    everything = annotate(text)
    without_alk = annotate(text, genes=frozenset({Gene.EGFR, Gene.ROS1}))
    assert [a.gene for a in everything] == [Gene.EGFR, Gene.ALK, Gene.ROS1]
    assert [a.gene for a in without_alk] == [Gene.EGFR, Gene.ROS1]
    assert without_alk[0] == everything[0]
    assert without_alk[1] == everything[2]


def test_no_implied_when_egfr_disabled():
    got = annotate("del exon 19", genes=frozenset({Gene.ALK, Gene.ROS1}))
    assert got == []


def test_spans_cover_text():
    text = "Exón 19: deleción, EGFR+. T790M presente."
    doc = Document("d", text)
    for ann in annotate(text):
        assert text[ann.span.begin : ann.span.end]
        if ann.exon is not None:
            covered = text[ann.exon.span.begin : ann.exon.span.end]
            assert str(ann.exon.number) in covered
        if ann.point is not None:
            covered = text[ann.point.span.begin : ann.point.span.end]
            assert covered.upper() == ann.point.value.value


def test_exon_mention_validates_range():
    with pytest.raises(ValueError):
        ExonMention(Span(0, 4), 25, None)


def test_non_egfr_rejects_exon():
    with pytest.raises(ValueError):
        MutationAnnotation(
            Span(0, 3),
            Gene.ALK,
            Polarity.POSITIVE,
            ExonMention(Span(0, 2), 19, None),
            None,
            False,
        )
