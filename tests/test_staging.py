import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import N_COLUMNS, STAGE_TABLE
from oncospan import (
    AmbiguousCategory,
    ConsistencyVerdict,
    InvalidStage,
    MCategory,
    NCategory,
    StageGroup,
    TCategory,
    TnmPrefix,
    check_consistency,
    consistency_reports,
    normalize_stage,
    parse_stage,
    parse_tnm,
    tnm_to_stage_group,
)
from oncospan.staging import StageAnnotation, TNMAnnotation, stage_covers
from oncospan.document import Span

PREFIX_SURFACES = {
    "": TnmPrefix.NONE,
    "c": TnmPrefix.C,
    "p": TnmPrefix.P,
    "yc": TnmPrefix.YC,
    "yp": TnmPrefix.YP,
    "r": TnmPrefix.R,
    "a": TnmPrefix.A,
}
SEPARATORS = ("", " ", "-", "_", ":", ".")
T_VALUES = {t.value: t for t in TCategory}
N_VALUES = {n.value: n for n in NCategory}
M_VALUES = {m.value: m for m in MCategory}


def test_parse_tnm_paper_example():
    got = parse_tnm("pT1aN0M0")
    assert len(got) == 1
    ann = got[0]
    assert ann.prefix is TnmPrefix.P
    assert ann.t is TCategory.T1A
    assert ann.n is NCategory.N0
    assert ann.m is MCategory.M0
    assert ann.raw == "pT1aN0M0"
    assert (ann.span.begin, ann.span.end) == (0, 8)


def test_parse_tnm_spaced():
    got = parse_tnm("ycT2b N1 M0")
    assert len(got) == 1
    assert got[0].prefix is TnmPrefix.YC
    assert (got[0].t, got[0].n, got[0].m) == (
        TCategory.T2B,
        NCategory.N1,
        MCategory.M0,
    )


def test_parse_tnm_no_prefix():
    got = parse_tnm("T4N3M1c")
    assert len(got) == 1
    assert got[0].prefix is TnmPrefix.NONE
    assert (got[0].t, got[0].n, got[0].m) == (
        TCategory.T4,
        NCategory.N3,
        MCategory.M1C,
    )


def test_parse_tnm_in_context():
    text = "Adenocarcinoma de pulmón, pT1aN0M0 (micronódulos), estadio I_A1."
    got = parse_tnm(text)
    assert len(got) == 1
    assert text[got[0].span.begin : got[0].span.end] == "pT1aN0M0"


@pytest.mark.parametrize("bad", ["TXN0M0", "T1aNXM0", "T1aN0MX", "TisN0M0", "T0N0M0"])
def test_parse_tnm_rejects_x_categories(bad):
    assert parse_tnm(bad) == []


def test_parse_tnm_requires_all_parts():
    assert parse_tnm("T2 del lóbulo") == []
    assert parse_tnm("N0M0") == []
    assert parse_tnm("T2aN1") == []


def test_parse_tnm_enumeration_round_trip():
    # every prefix x separator x full category triple; the same separator is
    # used in both positions, matching the generator used for acceptance.
    total = 0
    for (surface_prefix, prefix), sep, (ts, t), (ns, n), (ms, m) in itertools.product(
        PREFIX_SURFACES.items(),
        SEPARATORS,
        T_VALUES.items(),
        N_VALUES.items(),
        M_VALUES.items(),
    ):
        surface = f"{surface_prefix}{ts}{sep}{ns}{sep}{ms}"
        got = parse_tnm(surface)
        assert len(got) == 1, surface
        ann = got[0]
        assert (ann.prefix, ann.t, ann.n, ann.m) == (prefix, t, n, m), surface
        assert ann.raw == surface
        assert (ann.span.begin, ann.span.end) == (0, len(surface)), surface
        total += 1
    assert total == 7 * 6 * 9 * 4 * 5


def test_parse_tnm_mixed_separators_and_case():
    got = parse_tnm("YC T1C-N2_M1B y cT2a:N0 M0")
    assert len(got) == 2
    first, second = got
    # "YC " with a space is not a legal prefix attachment; T1C-N2_M1B parses
    # unprefixed.
    assert first.prefix is TnmPrefix.NONE
    assert (first.t, first.n, first.m) == (
        TCategory.T1C,
        NCategory.N2,
        MCategory.M1B,
    )
    assert second.prefix is TnmPrefix.C
    assert (second.t, second.n, second.m) == (
        TCategory.T2A,
        NCategory.N0,
        MCategory.M0,
    )


def test_parse_stage_variants():
    for surface in ("IA1", "I-A1", "I_A_1", "I(A1)", "I.A1"):
        got = parse_stage(f"estadio {surface}")
        assert len(got) == 1, surface
        assert got[0].stage is StageGroup.IA1, surface
        assert got[0].raw == surface


def test_parse_stage_embedded():
    got = parse_stage("derrame pleural), estadio I_A1.")
    assert [a.stage for a in got] == [StageGroup.IA1]


def test_parse_stage_coarse():
    got = parse_stage("estadio IV")
    assert [a.stage for a in got] == [StageGroup.IV]


def test_parse_stage_requires_trigger():
    assert parse_stage("Capítulo IV del informe") == []
    assert parse_stage("IIIB") == []


def test_parse_stage_trigger_distance():
    assert len(parse_stage("estadio clínico actual IV")) == 1
    assert parse_stage("estadio según revisión del comité IV") == []


def test_parse_stage_trigger_variants():
    assert len(parse_stage("estadío IV")) == 1
    assert len(parse_stage("Estadio: II-B")) == 1
    assert len(parse_stage("stage IIIA")) == 1


def test_parse_stage_invalid_normalization_skipped():
    assert parse_stage("estadio IVC") == []
    assert parse_stage("estadio IA4") == []


def test_normalize_stage():
    assert normalize_stage("I(A1)") is StageGroup.IA1
    assert normalize_stage("IIIB") is StageGroup.IIIB
    assert normalize_stage("i-a-1") is StageGroup.IA1
    with pytest.raises(InvalidStage):
        normalize_stage("I-A-4")
    with pytest.raises(InvalidStage):
        normalize_stage("IVC")


@pytest.mark.parametrize("member", list(StageGroup))
def test_normalize_stage_idempotent(member):
    assert normalize_stage(member.value) is member


def test_stage_table_m0_cells():
    for t_label, cells in STAGE_TABLE.items():
        if t_label.startswith("M"):
            continue
        for n_label, expected in zip(N_COLUMNS, cells):
            got = tnm_to_stage_group(
                T_VALUES[t_label], N_VALUES[n_label], MCategory.M0
            )
            assert got.value == expected, (t_label, n_label)


def test_stage_table_m1_cells():
    for m_label, cells in STAGE_TABLE.items():
        if not m_label.startswith("M"):
            continue
        for n_label, expected in zip(N_COLUMNS, cells):
            for t in TCategory:
                got = tnm_to_stage_group(t, N_VALUES[n_label], M_VALUES[m_label])
                assert got.value == expected, (t.value, n_label, m_label)


def test_m1_subletters_map_to_iv():
    for t in TCategory:
        for n in NCategory:
            assert tnm_to_stage_group(t, n, MCategory.M1A) is StageGroup.IVA
            assert tnm_to_stage_group(t, n, MCategory.M1B) is StageGroup.IVA
            assert tnm_to_stage_group(t, n, MCategory.M1C) is StageGroup.IVB


def test_coarse_m1_is_ambiguous():
    with pytest.raises(AmbiguousCategory):
        tnm_to_stage_group(TCategory.T1A, NCategory.N0, MCategory.M1)


def test_coarse_t_agreement():
    assert (
        tnm_to_stage_group(TCategory.T1, NCategory.N1, MCategory.M0)
        is StageGroup.IIB
    )
    assert (
        tnm_to_stage_group(TCategory.T2, NCategory.N2, MCategory.M0)
        is StageGroup.IIIA
    )


def test_coarse_t1_n0_collapses_to_ia():
    assert (
        tnm_to_stage_group(TCategory.T1, NCategory.N0, MCategory.M0)
        is StageGroup.IA
    )


def test_coarse_t2_n0_is_ambiguous():
    with pytest.raises(AmbiguousCategory):
        tnm_to_stage_group(TCategory.T2, NCategory.N0, MCategory.M0)


def _tnm(t, n, m, prefix=TnmPrefix.NONE):
    raw = f"{prefix.value if prefix is not TnmPrefix.NONE else ''}{t.value}{n.value}{m.value}"
    return TNMAnnotation(Span(0, len(raw)), prefix, t, n, m, raw)


def _stage(stage):
    return StageAnnotation(Span(0, len(stage.value)), stage, stage.value)


def test_check_consistency_consistent():
    report = check_consistency(
        _tnm(TCategory.T1A, NCategory.N0, MCategory.M0, TnmPrefix.P),
        _stage(StageGroup.IA1),
    )
    assert report.verdict is ConsistencyVerdict.CONSISTENT
    assert report.expected is StageGroup.IA1


def test_check_consistency_inconsistent():
    report = check_consistency(
        _tnm(TCategory.T3, NCategory.N3, MCategory.M0), _stage(StageGroup.IIB)
    )
    assert report.verdict is ConsistencyVerdict.INCONSISTENT
    assert report.expected is StageGroup.IIIC


def test_check_consistency_not_comparable():
    report = check_consistency(
        _tnm(TCategory.T2, NCategory.N0, MCategory.M0), _stage(StageGroup.IB)
    )
    assert report.verdict is ConsistencyVerdict.NOT_COMPARABLE
    assert report.expected is None


def test_check_consistency_coarse_written_stage():
    report = check_consistency(
        _tnm(TCategory.T1B, NCategory.N2, MCategory.M1C), _stage(StageGroup.IV)
    )
    assert report.verdict is ConsistencyVerdict.CONSISTENT
    assert report.expected is StageGroup.IVB


def test_stage_covers_is_component_aware():
    assert stage_covers(StageGroup.IV, StageGroup.IVA)
    assert stage_covers(StageGroup.IA, StageGroup.IA2)
    assert stage_covers(StageGroup.I, StageGroup.IB)
    assert not stage_covers(StageGroup.I, StageGroup.IIIA)
    assert not stage_covers(StageGroup.II, StageGroup.III)
    assert not stage_covers(StageGroup.IVA, StageGroup.IVB)
    assert not stage_covers(StageGroup.IA1, StageGroup.IA)


@given(st.sampled_from(list(TCategory)), st.sampled_from(list(NCategory)))
@settings(deadline=None)
def test_m1_always_stage_four(t, n):
    for m in (MCategory.M1A, MCategory.M1B, MCategory.M1C):
        assert tnm_to_stage_group(t, n, m) in (StageGroup.IVA, StageGroup.IVB)


@pytest.mark.parametrize("t", list(TCategory), ids=lambda t: t.value)
def test_check_consistency_follows_the_rule_exhaustively(t):
    # Every (N, M, written stage) for this T: the verdict table against the
    # 8th-edition rule and the coarse-subsumes-fine rule it is built from.
    for n, m, written in itertools.product(NCategory, MCategory, StageGroup):
        tnm, stage = _tnm(t, n, m), _stage(written)
        try:
            expected = tnm_to_stage_group(t, n, m)
        except AmbiguousCategory:
            want = (ConsistencyVerdict.NOT_COMPARABLE, None)
        else:
            verdict = (
                ConsistencyVerdict.CONSISTENT
                if stage_covers(written, expected)
                else ConsistencyVerdict.INCONSISTENT
            )
            want = (verdict, expected)
        report = check_consistency(tnm, stage)
        assert (report.tnm, report.stage) == (tnm, stage)
        assert (report.verdict, report.expected) == want, (t, n, m, written)


_tnm_annotations = st.builds(
    _tnm,
    st.sampled_from(list(TCategory)),
    st.sampled_from(list(NCategory)),
    st.sampled_from(list(MCategory)),
    st.sampled_from(list(TnmPrefix)),
)
_stage_annotations = st.builds(_stage, st.sampled_from(list(StageGroup)))


@given(st.lists(_tnm_annotations, max_size=6), st.lists(_stage_annotations, max_size=6))
@settings(deadline=None)
def test_consistency_reports_pairs_tnm_major(tnms, stages):
    reports = consistency_reports(tnms, stages)
    assert reports == [check_consistency(t, s) for t in tnms for s in stages]
    pairs = [(t, s) for t in tnms for s in stages]
    assert all(
        r.tnm is t and r.stage is s for r, (t, s) in zip(reports, pairs, strict=True)
    )
