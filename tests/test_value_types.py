"""The contract of oncospan's immutable value types.

Each is a named tuple: its fields cannot be assigned, it holds no instance
``__dict__``, a copy rebuilt from its fields is equal and hashes the same,
and its ``repr`` names every field.  The types whose constructor checks its
fields run the same checks when a copy is made with ``_replace``.
"""

import contextlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oncospan
from oncospan import (
    ConflictingEntry,
    ConsistencyReport,
    ConsistencyVerdict,
    CueLexicon,
    Diagnostic,
    Document,
    DocumentResult,
    EmptyPredicate,
    ExonKind,
    ExonMention,
    Gene,
    MCategory,
    MutationAnnotation,
    MutationPoint,
    NCategory,
    PipelineConfig,
    PointVariant,
    Polarity,
    PSAnnotation,
    PSScale,
    QueryPredicate,
    Span,
    StageAnnotation,
    StageGroup,
    StandoffFile,
    StandoffRecord,
    TCategory,
    TNMAnnotation,
    TnmPrefix,
)

_SPAN = Span(0, 4)
_EXON = ExonMention(Span(5, 12), 19, ExonKind.DELETION)
_POINT = MutationPoint(Span(13, 18), PointVariant.L858R)
_MUTATION = MutationAnnotation(_SPAN, Gene.EGFR, Polarity.POSITIVE, _EXON, _POINT, False)
_TNM = TNMAnnotation(
    Span(0, 8), TnmPrefix.P, TCategory.T1A, NCategory.N0, MCategory.M0, "pT1aN0M0"
)
_STAGE = StageAnnotation(Span(15, 18), StageGroup.IA1, "IA1")
_RECORD = StandoffRecord(0, 4, "mutation", "EGFR", (("gene", "EGFR"),))

# Each type, an instance and its field names in order.
VALUES = [
    (_SPAN, ["begin", "end"]),
    (Document("d", "EGFR mutado"), ["id", "text"]),
    (Diagnostic(_SPAN, "ECOG 7 outside 0-5"), ["span", "message"]),
    (_EXON, ["span", "number", "kind"]),
    (_POINT, ["span", "value"]),
    (_MUTATION, ["span", "gene", "polarity", "exon", "point", "implied"]),
    (_TNM, ["span", "prefix", "t", "n", "m", "raw"]),
    (_STAGE, ["span", "stage", "raw"]),
    (
        ConsistencyReport(_TNM, _STAGE, ConsistencyVerdict.CONSISTENT, StageGroup.IA1),
        ["tnm", "stage", "verdict", "expected"],
    ),
    (PSAnnotation(Span(0, 6), PSScale.ECOG, 1, "ECOG 1"), ["span", "scale", "value", "raw"]),
    (
        CueLexicon(frozenset({("positivo",)}), frozenset({("no", "mutado")})),
        ["positive", "negative"],
    ),
    (PipelineConfig(), ["enabled_annotators", "lexicon_path"]),
    (
        DocumentResult("d", "EGFR", (_MUTATION,), (Diagnostic(_SPAN, "x"),)),
        ["document_id", "text", "annotations", "diagnostics"],
    ),
    (
        QueryPredicate(gene=Gene.EGFR, ecog=(0, 1)),
        ["gene", "polarity", "stage", "ecog", "karnofsky", "t", "n", "m"],
    ),
    (_RECORD, ["begin", "end", "annotator", "covered_text", "features"]),
    (StandoffFile("d", "EGFR", (_RECORD,)), ["document_id", "source_text", "records"]),
]


@pytest.mark.parametrize("value, fields", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_type_contract(value, fields):
    assert list(value._fields) == fields
    with pytest.raises(AttributeError):
        setattr(value, fields[0], value[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")
    by_keyword = type(value)(**value._asdict())
    for copy in (type(value)(*value), value._replace(), by_keyword):
        assert copy is not value
        assert copy == value
        assert hash(copy) == hash(value) == hash(tuple(value))
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{type(value).__name__}({shown})"


def test_every_exported_value_type_is_covered():
    # Through __all__, not vars(): a lazily exported name is in the module's
    # dict only once something has bound it there.
    exported = {
        t
        for t in (getattr(oncospan, name) for name in oncospan.__all__)
        if isinstance(t, type) and issubclass(t, tuple)
    }
    assert {type(value) for value, _ in VALUES} == exported
    assert len(VALUES) == 16


# A field value each checking type rejects, and the error it raises.
INVALID = [
    (_SPAN, {"end": 0}, ValueError, "invalid span [0, 0)"),
    (Document("d", "x"), {"id": ""}, ValueError, "document id must be non-empty"),
    (_EXON, {"number": 17}, ValueError, "exon 17 outside the EGFR range 18-21"),
    (_MUTATION, {"gene": Gene.ALK}, ValueError, "exon, point and implied apply to EGFR only"),
    (
        PSAnnotation(Span(0, 6), PSScale.ECOG, 1, "ECOG 1"),
        {"value": 6},
        ValueError,
        "ECOG value 6 outside 0-5",
    ),
    (
        ConsistencyReport(_TNM, _STAGE, ConsistencyVerdict.CONSISTENT, StageGroup.IA1),
        {"expected": None},
        ValueError,
        "expected group is set exactly when comparable",
    ),
    (
        CueLexicon(frozenset({("positivo",)}), frozenset({("no",)})),
        {"negative": frozenset({("positivo",)})},
        ConflictingEntry,
        "phrases in both polarities: positivo",
    ),
    (QueryPredicate(gene=Gene.EGFR), {"gene": None}, EmptyPredicate, "predicate has no filters"),
]


@pytest.mark.parametrize(
    "value, change, error, message", INVALID, ids=[type(v).__name__ for v, *_ in INVALID]
)
def test_replace_runs_the_checks(value, change, error, message):
    with pytest.raises(error) as exc:
        value._replace(**change)
    assert str(exc.value) == message
    with pytest.raises(error):
        type(value)._make({**value._asdict(), **change}.values())


@pytest.mark.parametrize(
    "code",
    [
        "import oncospan.cli",
        "import oncospan; oncospan.build_pipeline(oncospan.PipelineConfig())",
    ],
)
def test_start_up_imports_no_introspection_modules(code):
    # dataclasses brings in inspect, ast and dis; every oncospan command
    # would pay for importing them at start-up.
    probe = (
        f"{code}\nimport sys\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & sys.modules.keys()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(oncospan.__file__).parents[1])},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_STORAGE = {"oncospan.standoff", "oncospan.query", "oncospan.sqlexport"}
# What annotating needs and reading records does not.
_ANNOTATING = {
    f"oncospan.{name}"
    for name in (
        "mutation", "staging", "perfstatus", "assertion", "pipeline", "document", "_textops"
    )
}
_SUBMODULES = {
    f"oncospan.{path.stem}" for path in Path(oncospan.__file__).parent.glob("*.py")
} - {"oncospan.__init__"}
_CLI = "from oncospan import cli\ncode = cli.cli_main({argv!r})"


# Whether the .ann decoder's record patterns are built: None where
# ``standoff`` is not loaded, 0 where they are not, 1 where they are.
_PATTERNS = (
    "standoff = sys.modules.get('oncospan.standoff')\n"
    "patterns = standoff and standoff._readers.cache_info().currsize"
)
# The loaded modules that bind the record-feature or query-filter
# declarations, and the number of (T, N, M) keys the verdict rule has been
# applied to: None where the type system is not loaded.
_DECLARED = (
    "declared = sorted(name for name, module in sys.modules.items() if name.startswith("
    "'oncospan') and {'ANNOTATION_TYPES', 'FILTERS'} & vars(module).keys())\n"
    "types = sys.modules.get('oncospan._typesystem')\n"
    "verdicts = types and types._verdicts.cache_info().currsize"
)


@pytest.mark.parametrize(
    "code, not_loaded, patterns, declared, verdicts",
    [
        ("import oncospan\ncode = 0", _SUBMODULES, None, [], None),
        (
            "import oncospan\noncospan.build_pipeline(oncospan.PipelineConfig())\ncode = 0",
            _STORAGE | {"oncospan.cli", "oncospan.corpusgen"},
            None,
            [],
            0,
        ),
        (
            _CLI.format(argv=["annotate", "--input", "in", "--out", "run", "--sql", "run.sql"]),
            {"oncospan.query"},
            0,
            ["oncospan.standoff"],
            1,
        ),
        (
            _CLI.format(argv=["annotate", "--input", "in", "--out", "run"]),
            {"oncospan.query", "oncospan.sqlexport"},
            0,
            ["oncospan.standoff"],
            1,
        ),
        (
            _CLI.format(argv=["query", "--store", "store", "--filter", "gene=EGFR"]),
            _ANNOTATING | {"oncospan.sqlexport"},
            1,
            ["oncospan.query", "oncospan.standoff"],
            1,
        ),
        (_CLI.format(argv=["check", "--input", "in"]), _STORAGE, None, [], 1),
    ],
    ids=["bare_import", "build_pipeline", "annotate", "annotate_without_sql", "query", "check"],
)
def test_entry_point_loads_only_what_it_runs(
    code, not_loaded, patterns, declared, verdicts, tmp_path
):
    from oncospan import cli

    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "n1.txt").write_text(
        "EGFR mutado (deleción del exón 19). Estadio IV, pT2aN1M1b. ECOG 1.\n",
        encoding="utf-8",
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.cli_main(["annotate", "--input", str(tmp_path / "in"),
                             "--out", str(tmp_path / "store")]) == 0
    probe = (
        f"{code}\nimport sys\n{_PATTERNS}\n{_DECLARED}\n"
        f"print(code, sorted({not_loaded!r} & sys.modules.keys()), patterns, declared, verdicts)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(oncospan.__file__).parents[1])},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 [] {patterns} {declared} {verdicts}"


def test_importtime_sees_every_submodule():
    # The package loads its submodules lazily; each must still go through
    # the import statement machinery that -X importtime reports.
    code = (
        "import oncospan; oncospan.build_pipeline(oncospan.PipelineConfig())\n"
        "import sys\nprint(*sorted(m for m in sys.modules if m.startswith('oncospan')))"
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(oncospan.__file__).parents[1])},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    timed = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "oncospan.pipeline" in loaded
    assert sorted(loaded - timed) == []


def test_every_enum_hashes_by_identity():
    # Members compare by identity, so they hash by it too, in C: a new enum
    # on Enum itself would bring back the Python-level Enum.__hash__ on
    # every set and dict probe.
    import enum
    import pkgutil

    enums = {
        value
        for info in pkgutil.iter_modules(oncospan.__path__)
        for value in vars(importlib.import_module(f"oncospan.{info.name}")).values()
        if isinstance(value, enum.EnumMeta) and value.__module__.startswith("oncospan.")
    }
    assert sum(len(cls) > 0 for cls in enums) >= 12
    for cls in enums:
        for member in cls:
            assert type(member).__hash__ is object.__hash__, member
            assert hash(member) == object.__hash__(member)
