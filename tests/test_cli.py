import errno
import io
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MUTATION_NOTE, STAGING_NOTE, COMBINED_NOTE, PERFSTATUS_NOTE
import oncospan
from oncospan import deserialize_result
from oncospan.standoff import read_standoff
from oncospan.cli import _load_documents, cli_main


@pytest.fixture()
def corpus_dir(tmp_path):
    src = tmp_path / "notes"
    src.mkdir()
    (src / "docMutation.txt").write_text(MUTATION_NOTE, encoding="utf-8")
    (src / "docStaging.txt").write_text(STAGING_NOTE, encoding="utf-8")
    (src / "docPerfstatus.txt").write_text(PERFSTATUS_NOTE, encoding="utf-8")
    (src / "docCombined.txt").write_text(COMBINED_NOTE, encoding="utf-8")
    (src / "ignored.json").write_text("{}", encoding="utf-8")
    return src


def _annotate(corpus_dir, out_dir, *extra):
    return cli_main(
        ["annotate", "--input", str(corpus_dir), "--out", str(out_dir), *extra]
    )


def test_annotate_directory(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert _annotate(corpus_dir, out) == 0
    produced = sorted(p.name for p in out.glob("*.ann"))
    assert produced == [
        "docCombined.ann",
        "docMutation.ann",
        "docPerfstatus.ann",
        "docStaging.ann",
    ]
    printed = capsys.readouterr().out
    assert "documents processed: 4" in printed
    assert "mutation annotations: 5" in printed
    assert "tnm annotations: 1" in printed
    assert "stage annotations: 2" in printed
    assert "ps annotations: 3" in printed


@pytest.mark.parametrize("keyword", ["ECOG ", "exon ", "Karnofsky "])
def test_annotate_digit_run_past_int_limit(keyword, tmp_path):
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / "docLong.txt").write_text(keyword + "7" * 5000, encoding="utf-8")
    (notes / "docNormal.txt").write_text(COMBINED_NOTE, encoding="utf-8")
    out = tmp_path / "out"
    assert _annotate(notes, out) == 0
    assert sorted(p.name for p in out.glob("*.ann")) == ["docLong.ann", "docNormal.ann"]


def test_annotate_single_file(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(
        ["annotate", "--input", str(corpus_dir / "docMutation.txt"), "--out", str(out)]
    )
    assert code == 0
    result = deserialize_result((out / "docMutation.ann").read_bytes())
    assert result.document_id == "docMutation"
    assert len(result.annotations) == 3


def test_annotate_missing_input(tmp_path, capsys):
    code = cli_main(
        ["annotate", "--input", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_annotate_bad_annotator(corpus_dir, tmp_path, capsys):
    code = _annotate(corpus_dir, tmp_path / "o", "--annotators", "EGFR,BRAF")
    assert code == 1
    assert "unknown annotator" in capsys.readouterr().err


def test_annotate_no_annotator(corpus_dir, tmp_path, capsys):
    code = _annotate(corpus_dir, tmp_path / "o", "--annotators", ",")
    assert code == 1
    assert "no annotators" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_annotate_annotator_subset(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert _annotate(corpus_dir, out, "--annotators", "ecog,karnofsky") == 0
    printed = capsys.readouterr().out
    assert "mutation annotations: 0" in printed
    assert "ps annotations: 3" in printed


def test_annotate_missing_lexicon(corpus_dir, tmp_path, capsys):
    code = _annotate(
        corpus_dir, tmp_path / "o", "--lexicon", str(tmp_path / "missing.tsv")
    )
    assert code == 1
    assert "lexicon" in capsys.readouterr().err


def test_annotate_custom_lexicon(corpus_dir, tmp_path):
    lexicon = tmp_path / "cues.tsv"
    lexicon.write_text("NEG\tdescartado para\n", encoding="utf-8")
    out = tmp_path / "out"
    assert _annotate(corpus_dir, out, "--lexicon", str(lexicon)) == 0


def test_annotate_lexicon_with_byte_order_mark(corpus_dir, tmp_path):
    # A lexicon file drops a leading byte-order mark; a note keeps it, as
    # a character of the text its offsets count.
    lexicon = tmp_path / "cues.tsv"
    lexicon.write_bytes("\ufeffNEG\tdescartado para\n".encode("utf-8"))
    assert _annotate(corpus_dir, tmp_path / "out", "--lexicon", str(lexicon)) == 0
    note = tmp_path / "docBom.txt"
    note.write_bytes("\ufeffEGFR mutado.".encode("utf-8"))
    assert [d.text for d in _load_documents(str(note))] == ["\ufeffEGFR mutado."]


def test_annotate_malformed_lexicon(corpus_dir, tmp_path, capsys):
    lexicon = tmp_path / "cues.tsv"
    lexicon.write_text("NEG descartado\n", encoding="utf-8")
    code = _annotate(corpus_dir, tmp_path / "o", "--lexicon", str(lexicon))
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_annotate_bad_jobs(corpus_dir, tmp_path, capsys):
    code = _annotate(corpus_dir, tmp_path / "o", "--jobs", "0")
    assert code == 1


def test_annotate_jobs_parallel_identical(corpus_dir, tmp_path):
    out1 = tmp_path / "serial"
    out4 = tmp_path / "parallel"
    assert _annotate(corpus_dir, out1) == 0
    assert _annotate(corpus_dir, out4, "--jobs", "4") == 0
    for ann in sorted(out1.glob("*.ann")):
        assert ann.read_bytes() == (out4 / ann.name).read_bytes()


def test_annotate_sql_export(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    sql_path = tmp_path / "dump.sql"
    assert _annotate(corpus_dir, out, "--sql", str(sql_path)) == 0
    assert f"sql export: {sql_path}" in capsys.readouterr().out
    conn = sqlite3.connect(":memory:")
    conn.executescript(sql_path.read_text(encoding="utf-8"))
    count = conn.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert count == 4


def _outputs(out, sql):
    return {p.name: p.read_bytes() for p in out.iterdir()}, sql.read_bytes()


@pytest.mark.parametrize("old_sql", [b"-- longer than any export\n" * 400, b"--\n"])
def test_annotate_rewrites_existing_outputs_in_place(corpus_dir, tmp_path, old_sql):
    fresh, fresh_sql = tmp_path / "fresh", tmp_path / "fresh.sql"
    assert _annotate(corpus_dir, fresh, "--sql", str(fresh_sql)) == 0
    expected = _outputs(fresh, fresh_sql)
    out, sql = tmp_path / "out", tmp_path / "out.sql"
    out.mkdir()
    # docCombined.ann longer than its new bytes, docMutation.ann shorter,
    # and no docStaging.ann or docPerfstatus.ann at all.
    (out / "docCombined.ann").write_bytes(b"#" * 2 * len(expected[0]["docCombined.ann"]))
    (out / "docMutation.ann").write_bytes(b"#doc")
    sql.write_bytes(old_sql)
    for _ in range(2):
        assert _annotate(corpus_dir, out, "--sql", str(sql)) == 0
        assert _outputs(out, sql) == expected


def test_annotate_survives_partial_writes(corpus_dir, tmp_path, monkeypatch):
    fresh, fresh_sql = tmp_path / "fresh", tmp_path / "fresh.sql"
    assert _annotate(corpus_dir, fresh, "--sql", str(fresh_sql)) == 0
    real_write = os.write
    monkeypatch.setattr(oncospan.cli.os, "write", lambda fd, data: real_write(fd, data[:7]))
    out, sql = tmp_path / "out", tmp_path / "out.sql"
    code = _annotate(corpus_dir, out, "--sql", str(sql))
    monkeypatch.undo()
    assert code == 0
    assert _outputs(out, sql) == _outputs(fresh, fresh_sql)


def test_annotate_create_modes_follow_umask(corpus_dir, tmp_path):
    out, sql = tmp_path / "out", tmp_path / "out.sql"
    old = os.umask(0o007)
    try:
        assert _annotate(corpus_dir, out, "--sql", str(sql)) == 0
        with open(tmp_path / "by_open", "wb"):
            pass
    finally:
        os.umask(old)
    assert (tmp_path / "by_open").stat().st_mode & 0o777 == 0o660
    for path in [sql, *out.iterdir()]:
        assert path.stat().st_mode & 0o777 == 0o660, path


def test_annotate_read_only_output_exits_one(corpus_dir, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert _annotate(corpus_dir, out) == 0
    locked = out / "docCombined.ann"
    before = locked.read_bytes()
    locked.chmod(0o444)
    real_open = os.open

    def open_honouring_mode(path, flags, mode=0o777, **kwargs):
        # Permission bits do not bind a privileged user, so refuse the write
        # here as the kernel refuses it to anyone else.
        if flags & (os.O_WRONLY | os.O_RDWR) and os.path.exists(path):
            if not os.stat(path).st_mode & 0o222:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_open(path, flags, mode, **kwargs)

    monkeypatch.setattr(oncospan.cli.os, "open", open_honouring_mode)
    code = _annotate(corpus_dir, out)
    monkeypatch.undo()
    assert code == 1
    err = capsys.readouterr().err
    assert "Permission denied" in err and str(locked) in err
    assert locked.read_bytes() == before


def test_annotate_sql_to_stdout_pipe(corpus_dir, tmp_path):
    sql = tmp_path / "dump.sql"
    assert _annotate(corpus_dir, tmp_path / "o1", "--sql", str(sql)) == 0
    # A pipe cannot be cut to length; the export streams into it.
    proc = subprocess.run(
        [sys.executable, "-m", "oncospan.cli", "annotate", "--input", str(corpus_dir),
         "--out", str(tmp_path / "o2"), "--sql", "/dev/stdout"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(Path(oncospan.__file__).parents[1])},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(sql.read_bytes())
    assert proc.stdout[len(sql.read_bytes()) :].startswith(b"documents processed: 4\n")


def _run_annotate(corpus_dir, out_dir, sql, shell_prefix=(), **kwargs):
    """``annotate`` in a fresh interpreter; *kwargs* go to subprocess.run."""
    return subprocess.run(
        [*shell_prefix, sys.executable, "-m", "oncospan.cli", "annotate",
         "--input", str(corpus_dir), "--out", str(out_dir), "--sql", sql],
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(Path(oncospan.__file__).parents[1])},
        timeout=60,
        **kwargs,
    )


@pytest.mark.parametrize(
    "mode, earlier", [("wb", b""), ("ab", b"an earlier log line\n")], ids=["truncate", "append"]
)
def test_annotate_sql_to_stdout_file(corpus_dir, tmp_path, capsys, mode, earlier):
    # Standard output redirected to a regular file, as by the shell's ">"
    # (mode "wb") and ">>" (mode "ab", which appends): the earlier content,
    # then the export, then the summary.
    sql = tmp_path / "dump.sql"
    assert _annotate(corpus_dir, tmp_path / "o1", "--sql", str(sql)) == 0
    summary = capsys.readouterr().out.replace(str(sql), "/dev/stdout").encode()
    log = tmp_path / "log.txt"
    log.write_bytes(earlier)
    with open(log, mode) as stdout:
        proc = _run_annotate(corpus_dir, tmp_path / "o2", "/dev/stdout", stdout=stdout)
    assert proc.returncode == 0, proc.stderr
    assert log.read_bytes() == earlier + sql.read_bytes() + summary


def test_annotate_with_stdout_closed(corpus_dir, tmp_path):
    # With descriptor 1 closed, the first file annotate opens takes that
    # number; it is an output like any other, not standard output.
    sql = tmp_path / "dump.sql"
    assert _annotate(corpus_dir, tmp_path / "o1", "--sql", str(sql)) == 0
    proc = _run_annotate(
        corpus_dir, tmp_path / "o2", str(tmp_path / "o2.sql"),
        shell_prefix=("sh", "-c", 'exec "$@" >&-', "sh"),
    )
    assert proc.returncode == 0, proc.stderr
    assert _outputs(tmp_path / "o2", tmp_path / "o2.sql") == _outputs(tmp_path / "o1", sql)


def test_load_documents_selects_as_path_suffix(tmp_path):
    notes = tmp_path / "notes"
    notes.mkdir()
    for name in ["b.txt", ".txt", "a.b.txt", "x.TXT", "c.txt.bak", "..txt"]:
        (notes / name).write_text(f"EGFR mutado en {name}.", encoding="utf-8")
    (notes / "d.txt").mkdir()
    (tmp_path / "elsewhere.note").write_text(MUTATION_NOTE, encoding="utf-8")
    (notes / "link.txt").symlink_to(tmp_path / "elsewhere.note")
    (notes / "gone.txt").symlink_to(tmp_path / "missing")
    os.mkfifo(notes / "f.txt")
    expected = sorted(p for p in notes.iterdir() if p.suffix == ".txt" and p.is_file())
    documents = _load_documents(str(notes))
    assert [d.id for d in documents] == [p.stem for p in expected]
    assert [d.id for d in documents] == [".", "a.b", "b", "link"]
    assert [d.text for d in documents] == [p.read_text(encoding="utf-8") for p in expected]


def test_annotate_not_utf8(tmp_path, capsys):
    src = tmp_path / "notes"
    src.mkdir()
    (src / "bad.txt").write_bytes(b"\xff\xfe EGFR")
    code = cli_main(
        ["annotate", "--input", str(src), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "UTF-8" in err and str(src / "bad.txt") in err


def test_annotate_read_error_names_the_path(corpus_dir, tmp_path, capsys, monkeypatch):
    # A directory's inputs are opened by name relative to one descriptor of
    # it; the error still names the input's full path.
    real_open = os.open

    def failing_open(path, flags, *args, dir_fd=None, **kwargs):
        if path == "docStaging.txt":
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_open(path, flags, *args, dir_fd=dir_fd, **kwargs)

    monkeypatch.setattr(oncospan.cli.os, "open", failing_open)
    code = _annotate(corpus_dir, tmp_path / "out")
    monkeypatch.undo()
    assert code == 1
    err = capsys.readouterr().err
    assert "Permission denied" in err and str(corpus_dir / "docStaging.txt") in err


def test_annotate_file_name_not_utf8(tmp_path):
    src = tmp_path / "notes"
    src.mkdir()
    # The undecodable byte comes back from the directory as a lone surrogate.
    (src / "doc\udcff.txt").write_text(COMBINED_NOTE, encoding="utf-8")
    # A process of its own, whose stderr escapes the surrogate in the message.
    proc = subprocess.run(
        [sys.executable, "-m", "oncospan.cli", "annotate", "--input", str(src),
         "--out", str(tmp_path / "o")],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(oncospan.__file__).parents[1])},
        timeout=60,
    )
    assert proc.returncode == 1
    assert b"lone surrogate" in proc.stderr


def test_error_with_lone_surrogate_under_strict_stderr(tmp_path, monkeypatch):
    src = tmp_path / "notes"
    src.mkdir()
    (src / "doc\udcff.txt").write_text(COMBINED_NOTE, encoding="utf-8")
    raw = io.BytesIO()
    stderr = io.TextIOWrapper(raw, encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stderr", stderr)
    code = cli_main(["annotate", "--input", str(src), "--out", str(tmp_path / "o")])
    stderr.flush()
    assert code == 1
    assert b"doc\\udcff.txt" in raw.getvalue()
    assert b"lone surrogate" in raw.getvalue()


def test_query(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    _annotate(corpus_dir, out)
    capsys.readouterr()
    code = cli_main(
        ["query", "--store", str(out), "--filter", "gene=EGFR,polarity=POS"]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["docMutation"]


def test_query_stage(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    _annotate(corpus_dir, out)
    capsys.readouterr()
    assert cli_main(["query", "--store", str(out), "--filter", "stage=IV"]) == 0
    assert capsys.readouterr().out.splitlines() == ["docCombined"]


def test_query_no_matches(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    _annotate(corpus_dir, out)
    capsys.readouterr()
    assert cli_main(["query", "--store", str(out), "--filter", "t=T4"]) == 0
    assert capsys.readouterr().out == ""


def test_query_bad_filter(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    _annotate(corpus_dir, out)
    code = cli_main(["query", "--store", str(out), "--filter", "color=red"])
    assert code == 1


def test_query_missing_store(tmp_path, capsys):
    code = cli_main(
        ["query", "--store", str(tmp_path / "none"), "--filter", "gene=EGFR"]
    )
    assert code == 1


@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        (
            "docMutation.ann",
            lambda data: b"not a standoff file\n",
            "line 1: first line must be '#doc <id>'",
        ),
        (
            "docStaging.ann",
            lambda data: data.replace(b"\tConsistent\t", b"\tInconsistent\t"),
            "line 6: #check section is not the pairing of the records: "
            "expected '#check\\t0\\t1\\tConsistent\\tIA1'",
        ),
    ],
    ids=["garbage", "check_verdict"],
)
def test_query_corrupt_store(corpus_dir, tmp_path, capsys, name, corrupt, message):
    out = tmp_path / "out"
    _annotate(corpus_dir, out)
    path = out / name
    path.write_bytes(corrupt(path.read_bytes()))
    code = cli_main(["query", "--store", str(out), "--filter", "gene=EGFR"])
    assert code == 1
    assert f"{path}: {message}" in capsys.readouterr().err


def test_query_skips_entries_that_are_not_files(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    _annotate(corpus_dir, out)
    (out / "x.ann").mkdir()
    (out / "dangling.ann").symlink_to(tmp_path / "missing")
    capsys.readouterr()
    code = cli_main(["query", "--store", str(out), "--filter", "stage=IV"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["docCombined"]


@pytest.mark.parametrize("rename", [False, True])
def test_query_rejects_a_file_not_named_after_its_id(corpus_dir, tmp_path, capsys, rename):
    # A copied file would print its id twice, a renamed one out of order.
    out = tmp_path / "out"
    _annotate(corpus_dir, out)
    misnamed = out / "z-copy.ann"
    if rename:
        (out / "docMutation.ann").rename(misnamed)
    else:
        misnamed.write_bytes((out / "docMutation.ann").read_bytes())
    capsys.readouterr()
    code = cli_main(["query", "--store", str(out), "--filter", "gene=EGFR"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(misnamed) in captured.err and "'docMutation'" in captured.err


def test_query_reads_a_file_longer_than_one_read(tmp_path, capsys):
    src, out = tmp_path / "notes", tmp_path / "out"
    src.mkdir()
    (src / "long.txt").write_text("Estadio IV. " + "Sin cambios. " * 6000, encoding="utf-8")
    assert _annotate(src, out) == 0
    assert (out / "long.ann").stat().st_size > 1 << 16
    capsys.readouterr()
    assert cli_main(["query", "--store", str(out), "--filter", "stage=IV"]) == 0
    assert capsys.readouterr().out.splitlines() == ["long"]


def test_query_read_error(corpus_dir, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    _annotate(corpus_dir, out)

    def failing_read(fd, size):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(oncospan.cli.os, "read", failing_read)
    code = cli_main(["query", "--store", str(out), "--filter", "gene=EGFR"])
    monkeypatch.undo()
    assert code == 1
    assert "Input/output error" in capsys.readouterr().err


def test_query_open_error_names_the_path(corpus_dir, tmp_path, capsys, monkeypatch):
    # The store's files are opened by name relative to one descriptor of it;
    # the error still names the file's full path.
    out = tmp_path / "out"
    _annotate(corpus_dir, out)
    capsys.readouterr()
    real_open = os.open

    def failing_open(path, flags, *args, dir_fd=None, **kwargs):
        if path == "docStaging.ann":
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        return real_open(path, flags, *args, dir_fd=dir_fd, **kwargs)

    monkeypatch.setattr(oncospan.cli.os, "open", failing_open)
    code = cli_main(["query", "--store", str(out), "--filter", "gene=EGFR"])
    monkeypatch.undo()
    assert code == 1
    err = capsys.readouterr().err
    assert "No such file or directory" in err and str(out / "docStaging.ann") in err


def test_check(corpus_dir, capsys):
    code = cli_main(["check", "--input", str(corpus_dir)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "consistency reports: 1" in printed
    assert "docStaging: 'pT1aN0M0' [26,34) vs 'I_A1' [126,130): Consistent" in printed


def test_check_inconsistent(tmp_path, capsys):
    src = tmp_path / "notes"
    src.mkdir()
    (src / "bad.txt").write_text(
        "Tumor T3N3M0, estadio IIB tras progresión.", encoding="utf-8"
    )
    assert cli_main(["check", "--input", str(src)]) == 0
    printed = capsys.readouterr().out
    assert "Inconsistent (expected IIIC)" in printed


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert cli_main(["annotate", "--help"]) == 0


def test_bad_usage_exits_one(capsys):
    assert cli_main([]) == 1
    assert cli_main(["annotate"]) == 1
    assert cli_main(["frobnicate"]) == 1


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_annotate_offsets_index_the_file_as_written(newline, tmp_path):
    notes = tmp_path / "notes"
    notes.mkdir()
    lines = [
        "Paciente con EGFR mutado.",
        "ALK no traslocado, ECOG 1.",
        "pT1aN0M0, estadio IA1.",
    ]
    (notes / "docCr.txt").write_bytes((newline.join(lines) + newline).encode("utf-8"))
    out = tmp_path / "out"
    assert _annotate(notes, out) == 0
    with open(notes / "docCr.txt", encoding="utf-8", newline="") as file:
        text = file.read()
    data = (out / "docCr.ann").read_bytes()
    assert data.split(b"\n")[1] == f"#len {len(text)}".encode()
    standoff = read_standoff(data)
    assert standoff.source_text == text
    assert len(standoff.records) == 5
    for record in standoff.records:
        assert text[record.begin : record.end] == record.covered_text
