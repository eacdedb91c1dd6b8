"""The benchmark still drives the program: a one-second traced run of
``perfbench/run.py`` checks its outputs and finds every function it wraps.

A change that deletes or renames a function the benchmark calls or traces
fails here instead of reading 0 in a later benchmark run.  The run leaves
``perfbench/out/trace-notes.tsv`` behind, which ``.gitignore`` lists.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MISSING_PREFIX = "not traced, missing from the program: "
# Points perfbench/tracing.py still names that the program no longer has.
EXPECTED_MISSING = ["oncospan.assertion.detect_polarity"]


def test_traced_notes_run_is_correct_and_finds_its_functions():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "notes", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.splitlines()[-1])
    assert summary["correct"] is True, run.stderr
    assert summary["failed"] == 0
    # The CLI imports standoff, sqlexport and query inside its command
    # handlers; each call must still go through the traced function.
    metrics = summary["metrics"]
    for name in (
        "standoff.serialize_ms",
        "standoff.deserialize_ms",
        "sqlexport.emit_ms",
        "query.match_ms_per_query",
    ):
        assert metrics[name]["value"] > 0, name
    missing = [
        line[len(MISSING_PREFIX):].split(", ")
        for line in run.stderr.splitlines()
        if line.startswith(MISSING_PREFIX)
    ]
    assert missing == [EXPECTED_MISSING]
