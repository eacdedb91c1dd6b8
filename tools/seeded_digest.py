"""Print the seeded digest of the contract bytes and the size of ``src/``.

The digest is one SHA-256 over three seeded corpora, taken in the order
``(seed, count)`` = (11, 2000), (7, 1000), (2001, 300): for each, the bytes of
every ``.ann`` file that ``serialize_result`` writes for
``process_corpus(build_pipeline(PipelineConfig()), generate_corpus(count,
seed=seed))``, in result order, then the UTF-8 bytes of ``emit_sql`` over
those results.  A change that keeps the ``.ann`` files and the SQL script
identical on these corpora prints the same digest.

Run from the repository root:

    PYTHONPATH=src python3 tools/seeded_digest.py
"""

import hashlib
from pathlib import Path

from oncospan import PipelineConfig, build_pipeline, emit_sql, process_corpus, serialize_result
from oncospan.corpusgen import generate_corpus

CORPORA = ((11, 2000), (7, 1000), (2001, 300))
SRC = Path(__file__).resolve().parent.parent / "src"


def seeded_digest() -> str:
    pipeline = build_pipeline(PipelineConfig())
    digest = hashlib.sha256()
    for seed, count in CORPORA:
        results = process_corpus(pipeline, generate_corpus(count, seed=seed))
        for result in results:
            digest.update(serialize_result(result))
        digest.update(emit_sql(results).encode("utf-8"))
    return digest.hexdigest()


def src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py"))
    )


if __name__ == "__main__":
    print(f"seeded digest: {seeded_digest()}")
    print(f"src/ lines: {src_lines()}")
