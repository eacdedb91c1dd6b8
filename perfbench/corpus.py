"""Seeded inputs for the benchmark workloads.

Notes come from ``oncospan.corpusgen.generate_document`` driven by a
``random.Random(seed)`` owned here, so the same seed gives the same files.
The program only ever sees the generated text files.
"""

import random
import re
from dataclasses import dataclass

from checks import Filter
from oncospan.corpusgen import generate_document


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int  # --jobs of the annotate command
    latency_docs: int  # documents timed by process_document in each round
    latency_passes: int  # passes over those documents in each round


WORKLOADS = {
    "notes": Workload("notes", jobs=1, latency_docs=100, latency_passes=1),
    "bulk_jobs2": Workload("bulk_jobs2", jobs=2, latency_docs=100, latency_passes=1),
    "history": Workload("history", jobs=1, latency_docs=5, latency_passes=3),
}

NOTES_DOCS = 300
BULK_DOCS = 900
# Notes per longitudinal record.  Five records put the median and the 90th
# percentile of repeated latency samples in the middle of one record's
# cluster (the 3rd and 5th), not on a boundary between two records.
HISTORY_NOTES = (20, 40, 60, 80, 100)
# Shares of a record's notes that carry a TNM plus a stage, and a TNM alone.
# Fixing them fixes the number of TNM x stage pairs per record, whose cost
# grows quadratically and would otherwise swing with the seed.
HISTORY_TNM_STAGE = 0.56
HISTORY_TNM_ONLY = 0.14

# Every filter key is used; expected answers come from checks.brute_force.
FILTERS = (
    Filter("gene=EGFR,polarity=POS", gene="EGFR", polarity="POS"),
    Filter("gene=ALK,polarity=NEG", gene="ALK", polarity="NEG"),
    Filter("gene=ROS1", gene="ROS1"),
    Filter("polarity=UNK", polarity="UNK"),
    Filter("stage=IV", stage="IV"),
    Filter("stage=I-A1", stage="IA1"),
    Filter("stage=IIIA", stage="IIIA"),
    Filter("ecog=0..2", ecog=(0, 2)),
    Filter("karnofsky=70..90", karnofsky=(70, 90)),
    Filter("t=T2a,n=N0", t="T2a", n="N0"),
    Filter("m=M1c", m="M1c"),
    Filter("gene=EGFR,stage=IV,ecog=0..1", gene="EGFR", stage="IV", ecog=(0, 1)),
)

# TNM notation and a staging trigger, as a reader of the note would spot them.
_TNM = re.compile(r"(?i)t[1-4][abc]?[ :_-]?n[0-3][ :_-]?m[01]")
_STAGE = re.compile(r"(?i)\bestadio\b")


def documents(workload: str, seed: int) -> list[tuple[str, str]]:
    """(document id, text) pairs for one workload and seed."""
    rng = random.Random(seed)
    if workload == "notes":
        return [(f"note{i:04d}", generate_document(rng, "n").text) for i in range(NOTES_DOCS)]
    if workload == "bulk_jobs2":
        return [(f"bulk{i:05d}", generate_document(rng, "n").text) for i in range(BULK_DOCS)]
    if workload == "history":
        return [
            (f"patient{i:02d}", "\n\n".join(_record_notes(rng, count)))
            for i, count in enumerate(HISTORY_NOTES)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _record_notes(rng: random.Random, count: int) -> list[str]:
    want = {
        "tnm_stage": round(count * HISTORY_TNM_STAGE),
        "tnm_only": round(count * HISTORY_TNM_ONLY),
    }
    want["plain"] = count - want["tnm_stage"] - want["tnm_only"]
    picked: list[str] = []
    while len(picked) < count:
        text = generate_document(rng, "n").text
        tnm, stage = len(_TNM.findall(text)), len(_STAGE.findall(text))
        kind = {(1, 1): "tnm_stage", (1, 0): "tnm_only", (0, 0): "plain"}.get((tnm, stage))
        if kind is not None and want[kind] > 0:
            want[kind] -= 1
            picked.append(text)
    rng.shuffle(picked)
    return picked
