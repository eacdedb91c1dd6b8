"""Spans around the calls into each oncospan module, recorded from outside.

``Tracer.install`` replaces public functions with wrappers that record a
span (name, start, end, parent) in memory; the program's own code is not
changed.  A function imported by name into another oncospan module is
replaced there too, since that is where the caller looks it up.  Tracing
keeps one span stack, so traced code must run on one thread.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

import oncospan
from oncospan import (
    _textops,
    assertion,
    cli,
    document,
    mutation,
    perfstatus,
    pipeline,
    query,
    sqlexport,
    staging,
    standoff,
)


# (owner, attribute, span name, counter of (args, result) or None)
POINTS = (
    (cli, "cli_main", "cli", None),
    (pipeline, "build_pipeline", "pipeline.build", None),
    (pipeline, "process_corpus", "pipeline.process_corpus", None),
    (pipeline, "process_document", "pipeline", lambda a, r: {
        "pipeline.annotations": len(r.annotations),
        "pipeline.reports": len(r.consistency),
    }),
    (staging, "check_consistency", "pipeline.consistency", None),
    (document, "split_sentences", "document.split", lambda a, r: {"document.sentences": len(r)}),
    (document.SentenceView, "__init__", "document.view", lambda a, r: {"document.tokens": len(a[0].tokens)}),
    (_textops, "normalize_text", "textops.normalize", None),
    (_textops, "sentence_spans", "textops.sentence_spans", None),
    (_textops, "token_spans", "textops.token_spans", None),
    (mutation, "annotate_view", "mutation.annotate", None),
    (assertion, "detect_polarity", "assertion.polarity", None),
    (staging, "tnm_in_view", "staging.tnm", None),
    (staging, "stages_in_view", "staging.stage", None),
    (perfstatus, "ecog_in_view", "perfstatus.ecog", None),
    (perfstatus, "karnofsky_in_view", "perfstatus.karnofsky", None),
    (standoff, "serialize_result", "standoff.serialize", lambda a, r: {"standoff.ann_bytes": len(r)}),
    (standoff, "deserialize_result", "standoff.deserialize", None),
    (sqlexport, "emit_sql", "sqlexport.emit", lambda a, r: {"sqlexport.sql_bytes": len(r.encode())}),
    (query, "query_results", "query.match", lambda a, r: {"query.hits": len(r)}),
)


class Tracer:
    def __init__(self):
        # One list per span: [name, start, end, parent index, child seconds].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> list[str]:
        """Wrap every point; return the ones the program no longer has."""
        missing = []
        for owner, attr, name, counter in POINTS:
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            wrapper = self._wrapper(original, name, counter)
            owners = [owner]
            if not isinstance(owner, type):
                owners += [
                    m for key, m in sys.modules.items()
                    if key.startswith("oncospan.") and m is not owner
                    and getattr(m, attr, None) is original
                ]
                if getattr(oncospan, attr, None) is original:
                    owners.append(oncospan)
            for target in owners:
                self._undo.append((target, attr, original))
                setattr(target, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _wrapper(self, original, name, counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - record[1]
            if counter is not None:
                counts.update(counter(args, result))
            return result

        return traced

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for name, start, end, _parent, child in spans:
        row = out[name]
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - child
    return out


def write_spans(path, phases: list[tuple[str, list[list]]]) -> None:
    """One line per span: phase, index, name, start, end, parent index."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("phase\tindex\tname\tstart_s\tend_s\tparent\n")
        for phase, spans in phases:
            for index, (name, start, end, parent, _child) in enumerate(spans):
                out.write(f"{phase}\t{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
