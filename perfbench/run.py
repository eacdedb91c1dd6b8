#!/usr/bin/env python3
"""Benchmark of oncospan's annotate and query commands.

Run from the repository root:

    python3 perfbench/run.py --workload notes --seed 1 --seconds 30 --trace 0

``--trace 0`` times the end-to-end metrics with nothing traced.  ``--trace 1``
is a separate run that wraps each module's public functions (see
tracing.py) and reports the per-layer metrics.  Both check every output
(see checks.py).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The package is
imported from ``src/`` next to this directory; the run fails without it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Rounds a timed run makes even when --seconds is short: seven set-up
# samples, and the 100 latency samples a 90th percentile needs on every
# workload.
MIN_ROUNDS = 7
ANNOTATE_TIMEOUT_S = 150
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import oncospan\n"
    "oncospan.build_pipeline(oncospan.PipelineConfig())\n"
    "print(time.perf_counter() - t0)\n"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ------------------------------------------------------------ child processes

def _children(pid: int) -> list[int]:
    kids = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as f:
                kids.extend(int(k) for k in f.read().split())
    except OSError:
        pass
    return kids


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class _PeakWatcher(threading.Thread):
    """Polls the peak RSS of a process's descendants while it runs."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peaks: dict[int, int] = {}
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(0.02):
            todo = [self.pid]
            while todo:
                pid = todo.pop()
                kids = _children(pid)
                todo.extend(kids)
                self.peaks[pid] = max(self.peaks.get(pid, 0), _vm_hwm_kib(pid))


def steal_s() -> float:
    """CPU seconds the host has taken from this machine, summed over its CPUs.

    /proc/stat counts, for each CPU, the time the hypervisor ran something
    else while that CPU had work (``steal``).  It reads 0 where the kernel
    does not account steal.
    """
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_annotate(work: Path, args: list[str]) -> dict:
    """Run ``python -m oncospan.cli annotate`` and measure it from outside.

    Peak RSS is the child's own peak from wait4 when it starts no processes;
    otherwise the sum over the process tree of each process's last polled
    VmHWM.  CPU time covers the child and every descendant it waited for.
    Steal is what steal_s counted while it ran.
    """
    cmd = [sys.executable, "-m", "oncospan.cli", "annotate", *args]
    with open(work / "annotate.out", "wb") as out, open(work / "annotate.err", "wb") as err:
        stolen = steal_s()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=out, stderr=err)
        watcher = _PeakWatcher(proc.pid)
        watcher.start()
        killer = threading.Timer(ANNOTATE_TIMEOUT_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        stolen = steal_s() - stolen
        killer.cancel()
        watcher.done.set()
        watcher.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    others = [kib for pid, kib in watcher.peaks.items() if pid != proc.pid]
    rss_kib = watcher.peaks.get(proc.pid, 0) + sum(others) if others else usage.ru_maxrss
    return {
        "code": proc.returncode,
        "wall": wall,
        "steal": stolen,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mib": rss_kib / 1024,
        "stdout": (work / "annotate.out").read_text(encoding="utf-8", errors="replace"),
    }


def measure_setup() -> float:
    """Seconds for a fresh interpreter to import oncospan and build a pipeline."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ in-process calls

def cli_quiet(argv: list[str]) -> tuple[int, str]:
    from oncospan import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.cli_main(argv)
    return code, buf.getvalue()


def query_once(store: Path, expression: str) -> tuple[float, int, list[str]]:
    start = time.perf_counter()
    code, out = cli_quiet(["query", "--store", str(store), "--filter", expression])
    return time.perf_counter() - start, code, sorted(out.split())


def digest(store: Path, sql: Path, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in sorted(store.iterdir()) + [sql]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def same_outputs(a: Path, a_sql: Path, b: Path, b_sql: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return a_sql.read_bytes() == b_sql.read_bytes() and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names
    )


# ------------------------------------------------------------ output checks

def check_store(docs, store: Path, sql: Path, stdout: str) -> tuple[list, dict]:
    """Check one annotate run; return the parsed files and expected query ids."""
    from checks import (
        CheckFailed, annotator_counts, brute_force, check_file, read_ann, replay_sql, sql_ids,
    )
    from corpus import FILTERS

    if sorted(p.name for p in store.iterdir()) != sorted(f"{d}.ann" for d, _ in docs):
        raise CheckFailed("the store does not hold exactly one .ann per input")
    files = []
    for doc_id, text in docs:
        try:
            ann = read_ann((store / f"{doc_id}.ann").read_bytes(), f"{doc_id}.ann")
        except (ValueError, KeyError, IndexError) as exc:
            raise CheckFailed(f"{doc_id}.ann: unreadable ({exc})") from None
        check_file(ann, doc_id, text)
        files.append(ann)
    counts = annotator_counts(files)
    lines = stdout.splitlines()
    want = [f"documents processed: {len(docs)}"] + [f"{k} annotations: {v}" for k, v in counts.items()]
    if any(line not in lines for line in want):
        raise CheckFailed(f"annotate printed {lines}, records give {want}")
    conn = replay_sql(sql.read_text(encoding="utf-8"))
    try:
        rows = conn.execute(
            "SELECT a.document_id, a.begin_off, a.end_off, a.annotator, a.covered_text, "
            "group_concat(f.\"key\" || '=' || f.\"value\", ';') FROM annotations a "
            "JOIN annotation_features f ON f.annotation_id = a.id GROUP BY a.id"
        ).fetchall()
        from_sql = sorted((d, b, e, k, c, tuple(sorted(fs.split(";")))) for d, b, e, k, c, fs in rows)
        from_ann = sorted(
            (ann.doc_id, r.begin, r.end, r.annotator, r.covered,
             tuple(sorted(f"{k}={v}" for k, v in r.features.items())))
            for ann in files for r in ann.records
        )
        if from_sql != from_ann:
            raise CheckFailed("the SQL export's annotations differ from the .ann records")
        texts = dict(conn.execute("SELECT id, text FROM documents"))
        if texts != dict(docs):
            raise CheckFailed("the SQL export's documents differ from the inputs")
        expected = {}
        for q in FILTERS:
            ids = brute_force(files, q)
            if sql_ids(conn, q) != ids:
                raise CheckFailed(f"filter {q.expression}: SQL and record scan disagree")
            expected[q.expression] = ids
    finally:
        conn.close()
    return files, expected


# ------------------------------------------------------------ runs

class Run:
    def __init__(self, workload: str, seed: int, seconds: int, work: Path):
        from corpus import WORKLOADS, documents
        from oncospan import Document

        self.wl = WORKLOADS[workload]
        self.seconds = seconds
        self.work = work
        self.docs = documents(workload, seed)
        self.inputs = work / "input"
        self.inputs.mkdir(parents=True)
        for doc_id, text in self.docs:
            (self.inputs / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        self.latency_docs = [Document(d, t) for d, t in self.docs[: self.wl.latency_docs]]
        self.store, self.sql = work / "store", work / "dump.sql"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def annotate_args(self, store: Path, sql: Path, jobs: int) -> list[str]:
        return ["--input", str(self.inputs), "--out", str(store), "--sql", str(sql), "--jobs", str(jobs)]

    def annotate(self) -> dict:
        inv = run_annotate(self.work, self.annotate_args(self.store, self.sql, self.wl.jobs))
        self.attempted += 1
        if inv["code"] != 0:
            self.failed += 1
            err = (self.work / "annotate.err").read_text(errors="replace").strip()
            self.errors.append(f"annotate exited {inv['code']}: {err[-300:]}")
        return inv

    def query(self, expression: str, outputs: dict) -> float:
        seconds, code, ids = query_once(self.store, expression)
        self.attempted += 1
        if code != 0:
            self.failed += 1
        else:
            outputs.setdefault(expression, set()).add(tuple(ids))
        return seconds

    def check(self, stdout: str, query_outputs: dict) -> list:
        """Check the store and every query answer; return the parsed files."""
        from checks import CheckFailed

        try:
            files, expected = check_store(self.docs, self.store, self.sql, stdout)
        except CheckFailed as exc:
            self.errors.append(f"check failed: {exc}")
            return []
        for expression, answers in query_outputs.items():
            if answers != {tuple(expected[expression])}:
                self.errors.append(f"query {expression!r} printed ids other than the record scan's")
        return files


def timed_run(run: Run) -> dict:
    from corpus import FILTERS
    from oncospan import PipelineConfig, build_pipeline

    measure_setup()  # also writes the bytecode caches; not a sample
    pipe = build_pipeline(PipelineConfig())
    for doc in run.latency_docs:  # warm caches before timing
        pipe.process_document(doc)
    setup, rates, rss, latencies, query_ms, outputs = [], [], [], [], [], {}
    first_digest = first_stdout = None
    last_results = []
    workers = min(run.wl.jobs, len(os.sched_getaffinity(0)))
    rounds = 0
    clock = time.perf_counter
    start, round_s = clock(), 0.0
    # A round starts only if one as long as the last would end in time.
    while rounds < MIN_ROUNDS or clock() - start + round_s <= run.seconds:
        rounds += 1
        round_start = clock()
        setup.append(measure_setup())
        inv = run.annotate()
        # Time the host takes from the CPUs the command keeps busy stalls it
        # for that long: its seconds are wall time less the steal per worker.
        rates.append(len(run.docs) / (inv["wall"] - inv["steal"] / workers))
        rss.append(inv["rss_mib"])
        if inv["code"] == 0:
            d = digest(run.store, run.sql, inv["stdout"])
            if first_digest is None:
                first_digest, first_stdout = d, inv["stdout"]
            elif d != first_digest:
                run.errors.append(f"annotate round {rounds} wrote different bytes")
        last_results = []
        for _ in range(run.wl.latency_passes):
            for doc in run.latency_docs:
                t = clock()
                result = pipe.process_document(doc)
                latencies.append((clock() - t) * 1000)
                last_results.append(result)
                run.attempted += 1
        for q in FILTERS:
            query_ms.append(run.query(q.expression, outputs) * 1000)
        round_s = clock() - round_start
    files = run.check(first_stdout or "", outputs) if first_digest else []
    by_id = {ann.doc_id: ann for ann in files}
    for result in last_results if files else []:
        ann = by_id[result.document_id]
        if (len(ann.records), len(ann.checks), len(ann.diags)) != (
            len(result.annotations), len(result.consistency), len(result.diagnostics)
        ):
            run.errors.append(f"process_document({result.document_id}) differs from its .ann file")
            break
    if run.wl.jobs != 1 and first_digest:
        serial, serial_sql = run.work / "store_jobs1", run.work / "jobs1.sql"
        code, _ = cli_quiet(["annotate", *run.annotate_args(serial, serial_sql, 1)])
        if code != 0 or not same_outputs(run.store, run.sql, serial, serial_sql):
            run.errors.append(f"--jobs {run.wl.jobs} output differs from --jobs 1")
    print(
        f"rounds {rounds}: {len(rates)} annotate runs, {len(latencies)} latency "
        f"samples, {len(query_ms)} queries"
    )
    return {
        "setup_s": (statistics.median(setup), "s"),
        "annotate_docs_per_s": (statistics.median(rates), "docs/s"),
        "annotate_peak_rss_mb": (statistics.median(rss), "MB"),
        "doc_latency_ms_p50": (statistics.median(latencies), "ms"),
        "doc_latency_ms_p90": (statistics.quantiles(latencies, n=10)[8], "ms"),
        "query_ms_p50": (statistics.median(query_ms), "ms"),
    }


def view_kib(docs) -> float:
    """KiB held by the SentenceView objects of one document, on average."""
    from oncospan.document import SentenceView, split_sentences

    for doc in docs:  # fill the word cache first, as a long run would
        [SentenceView.from_sentence(doc, s) for s in split_sentences(doc.text)]
    total = 0
    tracemalloc.start()
    try:
        for doc in docs:
            sentences = split_sentences(doc.text)
            before = tracemalloc.get_traced_memory()[0]
            views = [SentenceView.from_sentence(doc, s) for s in sentences]
            total += tracemalloc.get_traced_memory()[0] - before
            del views
    finally:
        tracemalloc.stop()
    return total / 1024 / len(docs)


def traced_run(run: Run) -> dict:
    from corpus import FILTERS
    from oncospan import _textops
    from tracing import Tracer, totals, write_spans

    tracer = Tracer()
    default_backend = _textops.backend_name()
    backends = _textops.available_backends()
    plain, plain_sql = run.work / "plain", run.work / "plain.sql"
    traced, traced_sql = run.work / "traced", run.work / "traced.sql"
    untraced_s, traced_s, cores, outputs, phases = [], [], [], {}, []
    annotate_spans, kernel_spans, query_spans = [], {b: [] for b in backends}, []
    counts = Counter()
    passes = queries = 0
    first_stdout = None
    clock = time.perf_counter
    rounds = 0
    start, round_s = clock(), 0.0
    while rounds < 1 or clock() - start + round_s <= run.seconds:
        rounds += 1
        round_start = clock()
        phases = []  # only the last round's spans are written out
        inv = run.annotate()
        cores.append(inv["cpu"] / inv["wall"])
        first_stdout = first_stdout or (inv["stdout"] if inv["code"] == 0 else None)
        t = clock()
        code, _ = cli_quiet(["annotate", *run.annotate_args(plain, plain_sql, 1)])
        untraced_s.append(clock() - t)
        run.attempted += 1
        run.failed += code != 0
        for backend in backends:
            _textops.set_backend(backend)
            missing = tracer.install()
            t = clock()
            try:
                code, _ = cli_quiet(["annotate", *run.annotate_args(traced, traced_sql, 1)])
            finally:
                elapsed = clock() - t
                tracer.uninstall()
                _textops.set_backend(default_backend)
            run.attempted += 1
            run.failed += code != 0
            spans, pass_counts = tracer.take()
            phases.append((f"annotate-{backend}-{rounds}", spans))
            kernel_spans[backend].extend(s for s in spans if s[0].startswith("textops."))
            if backend == default_backend:
                traced_s.append(elapsed)
                annotate_spans.extend(spans)
                counts.update(pass_counts)
                passes += 1
        tracer.install()
        try:
            for q in FILTERS:
                run.query(q.expression, outputs)
                queries += 1
        finally:
            tracer.uninstall()
        spans, pass_counts = tracer.take()
        phases.append((f"query-{rounds}", spans))
        query_spans.extend(spans)
        counts.update(pass_counts)
        round_s = clock() - round_start
    if missing:
        print("not traced, missing from the program: " + ", ".join(missing), file=sys.stderr)
    if first_stdout is not None:
        run.check(first_stdout, outputs)
        for other, other_sql in ((plain, plain_sql), (traced, traced_sql)):
            if not same_outputs(run.store, run.sql, other, other_sql):
                run.errors.append(f"in-process annotate into {other.name} differs from the command")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    write_spans(out_dir / f"trace-{run.wl.name}.tsv", phases)

    docs = len(run.docs) * passes
    ann, qry = totals(annotate_spans), totals(query_spans)
    metrics = {}
    for backend in backends:
        kern = totals(kernel_spans[backend])
        for short in ("normalize", "sentence_spans", "token_spans"):
            metrics[f"textops.{backend}.{short}_ms"] = (kern[f"textops.{short}"]["self"] * 1000 / docs, "ms")
    for metric, span in (
        ("document.split_ms", "document.split"),
        ("document.view_ms", "document.view"),
        ("assertion.polarity_ms", "assertion.polarity"),
        ("mutation.annotate_ms", "mutation.annotate"),
        ("staging.tnm_ms", "staging.tnm"),
        ("staging.stage_ms", "staging.stage"),
        ("perfstatus.ecog_ms", "perfstatus.ecog"),
        ("perfstatus.karnofsky_ms", "perfstatus.karnofsky"),
        ("pipeline.self_ms", "pipeline"),
        ("pipeline.consistency_ms", "pipeline.consistency"),
        ("standoff.serialize_ms", "standoff.serialize"),
        ("sqlexport.emit_ms", "sqlexport.emit"),
        ("cli.self_ms", "cli"),
    ):
        metrics[metric] = (ann[span]["self"] * 1000 / docs, "ms")
    metrics["document.view_kib"] = (view_kib(run.latency_docs), "KiB")
    for name in ("document.sentences", "document.tokens", "pipeline.annotations", "pipeline.reports"):
        metrics[name] = (counts[name] / docs, "count")
    metrics["standoff.ann_kib"] = (counts["standoff.ann_bytes"] / 1024 / docs, "KiB")
    metrics["sqlexport.sql_kib"] = (counts["sqlexport.sql_bytes"] / 1024 / docs, "KiB")
    deser = qry["standoff.deserialize"]
    metrics["standoff.deserialize_ms"] = (deser["total"] * 1000 / max(deser["calls"], 1), "ms")
    match_s = qry["query.match"]["total"]
    metrics["query.load_ms_per_query"] = ((qry["cli"]["total"] - match_s) * 1000 / queries, "ms")
    metrics["query.match_ms_per_query"] = (match_s * 1000 / queries, "ms")
    metrics["query.hits_per_query"] = (counts["query.hits"] / queries, "count")
    metrics["cli.annotate_cores_used"] = (statistics.median(cores), "cores")
    metrics["trace.overhead_ms"] = (
        (statistics.median(traced_s) - statistics.median(untraced_s)) * 1000 / len(run.docs), "ms")
    print(f"rounds {rounds}: {passes} traced annotate passes, {queries} traced queries")
    return metrics


def _declared(mode_key: str) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return [m["name"] for m in json.load(f)[mode_key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("notes", "bulk_jobs2", "history"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oncospan" / "__init__.py").is_file():
        print(f"error: no oncospan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = HERE / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        metrics = (traced_run if args.trace else timed_run)(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = _declared("per_layer" if args.trace else "end_to_end")
    if sorted(declared) != sorted(metrics):
        extra = sorted(set(metrics) - set(declared))
        gone = sorted(set(declared) - set(metrics))
        print(f"error: metrics differ from BENCHMARK.json: extra {extra}, missing {gone}", file=sys.stderr)
        return 2
    for error in run.errors:
        print(f"FAILED CHECK: {error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: attempted {run.attempted}, failed {run.failed}")
    for name in declared:
        value, unit = metrics[name]
        print(f"  {name:<28} {value:12.4f} {unit}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
