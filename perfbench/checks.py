"""Output checks that share no code with the package under test.

The standoff reader follows the format documented in the README, the stage
table is transcribed by hand from the 8th-edition lung-cancer grouping, and
the query oracle rescans the parsed records and replays the SQL export into
stdlib sqlite3.  Nothing here compares against a stored copy of earlier
output.
"""

import re
import sqlite3
from dataclasses import dataclass


class CheckFailed(Exception):
    """An output of the program is wrong."""


# ---------------------------------------------------------------- .ann reader

_FEATURE_KEYS = {
    "mutation": (
        {"gene", "polarity", "implied"},
        {"exon", "exon_kind", "exon_begin", "exon_end", "point", "point_begin", "point_end"},
    ),
    "tnm": ({"prefix", "t", "n", "m"}, set()),
    "stage": ({"stage"}, set()),
    "ps": ({"scale", "value"}, set()),
}
_ESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


@dataclass(frozen=True)
class Record:
    begin: int
    end: int
    annotator: str
    covered: str
    features: dict


@dataclass(frozen=True)
class AnnFile:
    doc_id: str
    text: str
    records: list
    diags: list  # (begin, end, message)
    checks: list  # (tnm index, stage index, verdict, expected or "-")


def _unescape(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        if value[i] != "\\":
            out.append(value[i])
            i += 1
            continue
        if i + 1 == len(value) or value[i + 1] not in _ESCAPES:
            raise CheckFailed(f"bad escape in {value!r}")
        out.append(_ESCAPES[value[i + 1]])
        i += 2
    return "".join(out)


def _span(begin: str, end: str, text_len: int, where: str) -> tuple[int, int]:
    b, e = int(begin), int(end)
    if not 0 <= b < e <= text_len:
        raise CheckFailed(f"{where}: span [{b}, {e}) outside text of length {text_len}")
    return b, e


def read_ann(data: bytes, where: str) -> AnnFile:
    """Parse one standoff file; raise CheckFailed, or ValueError for a bad
    number or feature item, on any format breach."""
    content = data.decode("utf-8")
    head1, _, rest = content.partition("\n")
    head2, _, rest = rest.partition("\n")
    if not head1.startswith("#doc ") or not head2.startswith("#len "):
        raise CheckFailed(f"{where}: bad header")
    length = int(head2[5:])
    text, rest = rest[:length], rest[length:]
    if len(text) != length or not rest.startswith("\n") or not rest.endswith("\n"):
        raise CheckFailed(f"{where}: text block does not match #len {length}")
    records, diags, checks = [], [], []
    for line in rest[1:-1].split("\n") if len(rest) > 1 else []:
        fields = line.split("\t")
        if fields[0] == "#diag" and len(fields) == 4 and not checks:
            b, e = _span(fields[1], fields[2], length, where)
            diags.append((b, e, _unescape(fields[3])))
        elif fields[0] == "#check" and len(fields) == 5:
            checks.append((int(fields[1]), int(fields[2]), fields[3], fields[4]))
        elif len(fields) == 5 and not diags and not checks:
            b, e = _span(fields[0], fields[1], length, where)
            annotator = fields[2]
            covered = _unescape(fields[3])
            if text[b:e] != covered:
                raise CheckFailed(f"{where}: covered text {covered!r} != text[{b}:{e}]")
            features = dict(item.split("=", 1) for item in fields[4].split(";"))
            if annotator not in _FEATURE_KEYS:
                raise CheckFailed(f"{where}: unknown annotator {annotator!r}")
            required, optional = _FEATURE_KEYS[annotator]
            if not required <= features.keys() <= required | optional:
                raise CheckFailed(f"{where}: feature keys {sorted(features)} for {annotator}")
            for key in ("exon", "point"):
                if f"{key}_begin" in features:
                    _span(features[f"{key}_begin"], features[f"{key}_end"], length, where)
            records.append(Record(b, e, annotator, covered, features))
        else:
            raise CheckFailed(f"{where}: unexpected line {line[:60]!r}")
    return AnnFile(head1[5:], text, records, diags, checks)


# ------------------------------------------------------ 8th-edition staging

# Published 8th-edition lung-cancer stage grouping for M0, columns N0..N3.
_M0_GRID = {
    "T1a": ("IA1", "IIB", "IIIA", "IIIB"),
    "T1b": ("IA2", "IIB", "IIIA", "IIIB"),
    "T1c": ("IA3", "IIB", "IIIA", "IIIB"),
    "T2a": ("IB", "IIB", "IIIA", "IIIB"),
    "T2b": ("IIA", "IIB", "IIIA", "IIIB"),
    "T3": ("IIB", "IIIA", "IIIB", "IIIC"),
    "T4": ("IIIA", "IIIA", "IIIB", "IIIC"),
}
_M1 = {"M1a": "IVA", "M1b": "IVA", "M1c": "IVB"}
_COARSE_T = {"T1": ("T1a", "T1b", "T1c"), "T2": ("T2a", "T2b")}
COARSE_STAGES = ("I", "IA", "II", "III", "IV")
ALL_STAGES = (
    "I", "IA", "IA1", "IA2", "IA3", "IB", "II", "IIA", "IIB",
    "III", "IIIA", "IIIB", "IIIC", "IV", "IVA", "IVB",
)
_STAGE_PARTS = re.compile(r"(IV|I{1,3})([ABC]?)([123]?)")


def expected_stage(t: str, n: str, m: str) -> str | None:
    """Stage group a TNM triple implies, or None when it spans several."""
    if m in _M1:
        return _M1[m]
    if m != "M0":
        return None
    groups = {_M0_GRID[sub][int(n[1])] for sub in _COARSE_T.get(t, (t,))}
    if len(groups) == 1:
        return groups.pop()
    # A coarse T whose cells differ only in the substage digit keeps the
    # shared letter group (T1 N0 M0 is IA).
    prefixes = {g.rstrip("123") for g in groups}
    if len(prefixes) == 1 and all(g[-1] in "123" for g in groups):
        return prefixes.pop()
    return None


def stage_covers(written: str, expected: str) -> bool:
    """Written stage equals the expected one or is a coarse group above it."""
    if written == expected:
        return True
    if written not in COARSE_STAGES:
        return False
    w = _STAGE_PARTS.fullmatch(written).groups()
    e = _STAGE_PARTS.fullmatch(expected).groups()
    return w[0] == e[0] and w[1] in ("", e[1]) and w[2] in ("", e[2])


# ---------------------------------------------------------- per-file checks

_STAGE_SEPARATORS = re.compile(r"[\-_.() ]")
_TNM_SEPARATORS = re.compile(r"[ \-_:.]")
_PREFIXES = {"": "None", "c": "C", "p": "P", "yc": "YC", "yp": "YP", "r": "R", "a": "A"}


def check_file(ann: AnnFile, doc_id: str, text: str) -> None:
    """Check one parsed .ann file against its input note."""
    where = f"{doc_id}.ann"
    if ann.doc_id != doc_id or ann.text != text:
        raise CheckFailed(f"{where}: id or text differs from the input")
    keys = [(r.begin, r.end, r.annotator) for r in ann.records]
    if keys != sorted(keys):
        raise CheckFailed(f"{where}: records not sorted by (begin, end, annotator)")
    for r in ann.records:
        f = r.features
        if r.annotator == "stage":
            if _STAGE_SEPARATORS.sub("", r.covered).upper() != f["stage"]:
                raise CheckFailed(f"{where}: stage {f['stage']} for {r.covered!r}")
        elif r.annotator == "tnm":
            body = _TNM_SEPARATORS.sub("", r.covered).lower()
            tnm = (f["t"] + f["n"] + f["m"]).lower()
            if not body.endswith(tnm) or _PREFIXES.get(body[: -len(tnm)]) != f["prefix"]:
                raise CheckFailed(f"{where}: tnm features {f} for {r.covered!r}")
        elif r.annotator == "ps":
            digits = re.search(r"[0-9]+", r.covered)
            if digits is None or int(digits.group()) != int(f["value"]):
                raise CheckFailed(f"{where}: ps value {f['value']} for {r.covered!r}")
    tnms = [i for i, r in enumerate(ann.records) if r.annotator == "tnm"]
    stages = [i for i, r in enumerate(ann.records) if r.annotator == "stage"]
    pairs = sorted((c[0], c[1]) for c in ann.checks)
    if pairs != sorted((i, j) for i in tnms for j in stages):
        raise CheckFailed(f"{where}: #check lines are not one per tnm/stage pair")
    for i, j, verdict, expected in ann.checks:
        tf = ann.records[i].features
        want = expected_stage(tf["t"], tf["n"], tf["m"])
        written = ann.records[j].features["stage"]
        if want is None:
            want_verdict = "NotComparable"
        elif stage_covers(written, want):
            want_verdict = "Consistent"
        else:
            want_verdict = "Inconsistent"
        if (verdict, expected) != (want_verdict, want or "-"):
            raise CheckFailed(
                f"{where}: {tf} vs {written}: got {verdict}/{expected}, "
                f"table says {want_verdict}/{want or '-'}"
            )


def annotator_counts(files: list) -> dict:
    counts = {"mutation": 0, "tnm": 0, "stage": 0, "ps": 0}
    for ann in files:
        for r in ann.records:
            counts[r.annotator] += 1
    return counts


# ------------------------------------------------------------ query oracle

_POLARITY = {"POS": "Positive", "NEG": "Negative", "UNK": "Unknown"}


@dataclass(frozen=True)
class Filter:
    """One query: the CLI expression and the same constraints spelled out."""

    expression: str
    gene: str | None = None
    polarity: str | None = None  # POS, NEG or UNK
    stage: str | None = None  # canonical group
    ecog: tuple[int, int] | None = None
    karnofsky: tuple[int, int] | None = None
    t: str | None = None
    n: str | None = None
    m: str | None = None


def _ps_in(records, scale: str, bounds) -> bool:
    return any(
        r.annotator == "ps" and r.features["scale"] == scale
        and bounds[0] <= int(r.features["value"]) <= bounds[1]
        for r in records
    )


def brute_force(files: list, q: Filter) -> list:
    """Ids of the documents that match *q*, by a scan over parsed records."""
    out = []
    for ann in files:
        recs = ann.records
        ok = True
        if q.gene or q.polarity:
            ok = any(
                r.annotator == "mutation"
                and q.gene in (None, r.features["gene"])
                and (q.polarity is None or _POLARITY[q.polarity] == r.features["polarity"])
                for r in recs
            )
        if ok and q.stage:
            ok = any(r.annotator == "stage" and stage_covers(q.stage, r.features["stage"]) for r in recs)
        if ok and q.ecog:
            ok = _ps_in(recs, "ECOG", q.ecog)
        if ok and q.karnofsky:
            ok = _ps_in(recs, "Karnofsky", q.karnofsky)
        for key in ("t", "n", "m"):
            want = getattr(q, key)
            if ok and want:
                ok = any(r.annotator == "tnm" and r.features[key] == want for r in recs)
        if ok:
            out.append(ann.doc_id)
    return sorted(out)


def _exists(annotator: str, conditions: list, params: list) -> tuple[str, list]:
    sql = (
        "EXISTS (SELECT 1 FROM annotations a WHERE a.document_id = d.id "
        "AND a.annotator = ?"
    )
    args = [annotator]
    for condition, values in zip(conditions, params):
        sql += (
            " AND EXISTS (SELECT 1 FROM annotation_features f WHERE "
            f'f.annotation_id = a.id AND {condition})'
        )
        args.extend(values)
    return sql + ")", args


def sql_ids(conn: sqlite3.Connection, q: Filter) -> list:
    """Ids of the documents that match *q*, by SQL over the replayed export."""
    where, args = [], []

    def add(clause):
        where.append(clause[0])
        args.extend(clause[1])

    if q.gene or q.polarity:
        conds, params = [], []
        if q.gene:
            conds.append("f.\"key\" = 'gene' AND f.\"value\" = ?")
            params.append([q.gene])
        if q.polarity:
            conds.append("f.\"key\" = 'polarity' AND f.\"value\" = ?")
            params.append([_POLARITY[q.polarity]])
        add(_exists("mutation", conds, params))
    if q.stage:
        covered = [s for s in ALL_STAGES if stage_covers(q.stage, s)]
        marks = ",".join("?" * len(covered))
        add(_exists("stage", [f"f.\"key\" = 'stage' AND f.\"value\" IN ({marks})"], [covered]))
    for scale, bounds in (("ECOG", q.ecog), ("Karnofsky", q.karnofsky)):
        if bounds:
            add(_exists("ps", [
                "f.\"key\" = 'scale' AND f.\"value\" = ?",
                "f.\"key\" = 'value' AND CAST(f.\"value\" AS INTEGER) BETWEEN ? AND ?",
            ], [[scale], list(bounds)]))
    for key in ("t", "n", "m"):
        want = getattr(q, key)
        if want:
            add(_exists("tnm", [f"f.\"key\" = '{key}' AND f.\"value\" = ?"], [[want]]))
    rows = conn.execute(
        "SELECT d.id FROM documents d WHERE " + " AND ".join(where) + " ORDER BY d.id",
        args,
    )
    return [row[0] for row in rows]


def replay_sql(script: str) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    conn.executescript(script)
    return conn
