"""Deterministic synthetic corpus for tests and benchmarks.

Documents mix concept-bearing sentences (mutation status, TNM + stage,
performance status, in the notation variants clinicians actually type)
with distractor prose, including known traps: "ecografía", "fosfatasa
alcalina", roman numerals without a staging trigger.  Same seed, same
corpus, byte for byte.
"""

import random

from .document import Document

_MIN_SIZE = 950  # a note takes distractors until its sentences reach this length

_GENE_SENTENCES = (
    "EGFR + (del exon 19), no se detecta traslocación de ALK y ROS1 no traslocado.",
    "EGFR no mutado.",
    "EGFR mutado, L858R.",
    "Se detecta mutación T790M en EGFR.",
    "Estudio molecular: EGFR negativo, ALK negativo.",
    "No se detecta traslocación de ALK.",
    "ALK no traslocado.",
    "ALK traslocado (FISH).",
    "ROS1 no traslocado.",
    "Ros-1 traslocado.",
    "Con mutación de inserción en exon 20.",
    "Presencia de G719X.",
    "Ausencia de mutación en exon 21.",
    "EGFR - en la biopsia bronquial.",
)

# Prose-safe separators only: a "." separator is valid notation but would
# be carved up by sentence splitting when embedded in running text, so the
# corpus keeps it out (the parser enumeration tests cover it on bare
# strings).
_SEPARATORS = ("", " ", "-", "_", ":")
_STAGE_SEPARATORS = ("", "-", "_")
_PREFIXES = ("", "c", "p", "yc", "yp", "r", "a")

# (t, n, m, canonical stage) rows used to fabricate consistent pairs.
_STAGE_ROWS = (
    ("T1a", "N0", "M0", "IA1"),
    ("T1b", "N0", "M0", "IA2"),
    ("T1c", "N0", "M0", "IA3"),
    ("T2a", "N0", "M0", "IB"),
    ("T2b", "N0", "M0", "IIA"),
    ("T1a", "N1", "M0", "IIB"),
    ("T3", "N0", "M0", "IIB"),
    ("T2a", "N2", "M0", "IIIA"),
    ("T4", "N1", "M0", "IIIA"),
    ("T1c", "N3", "M0", "IIIB"),
    ("T3", "N3", "M0", "IIIC"),
    ("T2a", "N0", "M1a", "IVA"),
    ("T1b", "N2", "M1b", "IVA"),
    ("T4", "N3", "M1c", "IVB"),
)

_PS_SENTENCES = (
    "ECOG-PS 0.",
    "ECOG 1.",
    "ECOG (3).",
    "ECOG_PS: 2.",
    "ECOG-0.",
    "Karnofsky: 100%.",
    "Karnofsky 80%.",
    "Karnofsky: 90.",
    "KPS 70.",
)

_DISTRACTORS = (
    "Paciente varón de 70 años, exfumador desde hace 5 años, sin alergias medicamentosas conocidas.",
    "Mujer de 63 años con antecedentes de hipertensión arterial en tratamiento con enalapril.",
    "Radiografía de tórax: infiltrado en lóbulo superior derecho con pérdida de volumen.",
    "Ecografía abdominal sin hallazgos significativos.",
    "Analítica: fosfatasa alcalina discretamente elevada, resto sin alteraciones.",
    "Capítulo IV del informe previo, sin cambios relevantes.",
    "TAC craneal sin evidencia de metástasis a distancia.",
    "Fibrobroncoscopia: lesión vegetante en bronquio principal izquierdo, se toman biopsias.",
    "PET-TC: captación patológica hiliar y mediastínica, SUVmax 8.4.",
    "Se administra quimioterapia con cisplatino y pemetrexed, buena tolerancia inmediata.",
    "Disnea de moderados esfuerzos, tos seca persistente, niega hemoptisis.",
    "Exploración física: auscultación con hipoventilación en base derecha, resto anodino.",
    "TA 120/80, FC 75 lpm, SatO2 96% basal, afebril.",
    "Pendiente de comité de tumores torácicos para decisión terapéutica.",
    "Revisión en consultas externas de oncología médica en 3 semanas con resultados.",
    "Derrame pleural derecho leve, no subsidiario de drenaje en este momento.",
    "Antecedentes quirúrgicos: apendicectomía en la juventud, sin otras intervenciones.",
    "El paciente refiere astenia de dos meses de evolución con pérdida ponderal de 4 kg.",
)


def _tnm_surface(rng: random.Random, t: str, n: str, m: str) -> str:
    prefix = rng.choice(_PREFIXES)
    sep = rng.choice(_SEPARATORS)
    body = f"{t}{sep}{n}{sep}{m}"
    surface = prefix + body
    if rng.random() < 0.3:
        surface = surface.upper()
    return surface


def _stage_surface(rng: random.Random, canonical: str) -> str:
    # Split only before a letter/digit suffix; pure romans stay intact.
    if canonical[-1] not in "ABC123" or rng.random() < 0.4:
        return canonical
    sep = rng.choice(_STAGE_SEPARATORS)
    if canonical[-1].isdigit() and rng.random() < 0.5:
        return canonical[:-2] + sep + canonical[-2] + sep + canonical[-1]
    if canonical[-1].isdigit():
        return canonical[:-2] + sep + canonical[-2:]
    return canonical[:-1] + sep + canonical[-1]


def _staging_sentence(rng: random.Random) -> str:
    t, n, m, stage = rng.choice(_STAGE_ROWS)
    tnm = _tnm_surface(rng, t, n, m)
    roll = rng.random()
    if roll < 0.4:
        return f"Adenocarcinoma de pulmón, {tnm}, estadio {_stage_surface(rng, stage)}."
    if roll < 0.6:
        return f"Carcinoma no microcítico {tnm}."
    if roll < 0.8:
        return f"Estadio {_stage_surface(rng, stage)} por TNM {tnm}."
    # Deliberately discordant pair so inconsistency reports occur.
    other = rng.choice([s for *_ , s in _STAGE_ROWS if s != stage])
    return f"Neoplasia pulmonar {tnm}, estadio {_stage_surface(rng, other)}."


def generate_document(rng: random.Random, doc_id: str) -> Document:
    sentences = []
    sentences.append(rng.choice(_DISTRACTORS))
    for pool, count in (
        (_GENE_SENTENCES, rng.randint(0, 2)),
        (_PS_SENTENCES, rng.randint(0, 2)),
    ):
        for _ in range(count):
            sentences.append(rng.choice(pool))
    if rng.random() < 0.7:
        sentences.append(_staging_sentence(rng))
    while sum(len(s) + 1 for s in sentences) < _MIN_SIZE:
        sentences.append(rng.choice(_DISTRACTORS))
    rng.shuffle(sentences)
    parts = []
    for sentence in sentences:
        parts.append(sentence)
        parts.append("\n\n" if rng.random() < 0.2 else " ")
    return Document(doc_id, "".join(parts[:-1]))


def generate_corpus(count: int, seed: int = 20240817) -> list[Document]:
    rng = random.Random(seed)
    return [generate_document(rng, f"doc{i:04d}") for i in range(count)]
