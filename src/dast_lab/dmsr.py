"""Exemplar retrieval over pooled visual vectors and disease logits.

Each stored study is scored as cos(z_bar, z_bar_k) + lambda * cos(l, l_k), l
the raw disease logits; ties break toward earlier insertion. add_exemplar
keeps the two norms it computes for its zero-norm check beside the records,
so no query computes the norm of a stored row. A query scores all N rows at
once with one product of the N x (C + 14) matrix [Zu | Lu], the stored rows
divided by their kept norms, and [z_hat ; lambda * l_hat] (exact
inner-product search, as in FAISS IndexFlatIP), then rescores every row
within a small margin of the k-th best of those scores with _score's
operations in _score's order, so each returned score has _score's bits, and
ranks only those. A deliberately boring brute-force scorer ships alongside
the query path so the two can be checked against each other exactly, scores
and tie-breaks included.

On disk an index is one `store` container (magic b"DMSR3\\0", bit-exact
round-trip). The JSON header holds the vector width C, the study ids and
reports in insertion order, and the SHA-256 of the stage-1 arrays the index
was built from; the arrays are the N x C pooled visual vectors "z_bar" and
the N x 14 disease logits "logits". Stage 2 and generation refuse an index
whose digest differs from their model's stage-1 arrays (StaleIndexError).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import store
from .ontology import NUM_CATEGORIES

MAGIC = b"DMSR3\x00"
DEFAULT_LAMBDA = 0.5


class IndexFormatError(ValueError):
    """Corrupt or mismatched index file."""


class StaleIndexError(ValueError):
    """Index built from other stage-1 arrays than the model that reads it."""


@dataclass
class ExemplarRecord:
    study_id: str
    z_bar: np.ndarray
    logits: np.ndarray
    report: str

    def __post_init__(self):
        self.z_bar = np.asarray(self.z_bar, dtype=np.float64)
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.logits.shape != (NUM_CATEGORIES,):
            raise ValueError(f"expected {NUM_CATEGORIES} logits, got shape {self.logits.shape}")


@dataclass
class ExemplarIndex:
    width: int
    stage1_sha256: str = ""
    records: list = field(default_factory=list)
    _ids: dict = field(default_factory=dict)  # study_id -> position in records
    _norms: list = field(default_factory=list, repr=False)  # (|z_bar|, |logits|) per record
    _unit: tuple = field(default=None, repr=False)  # (row count, [Zu | Lu]), see _unit_rows

    def __len__(self):
        return len(self.records)

    def __eq__(self, other):
        if not isinstance(other, ExemplarIndex):
            return NotImplemented
        if (self.width != other.width or self.stage1_sha256 != other.stage1_sha256
                or len(self.records) != len(other.records)):
            return False
        for a, b in zip(self.records, other.records):
            if (a.study_id != b.study_id or a.report != b.report
                    or not np.array_equal(a.z_bar, b.z_bar)
                    or not np.array_equal(a.logits, b.logits)):
                return False
        return True


def _cosine(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def add_exemplar(index, record):
    if record.z_bar.shape != (index.width,):
        raise ValueError(f"vector width {record.z_bar.shape} does not match index width {index.width}")
    if record.study_id in index._ids:
        raise ValueError(f"duplicate study_id '{record.study_id}'")
    norms = np.linalg.norm(record.z_bar), np.linalg.norm(record.logits)
    if not all(0.0 < v < np.inf for v in norms):
        raise ValueError(f"zero-norm or non-finite vector for study '{record.study_id}'")
    index._ids[record.study_id] = len(index.records)
    index.records.append(record)
    index._norms.append(norms)


def _score(record, z_bar, logits, lam):
    return _cosine(z_bar, record.z_bar) + lam * _cosine(logits, record.logits)


def _unit_rows(index):
    """[Zu | Lu]: stored z_bar and logit rows divided by their kept norms,
    rebuilt when the row count moves."""
    n = len(index.records)
    if index._unit is None or index._unit[0] != n:
        z = np.reshape([r.z_bar for r in index.records], (n, index.width))
        lg = np.reshape([r.logits for r in index.records], (n, NUM_CATEGORIES))
        norms = np.reshape(index._norms, (n, 2))
        index._unit = (n, np.concatenate((z / norms[:, :1], lg / norms[:, 1:]), axis=1))
    return index._unit[1]


def query(index, z_bar, logits, lam=None, k=1, exclude_id=None):
    """Top-k (study_id, score), best first; earlier insertion wins ties."""
    if len(index) == 0:
        raise ValueError("cannot query an empty index")
    if k < 1:
        raise ValueError("k must be >= 1")
    lam = DEFAULT_LAMBDA if lam is None else lam
    if not np.isfinite(lam):
        raise ValueError(f"non-finite lambda {lam}")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    z_bar = np.asarray(z_bar, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    for name, v in (("z_bar", z_bar), ("logits", logits)):
        if not np.isfinite(v).all():
            raise ValueError(f"non-finite query {name}")
    z_norm, l_norm = np.linalg.norm(z_bar), np.linalg.norm(logits)
    if z_norm == 0.0 or l_norm == 0.0:
        raise ValueError("zero-norm query vector")
    approx = _unit_rows(index) @ np.concatenate((z_bar / z_norm, lam * (logits / l_norm)))
    excluded = index._ids.get(exclude_id)
    if excluded is not None:
        approx[excluded] = -np.inf
    top = min(k, len(index) - (excluded is not None))
    if top == 0:
        raise ValueError("every record was excluded")
    kth = np.partition(approx, -top)[-top]
    # Each approx score is within delta << 1e-9 of its exact _score, so every member of
    # the exact top k, ties included, lies within 2 * delta of kth and gets rescored.
    near = np.flatnonzero(approx >= kth - 1e-9 * (1.0 + lam))
    scored = []
    for i in near:  # _score's operations in _score's order, with the kept norms
        r, (rz, rl) = index.records[i], index._norms[i]
        scored.append((i, float(np.dot(z_bar, r.z_bar) / (z_norm * rz))
                       + lam * float(np.dot(logits, r.logits) / (l_norm * rl))))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [(index.records[i].study_id, s) for i, s in scored[:k]]


def brute_force_oracle(index, z_bar, logits, lam=None, k=1, exclude_id=None):
    """Straight-line reference: score every record, select maxima one at a time."""
    if len(index) == 0:
        raise ValueError("cannot query an empty index")
    lam = DEFAULT_LAMBDA if lam is None else lam
    z_bar = np.asarray(z_bar, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    remaining = []
    for position, record in enumerate(index.records):
        if exclude_id is not None and record.study_id == exclude_id:
            continue
        remaining.append((position, record.study_id, _score(record, z_bar, logits, lam)))
    ranked = []
    while remaining and len(ranked) < k:
        best = 0
        for j in range(1, len(remaining)):
            if remaining[j][2] > remaining[best][2]:
                best = j
        _, sid, score = remaining.pop(best)
        ranked.append((sid, score))
    return ranked


def retrieve_report(index, z_bar, logits, lam=None, exclude_id=None):
    """Report text of the single best exemplar."""
    top_id, _ = query(index, z_bar, logits, lam, k=1, exclude_id=exclude_id)[0]
    return index.records[index._ids[top_id]].report


# -- persistence --------------------------------------------------------------


def save(index, path):
    n = len(index.records)
    meta = {"width": index.width, "stage1_sha256": index.stage1_sha256,
            "ids": [r.study_id for r in index.records],
            "reports": [r.report for r in index.records]}
    store.write(path, MAGIC, meta, {
        "z_bar": np.reshape([r.z_bar for r in index.records], (n, index.width)),
        "logits": np.reshape([r.logits for r in index.records], (n, NUM_CATEGORIES))})


def load(path):
    meta, arrays = store.read(path, MAGIC, IndexFormatError)
    try:
        width = meta["width"]
        if type(width) is not int or width < 1:
            raise ValueError(f"invalid vector width {width}")
        index = ExemplarIndex(width=width, stage1_sha256=meta["stage1_sha256"])
        for row in zip(meta["ids"], arrays["z_bar"], arrays["logits"], meta["reports"],
                       strict=True):
            add_exemplar(index, ExemplarRecord(*row))
    except (KeyError, TypeError, ValueError) as exc:
        raise IndexFormatError(f"corrupt index: {exc}") from exc
    return index
