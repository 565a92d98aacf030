"""Error-rate evaluation: FAR/FRR, EER sweeps, target-FAR curves, robustness.

Similarity-style scores accept high (accept_if_geq), distance-style scores
accept low (accept_if_leq). Gated or missing scores never enter FAR/FRR
denominators; they are reported through the availability fraction instead.

The EER and FRR-at-FAR sweeps are exact and O(n log n): one sort of the
scores, then cumulative class counts give FAR and FRR at every candidate
threshold (Fawcett, "An introduction to ROC analysis", PRL 2006). Each
rate is an integer count over its class total, so it equals `far_frr` at
the same threshold bit for bit. The AUC that ranks ML models comes from the
same per-score class masses (`score_masses`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ziskit.core.types import EvaluationRecord, Label
from ziskit.errors import DegenerateLabels

ACCEPT_IF_GEQ = "accept_if_geq"
ACCEPT_IF_LEQ = "accept_if_leq"

# FAR and FRR that differ beyond three decimals make the EER a starred
# (averaged) value.
STARRED_TOLERANCE = 5e-4


@dataclass(frozen=True)
class ErrorRates:
    threshold: float
    far: float
    frr: float
    eer: float
    starred: bool


def _validate(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-d sequences")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not (np.any(labels == 1) and np.any(labels == 0)):
        raise DegenerateLabels("need both colocated and non-colocated scores")
    return scores, labels


def far_frr(scores, labels, threshold: float,
            polarity: str = ACCEPT_IF_GEQ) -> tuple[float, float]:
    """False accept and false reject rates at a fixed threshold.

    labels: 1 = colocated, 0 = non-colocated.
    """
    scores, labels = _validate(scores, labels)
    if polarity == ACCEPT_IF_GEQ:
        accepted = scores >= threshold
    elif polarity == ACCEPT_IF_LEQ:
        accepted = scores <= threshold
    else:
        raise ValueError(f"unknown polarity {polarity!r}")
    far = float(np.mean(accepted[labels == 0]))
    frr = float(np.mean(~accepted[labels == 1]))
    return far, frr


def score_masses(scores: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct scores, ascending, and the colocated and non-colocated mass at each.

    Takes 1-d arrays. With no weights the masses are integer counts.
    """
    uniq, inverse = np.unique(scores, return_inverse=True)
    pos, neg = (np.bincount(inverse[m], None if weights is None else weights[m],
                            minlength=uniq.size) for m in (labels == 1, labels == 0))
    return uniq, pos, neg


def _sweep(scores: np.ndarray, labels: np.ndarray, polarity: str
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate thresholds and the FAR and FRR at each, from one sort.

    The candidates are -inf, the midpoints between consecutive distinct
    scores, and +inf. `k` counts the distinct scores below a candidate
    (accept_if_geq: rejected) or at or below it (accept_if_leq: accepted)
    with the comparison `far_frr` makes, so a midpoint that rounds onto a
    score stays exact.
    """
    uniq, pos, neg = score_masses(scores, labels)
    cumpos, cumneg = (np.concatenate(([0], np.cumsum(m))) for m in (pos, neg))
    n_pos, n_neg = cumpos[-1], cumneg[-1]
    thresholds = np.concatenate(([-np.inf], (uniq[:-1] + uniq[1:]) / 2.0, [np.inf]))
    if polarity == ACCEPT_IF_GEQ:
        k = np.searchsorted(uniq, thresholds, side="left")
        neg_acc, pos_rej = n_neg - cumneg[k], cumpos[k]
    elif polarity == ACCEPT_IF_LEQ:
        k = np.searchsorted(uniq, thresholds, side="right")
        neg_acc, pos_rej = cumneg[k], n_pos - cumpos[k]
    else:
        raise ValueError(f"unknown polarity {polarity!r}")
    return thresholds, neg_acc / n_neg, pos_rej / n_pos


def equal_error_rate(scores, labels, polarity: str = ACCEPT_IF_GEQ) -> ErrorRates:
    """Operating point minimizing |FAR - FRR| over all achievable thresholds.

    Ties prefer the lower FAR, then the lower FRR, then the lower candidate
    threshold. The EER is the average of FAR and FRR at the chosen point and
    is starred when they disagree beyond three decimals.
    """
    thresholds, far, frr = _sweep(*_validate(scores, labels), polarity)
    best = np.lexsort((frr, far, np.abs(far - frr)))[0]
    far, frr = float(far[best]), float(frr[best])
    return ErrorRates(
        threshold=float(thresholds[best]),
        far=far,
        frr=frr,
        eer=(far + frr) / 2.0,
        starred=abs(far - frr) > STARRED_TOLERANCE,
    )


def frr_at_far(scores, labels, polarity: str = ACCEPT_IF_GEQ,
               far_targets: Sequence[float] = (0.001, 0.005, 0.01, 0.05)
               ) -> list[tuple[float, float]]:
    """Smallest achievable FRR with FAR at or below each target."""
    _, far, frr = _sweep(*_validate(scores, labels), polarity)
    out = []
    for target in far_targets:
        if not 0 < target < 1:
            raise ValueError(f"FAR target must lie in (0, 1), got {target}")
        out.append((float(target), float(frr[far <= target].min())))
    return out


def auc(scores, labels, weights=None) -> float:
    """Weighted Mann-Whitney AUC with ties counted half.

    The sum over distinct scores of pos * (neg below + neg tied / 2), over
    W+ * W-. Integer weights make every term an integer or half-integer, so
    the sum is exact in any order while W+ * W- < 2**52.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    weights = np.ones_like(scores) if weights is None else np.asarray(weights, dtype=np.float64)
    if scores.shape != labels.shape or scores.shape != weights.shape:
        raise ValueError("scores, labels and weights must have equal shapes")
    _, pos, neg = score_masses(scores, labels, weights)
    w_pos, w_neg = pos.sum(), neg.sum()
    if w_pos == 0 or w_neg == 0:
        raise DegenerateLabels("AUC needs both classes present")
    neg_below = np.concatenate(([0], np.cumsum(neg)[:-1]))
    return float(np.sum(pos * (neg_below + 0.5 * neg)) / (w_pos * w_neg))


def class_overlap(scores, labels, bins: int = 100) -> float:
    """Overlap coefficient of the two class score histograms on a shared grid."""
    scores, labels = _validate(scores, labels)
    lo, hi = float(scores.min()), float(scores.max())
    if lo == hi:
        return 1.0
    edges = np.linspace(lo, hi, bins + 1)
    hist_pos, _ = np.histogram(scores[labels == 1], bins=edges)
    hist_neg, _ = np.histogram(scores[labels == 0], bins=edges)
    freq_pos = hist_pos / hist_pos.sum()
    freq_neg = hist_neg / hist_neg.sum()
    return float(np.minimum(freq_pos, freq_neg).sum())


@dataclass(frozen=True)
class CrossApplyResult:
    far: float
    frr: float
    delta_far: float
    delta_frr: float


def cross_apply(threshold: float, polarity: str, scores, labels) -> CrossApplyResult:
    """Apply a foreign decision threshold and report deltas vs the native EER."""
    far, frr = far_frr(scores, labels, threshold, polarity)
    native = equal_error_rate(scores, labels, polarity)
    return CrossApplyResult(far=far, frr=frr,
                            delta_far=far - native.far, delta_frr=frr - native.frr)


def availability(records: Iterable[EvaluationRecord]) -> float:
    """Fraction of records that produced a usable (non-gated) score."""
    records = list(records)
    if not records:
        return 0.0
    usable = sum(1 for r in records if r.score is not None)
    return usable / len(records)


def usable_scores(records: Iterable[EvaluationRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Scores and 0/1 labels of non-gated records."""
    pairs = [(r.score, 1 if r.label is Label.COLOCATED else 0)
             for r in records if r.score is not None]
    if not pairs:
        return np.array([]), np.array([], dtype=int)
    scores, labels = zip(*pairs)
    return np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=int)
