"""Error-rate evaluation: FAR/FRR, EER sweeps, target-FAR curves, robustness.

`cells` maps each (t, subscenario) of a results row to the records it covers;
`evaluate` and `robustness` both read their records through it.

Every scheme scores a pair-interval higher the more likely it is colocated,
so a score is accepted when it is at or above the threshold. Gated or
missing scores never enter FAR/FRR denominators; they are reported through
the availability fraction instead.

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

from ziskit.core.types import EvaluationRecord, GroundTruth, Label
from ziskit.core.windowing import filter_subscenario
from ziskit.errors import DegenerateLabels

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


def far_frr(scores, labels, threshold: float) -> tuple[float, float]:
    """False accept and false reject rates at a fixed threshold.

    labels: 1 = colocated, 0 = non-colocated.
    """
    scores, labels = _validate(scores, labels)
    accepted = scores >= threshold
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


def _sweep(scores: np.ndarray, labels: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate thresholds and the FAR and FRR at each, from one sort.

    The candidates are -inf, the midpoints between consecutive distinct
    scores, and +inf. `k` counts the distinct scores below a candidate, the
    rejected ones, with the comparison `far_frr` makes, so a midpoint that
    rounds onto a score stays exact.
    """
    uniq, pos, neg = score_masses(scores, labels)
    cumpos, cumneg = (np.concatenate(([0], np.cumsum(m))) for m in (pos, neg))
    thresholds = np.concatenate(([-np.inf], (uniq[:-1] + uniq[1:]) / 2.0, [np.inf]))
    k = np.searchsorted(uniq, thresholds, side="left")
    return thresholds, (cumneg[-1] - cumneg[k]) / cumneg[-1], cumpos[k] / cumpos[-1]


def equal_error_rate(scores, labels) -> ErrorRates:
    """Operating point minimizing |FAR - FRR| over all achievable thresholds.

    Ties prefer the lower FAR, then the lower FRR, then the lower candidate
    threshold. The EER is the average of FAR and FRR at the chosen point and
    is starred when they disagree beyond three decimals.
    """
    thresholds, far, frr = _sweep(*_validate(scores, labels))
    best = np.lexsort((frr, far, np.abs(far - frr)))[0]
    far, frr = float(far[best]), float(frr[best])
    return ErrorRates(
        threshold=float(thresholds[best]),
        far=far,
        frr=frr,
        eer=(far + frr) / 2.0,
        starred=abs(far - frr) > STARRED_TOLERANCE,
    )


def frr_at_far(scores, labels, far_targets: Sequence[float] = (0.001, 0.005, 0.01, 0.05)
               ) -> list[tuple[float, float]]:
    """Smallest achievable FRR with FAR at or below each target."""
    _, far, frr = _sweep(*_validate(scores, labels))
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


@dataclass(frozen=True)
class CrossApplyResult:
    far: float
    frr: float
    delta_far: float
    delta_frr: float


def cross_apply(threshold: float, scores, labels) -> CrossApplyResult:
    """Apply a foreign decision threshold and report deltas vs the native EER."""
    far, frr = far_frr(scores, labels, threshold)
    native = equal_error_rate(scores, labels)
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


def cells(records: list[EvaluationRecord], ground_truth: GroundTruth | None
          ) -> dict[tuple[int, str], list[EvaluationRecord]]:
    """The records of each results row, keyed by (t, subscenario) in row order.

    t ascends; for each t, "full" holds every record of that t, then each of
    the ground truth's subscenarios, in its order, holds those inside it.
    """
    out = {}
    for t in sorted({r.interval_len_s for r in records}):
        at_t = [r for r in records if r.interval_len_s == t]
        out[t, "full"] = at_t
        for sub in ground_truth.subscenarios if ground_truth else ():
            out[t, sub.name] = filter_subscenario(at_t, ground_truth, sub.name)
    return out
