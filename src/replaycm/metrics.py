"""Detection metrics and score files: DET curve points, equal error rate with
linear interpolation at the crossing, Cllr and min-Cllr, and the two-column
score file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import read_records, write_records


class ScoreFileError(ValueError):
    """Malformed score file."""


@dataclass(frozen=True)
class ScoreSet:
    """Ordered (trial_id, score) pairs with unique ids and finite scores."""

    trial_ids: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if len(self.trial_ids) != scores.size:
            raise ValueError("trial_ids and scores must have equal length")
        if len(set(self.trial_ids)) != len(self.trial_ids):
            raise ValueError("trial_ids must be unique")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must all be finite")
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.trial_ids)


def _check_scores(genuine, spoof) -> tuple[np.ndarray, np.ndarray]:
    genuine = np.asarray(genuine, dtype=np.float64).ravel()
    spoof = np.asarray(spoof, dtype=np.float64).ravel()
    if genuine.size == 0 or spoof.size == 0:
        raise ValueError("both genuine and spoof score sets must be non-empty")
    if not (np.isfinite(genuine).all() and np.isfinite(spoof).all()):
        raise ValueError("scores must all be finite")
    return genuine, spoof


def det_points(genuine, spoof) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(far, frr, threshold) arrays, one entry per distinct score threshold.

    Convention: a trial is accepted as genuine when score >= threshold, so
    far = fraction of spoof scores >= t (non-increasing in t) and
    frr = fraction of genuine scores < t (non-decreasing in t).
    """
    genuine, spoof = _check_scores(genuine, spoof)
    # np.unique's sort path for finite scores, without its numpy.ma import
    pooled = np.sort(np.concatenate([genuine, spoof]))
    thresholds = pooled[np.append(True, pooled[1:] != pooled[:-1])]
    spoof_sorted = np.sort(spoof)
    genuine_sorted = np.sort(genuine)
    accepted_spoof = spoof.size - np.searchsorted(spoof_sorted, thresholds, side="left")
    rejected_genuine = np.searchsorted(genuine_sorted, thresholds, side="left")
    far = accepted_spoof / spoof.size
    frr = rejected_genuine / genuine.size
    return far, frr, thresholds


def compute_eer(genuine, spoof) -> tuple[float, float]:
    """Equal error rate and the threshold where the rate curves cross.

    The crossing of the stepwise FAR/FRR curves is located on the DET points
    and resolved by linear interpolation between the adjacent points, which
    also pins the reported threshold.
    """
    far, frr, thresholds = det_points(genuine, spoof)
    # virtual end point: above every score nothing is accepted
    far = np.append(far, 0.0)
    frr = np.append(frr, 1.0)
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)

    diff = far - frr
    idx = int(np.argmax(diff <= 0.0))
    if idx == 0:
        return float(0.5 * (far[0] + frr[0])), float(thresholds[0])
    d_prev, d_here = diff[idx - 1], diff[idx]
    lam = d_prev / (d_prev - d_here)
    eer = far[idx - 1] + lam * (far[idx] - far[idx - 1])
    threshold = thresholds[idx - 1] + lam * (thresholds[idx] - thresholds[idx - 1])
    return float(eer), float(threshold)


def _softplus_mean(values) -> float:
    """The mean of log(1 + e^x) over ``values``, without overflow."""
    return math.fsum(max(x, 0.0) + math.log1p(math.exp(-abs(x))) for x in values) / len(values)


def cllr(genuine, spoof) -> float:
    """The log-likelihood-ratio cost in bits, reading each score as a natural
    log likelihood ratio (Brümmer & du Preez, CSL 2006).  Scores of 0 cost
    1 bit; confident correct scores approach 0."""
    genuine, spoof = _check_scores(genuine, spoof)
    return ((_softplus_mean([-x for x in genuine.tolist()]) + _softplus_mean(spoof.tolist()))
            / (2.0 * math.log(2.0)))


def min_cllr(genuine, spoof) -> float:
    """Cllr after the optimal monotone recalibration of the scores, the
    discrimination loss alone, in bits.  As in BOSARIS, pool-adjacent-violators
    fits genuine-posteriors to the sorted scores (tied scores share one
    posterior, in the pessimistic order: genuine first), and each block's
    posterior gives its log likelihood ratio at the empirical prior."""
    genuine, spoof = _check_scores(genuine, spoof)
    blocks: list[list[int]] = []  # [genuine, spoof] counts, posteriors non-decreasing
    for _, is_spoof in sorted([(x, 0) for x in genuine.tolist()]
                              + [(x, 1) for x in spoof.tolist()]):
        blocks.append([1 - is_spoof, is_spoof])
        # merge while the block before has the higher genuine share
        while len(blocks) > 1 and (blocks[-2][0] * sum(blocks[-1])
                                   > blocks[-1][0] * sum(blocks[-2])):
            g, s = blocks.pop()
            blocks[-1] = [blocks[-1][0] + g, blocks[-1][1] + s]
    n_genuine, n_spoof = genuine.size, spoof.size
    # a block of g genuine and s spoof trials has likelihood ratio (g / Ng) / (s / Ns)
    cost_genuine = sum(g * math.log2(1.0 + s * n_genuine / (g * n_spoof)) for g, s in blocks if g)
    cost_spoof = sum(s * math.log2(1.0 + g * n_spoof / (s * n_genuine)) for g, s in blocks if s)
    return 0.5 * (cost_genuine / n_genuine + cost_spoof / n_spoof)


def read_scores(path) -> ScoreSet:
    """Parse a "trial_id score" per-line file; blank lines are skipped.  A
    score that is not a finite number is refused, naming its line."""
    trial_ids: list[str] = []
    scores: list[float] = []
    for where, (trial_id, raw) in read_records(path, 2, ScoreFileError):
        try:
            scores.append(float(raw))
        except ValueError as exc:
            raise ScoreFileError(f"{where}: invalid score {raw!r}") from exc
        if not math.isfinite(scores[-1]):
            raise ScoreFileError(f"{where}: score {raw!r} is not finite")
        trial_ids.append(trial_id)
    return ScoreSet(tuple(trial_ids), np.array(scores, dtype=np.float64))


def write_scores(score_set: ScoreSet, path) -> None:
    """Write scores at 17 significant digits (lossless float round trip)."""
    write_records(path, zip(score_set.trial_ids, map("{:.17g}".format, score_set.scores)))
