"""Total-variability modelling: Baum-Welch statistics against a UBM, EM
training of the subspace matrix, i-vector extraction, and the
center + length-normalize post-processing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gmm import GmmModel, _expanded, _responsibilities

E_STEP_BLOCK = 256  # utterances per E-step block: bounds the (block, R, R) stacks


@dataclass
class BaumWelchStats:
    """Zero-order counts and centered first-order sums per UBM component."""

    n: np.ndarray  # (K,)
    f: np.ndarray  # (K, D)

    def __post_init__(self):
        self.n = np.asarray(self.n, dtype=np.float64)
        self.f = np.asarray(self.f, dtype=np.float64)
        if self.n.ndim != 1 or self.f.ndim != 2 or self.f.shape[0] != self.n.size:
            raise ValueError("inconsistent statistics shapes")
        if np.any(self.n < -1e-9):
            raise ValueError("zero-order counts must be non-negative")


@dataclass(frozen=True)
class TotalVariabilityModel:
    """UBM plus subspace matrix; both are read-only, so the Gram matrices that
    i-vector extraction derives from them are built once and cannot go stale."""

    ubm: GmmModel
    t_matrix: np.ndarray  # (K*D, R)
    objective_history: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        t_matrix = np.array(self.t_matrix, dtype=np.float64)
        t_matrix.flags.writeable = False
        object.__setattr__(self, "t_matrix", t_matrix)
        kd = self.ubm.n_components * self.ubm.dim
        if self.t_matrix.ndim != 2 or self.t_matrix.shape[0] != kd:
            raise ValueError(f"t_matrix must be {kd} x R")
        if self.t_matrix.shape[1] < 1:
            raise ValueError("i-vector rank must be >= 1")

    @property
    def rank(self) -> int:
        return self.t_matrix.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """The per-component Gram matrices T_c' S_c^-1 T_c stacked as K x R*R."""
        k, d = self.ubm.means.shape
        t_blocks = self.t_matrix.reshape(k, d, self.rank)
        scaled = t_blocks / self.ubm.variances[:, :, None]
        return np.matmul(scaled.transpose(0, 2, 1), t_blocks).reshape(k, -1)


@dataclass(frozen=True)
class IVector:
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or not np.all(np.isfinite(values)):
            raise ValueError("i-vector must be a finite 1-D vector")
        object.__setattr__(self, "values", values)


def baum_welch_stats(ubm: GmmModel, frames: np.ndarray) -> BaumWelchStats:
    """Posterior-weighted zero- and centered first-order statistics."""
    xx = _expanded(frames, ubm.dim)
    resp, total, _ = _responsibilities(ubm, xx)
    # posterior-weighted sums of [x, 1]: the last column is the count
    sums = resp.T @ (xx[:, ubm.dim:] * (1.0 / total)[:, None])
    n = sums[:, -1].copy()  # not a view: the stats outlive the (K, D+1) sums
    return BaumWelchStats(n, sums[:, :-1] - n[:, None] * ubm.means)


def _e_step(tv: TotalVariabilityModel, counts: np.ndarray, firsts: np.ndarray):
    """Posteriors of the latent factor for stacked statistics, reduced to the
    M-step systems A (K, R, R) and right-hand sides C (K*D, R), and their
    marginal log-likelihood up to a T-independent term."""
    a_acc = c_acc = objective = 0.0
    for start in range(0, len(counts), E_STEP_BLOCK):
        n, f = counts[start:start + E_STEP_BLOCK], firsts[start:start + E_STEP_BLOCK]
        precision = np.eye(tv.rank) + (n @ tv.gram).reshape(-1, tv.rank, tv.rank)
        _, logdet = np.linalg.slogdet(precision)
        second_moment = np.linalg.inv(precision)
        info = (f / tv.ubm.variances.reshape(-1)) @ tv.t_matrix
        w = np.matmul(second_moment, info[:, :, None])[:, :, 0]
        objective += float(np.sum(0.5 * np.sum(info * w, axis=1) - 0.5 * logdet))
        second_moment += w[:, :, None] * w[:, None, :]
        a_acc += n.T @ second_moment.reshape(len(n), -1)
        c_acc += f.T @ w
    return a_acc.reshape(-1, tv.rank, tv.rank), c_acc, objective


def _m_step_solve(a_acc: np.ndarray, rhs: np.ndarray, ridge: float) -> np.ndarray:
    """Solve every component's system at once; a singular one gets a ridge
    term plus a warning."""
    try:
        return np.linalg.solve(a_acc, rhs)
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(rhs)
    for c in range(len(a_acc)):  # find the singular systems one by one
        try:
            out[c] = np.linalg.solve(a_acc[c], rhs[c])
        except np.linalg.LinAlgError:
            warnings.warn(f"singular M-step system for component {c}; adding ridge",
                          stacklevel=3)
            out[c] = np.linalg.solve(a_acc[c] + ridge * np.eye(len(rhs[c])), rhs[c])
    return out


def train_t_matrix(
    stats: list[BaumWelchStats],
    ubm: GmmModel,
    rank: int = 200,
    iters: int = 5,
    seed: int = 0,
    ridge: float = 1e-6,
) -> TotalVariabilityModel:
    """EM for the total-variability matrix.

    E-step: per-utterance posterior mean/covariance of the latent factor
    under the current T.  M-step: per-component least-squares solve from the
    accumulated systems.  Components with no accumulated evidence keep their
    current rows, as do components whose solution is not finite (subnormal
    counts), with a warning; singular systems get a ridge term plus a
    warning.  The per-iteration marginal objective (up to a T-independent
    constant) is recorded on the returned model; EM makes it non-decreasing.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if not stats:
        raise ValueError("need at least one utterance of statistics")
    if len(stats) < rank:
        warnings.warn(
            f"training a rank-{rank} subspace from only {len(stats)} utterances",
            stacklevel=2,
        )
    k, d = ubm.means.shape
    rng = np.random.default_rng(seed)
    tv = TotalVariabilityModel(ubm, 0.1 * rng.standard_normal((k * d, rank)))
    counts = np.stack([st.n for st in stats])               # (U, K)
    firsts = np.stack([st.f.reshape(-1) for st in stats])   # (U, K*D)

    history = []
    for _ in range(iters):
        a_acc, c_acc, objective = _e_step(tv, counts, firsts)
        history.append(objective)
        # a component with no evidence keeps its current rows; an identity
        # system stands in for it so that all components solve in one call
        active = np.trace(a_acc, axis1=1, axis2=2) > 0.0
        a_acc[~active] = np.eye(rank)
        solution = _m_step_solve(a_acc, c_acc.reshape(k, d, rank).transpose(0, 2, 1), ridge)
        # a system too small to solve in floating point (subnormal counts)
        # gives no usable solution either, so that component keeps its rows too
        solved = np.isfinite(solution).all(axis=(1, 2))
        for c in np.flatnonzero(active & ~solved):
            warnings.warn(f"non-finite M-step solution for component {c}; keeping its rows",
                          stacklevel=2)
        new_t = tv.t_matrix.reshape(k, d, rank).copy()
        new_t[active & solved] = solution[active & solved].transpose(0, 2, 1)
        tv = TotalVariabilityModel(ubm, new_t.reshape(k * d, rank))

    history.append(_e_step(tv, counts, firsts)[2])
    if np.linalg.matrix_rank(tv.t_matrix) < rank:
        warnings.warn("trained t_matrix is numerically rank deficient", stacklevel=2)
    return TotalVariabilityModel(ubm, tv.t_matrix, tuple(history))


def extract_ivector(tv: TotalVariabilityModel, stats: BaumWelchStats) -> IVector:
    """Posterior mean of the latent factor: (I + T'S^-1NT)^-1 T'S^-1 f."""
    k, d = tv.ubm.means.shape
    if stats.n.shape != (k,) or stats.f.shape != (k, d):
        raise ValueError(
            f"statistics shaped {stats.n.shape}/{stats.f.shape} do not match "
            f"the UBM ({k} components x {d} dims)"
        )
    precision = np.eye(tv.rank) + (stats.n @ tv.gram).reshape(tv.rank, tv.rank)
    info = (stats.f / tv.ubm.variances).reshape(-1) @ tv.t_matrix
    return IVector(np.linalg.solve(precision, info))


def center_length_normalize(
    vectors: list[IVector], mean: np.ndarray | None = None
) -> tuple[list[IVector], np.ndarray, list[bool]]:
    """Subtract the mean (fitted here when not given) and scale to unit norm.

    Returns (normalized vectors, mean used, degenerate flags); vectors that
    coincide with the mean stay zero and are flagged.
    """
    if not vectors:
        raise ValueError("need at least one i-vector")
    matrix = np.stack([v.values for v in vectors])
    if mean is None:
        mean = matrix.mean(axis=0)
    else:
        mean = np.asarray(mean, dtype=np.float64)
        if mean.shape != (matrix.shape[1],):
            raise ValueError("mean dimension does not match the i-vectors")
    centered = matrix - mean
    norms = np.linalg.norm(centered, axis=1)
    degenerate = norms == 0.0
    safe = np.where(degenerate, 1.0, norms)
    normalized = centered / safe[:, None]
    return (
        [IVector(row) for row in normalized],
        mean,
        [bool(flag) for flag in degenerate],
    )
