"""Total-variability modelling: Baum-Welch statistics against a UBM, EM
training of the subspace matrix, i-vector extraction, and the
center + length-normalize post-processing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property

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
    history: tuple = field(default=(), compare=False, repr=False)

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
        """The per-component Gram matrices T_c' S_c^-1 T_c as packed upper
        triangles, K x R(R+1)/2."""
        k, d = self.ubm.means.shape
        t_blocks = self.t_matrix.reshape(k, d, self.rank)
        scaled = t_blocks / self.ubm.variances[:, :, None]
        rows, cols = _triangle(self.rank)
        return np.matmul(scaled.transpose(0, 2, 1), t_blocks)[:, rows, cols]


@cache
def _triangle(rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of a packed R x R upper triangle (read-only:
    every caller shares them)."""
    rows, cols = np.triu_indices(rank)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _unpack(packed: np.ndarray, rank: int) -> np.ndarray:
    """Symmetric (..., R, R) matrices from packed upper triangles (..., P)."""
    rows, cols = _triangle(rank)
    full = np.empty(packed.shape[:-1] + (rank, rank))
    full[..., cols, rows] = packed
    full[..., rows, cols] = packed
    return full


def _precision(tv: TotalVariabilityModel, counts: np.ndarray) -> np.ndarray:
    """Posterior precisions I + sum_c n_c T_c' S_c^-1 T_c of the latent
    factor, one per row of zero-order ``counts`` (..., K)."""
    precision = _unpack(counts @ tv.gram, tv.rank)
    precision.reshape(-1, tv.rank**2)[:, :: tv.rank + 1] += 1.0  # the identity, in place
    return precision


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
    M-step systems A (K, R(R+1)/2, packed) and right-hand sides C (K*D, R),
    and their marginal log-likelihood up to a T-independent term."""
    rows, cols = _triangle(tv.rank)
    a_acc = c_acc = objective = 0.0
    for start in range(0, len(counts), E_STEP_BLOCK):
        n, f = counts[start:start + E_STEP_BLOCK], firsts[start:start + E_STEP_BLOCK]
        precision = _precision(tv, n)
        _, logdet = np.linalg.slogdet(precision)
        covariance = np.linalg.inv(precision)
        info = (f / tv.ubm.variances.reshape(-1)) @ tv.t_matrix
        w = np.matmul(covariance, info[:, :, None])[:, :, 0]
        objective += float(np.sum(0.5 * np.sum(info * w, axis=1) - 0.5 * logdet))
        second_moment = covariance[:, rows, cols]
        second_moment += w[:, rows] * w[:, cols]
        a_acc += n.T @ second_moment
        c_acc += f.T @ w
    return a_acc, c_acc, objective


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
                          stacklevel=4)
            out[c] = np.linalg.solve(a_acc[c] + ridge * np.eye(len(rhs[c])), rhs[c])
    return out


def _m_step(tv: TotalVariabilityModel, a_acc: np.ndarray, c_acc: np.ndarray,
            ridge: float) -> np.ndarray:
    """The next T from the packed systems.  A function of its own so that the
    unpacked (K, R, R) systems and the solutions are freed before the next
    E-step runs."""
    k, d = tv.ubm.means.shape
    rank = tv.rank
    # a component with no evidence keeps its current rows; an identity
    # system stands in for it so that all components solve in one call
    a_acc = _unpack(a_acc, rank)
    active = np.trace(a_acc, axis1=1, axis2=2) > 0.0
    a_acc[~active] = np.eye(rank)
    solution = _m_step_solve(a_acc, c_acc.reshape(k, d, rank).transpose(0, 2, 1), ridge)
    # a system too small to solve in floating point (subnormal counts)
    # gives no usable solution either, so that component keeps its rows too
    solved = np.isfinite(solution).all(axis=(1, 2))
    for c in np.flatnonzero(active & ~solved):
        warnings.warn(f"non-finite M-step solution for component {c}; keeping its rows",
                      stacklevel=3)
    new_t = tv.t_matrix.reshape(k, d, rank).copy()
    new_t[active & solved] = solution[active & solved].transpose(0, 2, 1)
    return new_t.reshape(k * d, rank)


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
        tv = TotalVariabilityModel(ubm, _m_step(tv, a_acc, c_acc, ridge))

    history.append(_e_step(tv, counts, firsts)[2])
    if np.linalg.matrix_rank(tv.t_matrix) < rank:
        warnings.warn("trained t_matrix is numerically rank deficient", stacklevel=2)
    # the final model keeps the Gram matrices its last E-step built
    object.__setattr__(tv, "history", tuple(history))
    return tv


def extract_ivector(tv: TotalVariabilityModel, stats: BaumWelchStats) -> np.ndarray:
    """Posterior mean of the latent factor: (I + T'S^-1NT)^-1 T'S^-1 f."""
    k, d = tv.ubm.means.shape
    if stats.n.shape != (k,) or stats.f.shape != (k, d):
        raise ValueError(
            f"statistics shaped {stats.n.shape}/{stats.f.shape} do not match "
            f"the UBM ({k} components x {d} dims)"
        )
    precision = _precision(tv, stats.n)
    info = (stats.f / tv.ubm.variances).reshape(-1) @ tv.t_matrix
    return np.linalg.solve(precision, info)


def center_length_normalize(
    vectors: np.ndarray, mean: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the mean (fitted here when not given) from each row of an
    N x R i-vector matrix and scale the rows to unit norm; a row that
    coincides with the mean stays zero.  Returns (rows, mean used)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or not len(vectors):
        raise ValueError("need an N x R matrix of at least one i-vector")
    if mean is None:
        mean = vectors.mean(axis=0)
    else:
        mean = np.asarray(mean, dtype=np.float64)
        if mean.shape != (vectors.shape[1],):
            raise ValueError("mean dimension does not match the i-vectors")
    centered = vectors - mean
    norms = np.linalg.norm(centered, axis=1)
    return centered / np.where(norms == 0.0, 1.0, norms)[:, None], mean
