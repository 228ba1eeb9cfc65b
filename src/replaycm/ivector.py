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

E_STEP_BLOCK = 8  # utterances per E-step block: bounds the (block, R, R) precisions
COMPONENT_BLOCK = 8  # components per Gram and M-step block: bounds their (block, R, R) systems
RIDGE = 1e-6  # added to the diagonal of a singular M-step system


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
        return _gram(self.t_matrix, self.ubm.variances)


@cache
def _triangle(rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of a packed R x R upper triangle (read-only:
    every caller shares them)."""
    rows, cols = np.triu_indices(rank)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _unpack(packed: np.ndarray, rank: int, out: np.ndarray | None = None) -> np.ndarray:
    """Symmetric (..., R, R) matrices from packed upper triangles (..., P),
    written into ``out`` when given."""
    rows, cols = _triangle(rank)
    full = np.empty(packed.shape[:-1] + (rank, rank)) if out is None else out
    full[..., cols, rows] = packed
    full[..., rows, cols] = packed
    return full


def _gram(t_matrix: np.ndarray, variances: np.ndarray, out: np.ndarray | None = None,
          work: np.ndarray | None = None) -> np.ndarray:
    """The packed Gram matrices T_c' S_c^-1 T_c of every component, built
    COMPONENT_BLOCK components at a time into ``out`` (K, R(R+1)/2); ``work``
    is scratch for at least one block's (block, R, R) products.  A new ``out``
    is column-major, the layout that packing a whole (K, R, R) stack gave:
    BLAS rounds extraction's ``n @ gram`` differently over the other one."""
    k, d = variances.shape
    rank = t_matrix.shape[1]
    rows, cols = _triangle(rank)
    t_blocks = t_matrix.reshape(k, d, rank)
    if out is None:
        out = np.empty((k, len(rows)), order="F")
    if work is None:
        work = np.empty((min(k, COMPONENT_BLOCK), rank, rank))
    for start in range(0, k, COMPONENT_BLOCK):
        block = t_blocks[start:start + COMPONENT_BLOCK]
        scaled = block / variances[start:start + COMPONENT_BLOCK, :, None]
        full = np.matmul(scaled.transpose(0, 2, 1), block, out=work[:len(block)])
        out[start:start + len(block)] = full[:, rows, cols]
    return out


def _precision(packed: np.ndarray, rank: int, out: np.ndarray | None = None) -> np.ndarray:
    """Posterior precisions I + sum_c n_c T_c' S_c^-1 T_c of the latent
    factor from their packed sums ``counts @ gram`` (..., R(R+1)/2), written
    into ``out`` when given."""
    precision = _unpack(packed, rank, out)
    precision.reshape(-1, rank**2)[:, :: rank + 1] += 1.0  # the identity, in place
    return precision


def baum_welch_stats(ubm: GmmModel, frames: np.ndarray) -> BaumWelchStats:
    """Posterior-weighted zero- and centered first-order statistics."""
    xx = _expanded(frames, ubm.dim)
    resp, total, _ = _responsibilities(ubm, xx)
    # posterior-weighted sums of [x, 1]: the last column is the count
    sums = resp.T @ (xx[:, ubm.dim:] * (1.0 / total)[:, None])
    n = sums[:, -1].copy()  # not a view: the stats outlive the (K, D+1) sums
    return BaumWelchStats(n, sums[:, :-1] - n[:, None] * ubm.means)


class _EmWorkspace:
    """One generation of every array an EM iteration of ``train_t_matrix``
    writes, allocated once per call and overwritten by every iteration:
    freeing them each iteration made glibc trim the heap and fault it back.

    Arrays that are never live at once share memory.  The E-step reads the
    Gram matrices at its start and writes the M-step systems at its end, and
    the M-step reads those before ``_gram`` rewrites the Gram matrices, so
    both are views of one buffer: column-major as ``gram`` and row-major as
    ``a_acc``, each the layout its products were rounded over.  The E-step's
    precisions and the (block, R, R) scratch of ``_gram`` and the M-step
    share one buffer too."""

    def __init__(self, n_utterances: int, k: int, d: int, rank: int):
        packed = rank * (rank + 1) // 2
        shared = np.empty(k * packed)
        self.gram = shared.reshape((k, packed), order="F")  # of the current T
        self.a_acc = shared.reshape((k, packed))  # the M-step systems, packed
        self.c_acc = np.empty((k * d, rank))  # and their right-hand sides
        self.w = np.empty((n_utterances, rank))  # posterior means
        self.second_moment = np.empty((n_utterances, packed))  # E[w w'], packed
        self.objective = np.empty(n_utterances)  # each utterance's term
        blocks = min(n_utterances, E_STEP_BLOCK), min(k, COMPONENT_BLOCK)
        scratch = np.empty((max(blocks), rank, rank))
        self.precision, self.systems = (scratch[:n] for n in blocks)


def _e_step(t_matrix: np.ndarray, variances: np.ndarray, counts: np.ndarray,
            firsts: np.ndarray, ws: _EmWorkspace, accumulate: bool = True) -> float:
    """Posteriors of the latent factor under ``t_matrix``, whose packed Gram
    matrices are in ``ws.gram``, for stacked statistics; returns their
    marginal log-likelihood up to a T-independent term.  With ``accumulate``,
    also reduces them to the M-step systems A (K, R(R+1)/2, packed) in
    ``ws.a_acc`` and right-hand sides C (K*D, R) in ``ws.c_acc``.

    Every product over utterances is one call over all of them, because BLAS
    rounds a row differently with another number of rows; the precisions are
    unpacked and inverted E_STEP_BLOCK utterances at a time, and each block's
    packed precisions in ``ws.second_moment`` make way for its second moments.
    """
    rank = t_matrix.shape[1]
    rows, cols = _triangle(rank)
    packed = np.matmul(counts, ws.gram, out=ws.second_moment)
    info = (firsts / variances.reshape(-1)) @ t_matrix
    for start in range(0, len(counts), E_STEP_BLOCK):
        block = slice(start, min(start + E_STEP_BLOCK, len(counts)))
        precision = _precision(packed[block], rank, ws.precision[:block.stop - start])
        _, logdet = np.linalg.slogdet(precision)
        covariance = np.linalg.inv(precision)
        w = np.matmul(covariance, info[block, :, None])[:, :, 0]
        ws.objective[block] = 0.5 * np.sum(info[block] * w, axis=1) - 0.5 * logdet
        if accumulate:
            ws.w[block] = w
            second_moment = ws.second_moment[block]
            second_moment[...] = covariance[:, rows, cols]
            second_moment += w[:, rows] * w[:, cols]
    if accumulate:
        np.matmul(counts.T, ws.second_moment, out=ws.a_acc)
        np.matmul(firsts.T, ws.w, out=ws.c_acc)
    return float(np.sum(ws.objective))


def _m_step_solve(systems: np.ndarray, rhs: np.ndarray, first: int) -> np.ndarray:
    """Solve a block of systems, the first of them component ``first``, at
    once; a singular one gets a ridge term plus a warning."""
    try:
        return np.linalg.solve(systems, rhs)
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(rhs)
    for c in range(len(systems)):  # find the singular systems one by one
        try:
            out[c] = np.linalg.solve(systems[c], rhs[c])
        except np.linalg.LinAlgError:
            warnings.warn(f"singular M-step system for component {first + c}; adding ridge",
                          stacklevel=4)
            out[c] = np.linalg.solve(systems[c] + RIDGE * np.eye(len(rhs[c])), rhs[c])
    return out


def _m_step(t_matrix: np.ndarray, ws: _EmWorkspace) -> None:
    """Overwrite ``t_matrix`` with the next T, solving the packed systems in
    ``ws`` COMPONENT_BLOCK components at a time."""
    k = len(ws.a_acc)
    rank = t_matrix.shape[1]
    t_blocks = t_matrix.reshape(k, -1, rank)
    rhs = ws.c_acc.reshape(t_blocks.shape).transpose(0, 2, 1)
    for start in range(0, k, COMPONENT_BLOCK):
        stop = min(start + COMPONENT_BLOCK, k)
        # a component with no evidence keeps its current rows; an identity
        # system stands in for it so that the block solves in one call
        systems = _unpack(ws.a_acc[start:stop], rank, ws.systems[:stop - start])
        active = np.trace(systems, axis1=1, axis2=2) > 0.0
        systems[~active] = np.eye(rank)
        solution = _m_step_solve(systems, rhs[start:stop], start)
        # a system too small to solve in floating point (subnormal counts)
        # gives no usable solution either, so that component keeps its rows too
        solved = np.isfinite(solution).all(axis=(1, 2))
        for c in np.flatnonzero(active & ~solved):
            warnings.warn(f"non-finite M-step solution for component {start + c}; "
                          "keeping its rows", stacklevel=3)
        update = active & solved
        t_blocks[start:stop][update] = solution[update].transpose(0, 2, 1)


def train_t_matrix(
    counts: np.ndarray,
    firsts: np.ndarray,
    ubm: GmmModel,
    rank: int = 200,
    iters: int = 5,
    seed: int = 0,
) -> TotalVariabilityModel:
    """EM for the total-variability matrix from stacked statistics: row u of
    ``counts`` (U, K) and ``firsts`` (U, K*D) is utterance u's ``n`` and
    flattened ``f``.

    E-step: per-utterance posterior mean/covariance of the latent factor
    under the current T.  M-step: per-component least-squares solve from the
    accumulated systems.  Components with no accumulated evidence keep their
    current rows, as do components whose solution is not finite (subnormal
    counts), with a warning; singular systems get a RIDGE term plus a
    warning.  The per-iteration marginal objective (up to a T-independent
    constant) is recorded on the returned model; EM makes it non-decreasing.
    Both steps and the Gram matrices run over fixed blocks of utterances or
    components into arrays allocated once per call, so no (K, R, R) array is
    ever built.

    A trained T whose Gram matrix T'T has a 1-norm condition number (about
    the square of T's) of 1/eps or more warns as rank deficient: it flags
    sigma_min/sigma_max below about 1.5e-8, where an SVD rank test (which
    pages in LAPACK's SVD code for a warning) flags below max(K*D, R) * eps,
    2.8e-13 at 1280 x 60.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if not len(counts):
        raise ValueError("need at least one utterance of statistics")
    if len(counts) < rank:
        warnings.warn(
            f"training a rank-{rank} subspace from only {len(counts)} utterances",
            stacklevel=2,
        )
    k, d = ubm.means.shape
    rng = np.random.default_rng(seed)
    t_matrix = 0.1 * rng.standard_normal((k * d, rank))  # each M-step overwrites it
    ws = _EmWorkspace(len(counts), k, d, rank)

    history = []
    for _ in range(iters):
        _gram(t_matrix, ubm.variances, ws.gram, ws.systems)
        history.append(_e_step(t_matrix, ubm.variances, counts, firsts, ws))
        _m_step(t_matrix, ws)
    _gram(t_matrix, ubm.variances, ws.gram, ws.systems)
    history.append(_e_step(t_matrix, ubm.variances, counts, firsts, ws, accumulate=False))
    gram = ws.gram
    del ws  # free the accumulators before the rank check and the model's copy of T
    if not np.linalg.cond(t_matrix.T @ t_matrix, 1) < 1.0 / np.finfo(float).eps:
        warnings.warn("trained t_matrix is numerically rank deficient", stacklevel=2)
    tv = TotalVariabilityModel(ubm, t_matrix, tuple(history))
    vars(tv)["gram"] = gram  # the final model keeps the Gram matrices its last pass built
    return tv


def extract_ivector(tv: TotalVariabilityModel, stats: BaumWelchStats) -> np.ndarray:
    """Posterior mean of the latent factor: (I + T'S^-1NT)^-1 T'S^-1 f."""
    k, d = tv.ubm.means.shape
    if stats.n.shape != (k,) or stats.f.shape != (k, d):
        raise ValueError(
            f"statistics shaped {stats.n.shape}/{stats.f.shape} do not match "
            f"the UBM ({k} components x {d} dims)"
        )
    precision = _precision(stats.n @ tv.gram, tv.rank)
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
