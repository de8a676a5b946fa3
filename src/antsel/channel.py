"""Complex Gaussian channel draws and projection-height geometry.

Channel matrices are N_R x N_T arrays of i.i.d. circularly symmetric
complex Gaussian path gains with unit variance (real and imaginary parts
each N(0, 1/2)).

Distribution convention used across the whole package: "chi-square with
2n degrees of freedom" always means the law of the squared norm of an
n-dimensional unit-variance complex Gaussian vector, i.e. Gamma(shape n,
scale 1), the sum of n unit-mean exponentials.  ``analytic.chi2n_cdf``
implements exactly this law; every closed form here relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Smallest-to-largest singular value ratio below which a matrix is treated
# as rank deficient.  Under the continuous channel model this is a
# probability-zero event; raising beats returning garbage.
RANK_RATIO_TOL = 1e-12

#: Version of the draw layout, recorded in every run manifest: which
#: generator a (seed, stream) pair keys and what each chunk draws from it.
#: Layout 2 keys SFC64 on a SeedSequence (``stream_generator``).  A new
#: layout changes every output on a given seed, so it bumps this number.
RNG_LAYOUT = 2


class SingularMatrixError(np.linalg.LinAlgError):
    """A matrix required to have full column rank does not.  A
    ``np.linalg.LinAlgError``, which is a ``ValueError``."""


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """Generator for sub-stream ``stream`` of ``seed``.

    An SFC64 generator seeded by ``SeedSequence(seed, spawn_key=(stream,))``:
    distinct (seed, stream) pairs hash to independent states, so work
    split across streams reproduces bit-for-bit regardless of evaluation
    order or worker count.  Each is read as one 64-bit word, so each must
    lie in [0, 2^64); ValueError otherwise.
    """
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < 2 ** 64:
            raise ValueError(f"{name} must lie in [0, 2^64), got {value}")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def complex_gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Array of unit-variance circularly symmetric complex Gaussians.

    Consecutive normal pairs are the (real, imaginary) parts; the pairs are
    scaled in place and viewed as complex, so no complex temporary is made.
    Scaling by the reciprocal of sqrt(2) is bit-identical to dividing the
    complex numbers by sqrt(2), as numpy does complex / real.
    """
    z = rng.standard_normal(size=tuple(shape) + (2,))
    z *= 1.0 / np.sqrt(2.0)
    return z.view(np.complex128)[..., 0]


def as_channel_matrix(matrix) -> np.ndarray:
    """Validate and return ``matrix`` as a 2-D complex128 array.

    Raises ValueError for empty or non-2-D input and for non-finite
    entries.
    """
    H = np.asarray(matrix, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] < 1 or H.shape[1] < 1:
        raise ValueError(f"channel matrix must be 2-D and non-empty, got shape {H.shape}")
    if not np.all(np.isfinite(H.real)) or not np.all(np.isfinite(H.imag)):
        raise ValueError("channel matrix contains non-finite entries")
    return H


@dataclass(frozen=True)
class ChannelSample:
    """One channel draw plus the RNG coordinates that produced it.

    Regenerating with the same (seed, draw_index) and dimensions yields
    bit-identical entries.
    """

    matrix: np.ndarray
    seed: int
    draw_index: int


def sample_channel(n_r: int, n_t: int, seed: int, draw_index: int) -> ChannelSample:
    """Draw one N_R x N_T channel matrix with i.i.d. CN(0, 1) entries."""
    if n_r < 1 or n_t < 1:
        raise ValueError(f"channel dimensions must be positive, got n_r={n_r}, n_t={n_t}")
    rng = stream_generator(seed, draw_index)
    matrix = complex_gaussian(rng, (n_r, n_t))
    return ChannelSample(matrix=matrix, seed=int(seed), draw_index=int(draw_index))


@dataclass(frozen=True)
class ProjectionReport:
    """Squared residual of a column against a span, with norm and angle.

    ``height_sq`` is the squared norm of the column minus its orthogonal
    projection onto the span; ``angle`` satisfies
    height_sq = norm_sq * sin(angle)^2.
    """

    height_sq: float
    norm_sq: float
    angle: float


def projection_height_sq(H, k: int, span_cols: Iterable[int]) -> ProjectionReport:
    """Squared projection height of column ``k`` of ``H`` onto the
    orthogonal complement of span{H[:, j] : j in span_cols}.

    An empty ``span_cols`` gives the squared column norm and angle pi/2.
    Heights are computed by Householder orthogonalization of the span
    columns; ``gram_inverse_diag`` offers the inverse-Gram route as an
    independent cross-check.
    """
    H = as_channel_matrix(H)
    n_r, n_t = H.shape
    k = int(k)
    cols = sorted({int(j) for j in span_cols})
    if not 0 <= k < n_t:
        raise ValueError(f"column index {k} out of range for {n_t} columns")
    if any(not 0 <= j < n_t for j in cols):
        raise ValueError(f"span column indices {cols} out of range for {n_t} columns")
    if k in cols:
        raise ValueError(f"column {k} cannot be a member of its own span set")
    if len(cols) >= n_r:
        raise ValueError(f"span of {len(cols)} columns is not a proper subspace of dimension {n_r}")

    h = H[:, k]
    norm_sq = float(np.real(np.vdot(h, h)))
    if not cols:
        return ProjectionReport(height_sq=norm_sq, norm_sq=norm_sq, angle=float(np.pi / 2))

    q, r = np.linalg.qr(H[:, cols])
    # Drop directions of numerically dependent span columns so the
    # projector matches the true column space.
    diag = np.abs(np.diagonal(r))
    keep = diag > RANK_RATIO_TOL * max(diag.max(), 1.0)
    q = q[:, keep]
    resid = h - q @ (q.conj().T @ h)
    height_sq = float(np.real(np.vdot(resid, resid)))
    if norm_sq > 0.0:
        ratio = min(1.0, max(0.0, height_sq / norm_sq))
        angle = float(np.arcsin(np.sqrt(ratio)))
    else:
        angle = 0.0
    return ProjectionReport(height_sq=height_sq, norm_sq=norm_sq, angle=angle)


def require_full_column_rank(H_s: np.ndarray) -> None:
    """Raise SingularMatrixError unless ``H_s`` has full column rank."""
    sv = np.linalg.svd(H_s, compute_uv=False)
    if H_s.shape[0] < H_s.shape[1] or sv[-1] <= RANK_RATIO_TOL * sv[0]:
        raise SingularMatrixError(
            f"matrix of shape {H_s.shape} is rank deficient "
            f"(singular value ratio {sv[-1] / sv[0] if sv[0] else 0.0:.3e})"
        )


def gram_inverse_diag(H_s) -> np.ndarray:
    """Diagonal of (H_s^H H_s)^-1 for a full-column-rank matrix.

    The reciprocal of entry k equals the squared projection height of
    column k against all other columns; used as the cross-check route for
    the pseudo-inverse based equalizer.
    """
    H_s = as_channel_matrix(H_s)
    require_full_column_rank(H_s)
    gram = H_s.conj().T @ H_s
    return np.real(np.diagonal(np.linalg.inv(gram))).copy()
