"""Linear and decision-feedback detection for the selected streams.

The working constellation is unit-energy QPSK with Gray mapping: one bit
rides the in-phase rail and one the quadrature rail, so slicing decisions
are independent per rail.

Receiver identifiers: "zf", "mmse", "df-zf", "df-mmse".  Feedback modes:
"actual" (sliced symbols are cancelled) and "genie" (true symbols are
cancelled).  Ordering modes for decision feedback: "fixed", "vblast",
"qr-reverse".

Detection runs in one batched kernel, :func:`detect_grid`, for every
receiver, stream count, feedback mode and SNR point, on a block without
the signal term of the symbols x: the noise with x the transmitted symbols
(the error domain of the BER engine, :func:`simulate_frame` and genie
:func:`detect_df`), or a received block with x = 0.  The post-processing
SNRs are read off the same stage matrices (:func:`_stage_snrs`).  The
per-frame functions share one frame check (:func:`_frame`) and call the
batched kernels on a batch of one.  A ZF frame's column rank is decided
there, by ``channel.require_full_column_rank``; the stage recursion
(:func:`stage_matrices`) raises ``channel.SingularMatrixError`` on its
own only where a block is dependent up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .channel import SingularMatrixError, as_channel_matrix, require_full_column_rank

RECEIVERS = ("zf", "mmse", "df-zf", "df-mmse")
FEEDBACK_MODES = ("actual", "genie")
ORDERING_MODES = ("fixed", "vblast", "qr-reverse")

#: Rail amplitude of unit-energy QPSK.
_RAIL = 1.0 / math.sqrt(2.0)


def _check_modes(receiver: str, feedback: str) -> None:
    """The one check of a receiver and a feedback mode name, for the
    per-frame detectors and the BER experiments' configuration; raises
    ``ValueError`` naming the first unknown one."""
    if receiver not in RECEIVERS:
        raise ValueError(f"unknown receiver {receiver!r}; expected one of {RECEIVERS}")
    if feedback not in FEEDBACK_MODES:
        raise ValueError(f"unknown feedback mode {feedback!r}; expected one of {FEEDBACK_MODES}")


@dataclass(frozen=True)
class LinkBudget:
    """Average SNR per receive antenna (linear) and the stream count.

    Each of the L streams is transmitted with amplitude sqrt(rho0 / L) so
    the per-receive-antenna SNR is rho0 against unit-variance noise.
    """

    rho0: float
    L: int

    def __post_init__(self):
        if not 0 < self.rho0 < math.inf:
            raise ValueError(f"rho0 must be finite and positive, got {self.rho0}")
        if self.L < 1:
            raise ValueError(f"stream count must be positive, got {self.L}")

    @property
    def stream_scale(self) -> float:
        return math.sqrt(self.rho0 / self.L)


@dataclass(frozen=True)
class StreamSnrReport:
    """Post-processing SNR per selected stream, in linear scale."""

    snrs: tuple[float, ...]
    receiver: str


@dataclass(frozen=True)
class SymbolFrame:
    """Transmitted, received and detected symbol blocks of one frame."""

    transmitted: np.ndarray
    received: np.ndarray
    detected: np.ndarray


def _qpsk_points(positive: np.ndarray) -> np.ndarray:
    """QPSK points from a (..., 2) mask of positive (in-phase, quadrature)
    rails, written as the float pairs of a complex array.  Both rails are
    exactly +-1/sqrt(2): the arithmetic rounds nothing."""
    return (positive * (2.0 * _RAIL) - _RAIL).view(np.complex128)[..., 0]


def qpsk_modulate(bits: np.ndarray) -> np.ndarray:
    """Map bit pairs (last axis of size 2) to unit-energy Gray QPSK points."""
    bits = np.asarray(bits)
    if bits.shape[-1] != 2:
        raise ValueError(f"expected trailing axis of 2 bits, got shape {bits.shape}")
    return _qpsk_points(bits == 0)


def _rails(z) -> np.ndarray:
    """(..., 2) float (in-phase, quadrature) pairs of complex ``z``; a view
    whenever the last axis of ``z`` is contiguous."""
    z = np.asarray(z, dtype=np.complex128)
    flat = z if z.ndim and z.strides[-1] == z.itemsize else np.ascontiguousarray(z)
    return flat.view(np.float64).reshape(z.shape + (2,))


def qpsk_slice(z: np.ndarray) -> np.ndarray:
    """Nearest QPSK constellation point, elementwise."""
    return _qpsk_points(_rails(z) >= 0)


def qpsk_demodulate(symbols: np.ndarray) -> np.ndarray:
    """Inverse of :func:`qpsk_modulate`; appends an axis of 2 bits."""
    return (_rails(symbols) < 0).astype(np.int64)


def count_bit_errors(symbols: np.ndarray, bits: np.ndarray) -> int:
    """Number of entries of ``bits`` that :func:`qpsk_demodulate` of
    ``symbols`` gets wrong, counted without forming the demodulated
    integer array."""
    return int(np.count_nonzero((_rails(symbols) < 0) != bits))


def _frame(H_s, budget: LinkBudget, receiver: str, decode_order=None) -> tuple[np.ndarray, list[int]]:
    """The checks every per-frame function shares: ``H_s`` as a channel
    matrix with ``budget.L`` columns, ``decode_order`` (default: the
    columns as they stand) as a permutation of them, and for the ZF
    receivers ("zf", "df-zf") full column rank, which also needs at least
    L rows: a rank-deficient ``H_s`` raises ``SingularMatrixError``.  The
    stage recursion alone is no rank test: rounding behind ill-conditioned
    later columns can lift a Schur complement above its threshold
    (:func:`stage_matrices`).  Returns the matrix and the order."""
    H_s = as_channel_matrix(H_s)
    if H_s.shape[1] != budget.L:
        raise ValueError(f"budget declares {budget.L} streams but matrix has {H_s.shape[1]} columns")
    order = [int(i) for i in (range(budget.L) if decode_order is None else decode_order)]
    if sorted(order) != list(range(budget.L)):
        raise ValueError(f"decode_order {decode_order} is not a permutation of 0..{budget.L - 1}")
    if receiver in ("zf", "df-zf"):
        require_full_column_rank(H_s)
    return H_s, order


def _frame_snrs(H_s, budget: LinkBudget, receiver: str, decode_order=None) -> tuple[float, ...]:
    """:func:`_stage_snrs` of one frame checked by :func:`_frame`, its
    columns in ``decode_order``."""
    H_s, order = _frame(H_s, budget, receiver, decode_order)
    return tuple(_stage_snrs(H_s[:, order][None], receiver, budget)[0].tolist())


def zf_post_snr(H_s, budget: LinkBudget) -> StreamSnrReport:
    """Post-processing SNR of each stream under the decorrelating equalizer,
    (rho0 / L) / diag((H_s^H H_s)^-1), from :func:`_stage_snrs`.  Raises
    ``SingularMatrixError`` on a rank-deficient ``H_s`` (:func:`_frame`)."""
    return StreamSnrReport(snrs=_frame_snrs(H_s, budget, "zf"), receiver="zf")


def mmse_post_snr(H_s, budget: LinkBudget) -> StreamSnrReport:
    """Post-processing SNR of each stream under the linear MMSE equalizer,
    from :func:`_stage_snrs`.  Never singular thanks to the regularization;
    dominates the decorrelator per stream and meets it at high SNR."""
    return StreamSnrReport(snrs=_frame_snrs(H_s, budget, "mmse"), receiver="mmse")


def transmit(H_s, budget: LinkBudget, symbols: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Received block sqrt(rho0/L) * H_s @ symbols + noise."""
    H_s = as_channel_matrix(H_s)
    return budget.stream_scale * (H_s @ symbols) + noise


def _term_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The batched product a @ b of ``a`` (B, m, k) and ``b`` (B, k, n)
    for a short contraction axis: the k broadcast outer products, summed
    in order.  Batched matmul makes one small call per batch entry; this
    makes 2k - 1 calls on the whole batch."""
    out = a[:, :, 0, None] * b[:, None, 0, :]
    for j in range(1, a.shape[2]):
        out += a[:, :, j, None] * b[:, None, j, :]
    return out


def _gram(H: np.ndarray) -> np.ndarray:
    """Gram matrices H^H H of ``H`` (B, n_r, L) by :func:`_term_sum`,
    exactly Hermitian: the strictly upper triangle is the conjugate of the
    lower one and the diagonal is real.  (numpy's complex multiply may
    fuse a product with its sum, so the term sums alone round the two
    triangles differently.)"""
    G = _term_sum(H.conj().transpose(0, 2, 1), H)
    for i in range(G.shape[1]):
        G.imag[:, i, i] = 0.0
        np.conjugate(G[:, i + 1:, i], out=G[:, i, i + 1:])
    return G


#: Share of its diagonal entry below which a stage's Schur complement
#: counts as zero.  Exactly dependent columns leave a share within about
#: 10 eps of zero, of either sign; for Gaussian columns a share this small
#: has a probability of order 1e-13 or less.
_DEPENDENT_SHARE = 256 * np.finfo(float).eps


def stage_matrices(G: np.ndarray, receiver: str, lam: float) -> tuple[np.ndarray, np.ndarray | None]:
    """The stage step of :func:`detect_grid`, which depends on the Gram
    matrices ``G`` (B, L, L) and on lam but not on the received data.

    Returns ``(V, leak)``.  For the linear receivers V = (G + lam I)^-1 and
    ``leak`` is None.  For decision feedback row s of V is the first row of
    (G_s + lam I)^-1 placed at columns s..L-1, where G_s is G over columns
    s..L-1, and the strictly lower triangle of ``leak`` holds that of
    V @ G: cancelling symbol s takes ``leak[:, t, s]`` times it off the
    estimate of every later stage t.  The rest of ``leak`` is zero.

    One recursion serves both.  It borders P, the inverse of the trailing
    block of G + lam I from column s + 1 on, with the diagonal entry a and
    the column b below it: with u = P b and the Schur complement
    sigma = a - b^H u, the bordered inverse is
    [[1, -u^H], [-u, sigma P + u u^H]] / sigma, and its first row is
    stage s.  Raises ``channel.SingularMatrixError`` (a
    ``np.linalg.LinAlgError``) when some sigma is not above
    ``_DEPENDENT_SHARE`` times its a: the column lies in the span of the
    later ones up to rounding.  Only a rank-deficient ZF block gives that:
    an MMSE block keeps sigma >= lam, far above the share at any SNR
    below about 120 dB.  The test reads the rounded sigma, so it is no
    complete rank test: behind ill-conditioned later columns a true share
    below the threshold can round above it.  The per-frame functions test
    the rank first (:func:`_frame`).
    """
    B, L, _ = G.shape
    linear = receiver in ("zf", "mmse")
    V = None if linear else np.zeros_like(G)
    inv = np.empty((B, 0, 0), dtype=G.dtype)  # of the empty block after the last column
    for s in range(L - 1, -1, -1):
        a = G[:, s, s].real + lam
        b = G[:, s + 1:, s]
        u = (inv * b[:, None, :]).sum(axis=2)
        sigma = a - (b.conj() * u).real.sum(axis=1)
        if not (sigma > _DEPENDENT_SHARE * a).all():
            raise SingularMatrixError(f"column {s} of a block lies in the span of the later columns up to rounding")
        r = 1.0 / sigma
        row = u.conj() * -r[:, None]
        if not linear:
            V[:, s, s] = r
            V[:, s, s + 1:] = row
            if s == 0:
                break
        bordered = np.empty((B, L - s, L - s), dtype=G.dtype)
        bordered[:, 0, 0] = r
        bordered[:, 0, 1:] = row
        bordered[:, 1:, 0] = row.conj()
        np.subtract(inv, u[:, :, None] * row[:, None, :], out=bordered[:, 1:, 1:])
        inv = bordered
    if linear:
        return inv, None
    leak = np.zeros_like(G)
    for t in range(1, L):
        # row t of V is zero before column t
        leak[:, t, :t] = (V[:, t, t:, None] * G[:, t:, :t]).sum(axis=1)
    return V, leak


def _stage_snrs(Heff: np.ndarray, receiver: str, budget: LinkBudget) -> np.ndarray:
    """(B, L) post-processing SNR of each stream of ``Heff`` (B, n_r, L),
    from the diagonal of the stage matrices V that detection applies
    (:func:`stage_matrices`): (rho0 / L) / V_kk for "zf" and "df-zf"
    (lam = 0), where 1 / V_kk is the squared projection height of column k
    against all other columns (zf) or the later ones (df-zf, perfect
    feedback); max(1 / (lam V_kk) - 1, 0) for "mmse" and "df-mmse"
    (lam = L / rho0).

    Accuracy: the ZF SNRs of a frame have relative errors of order
    eps * n / h, with h its worst-stream squared height and n its largest
    squared column norm; on near-collinear columns every stream stays
    within 1e-6 of the QR route of :mod:`antsel.channel` down to
    h / n = 1e-9 (TestStageSnrAccuracy), as ``selection._lattice_heights``.
    Raises ``channel.SingularMatrixError`` where :func:`detect_grid` does,
    when a stage's Schur complement, as rounded, is within
    ``_DEPENDENT_SHARE`` (256 eps) of its diagonal (h / n below about
    6e-14), where the QR route still returns a value.
    """
    regularized = receiver in ("mmse", "df-mmse")
    lam = budget.L / budget.rho0 if regularized else 0.0
    V = stage_matrices(_gram(Heff), receiver, lam)[0]
    diag = V.diagonal(axis1=1, axis2=2).real
    if regularized:
        return np.maximum(1.0 / (lam * diag) - 1.0, 0.0)
    return (budget.rho0 / budget.L) / diag


def detect_matched(leak: np.ndarray | None, est: np.ndarray, x: np.ndarray,
                   feedback: str = "actual") -> np.ndarray:
    """The cancelling step of :func:`detect_grid`: decision feedback on
    ``est`` (B, L, T), the stream estimates before cancellation, in place,
    stage by stage, with the ``leak`` of :func:`stage_matrices` (None for
    the linear receivers, which cancel nothing).  ``est`` carries the leak
    of every symbol except those of ``x`` (B, L, T).  Stage s feeds back
    its sliced estimate (feedback="actual") or the true symbols, which are
    ``x`` (feedback="genie"), and takes ``leak[:, t, s]`` times
    (fed back - ``x``) off every later stage t, so genie feedback cancels
    nothing.  Returns ``est``; its rail signs are the decisions, and
    :func:`qpsk_slice` of it gives the detected symbols.

    Actual feedback cancels only the symbols whose decision differs from
    ``x``: a correct decision feeds back exactly zero, so skipping it
    changes no estimate beyond the sign of a zero.  A rail decides
    positive when its estimate is >= 0, and a rail of ``x`` at zero (the
    received-block route, x = 0) differs from every decision."""
    if leak is None or feedback == "genie":
        return est
    for stage in range(est.shape[1] - 1):
        later = slice(stage + 1, None)
        rails, x_rails = _rails(est[:, stage]), _rails(x[:, stage])
        wrong = ((rails >= 0) != (x_rails > 0)) | (x_rails == 0)
        # a symbol's two rail flags read as one 16-bit word, nonzero when either is set
        frames, symbols = np.divmod(np.flatnonzero(wrong.reshape(-1, 2).view(np.uint16)), est.shape[2])
        fed_back = qpsk_slice(est[frames, stage, symbols]) - x[frames, stage, symbols]
        est[frames, later, symbols] -= leak[frames, later, stage] * fed_back[:, None]
    return est


def detect_grid(Heff: np.ndarray, x: np.ndarray, block: np.ndarray, receiver: str, feedback: str,
                budgets: Iterable[LinkBudget]) -> Iterator[np.ndarray]:
    """Stream estimates of a batch of frames at each link budget of
    ``budgets``, in order: the one detection kernel of every receiver,
    stream count and feedback mode.  Their rail signs are the decisions
    (:func:`qpsk_slice` gives the symbols); the next budget overwrites
    them.

    ``Heff`` (B, n_r, L) holds each frame's columns in decode order,
    stream i riding column i.  ``block`` (B, n_r, T) is a received block
    without the signal term of the symbols ``x`` (B, L, T): the noise,
    with x the transmitted symbols (the error domain), or a whole received
    block, with x = 0.  Genie feedback feeds back ``x``, so it cancels
    nothing and needs the error domain; see :func:`detect_matched`.
    Inputs are not validated.  ZF assumes full column rank, and the only
    rank test a batched caller gets is that of the stage recursion on the
    rounded Schur complements: a ZF block with a column dependent on the
    others up to rounding raises ``channel.SingularMatrixError``
    (:func:`stage_matrices`).  That test is not complete.  The per-frame
    ZF entry points add the SVD test of ``channel.require_full_column_rank``
    (:func:`_frame`); an ill-conditioned block that a caller supplies here
    can return ZF estimates and SNRs 20-60 % off the QR route without an
    error.  Drawn Gaussian channels give such blocks with probability zero.

    At stream scale s the matched-filter output over s is
    G x + Heff^H block / s, with the Gram matrices G.  Every receiver's
    stage matrix V (:func:`stage_matrices`, lam = L / rho0 for "mmse" and
    "df-mmse", 0 for ZF) has V G = I - lam V on the columns it nulls and
    the decision-feedback leak below them, so the estimate before
    cancellation is x + V (Heff^H block / s - lam x) and no G x is
    formed.  For ZF W = (V Heff^H) block is formed once per call and a
    budget costs x + W / s; the MMSE front ends build their stage
    matrices and one matmul per budget.  Decision feedback then cancels
    stage by stage (:func:`detect_matched`), only where actual feedback
    decided wrong.  Every step works frame by frame, so the estimates of
    a frame do not depend on the other frames of the call.

    The products over a short axis, G (n_r terms, :func:`_gram`) and the
    ZF nulling product V Heff^H (L terms), are term sums
    (:func:`_term_sum`); the products with a T-long output, (V Heff^H)
    block, Heff^H block and V u, are batched matmuls.
    """
    Heff_h = Heff.conj().transpose(0, 2, 1)
    G = _gram(Heff)
    if regularized := receiver in ("mmse", "df-mmse"):
        z = Heff_h @ block
        u = np.empty_like(z)
    else:
        V, leak = stage_matrices(G, receiver, 0.0)
        W = _term_sum(V, Heff_h) @ block
    est = np.empty_like(x)
    for budget in budgets:
        if regularized:
            lam = budget.L / budget.rho0
            V, leak = stage_matrices(G, receiver, lam)
            np.multiply(x, lam, out=est)
            np.multiply(z, 1.0 / budget.stream_scale, out=u)
            u -= est
            np.matmul(V, u, out=est)
        else:
            np.multiply(W, 1.0 / budget.stream_scale, out=est)
        est += x
        yield detect_matched(leak, est, x, feedback)


def vblast_order_block(H: np.ndarray) -> np.ndarray:
    """Batched V-BLAST decode order of the columns of each (n_r, L)
    matrix in ``H`` (B, n_r, L): each step takes, among the columns not
    yet decoded, the one with the smallest inverse-Gram diagonal entry
    (the largest post-nulling SNR), ties to the earliest.  Returns (B, L)
    column positions, first decoded first.  The inverse of each step's
    Gram matrix (a term sum, :func:`_gram`) is the ZF stage matrix of
    :func:`stage_matrices`, so its one rank test is the stage recursion's
    on the rounded Schur complements, which is not complete: an
    ill-conditioned block that a caller supplies can be ordered on ZF SNRs
    20-60 % off the QR route without an error, where the per-frame
    :func:`vblast_order` adds the SVD test (:func:`_frame`)."""
    B, _, L = H.shape
    order = np.tile(np.arange(L), (B, 1))
    for step in range(L - 1):
        rest = order[:, step:]
        sub = np.take_along_axis(H, rest[:, None, :], axis=2)
        inv = stage_matrices(_gram(sub), "zf", 0.0)[0]
        inv_diag = inv.diagonal(axis1=1, axis2=2).real
        best = inv_diag.argmin(axis=1)
        # move the pick to the front, keeping the others in their order
        pos = np.arange(L - step)
        front = np.argsort(np.where(pos == best[:, None], -1, pos), axis=1, kind="stable")
        order[:, step:] = np.take_along_axis(rest, front, axis=1)
    return order


def _detect_frame(H_s, block, budget: LinkBudget, receiver: str, decode_order=None, feedback: str = "actual",
                  x=None, error_domain: bool = False) -> np.ndarray:
    """:func:`detect_grid` on one frame at one budget, decoding the columns
    of ``H_s`` in ``decode_order`` (default: as they stand), after every
    check the per-frame detectors share.  ``x`` (L, T), in stream order,
    defaults to zeros; ``block`` is the noise if ``error_domain``, else a
    received block, less the signal term of ``x`` before detection.
    Returns the L x T detected symbols in stream order."""
    _check_modes(receiver, feedback)
    H_s, order = _frame(H_s, budget, receiver, decode_order)
    block = np.asarray(block, dtype=np.complex128)
    if block.ndim != 2 or block.shape[0] != H_s.shape[0]:
        raise ValueError(f"received block shape {block.shape} does not match {H_s.shape[0]} receive rows")
    shape = (budget.L, block.shape[1])
    if x is None:
        x = np.zeros(shape, dtype=np.complex128)
    elif x.shape != shape:
        raise ValueError(f"symbol block shape {x.shape} does not match {shape} (streams, symbols)")
    elif not error_domain:
        block = block - budget.stream_scale * (H_s @ x)
    est = next(detect_grid(H_s[:, order][None], x[order][None], block[None], receiver, feedback, (budget,)))
    detected = np.empty_like(x)
    detected[order] = qpsk_slice(est[0])
    return detected


def detect_df(
    H_s,
    received: np.ndarray,
    budget: LinkBudget,
    decode_order: tuple[int, ...],
    feedback: str = "actual",
    transmitted: np.ndarray | None = None,
    front_end: str = "zf",
) -> np.ndarray:
    """Successive nulling-and-cancellation detection.

    Each stage nulls the not-yet-decoded streams with the chosen front
    end, slices, and subtracts the sliced (feedback="actual") or true
    (feedback="genie") symbol contribution.  Genie mode needs the true
    ``transmitted`` block (L, T) and detects on the received block less
    its signal term (the error domain).
    """
    if front_end not in ("zf", "mmse"):
        raise ValueError(f"unknown front end {front_end!r}")
    if feedback == "genie" and transmitted is None:
        raise ValueError("genie feedback requires the transmitted block")
    x = np.asarray(transmitted, dtype=np.complex128) if feedback == "genie" else None
    return _detect_frame(H_s, received, budget, "df-" + front_end, decode_order, feedback, x)


def simulate_frame(H_s, budget: LinkBudget, bits: np.ndarray, noise: np.ndarray,
                   receiver: str = "zf", decode_order: tuple[int, ...] | None = None,
                   feedback: str = "actual") -> SymbolFrame:
    """Carry one frame of QPSK bits over a channel realization and detect it.

    Detection runs in the error domain, on the symbols and the noise, as
    the frame's row of a BER engine block does: given the columns in
    decode order, the bits and the noise of a frame, the decisions are the
    engine's bit for bit.  The linear receivers ignore ``decode_order``.
    """
    symbols = qpsk_modulate(bits)
    order = decode_order if receiver in ("df-zf", "df-mmse") else None
    detected = _detect_frame(H_s, noise, budget, receiver, order, feedback, symbols, error_domain=True)
    received = transmit(H_s, budget, symbols, np.asarray(noise, dtype=np.complex128))
    return SymbolFrame(transmitted=symbols, received=received, detected=detected)


def df_stage_snrs(H_s, budget: LinkBudget, decode_order: tuple[int, ...]) -> tuple[float, ...]:
    """Effective SNR of each decision-feedback stage under perfect feedback.

    Stage i sees (rho0 / L) times the squared projection height of its
    stream against the span of the streams decoded after it; reported in
    decode order.  Read off the "df-zf" stage matrices of the columns in
    decode order (:func:`_stage_snrs`).  Raises ``SingularMatrixError``
    on a rank-deficient ``H_s`` (:func:`_frame`).
    """
    return _frame_snrs(H_s, budget, "df-zf", decode_order)


def vblast_order(H_s, budget: LinkBudget) -> tuple[int, ...]:
    """Greedy decode order: always pick the stream with the largest
    current post-nulling SNR among the not-yet-decoded ones.  Raises
    ``SingularMatrixError`` on a rank-deficient ``H_s`` (:func:`_frame`)."""
    H_s, _ = _frame(H_s, budget, "zf")
    return tuple(int(k) for k in vblast_order_block(H_s[None])[0])
