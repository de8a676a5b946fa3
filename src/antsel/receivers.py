"""Linear and decision-feedback detection for the selected streams.

The working constellation is unit-energy QPSK with Gray mapping: one bit
rides the in-phase rail and one the quadrature rail, so slicing decisions
are independent per rail.

Receiver identifiers: "zf", "mmse", "df-zf", "df-mmse".  Feedback modes:
"actual" (sliced symbols are cancelled) and "genie" (true symbols are
cancelled).  Ordering modes for decision feedback: "fixed", "vblast",
"qr-reverse".

Detection runs in one batched kernel, :func:`detect_grid`, for every
receiver, stream count, feedback mode and SNR point.  It takes a block
without the signal term of the symbols x: the BER engine and
:func:`simulate_frame` pass the noise and the transmitted symbols (the
error domain, where no G x is formed), while :func:`detect_linear` and
:func:`detect_df`, which hold only a received block, pass it with x = 0.
The per-frame functions validate one frame and call the batched kernels
on a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .channel import as_channel_matrix, projection_height_sq, require_full_column_rank

RECEIVERS = ("zf", "mmse", "df-zf", "df-mmse")
FEEDBACK_MODES = ("actual", "genie")
ORDERING_MODES = ("fixed", "vblast", "qr-reverse")

_SQRT2 = math.sqrt(2.0)
#: Rail amplitude of unit-energy QPSK.
_RAIL = 1.0 / _SQRT2


@dataclass(frozen=True)
class LinkBudget:
    """Average SNR per receive antenna (linear) and the stream count.

    Each of the L streams is transmitted with amplitude sqrt(rho0 / L) so
    the per-receive-antenna SNR is rho0 against unit-variance noise.
    """

    rho0: float
    L: int

    def __post_init__(self):
        if self.rho0 <= 0:
            raise ValueError(f"rho0 must be positive, got {self.rho0}")
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
    decode_order: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SymbolFrame:
    """Transmitted, received and detected symbol blocks of one frame."""

    transmitted: np.ndarray
    received: np.ndarray
    detected: np.ndarray


def qfunc(x) -> np.ndarray | float:
    """Gaussian tail probability Pr(N(0,1) > x)."""
    from scipy import special

    return 0.5 * special.erfc(np.asarray(x) / _SQRT2)


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


def qpsk_bit_error_rate(snr) -> np.ndarray | float:
    """Exact AWGN bit error rate of Gray QPSK at per-symbol SNR ``snr``."""
    return qfunc(np.sqrt(np.asarray(snr, dtype=float)))


def _check_streams(H_s: np.ndarray, budget: LinkBudget) -> None:
    if H_s.shape[1] != budget.L:
        raise ValueError(f"budget declares {budget.L} streams but matrix has {H_s.shape[1]} columns")


def zf_post_snr(H_s, budget: LinkBudget) -> StreamSnrReport:
    """Post-processing SNR of each stream under the decorrelating equalizer.

    Computed through the projection-height route; equals
    (rho0 / L) / diag((H_s^H H_s)^-1) entrywise.
    """
    H_s = as_channel_matrix(H_s)
    _check_streams(H_s, budget)
    require_full_column_rank(H_s)
    scale = budget.rho0 / budget.L
    cols = tuple(range(H_s.shape[1]))
    snrs = tuple(
        scale * projection_height_sq(H_s, k, cols[:k] + cols[k + 1:]).height_sq for k in cols
    )
    return StreamSnrReport(snrs=snrs, receiver="zf")


def mmse_post_snr(H_s, budget: LinkBudget) -> StreamSnrReport:
    """Post-processing SNR of each stream under the linear MMSE equalizer.

    Never singular thanks to the regularized inverse; dominates the
    decorrelator per stream and coincides with it at high SNR.
    """
    H_s = as_channel_matrix(H_s)
    _check_streams(H_s, budget)
    gram = H_s.conj().T @ H_s
    a = np.linalg.inv(np.eye(budget.L) + (budget.rho0 / budget.L) * gram)
    snrs = tuple(max(0.0, float(1.0 / np.real(a[k, k]) - 1.0)) for k in range(budget.L))
    return StreamSnrReport(snrs=snrs, receiver="mmse")


def transmit(H_s, budget: LinkBudget, symbols: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Received block sqrt(rho0/L) * H_s @ symbols + noise."""
    H_s = as_channel_matrix(H_s)
    return budget.stream_scale * (H_s @ symbols) + noise


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
    stage s.  Raises ``np.linalg.LinAlgError`` when some sigma is not above
    ``_DEPENDENT_SHARE`` times its a: the column lies in the span of the
    later ones up to rounding.  Only a rank-deficient ZF block gives that:
    an MMSE block keeps sigma >= lam, far above the share at any SNR
    below about 120 dB.
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
            raise np.linalg.LinAlgError("singular matrix")
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


def detect_matched(leak: np.ndarray | None, est: np.ndarray, x: np.ndarray, feedback: str = "actual",
                   transmitted: np.ndarray | None = None) -> np.ndarray:
    """The cancelling step of :func:`detect_grid`: decision feedback on
    ``est`` (B, L, T), the stream estimates before cancellation, in place,
    stage by stage, with the ``leak`` of :func:`stage_matrices` (None for
    the linear receivers, which cancel nothing).  ``est`` carries the leak
    of every symbol except those of ``x`` (B, L, T).  Stage s feeds back
    its sliced estimate (feedback="actual") or the true symbols of
    ``transmitted`` (B, L, T) (feedback="genie") and takes
    ``leak[:, t, s]`` times (fed back - ``x``) off every later stage t.
    ``transmitted`` defaults to ``x``, whose genie feedback cancels
    nothing.  Returns ``est``; its rail signs are the decisions, and
    :func:`qpsk_slice` of it gives the detected symbols."""
    if leak is None or (feedback == "genie" and transmitted is None):
        return est
    for stage in range(est.shape[1] - 1):
        fed_back = transmitted[:, stage] if feedback == "genie" else qpsk_slice(est[:, stage])
        fed_back = fed_back - x[:, stage]
        est[:, stage + 1:] -= leak[:, stage + 1:, stage, None] * fed_back[:, None, :]
    return est


def detect_grid(Heff: np.ndarray, x: np.ndarray, block: np.ndarray, receiver: str, feedback: str,
                budgets: Iterable[LinkBudget], transmitted: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Stream estimates of a batch of frames at each link budget of
    ``budgets``, in order: the one detection kernel of every receiver,
    stream count and feedback mode.  Their rail signs are the decisions
    (:func:`qpsk_slice` gives the symbols); the next budget overwrites
    them.

    ``Heff`` (B, n_r, L) holds each frame's columns in decode order,
    stream i riding column i.  ``block`` (B, n_r, T) is a received block
    without the signal term of the symbols ``x`` (B, L, T): the noise,
    with x the transmitted symbols (the error domain of the BER engine
    and :func:`simulate_frame`), or a whole received block, with x = 0
    (:func:`detect_linear`, :func:`detect_df`).  Genie feedback feeds
    back ``transmitted`` (B, L, T), by default ``x``; see
    :func:`detect_matched`.  Inputs are not validated; ZF assumes full
    column rank.

    At stream scale s the matched-filter output over s is
    G x + Heff^H block / s, with the Gram matrices G.  Every receiver's
    stage matrix V (:func:`stage_matrices`, lam = L / rho0 for "mmse" and
    "df-mmse", 0 for ZF) has V G = I - lam V on the columns it nulls and
    the decision-feedback leak below them, so the estimate before
    cancellation is x + V (Heff^H block / s - lam x) and no G x is
    formed.  For ZF W = (V Heff^H) block is formed once per call and a
    budget costs x + W / s; the MMSE front ends build their stage
    matrices and one matmul per budget.  Decision feedback then cancels
    stage by stage (:func:`detect_matched`).  Every step works frame by
    frame, so the estimates of a frame do not depend on the other frames
    of the call.
    """
    Heff_h = Heff.conj().transpose(0, 2, 1)
    G = Heff_h @ Heff
    if regularized := receiver in ("mmse", "df-mmse"):
        z = Heff_h @ block
        u = np.empty_like(z)
    else:
        V, leak = stage_matrices(G, receiver, 0.0)
        W = (V @ Heff_h) @ block
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
        yield detect_matched(leak, est, x, feedback, transmitted)


def vblast_order_block(H: np.ndarray) -> np.ndarray:
    """Batched V-BLAST decode order of the columns of each (n_r, L)
    matrix in ``H`` (B, n_r, L): each step takes, among the columns not
    yet decoded, the one with the smallest inverse-Gram diagonal entry
    (the largest post-nulling SNR), ties to the earliest.  Returns (B, L)
    column positions, first decoded first.  The inverse of each step's
    Gram matrix is the ZF stage matrix of :func:`stage_matrices`."""
    B, _, L = H.shape
    order = np.tile(np.arange(L), (B, 1))
    for step in range(L - 1):
        rest = order[:, step:]
        sub = np.take_along_axis(H, rest[:, None, :], axis=2)
        inv = stage_matrices(sub.conj().transpose(0, 2, 1) @ sub, "zf", 0.0)[0]
        inv_diag = inv.diagonal(axis1=1, axis2=2).real
        best = inv_diag.argmin(axis=1)
        # move the pick to the front, keeping the others in their order
        pos = np.arange(L - step)
        front = np.argsort(np.where(pos == best[:, None], -1, pos), axis=1, kind="stable")
        order[:, step:] = np.take_along_axis(rest, front, axis=1)
    return order


def _check_received(H_s: np.ndarray, received) -> np.ndarray:
    received = np.asarray(received, dtype=np.complex128)
    if received.ndim != 2 or received.shape[0] != H_s.shape[0]:
        raise ValueError(f"received block shape {received.shape} does not match {H_s.shape[0]} receive rows")
    return received


def _check_order(budget: LinkBudget, decode_order) -> list[int]:
    order = [int(i) for i in decode_order]
    if sorted(order) != list(range(budget.L)):
        raise ValueError(f"decode_order {decode_order} is not a permutation of 0..{budget.L - 1}")
    return order


def _detect_frame(H_s: np.ndarray, order: list[int], x: np.ndarray, block: np.ndarray, budget: LinkBudget,
                  receiver: str, feedback: str = "actual", transmitted: np.ndarray | None = None) -> np.ndarray:
    """:func:`detect_grid` on one frame at one budget, decoding the columns
    of ``H_s`` in ``order``; ``x`` and ``transmitted`` are in stream
    order.  Returns the L x T detected symbols in stream order."""
    order_t = None if transmitted is None else transmitted[order][None]
    est = next(detect_grid(H_s[:, order][None], x[order][None], block[None], receiver, feedback, (budget,), order_t))
    detected = np.empty_like(x)
    detected[order] = qpsk_slice(est[0])
    return detected


def detect_linear(H_s, received: np.ndarray, budget: LinkBudget, equalizer: str = "zf") -> np.ndarray:
    """Equalize and slice each stream independently.

    Returns the L x T block of detected QPSK symbols.
    """
    H_s = as_channel_matrix(H_s)
    _check_streams(H_s, budget)
    received = _check_received(H_s, received)
    if equalizer not in ("zf", "mmse"):
        raise ValueError(f"unknown equalizer {equalizer!r}")
    if equalizer == "zf":
        require_full_column_rank(H_s)
    x = np.zeros((budget.L, received.shape[1]), dtype=np.complex128)
    return _detect_frame(H_s, list(range(budget.L)), x, received, budget, equalizer)


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
    ``transmitted`` block.
    """
    H_s = as_channel_matrix(H_s)
    _check_streams(H_s, budget)
    received = _check_received(H_s, received)
    order = _check_order(budget, decode_order)
    if feedback not in FEEDBACK_MODES:
        raise ValueError(f"unknown feedback mode {feedback!r}")
    if feedback == "genie" and transmitted is None:
        raise ValueError("genie feedback requires the transmitted block")
    if front_end not in ("zf", "mmse"):
        raise ValueError(f"unknown front end {front_end!r}")
    if front_end == "zf":
        require_full_column_rank(H_s)
    x = np.zeros((budget.L, received.shape[1]), dtype=np.complex128)
    genie = np.asarray(transmitted, dtype=np.complex128) if feedback == "genie" else None
    return _detect_frame(H_s, order, x, received, budget, "df-" + front_end, feedback, genie)


def simulate_frame(H_s, budget: LinkBudget, bits: np.ndarray, noise: np.ndarray,
                   receiver: str = "zf", decode_order: tuple[int, ...] | None = None,
                   feedback: str = "actual") -> SymbolFrame:
    """Carry one frame of QPSK bits over a channel realization and detect it.

    Detection runs in the error domain, on the symbols and the noise, as
    the frame's row of a BER engine block does: given the columns in
    decode order, the bits and the noise of a frame, the decisions are the
    engine's bit for bit.  The linear receivers ignore ``decode_order``.
    """
    if receiver not in RECEIVERS:
        raise ValueError(f"unknown receiver {receiver!r}; expected one of {RECEIVERS}")
    H_s = as_channel_matrix(H_s)
    _check_streams(H_s, budget)
    noise = _check_received(H_s, noise)
    symbols = qpsk_modulate(bits)
    received = transmit(H_s, budget, symbols, noise)
    df = receiver in ("df-zf", "df-mmse")
    order = _check_order(budget, decode_order if df and decode_order is not None else range(budget.L))
    if feedback not in FEEDBACK_MODES:
        raise ValueError(f"unknown feedback mode {feedback!r}")
    if receiver in ("zf", "df-zf"):
        require_full_column_rank(H_s)
    detected = _detect_frame(H_s, order, symbols, noise, budget, receiver, feedback)
    return SymbolFrame(transmitted=symbols, received=received, detected=detected)


def df_stage_snrs(H_s, budget: LinkBudget, decode_order: tuple[int, ...]) -> tuple[float, ...]:
    """Effective SNR of each decision-feedback stage under perfect feedback.

    Stage i sees (rho0 / L) times the squared projection height of its
    stream against the span of the streams decoded after it; reported in
    decode order.
    """
    H_s = as_channel_matrix(H_s)
    _check_streams(H_s, budget)
    order = _check_order(budget, decode_order)
    scale = budget.rho0 / budget.L
    return tuple(
        scale * projection_height_sq(H_s, k, order[stage + 1:]).height_sq
        for stage, k in enumerate(order)
    )


def vblast_order(H_s, budget: LinkBudget) -> tuple[int, ...]:
    """Greedy decode order: always pick the stream with the largest
    current post-nulling SNR among the not-yet-decoded ones."""
    H_s = as_channel_matrix(H_s)
    _check_streams(H_s, budget)
    require_full_column_rank(H_s)
    return tuple(int(k) for k in vblast_order_block(H_s[None])[0])
