"""Frequency-domain machinery for linear stochastic detector models.

A model is dx/dt = A x + w with a real drift matrix A and white-noise inputs
entering pairs of quadrature rows at rate sqrt(kappa); outgoing fields obey
out = sqrt(kappa) * (intracavity) - in.  Spectra come from the adjoint solve
m y = -b, m = (A + i w I)^T, a block of frequencies at a time: one inverse, a
1-norm condition test with ||m||_1 read off A, and one refinement step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from .errors import ZERO, FailureAtFrequency, InvalidConfig

if TYPE_CHECKING:
    from .spectra import QuadratureSpectrum


@dataclass(frozen=True)
class NoiseChannel:
    """One dissipation channel driving a pair of quadrature rows."""

    id: str
    rate: float
    rows: tuple[int, int]
    spectrum: "QuadratureSpectrum"
    is_readout: bool = False

    def __post_init__(self):
        if self.rate < 0.0:
            raise InvalidConfig("channel rate must be nonnegative")
        if self.rows[0] == self.rows[1]:
            raise InvalidConfig("channel rows must be distinct")


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Real drift matrix plus noise-channel wiring and readout for one scheme.

    The channels are the inputs whose noise enters S_f.  The model keeps a
    read-only copy of the drift; models compare and hash by identity.
    """

    drift: NDArray[np.float64]
    channels: tuple[NoiseChannel, ...]
    force_row: int

    def __post_init__(self):
        drift = np.array(self.drift, dtype=float)
        drift.flags.writeable = False
        object.__setattr__(self, "drift", drift)
        if drift.ndim != 2 or drift.shape[0] != drift.shape[1]:
            raise InvalidConfig("drift matrix must be square")
        n = len(drift)
        if n == 0 or n % 2 != 0:
            raise InvalidConfig("state dimension must be a positive even number")
        if not np.isfinite(drift).all():
            raise InvalidConfig("drift entries must be finite")
        if not 0 <= self.force_row < n:
            raise InvalidConfig("force_row out of range")
        if sum(ch.is_readout for ch in self.channels) != 1:
            raise InvalidConfig("exactly one channel must be the readout")
        for ch in self.channels:
            if not all(0 <= r < n for r in ch.rows):
                raise InvalidConfig(f"channel {ch.id!r} rows out of range")

    @cached_property
    def readout(self) -> NoiseChannel:
        return next(ch for ch in self.channels if ch.is_readout)


@dataclass(frozen=True)
class FrequencyResponse:
    """Adjoint response y of both readout output quadratures, frequency axis first:
    M is the readout channel's own in -> out block, v the force -> out 2-vector."""

    omega: float | NDArray[np.float64]
    y: NDArray[np.complex128]  # (..., 2, n): output quadrature k's response to every state row
    model: LinearModel

    @property
    def M(self) -> NDArray[np.complex128]:
        return channel_output(self.model.readout, self.y, np.eye(2))

    @property
    def v(self) -> NDArray[np.complex128]:
        return self.y[..., self.model.force_row]


def stability_check(drift: NDArray[np.float64]) -> tuple[bool, NDArray[np.complex128]]:
    """Return (stable, eigenvalues); stable means no real part exceeds ZERO max|lambda|."""
    eigenvalues = np.linalg.eigvals(drift)
    top = eigenvalues.real.max()
    stable = bool(top <= 0.0 or top <= ZERO * abs(eigenvalues).max())
    return stable, eigenvalues


def _cond1(drift: NDArray[np.float64], omegas, inv: NDArray[np.complex128]) -> NDArray[np.float64]:
    """1-norm condition numbers of the stack m = (A + i w I)^T, given its inverse."""
    diagonal = drift.diagonal()
    others = np.abs(drift).sum(axis=1) - np.abs(diagonal)  # sum_{j != k} |a_kj|
    norm = (others[:, None] + np.hypot(diagonal[:, None], omegas)).max(axis=0)
    # |m^-1| copied to (i, j, w) order, so the sum and the max run along whole rows
    return norm * np.abs(inv).transpose(1, 2, 0).copy().sum(axis=0).max(axis=0)


def inverted_system(model: LinearModel, omegas: NDArray[np.float64]) -> NDArray[np.complex128]:
    """Stack of the inverses of m = (A + i w I)^T, one per frequency.

    The first w whose 1-norm condition number ||m||_1 ||m^-1||_1 exceeds
    1 / ZERO raises.  Column k of m is row k of A with a_kk + i w on the diagonal,
    so ||m||_1 = max_k (sum_{j != k} |a_kj| + hypot(a_kk, w)), O(n) per w.  An
    exactly singular m fails the batched inverse; the stack is then inverted
    point by point, and a failing matrix counts as infinitely ill-conditioned.
    """
    n = len(model.drift)
    m = np.empty((len(omegas), n, n), dtype=complex)
    m[:] = model.drift.T
    m.reshape(-1, n * n)[:, ::n + 1] += 1j * omegas[:, None]  # every diagonal
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        inv = np.full_like(m, np.inf)
        for k, mk in enumerate(m):
            try:
                inv[k] = np.linalg.inv(mk)
            except np.linalg.LinAlgError:
                pass
    FailureAtFrequency.at_first(
        omegas, ~(_cond1(model.drift, omegas, inv) <= 1.0 / ZERO), "system matrix singular at"
    )
    return inv


def refined_solve(
    drift: NDArray[np.float64], inv: NDArray[np.complex128],
    omegas: NDArray[np.float64], b: NDArray[np.float64],
) -> NDArray[np.complex128]:
    """Solve (A + i w I)^T y = -b at every w in omegas, given the inverse stack.

    A b of shape (n,) gives y of shape (N, n); a b of shape (n, k) solves its
    k columns together and gives (N, n, k).

    The solve is the inverse applied to -b, then one step of mixed-precision
    iterative refinement, its residual -b - (A^T y + i w y) accumulated in
    extended precision from the real n x n drift.  The schemes cancel large
    internal paths exactly; that residual keeps the cancellation at working
    precision, and one step reaches the limit its precision sets.
    """
    rhs = -np.reshape(b, (len(drift), -1))
    y = inv @ rhs
    y_hi = y.astype(np.clongdouble)
    residual = rhs - (drift.T.astype(np.clongdouble) @ y_hi + 1j * omegas[:, None, None] * y_hi)
    y = y + inv @ residual.astype(np.complex128)
    FailureAtFrequency.at_first(
        omegas, ~np.isfinite(y).all(axis=(1, 2)), "non-finite transfer entries at"
    )
    return y if np.ndim(b) == 2 else y[..., 0]


def adjoint_response(
    model: LinearModel, omegas: NDArray[np.float64], b: NDArray[np.float64]
) -> NDArray[np.complex128]:
    """Solve (A + i w I)^T y = -b at every w in omegas, in one stacked, refined solve.

    Entry k of y is the response of the state functional b . x to a unit
    drive of state row k.  It is inverted_system followed by refined_solve.
    """
    return refined_solve(model.drift, inverted_system(model, omegas), omegas, b)


def quadrature(phi: float) -> NDArray[np.float64]:
    """The readout direction d = (sin phi, cos phi) of the output quadrature d . out."""
    return np.array([math.sin(phi), math.cos(phi)])


def readout_drive(model: LinearModel, d: NDArray[np.float64]) -> NDArray[np.float64]:
    """The b of adjoint_response for the readout quadrature d . out.

    It is sqrt(rate) d on the readout rows; a d of shape (2, k) gives k columns.
    """
    readout = model.readout
    b = np.zeros((len(model.drift),) + d.shape[1:])
    b[list(readout.rows)] = math.sqrt(readout.rate) * d
    return b


def channel_output(
    channel: NoiseChannel,
    y: NDArray[np.complex128],
    d: NDArray[np.float64] | None = None,
) -> NDArray[np.complex128]:
    """Coefficients of a channel's input quadratures in a readout functional.

    y holds adjoint responses on its last axis.  Since out = sqrt(rate) *
    state - in, they are sqrt(rate) * y[..., rows], less the readout
    direction d for the readout's own input (no d: the state part alone).
    """
    c = math.sqrt(channel.rate) * y.take(channel.rows, axis=-1)
    return c - d if channel.is_readout and d is not None else c


def transfer(model: LinearModel, omega: float | NDArray[np.float64]) -> FrequencyResponse:
    """The response of both readout output quadratures at omega: one adjoint
    solve with d = I; an array of omega is one stacked solve, frequency first."""
    omegas = np.asarray(omega, dtype=float)
    y = adjoint_response(model, omegas.reshape(-1), readout_drive(model, np.eye(2)))
    y = np.swapaxes(y, -1, -2).reshape(omegas.shape + (2, len(model.drift)))
    return FrequencyResponse(omega, y, model)
