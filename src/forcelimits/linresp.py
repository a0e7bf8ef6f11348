"""Generic linear-response detector layer.

Any linear detector is summarized at one frequency by the input operator's
self-susceptibility chi_FF, the noise spectra (S_FF, S_ZZ, S_ZF) of the
input/rescaled-output pair, the coupling g, and the oscillator
susceptibilities (chi_qq, chi_qx) of the coupling operator q.  For a
concrete scheme the detector is the whole model less the oscillator's own
coupling -g q F; everything else, the cqnc ancilla included, belongs to it.  The rescaled
output is normalized so its response to the input drive is one, the output
commutes with itself at different times, and causality forbids any response
of the input to the output; those conventions are built into the extraction
and are not rechecked at runtime.

Direct feedback of the output onto the oscillator enters only through the
composite gain (raw gain times the constant commutator with the control
operator), which is the `lambda_prime` argument below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from . import bounds
from .errors import ZERO, FailureAtFrequency, NumericalFailure
from .linsys import LinearModel, adjoint_response, channel_output
from .linsys import quadrature, readout_drive
from .schemes import VARIANTS, DetectorParams, SchemeConfig, build, conjugate_drive
from .schemes import coupling_drift
from .spectra import QuadratureSpectrum


@dataclass(frozen=True)
class GenericDetector:
    """One-frequency summary of a linear force detector."""

    omega: float
    chi_FF: complex
    S_FF: float
    S_ZZ: float
    S_ZF: complex
    chi_qq: complex
    chi_qx: complex
    g: float


def sprime_f(det: GenericDetector) -> float | NDArray[np.float64]:
    """Scaled added-noise power S'_f = S_f |chi_qx|^2 at the coupling(s) `det.g`."""
    g = det.g
    if np.any(g == 0.0):
        raise NumericalFailure("added noise is undefined at g = 0")
    # g_f = g chi_qq and g_z = 1/g - g chi_qq chi_FF = z_re + i z_im; only real
    # operations touch g, so an array g gives the scalar calls bit for bit
    qc = det.chi_qq * det.chi_FF
    qs = det.chi_qq.conjugate() * det.S_ZF
    z_re, z_im = 1.0 / g - g * qc.real, -g * qc.imag
    return (
        g * g * abs(det.chi_qq) ** 2 * det.S_FF
        + (z_re * z_re + z_im * z_im) * det.S_ZZ
        + 2.0 * g * (qs.real * z_re - qs.imag * z_im)  # 2 Re(g_f* g_z S_ZF)
    )


def g_optimized_bound(det: GenericDetector) -> float:
    """Exact minimum of S'_f over the coupling strength.

    S'_f is alpha*g^2 + beta/g^2 + const with alpha, beta >= 0, so the
    minimum is const + 2*sqrt(alpha*beta); the coupling-independent term is
    2 Re(chi_qq* S_ZF) - 2 S_ZZ Re(chi_qq chi_FF).
    """
    cqq = det.chi_qq
    const = 2.0 * (
        (cqq.conjugate() * det.S_ZF).real - det.S_ZZ * (cqq * det.chi_FF).real
    )
    bracket = (
        det.S_FF
        + abs(det.chi_FF) ** 2 * det.S_ZZ
        - 2.0 * (det.chi_FF * det.S_ZF).real
    )
    return const + 2.0 * abs(cqq) * math.sqrt(max(det.S_ZZ * bracket, 0.0))


def uncertainty_slack(det: GenericDetector) -> float:
    """Slack of the combined input/output uncertainty relation, >= 0 when it holds.

    slack = S_FF S_ZZ - |S_ZF|^2 - |B| - 1/4 with B = Im(chi_FF) S_ZZ + Im(S_ZF).
    """
    b = det.chi_FF.imag * det.S_ZZ + det.S_ZF.imag
    return float(det.S_FF * det.S_ZZ - abs(det.S_ZF) ** 2 - abs(b) - 0.25)


@dataclass(frozen=True)
class CombinedProofQuantities:
    """Building blocks of the combined readout-angle/squeezing/detuning bound."""

    D: float
    E: float
    X: float
    Y: float
    C: complex
    H: float
    K: float
    L: float


def combined_quantities(
    params: DetectorParams,
    omega: float,
    xi: float,
    uvw: QuadratureSpectrum,
    g: float,
) -> CombinedProofQuantities:
    """Closed-form quantities of the combined scheme at one frequency.

    They satisfy E*X - D*Y = |C|^2 and K*L - H^2 = u*v - w^2, from which
    S_f = 2 Re(1/chi_mech) H + K + |1/chi_mech|^2 L dominates the
    dissipation bound for any readout angle, squeezing and detuning.

    They are computed in the unit s = bounds._unit(gamma, Delta, omega, g) and
    scaled back: D and X by s^2, E and Y by s^3, C by s^2.5, K by s, L by 1/s.
    """
    s = bounds._unit(params.gamma, params.Delta, omega, g)
    gamma, delta, omega_s, g_s = params.gamma / s, params.Delta / s, omega / s, g / s
    r = gamma / 2.0 - 1j * omega_s
    r2 = gamma * gamma / 4.0 + omega_s * omega_s  # |r|^2
    d = xi * (r2 - delta * delta) - gamma * delta
    e = g_s * g_s * (gamma + xi * delta)
    x = r2 - delta * delta + xi * gamma * delta
    y = g_s * g_s * delta
    c = g_s * math.sqrt(gamma) * (r + xi * delta)
    size = abs(g_s) * math.sqrt(gamma) * (abs(r) + abs(xi * delta))
    FailureAtFrequency.at_first(omega, abs(c) <= ZERO * size, "readout normalization C vanished at")
    c2 = abs(c) * abs(c)
    u, v, w = uvw.u, uvw.v, uvw.w
    h = (d * e * u + e * x * w + d * y * w + x * y * v) / c2
    k = (e * e * u + 2.0 * e * y * w + y * y * v) / c2
    ell = (d * d * u + 2.0 * d * x * w + x * x * v) / c2
    s2 = s * s
    return CombinedProofQuantities(D=d * s2, E=e * s2 * s, X=x * s2, Y=y * s2 * s,
                                   C=c * (s2 * math.sqrt(s)), H=h, K=k * s, L=ell / s)


def _detector_model(config: SchemeConfig) -> LinearModel:
    """The built model less the oscillator's own coupling -g q F, q = x + eta*p.

    That coupling is the variant's first; any further one (the cqnc
    ancilla's to the cavity) stays part of the detector.
    """
    model = build(config)
    x, f = VARIANTS[config.variant].couplings[0]
    q = x + config.coupling_mix * conjugate_drive(x)  # J x is p
    return replace(model, drift=model.drift - config.params.g * coupling_drift(q, f))


def extract_detector(
    config: SchemeConfig,
    omega: float,
    input_spectrum: QuadratureSpectrum | None = None,
) -> GenericDetector:
    """Map a concrete scheme onto a GenericDetector at one frequency.

    chi_FF, S_FF, S_ZZ and S_ZF come from the detector, the model less the
    oscillator's coupling, with each of its channels (the noise budget) driven
    by its input state (the readout's replaced by `input_spectrum` if given);
    chi_qq and chi_qx are the analytic susceptibilities of the oscillator's
    coupling operator q.  The output's response to the input counts as zero when at
    most ZERO times the larger of those of d . out and of its perpendicular quadrature.
    """
    if input_spectrum is not None:
        config = replace(config, input_spectrum=input_spectrum)
    model = _detector_model(config)
    f = VARIANTS[config.variant].couplings[0][1]
    d = quadrature(config.readout_angle)

    # one adjoint solve for the state functionals F = f . x, d . out and d_perp . out
    b = np.column_stack([f, readout_drive(model, np.stack([d, [d[1], -d[0]]], axis=1))])
    y_f, y_z, y_perp = adjoint_response(model, np.array([omega], dtype=float), b)[0].T
    drive = conjugate_drive(f)
    chi_ff = complex(y_f @ drive)
    chi_zf_raw = complex(y_z @ drive)
    FailureAtFrequency.at_first(
        omega, abs(chi_zf_raw) <= ZERO * max(abs(chi_zf_raw), abs(y_perp @ drive)),
        "output does not respond to the input operator at",
    )

    spectra = np.zeros(3, dtype=complex)  # S_FF, S_ZZ, S_ZF
    for ch in model.channels:
        f_c = channel_output(ch, y_f)
        z_c = channel_output(ch, y_z, d) / chi_zf_raw
        form = ch.spectrum.form
        spectra += [form(f_c, f_c), form(z_c, z_c), form(z_c, f_c)]
    FailureAtFrequency.at_first(omega, not np.isfinite(spectra).all(),
                                "non-finite detector spectra at")

    q = bounds.coupling_susceptibilities(config.params, config.coupling_mix, omega)
    return GenericDetector(
        omega=omega, chi_FF=chi_ff, S_FF=float(spectra[0].real),
        S_ZZ=float(spectra[1].real), S_ZF=complex(spectra[2]),
        chi_qq=q.chi_qq, chi_qx=q.chi_qx, g=config.params.g,
    )


def feedback_added_noise(
    det: GenericDetector,
    lambda_prime: float | NDArray[np.float64],
    omega: float | NDArray[np.float64] | None = None,
) -> float | NDArray[np.float64]:
    """Force-referred added noise with direct output feedback of gain lambda_prime.

    Solves the three coupled frequency-domain equations for (q, F, Z) with
    the feedback term i*lambda_prime*Z/omega added to the oscillator
    equation, then normalizes the output by its force response.  The result
    is independent of lambda_prime.  Arrays of gains and frequencies
    broadcast against each other into one stacked solve.
    """
    w = det.omega if omega is None else omega
    FailureAtFrequency.at_first(w, w == 0.0, "feedback transform undefined at")
    if det.g == 0.0:
        raise NumericalFailure("added noise is undefined at g = 0")

    g = det.g
    # real division first: a scalar call rounds as with Python complex numbers
    feedback = -1j * (np.asarray(lambda_prime) / w)
    system = np.empty(np.shape(feedback) + (3, 3), dtype=complex)
    system[...] = [[1.0, -g * det.chi_qq, 0.0], [-g * det.chi_FF, 1.0, 0.0], [-g, 0.0, 1.0]]
    system[..., 0, 2] = feedback
    # right-hand sides: unit drives of f, F0 and Z0
    drives = np.array(
        [[det.chi_qx, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex
    )
    z_f, z_f0, z_z0 = np.moveaxis(np.linalg.solve(system, drives)[..., 2, :], -1, 0)
    if np.any(abs(z_f) <= ZERO * np.maximum(abs(z_f0), abs(z_z0))):
        raise NumericalFailure("output carries no force signal")
    c_f = z_f0 / z_f
    c_z = z_z0 / z_f
    return (
        abs(c_f) ** 2 * det.S_FF
        + abs(c_z) ** 2 * det.S_ZZ
        + 2.0 * (c_z * c_f.conjugate() * det.S_ZF).real
    )[()]
