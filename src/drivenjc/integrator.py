"""Adaptive embedded Runge-Kutta integration for complex matrix ODEs.

Dormand-Prince 5(4) pair with a standard step controller.  The state may
be any complex ndarray; the error norm is a scaled RMS norm so that the
per-step tolerance acts both absolutely and relatively.
"""

from __future__ import annotations

import numpy as np


class StepSizeUnderflow(ArithmeticError):
    """The step controller cannot meet the requested tolerance."""


# Dormand-Prince Butcher tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _error_norm(err, y, y_new, tol):
    scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def rk45(f, y0: np.ndarray, t0: float, t1: float, tol: float) -> np.ndarray:
    """Integrate dy/dt = f(t, y) from t0 to t1 with per-step error control.

    Raises StepSizeUnderflow when the required step falls below
    1e-14 * max(|t1 - t0|, 1).
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    y = np.array(y0, dtype=complex)
    if t1 == t0:
        return y
    span = t1 - t0
    h = span / 100.0
    h_min = 1e-14 * max(span, 1.0)
    t = t0
    k = [None] * 7
    k[0] = f(t, y)
    while t < t1:
        h = min(h, t1 - t)
        if h < h_min:
            raise StepSizeUnderflow(
                f"step size {h:.3e} below {h_min:.3e} at t = {t:.6g}"
            )
        for i in range(1, 7):
            yi = y
            for j, aij in enumerate(_A[i]):
                yi = yi + (h * aij) * k[j]
            k[i] = f(t + _C[i] * h, yi)
        y5 = y
        err = np.zeros_like(y)
        for i in range(7):
            if _B5[i] != 0.0:
                y5 = y5 + (h * _B5[i]) * k[i]
            d = _B5[i] - _B4[i]
            if d != 0.0:
                err = err + (h * d) * k[i]
        enorm = _error_norm(err, y, y5, tol)
        if enorm <= 1.0:
            t += h
            y = y5
            k[0] = k[6]  # FSAL
            factor = _MAX_FACTOR if enorm == 0.0 else min(
                _MAX_FACTOR, _SAFETY * enorm ** -0.2)
            h *= max(factor, _MIN_FACTOR)
        else:
            h *= max(_MIN_FACTOR, _SAFETY * enorm ** -0.2)
    return y
