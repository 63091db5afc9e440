"""The conversion-tone fit as scipy's curve_fit computes it: the reference
for `protocols._fit_tone`.

A bounded least-squares fit of c + a e^(-t/tau) cos(2 pi f t + phi), with no
envelope without decay, seeded from the FFT peak and restarted from four
start phases; the lowest residual wins.
"""

import math

import numpy as np
from scipy.optimize import curve_fit


def reference_fit_tone(t, y, decay: bool):
    """Returns (omega, omega_err, ok, rss): `protocols._fit_tone`'s figures
    and curve_fit's 1-sigma frequency error."""
    t = np.asarray(t, float)
    y = np.asarray(y, float)
    yc = y - y.mean()
    dt = np.mean(np.diff(t))
    spec = np.abs(np.fft.rfft(yc))
    freqs = np.fft.rfftfreq(t.size, d=dt)
    f0 = float(freqs[np.argmax(spec[1:]) + 1]) if spec.size > 1 else 1.0 / t[-1]
    a0 = float(y.max() - y.min()) / 2
    c0 = float(y.mean())

    if decay:
        def model(tt, c, a, f, phi, tau):
            return c + a * np.exp(-tt / tau) * np.cos(2 * np.pi * f * tt + phi)
        extra = [t[-1]]
        bounds = ([-np.inf, 0, 0, -2 * np.pi, 1e-6],
                  [np.inf, np.inf, np.inf, 2 * np.pi, np.inf])
    else:
        def model(tt, c, a, f, phi):
            return c + a * np.cos(2 * np.pi * f * tt + phi)
        extra = []
        bounds = ([-np.inf, 0, 0, -2 * np.pi], [np.inf, np.inf, np.inf, 2 * np.pi])

    best = None
    for phi0 in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
        try:
            popt, pcov = curve_fit(
                model, t, y, p0=[c0, a0, f0, phi0, *extra], bounds=bounds,
                maxfev=20000,
            )
        except (RuntimeError, ValueError):
            continue
        resid = float(np.sum((model(t, *popt) - y) ** 2))
        if best is None or resid < best[0]:
            best = (resid, popt, pcov)
    if best is None:
        return math.nan, math.nan, False, math.inf
    rss, popt, pcov = best
    f_err = math.sqrt(abs(pcov[2, 2])) if np.isfinite(pcov[2, 2]) else math.nan
    return 2 * math.pi * popt[2], 2 * math.pi * f_err, True, rss
