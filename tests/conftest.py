"""Shared test helpers."""

import numpy as np
import pytest


def _analytic_signal(x):
    """x + i H[x] from the one-sided FFT spectrum (Marple, IEEE Trans. Signal Process. 47, 1999)."""
    n = x.shape[-1]
    h = np.zeros(n)
    h[0] = h[n // 2] = 1.0  # DC and, for even n, Nyquist keep unit weight
    h[1:(n + 1) // 2] = 2.0
    return np.fft.ifft(np.fft.fft(x) * h)


@pytest.fixture
def analytic_signal():
    """The analytic signal of a real 1-D array, as a function."""
    return _analytic_signal
