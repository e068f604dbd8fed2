"""Shared test helpers."""

import hashlib

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


def _rounds_like_the_recording() -> bool:
    """True where np.exp, a (2 x n) @ (n x 2) product, a density-shaped
    (8 x L) @ (L x ns) product and a series tile (Q x 2L) @ (S x 2L).T round
    as on the machine that recorded the pinned bits and digests (x86-64 with
    AVX-512, numpy 2.4, OpenBLAS): numpy's exp falls back to libm without
    AVX-512, and BLAS kernels sum in their own order."""
    x = np.linspace(-40.0, 0.0, 4001)
    J = np.stack([np.exp(x), x * np.exp(x)], axis=1)
    rows = 1.0 / np.add.outer(np.arange(1.0, 9.0), np.arange(101.0))
    F = np.subtract.outer(np.linspace(-1.0, 1.0, 101), np.linspace(-11.0, 11.0, 1201)) ** 3
    tile = np.subtract.outer(np.linspace(-1.0, 1.0, 20), np.linspace(-3.0, 3.0, 202)) ** 3
    b = 1.0 / np.add.outer(np.arange(1.0, 65.0), np.arange(202.0))
    digest = hashlib.sha256(np.exp(x).tobytes() + (J.T @ J).tobytes() + (rows @ F).tobytes()
                            + np.matmul(tile, b.T).tobytes())
    return digest.hexdigest().startswith("25e632bb04e2f9e2")
