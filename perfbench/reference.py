"""A fixed computation that uses no blaschkeops code, timed to tell how fast the host runs.

On a shared host the speed of the same code drifts by a fifth or more over a
few minutes, so the wall time of one run says as much about the neighbours as
about the program. The runner times this computation between items and reports
a pass in units of its median time in the same run, which cancels most of that
drift. It mixes the operations the library spends its time in: Horner loops
and exponentials over complex arrays, FFTs of length 4096, a dense complex
product, an SVD and Python-level bookkeeping.

No change to the program can move it, since it calls numpy alone.
"""

import time

import numpy as np

_rng = np.random.default_rng(0)
_SIGNALS = _rng.standard_normal((8, 4096)) + 1j * _rng.standard_normal((8, 4096))
_POINTS = 0.7 * np.exp(2j * np.pi * _rng.uniform(0.0, 1.0, 100_000))
_COEFFS = _rng.standard_normal(40) + 1j * _rng.standard_normal(40)
_DENSE = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_REAL = _rng.standard_normal((128, 128))


def _once():
    np.fft.ifft(np.fft.fft(_SIGNALS, axis=1), axis=1)
    acc = np.zeros_like(_POINTS)
    for c in _COEFFS:
        acc = (acc + c) * _POINTS
    np.exp(acc * 1e-3)
    _DENSE @ _DENSE
    np.linalg.svd(_REAL)
    table = {}
    for i in range(5000):
        table[i % 97] = table.get(i % 97, 0.0) + 0.5 * i


def seconds() -> float:
    """Wall seconds of one run of the reference computation (about 0.1 s on a 2-core Xeon)."""
    t0 = time.perf_counter()
    for _ in range(3):
        _once()
    return time.perf_counter() - t0
