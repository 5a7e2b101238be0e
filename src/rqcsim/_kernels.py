"""Low-level data-movement and gate-application kernels.

Two interchangeable backends are provided:

* ``numba``: JIT-compiled, multi-threaded kernels (the default when numba
  imports cleanly).
* ``numpy``: pure-NumPy fallback, used when numba is unavailable or when
  the environment variable ``RQCSIM_BACKEND=numpy`` is set.

Both backends perform identical data movement, so permutation outputs are
byte-for-byte equal regardless of backend or thread count.  The active
backend can also be switched at runtime with :func:`set_backend`, which the
benchmark harness uses to time one against the other.
"""

from __future__ import annotations

import os

import numpy as np

try:
    import numba
    from numba import njit, prange

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only on stripped installs
    numba = None
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap

    prange = range


_ENV_BACKEND = os.environ.get("RQCSIM_BACKEND", "").strip().lower()
if _ENV_BACKEND not in ("", "numba", "numpy"):
    raise ValueError(
        f"RQCSIM_BACKEND must be 'numba' or 'numpy', got {_ENV_BACKEND!r}"
    )
if _ENV_BACKEND == "numba" and not _HAVE_NUMBA:
    raise ImportError("RQCSIM_BACKEND=numba requested but numba is not installed")

_backend = _ENV_BACKEND or ("numba" if _HAVE_NUMBA else "numpy")


def get_backend() -> str:
    """Name of the active kernel backend ('numba' or 'numpy')."""
    return _backend


def set_backend(name: str) -> str:
    """Switch the kernel backend at runtime; returns the previous name."""
    global _backend
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not _HAVE_NUMBA:
        raise ValueError("numba backend requested but numba is not installed")
    prev = _backend
    _backend = name
    return prev


def max_threads() -> int:
    if _HAVE_NUMBA:
        return numba.config.NUMBA_NUM_THREADS
    return 1


class _thread_scope:
    """Temporarily pin the numba thread count (no-op on the numpy backend)."""

    def __init__(self, threads: int):
        self.threads = max(1, min(int(threads), max_threads()))
        self._saved = None

    def __enter__(self):
        if _HAVE_NUMBA and _backend == "numba":
            self._saved = numba.get_num_threads()
            numba.set_num_threads(self.threads)
        return self

    def __exit__(self, *exc):
        if self._saved is not None:
            numba.set_num_threads(self._saved)
        return False


# ---------------------------------------------------------------------------
# Index-permutation moves.
#
# A tensor is viewed as a (rows, d_gamma) row-major matrix.  A left move
# relocates whole rows (contiguous blocks of d_gamma entries) according to
# row_map; a right move reorders entries inside each row according to
# col_map.  Maps always follow gather convention: out[i] = in[map[i]].
# ---------------------------------------------------------------------------


@njit(cache=True, parallel=True)
def _l_move_numba(src, dst, row_map, d_gamma):  # pragma: no cover - jitted
    n_rows = row_map.shape[0]
    for i in prange(n_rows):
        s = row_map[i] * d_gamma
        t = i * d_gamma
        dst[t:t + d_gamma] = src[s:s + d_gamma]


@njit(cache=True, parallel=True)
def _r_move_numba(src, dst, col_map, d_gamma, n_rows):  # pragma: no cover
    for i in prange(n_rows):
        base = i * d_gamma
        for j in range(d_gamma):
            dst[base + j] = src[base + col_map[j]]


def _l_move_numpy(src, dst, row_map, d_gamma):
    s2 = src.reshape(row_map.shape[0], d_gamma)
    d2 = dst.reshape(row_map.shape[0], d_gamma)
    np.take(s2, row_map, axis=0, out=d2)


def _r_move_numpy(src, dst, col_map, d_gamma, n_rows):
    s2 = src.reshape(n_rows, d_gamma)
    d2 = dst.reshape(n_rows, d_gamma)
    np.take(s2, col_map, axis=1, out=d2)


def l_move(src: np.ndarray, dst: np.ndarray, row_map: np.ndarray, d_gamma: int,
           threads: int = 1) -> None:
    """Relocate contiguous d_gamma-entry blocks: dst row i = src row row_map[i]."""
    if _backend == "numba":
        with _thread_scope(threads):
            _l_move_numba(src, dst, row_map, d_gamma)
    else:
        _l_move_numpy(src, dst, row_map, d_gamma)


def r_move(src: np.ndarray, dst: np.ndarray, col_map: np.ndarray, d_gamma: int,
           n_rows: int, threads: int = 1) -> None:
    """Reorder within each contiguous d_gamma block: dst[i,j] = src[i,col_map[j]]."""
    if _backend == "numba":
        with _thread_scope(threads):
            _r_move_numba(src, dst, col_map, d_gamma, n_rows)
    else:
        _r_move_numpy(src, dst, col_map, d_gamma, n_rows)


# ---------------------------------------------------------------------------
# State-vector gate kernels (used by the oracle).
#
# Basis-state index convention: qubit 0 is the most significant bit, so the
# bit position of qubit q in an n-qubit index is (n - 1 - q).
# ---------------------------------------------------------------------------


@njit(cache=True, parallel=True)
def _apply_1q_numba(state, g00, g01, g10, g11, bit):  # pragma: no cover
    stride = 1 << bit
    half = state.shape[0] >> 1
    for i in prange(half):
        low = i & (stride - 1)
        i0 = ((i >> bit) << (bit + 1)) | low
        i1 = i0 | stride
        a = state[i0]
        b = state[i1]
        state[i0] = g00 * a + g01 * b
        state[i1] = g10 * a + g11 * b


def apply_1q(state: np.ndarray, gate: np.ndarray, bit: int) -> None:
    """Apply a 2x2 gate in place to the qubit at the given bit position."""
    if _backend == "numba":
        _apply_1q_numba(state, gate[0, 0], gate[0, 1], gate[1, 0], gate[1, 1], bit)
    else:
        stride = 1 << bit
        s = state.reshape(-1, 2, stride)
        a = s[:, 0, :].copy()
        b = s[:, 1, :].copy()
        s[:, 0, :] = gate[0, 0] * a + gate[0, 1] * b
        s[:, 1, :] = gate[1, 0] * a + gate[1, 1] * b


@njit(cache=True, parallel=True)
def _apply_2q_numba(state, g, bit_a, bit_b):  # pragma: no cover
    sa = 1 << bit_a
    sb = 1 << bit_b
    hi_bit = bit_a if bit_a > bit_b else bit_b
    lo_bit = bit_b if bit_a > bit_b else bit_a
    quarter = state.shape[0] >> 2
    for i in prange(quarter):
        low = i & ((1 << lo_bit) - 1)
        mid = ((i >> lo_bit) << (lo_bit + 1)) | low
        mid_low = mid & ((1 << hi_bit) - 1)
        base = ((mid >> hi_bit) << (hi_bit + 1)) | mid_low
        i00 = base
        i01 = base | sb
        i10 = base | sa
        i11 = base | sa | sb
        a00 = state[i00]
        a01 = state[i01]
        a10 = state[i10]
        a11 = state[i11]
        state[i00] = g[0, 0] * a00 + g[0, 1] * a01 + g[0, 2] * a10 + g[0, 3] * a11
        state[i01] = g[1, 0] * a00 + g[1, 1] * a01 + g[1, 2] * a10 + g[1, 3] * a11
        state[i10] = g[2, 0] * a00 + g[2, 1] * a01 + g[2, 2] * a10 + g[2, 3] * a11
        state[i11] = g[3, 0] * a00 + g[3, 1] * a01 + g[3, 2] * a10 + g[3, 3] * a11


def apply_2q(state: np.ndarray, gate: np.ndarray, bit_a: int, bit_b: int) -> None:
    """Apply a 4x4 gate in place; basis order of the gate is (qa, qb)."""
    if _backend == "numba":
        _apply_2q_numba(state, np.ascontiguousarray(gate), bit_a, bit_b)
    else:
        n = state.shape[0].bit_length() - 1
        t = state.reshape((2,) * n)
        axis_a = n - 1 - bit_a
        axis_b = n - 1 - bit_b
        moved = np.moveaxis(t, (axis_a, axis_b), (0, 1)).reshape(4, -1)
        moved[:] = gate @ moved


@njit(cache=True, parallel=True)
def _apply_diag_numba(state, cz_a, cz_b, t_mask):  # pragma: no cover
    # Phase pass for one cycle: every CZ contributes -1 on |11>, every T
    # contributes exp(i*pi/4) on |1>.
    n = state.shape[0]
    w = np.complex128(np.exp(1j * np.pi / 4))
    n_cz = cz_a.shape[0]
    for i in prange(n):
        sign = 1.0
        for k in range(n_cz):
            if (i >> cz_a[k]) & 1 and (i >> cz_b[k]) & 1:
                sign = -sign
        tm = i & t_mask
        cnt = 0
        while tm:
            tm &= tm - 1
            cnt += 1
        state[i] = state[i] * (sign * w ** cnt)


def apply_diag(state: np.ndarray, cz_bits: list[tuple[int, int]],
               t_bits: list[int]) -> None:
    """Apply all CZ and T gates of one cycle as a single diagonal pass."""
    if not cz_bits and not t_bits:
        return
    t_mask = 0
    for b in t_bits:
        t_mask |= 1 << b
    if _backend == "numba":
        cz_a = np.array([a for a, _ in cz_bits], dtype=np.int64)
        cz_b = np.array([b for _, b in cz_bits], dtype=np.int64)
        _apply_diag_numba(state, cz_a, cz_b, t_mask)
    else:
        idx = np.arange(state.shape[0], dtype=np.int64)
        phase = np.ones(state.shape[0], dtype=np.complex128)
        for a, b in cz_bits:
            both = ((idx >> a) & 1) & ((idx >> b) & 1)
            phase[both == 1] *= -1.0
        if t_mask:
            cnt = np.zeros(state.shape[0], dtype=np.int64)
            for b in t_bits:
                cnt += (idx >> b) & 1
            phase *= np.exp(1j * np.pi / 4) ** cnt
        state *= phase

