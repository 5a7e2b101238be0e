"""Low-level data-movement and gate-application kernels.

The permutation moves (:func:`l_move`, :func:`r_move`) have two
interchangeable backends:

* ``numba``: JIT-compiled, multi-threaded kernels (the default when numba
  imports cleanly).
* ``numpy``: pure-NumPy fallback, used when numba is unavailable or when
  the environment variable ``RQCSIM_BACKEND=numpy`` is set.

Both backends perform identical data movement, so permutation outputs are
byte-for-byte equal regardless of backend or thread count.  The active
backend can also be switched at runtime with :func:`set_backend`, which the
benchmark harness uses to time one against the other.

The state-vector gate kernels of the reference simulator are NumPy only
and ignore the backend.
"""

from __future__ import annotations

import itertools
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


def effective_threads(requested: int) -> int:
    """Threads the permutation moves really use when asked for ``requested``:
    1 on the numpy backend, at most numba's pool size on numba."""
    if _backend != "numba":
        return 1
    return max(1, min(int(requested), numba.config.NUMBA_NUM_THREADS))


class _thread_scope:
    """Temporarily pin the numba thread count (no-op on the numpy backend)."""

    def __init__(self, threads: int):
        self.threads = effective_threads(threads)
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
# They are NumPy-only whatever the backend, so the reference shares no
# backend with the engine it checks.  Each works in place on the (2,)*n
# view of the state, where qubit q is axis q.  A kernel that needs a
# temporary walks the state in pieces, so its few passes over a piece hit
# cache and its temporaries stay piece-sized.  A one-qubit gate picks its
# method by R = 2^(n-q-1), the run of amplitudes below its qubit: long
# runs are sliced, and shorter ones go through one matrix product per
# piece, so no elementwise pass steps through short strided runs.
# ---------------------------------------------------------------------------

# Amplitudes per slice of a piece: 2^14 complex128 is 256 KiB, so a
# one-qubit gate's two slices and two temporaries fit a 2 MiB L2 cache.
_PIECE_QUBITS = 14

# apply_1q's method by R: runs of at most _KRON_MAX_RUN amplitudes are
# right-multiplied by kron(gate, I_R); runs up to _MATMUL_MAX_RUN are
# gathered into a (2, rows * R) matrix for one product; longer ones are
# sliced.
_KRON_MAX_RUN = 1 << 4
_MATMUL_MAX_RUN = 1 << 12


def _at(n: int, fixed: dict[int, int]) -> tuple:
    """Index of the slice where each qubit in ``fixed`` holds its value.

    The trailing Ellipsis keeps the result a view even when every axis is
    fixed.
    """
    idx: list = [slice(None)] * n
    for q, v in fixed.items():
        idx[q] = v
    return (*idx, ...)


def _pieces(n: int, busy: tuple[int, ...]):
    """Yield the values of the leading axes outside ``busy`` that cut the
    state into pieces, each slice of at most 2^_PIECE_QUBITS amplitudes.
    There are at least two pieces, so no temporary exceeds a quarter of the
    state."""
    free = [p for p in range(n) if p not in busy]
    outer = free[:max(1, len(free) - _PIECE_QUBITS)]
    for bits in itertools.product((0, 1), repeat=len(outer)):
        yield dict(zip(outer, bits))


def apply_1q(state: np.ndarray, gate: np.ndarray, q: int) -> None:
    """Apply a 2x2 gate in place to qubit q of a (2,)*n state.

    Each amplitude pair (q = 0, q = 1) lies R = 2^(n-q-1) apart.  Where R
    is long (leading qubits) the two halves are contiguous slices, updated
    with a few elementwise passes.  Elsewhere the state is cut into pieces
    of whole rows of 2R amplitudes.  Where R is middling, a piece's q = 0
    and q = 1 halves are gathered into one (2, rows * R) matrix, which
    ``gate`` multiplies in one call.  Where R is short (trailing qubits),
    each piece is right-multiplied by kron(gate, I_R)^T, one BLAS call of
    2R multiply-adds per amplitude.  No temporary exceeds a piece.
    """
    run = 1 << (state.ndim - q - 1)
    if run > _MATMUL_MAX_RUN:
        _apply_1q_sliced(state, gate, q)
        return
    if not state.flags.c_contiguous:  # reshape would copy: writes would be lost
        raise ValueError("the state must be C-contiguous")
    rows = max(1, min(state.size, 1 << _PIECE_QUBITS) // (2 * run))
    blocks = state.reshape(-1, rows, 2 * run)
    if run <= _KRON_MAX_RUN:
        right = np.kron(gate, np.eye(run)).T
        tmp = np.empty_like(blocks[0])
        for piece in blocks:
            np.matmul(piece, right, out=tmp)
            piece[...] = tmp
        return
    halves = np.empty((2, rows * run), dtype=state.dtype)
    out = np.empty_like(halves)
    for piece in blocks:
        pairs = piece.reshape(rows, 2, run).transpose(1, 0, 2)
        halves.reshape(2, rows, run)[...] = pairs
        np.matmul(gate, halves, out=out)
        pairs[...] = out.reshape(2, rows, run)


def _apply_1q_sliced(state: np.ndarray, gate: np.ndarray, q: int) -> None:
    (g00, g01), (g10, g11) = gate
    n = state.ndim
    ga = gb = None
    for fixed in _pieces(n, (q,)):
        a = state[_at(n, {**fixed, q: 0})]
        b = state[_at(n, {**fixed, q: 1})]
        if ga is None:  # g10*a and g01*b, reused by every piece
            ga, gb = np.empty_like(a), np.empty_like(b)
        np.multiply(a, g10, out=ga)
        np.multiply(b, g01, out=gb)
        a *= g00
        a += gb
        b *= g11
        b += ga


def apply_diag(state: np.ndarray, qubits: tuple[int, ...], phase: complex) -> None:
    """Multiply the amplitudes where every listed qubit is 1 by ``phase``.

    This is T on one qubit (phase e^{i pi/4}) and CZ on two (phase -1).
    """
    ones = state[_at(state.ndim, {q: 1 for q in qubits})]
    ones *= phase


def apply_iswap(state: np.ndarray, a: int, b: int) -> None:
    """Apply iSWAP in place to qubits (a, b) of a (2,)*n state:
    |01> and |10> trade places, each picking up a factor i."""
    n = state.ndim
    tmp = None
    for fixed in _pieces(n, (a, b)):
        x01 = state[_at(n, {**fixed, a: 0, b: 1})]
        x10 = state[_at(n, {**fixed, a: 1, b: 0})]
        if tmp is None:
            tmp = np.empty_like(x01)
        np.multiply(x01, 1j, out=tmp)
        np.multiply(x10, 1j, out=x01)
        x10[...] = tmp
