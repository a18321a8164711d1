"""Dense complex linear algebra for small (2 <= d <= 8) matrices.

Everything here is a thin, contract-checked layer over numpy's Hermitian
eigensolver.  The unitary exponential goes through the eigendecomposition for
every dimension.  It serves the scalar forward path (`forward.evolve`, and
through it `predicted_statistics` and the count simulation) and is the
oracle the tests hold the closed-form kernel of `forward.ProtocolLayout`,
which the solvers use, to.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenFailure, NonHermitianInput, WrongDimension

INPUT_RTOL = 1e-10


def as_cmatrix(m) -> np.ndarray:
    """Coerce to a square complex array with 2 <= dim <= 8."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise WrongDimension(f"expected a square matrix, got shape {arr.shape}")
    if not 2 <= arr.shape[0] <= 8:
        raise WrongDimension(f"dimension {arr.shape[0]} outside supported range 2..8")
    return arr


def hermiticity_defect(m: np.ndarray) -> float:
    """max_ij |M[i,j] - conj(M[j,i])|, the absolute deviation from Hermiticity."""
    return float(np.abs(m - m.conj().T).max())


def _require_hermitian(arr: np.ndarray, rtol: float, what: str) -> None:
    defect = hermiticity_defect(arr)
    if defect > rtol * max(np.linalg.norm(arr), np.finfo(float).tiny):
        raise NonHermitianInput(f"{what}: Hermiticity defect {defect:.3e} exceeds tolerance")


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2; suppresses accumulated round-off before eigensolves."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def hermitian_eig(m):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix whose
    Hermiticity defect is within INPUT_RTOL of its norm."""
    arr = as_cmatrix(m)
    _require_hermitian(arr, INPUT_RTOL, "hermitian_eig")
    try:
        return np.linalg.eigh(symmetrize(arr))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on d<=8 is robust
        raise EigenFailure(str(exc)) from exc


def expi_neg(g) -> np.ndarray:
    """exp(-iG) for Hermitian G, via G = V diag(w) V^dag -> V diag(e^{-iw}) V^dag."""
    w, v = hermitian_eig(g)
    return (v * np.exp(-1j * w)) @ v.conj().T


def expi_neg_batch(gs: np.ndarray) -> np.ndarray:
    """Batched exp(-iG) over a stack (..., d, d) of Hermitian matrices.

    Same algorithm as :func:`expi_neg`; inputs are symmetrized but assumed
    Hermitian by construction (no per-matrix tolerance check).
    """
    w, v = np.linalg.eigh(symmetrize(np.asarray(gs, dtype=complex)))
    return np.einsum("...ik,...k,...jk->...ij", v, np.exp(-1j * w), v.conj())

