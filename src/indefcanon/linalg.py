"""Dense matrix arithmetic shared by every other module.

Matrices are plain numpy arrays: ``float64`` for real values and
``complex128`` for complex ones.  All functions here are pure; nothing is
mutated in place.

The JSON wire format for matrices, used across the whole package, is::

    {"rows": r, "cols": c, "data": [[re, im], ...]}   # row-major

Real matrices may abbreviate ``data`` to bare reals ``[x, ...]``; the parser
accepts both forms.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

#: Default absolute tolerance for residual certificates on exact fixtures.
DEFAULT_TOL = 1e-10

#: Solves are rejected below this reciprocal condition number.
RCOND_FLOOR = 1e3 * np.finfo(float).eps

_NORM_KINDS = ("spectral", "frobenius")


def require_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as an ndarray, rejecting NaN/Inf entries."""
    m = np.asarray(m)
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def mat_norm(m: np.ndarray, kind: str = "spectral") -> float:
    """Matrix norm used for residuals and stability ratios.

    ``spectral`` is the largest singular value; ``frobenius`` is the
    entrywise 2-norm.  An empty matrix has norm 0.
    """
    if kind not in _NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}")
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 0.0
    if kind == "frobenius":
        return float(np.linalg.norm(m))
    return float(np.linalg.norm(m, 2))


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of ``m`` (0 for an empty matrix)."""
    return mat_norm(m, "spectral")


def rcond(m: np.ndarray) -> float:
    """Reciprocal condition number from the full SVD; 0 for a rank-deficient matrix."""
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 1.0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


def solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``m @ x = b`` for square, numerically nonsingular ``m``.

    Raises
    ------
    SingularMatrixError
        If the estimated reciprocal condition number falls below
        :data:`RCOND_FLOOR`.
    """
    m = require_finite(m, "m")
    b = require_finite(b, "b")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("m must be square")
    rc = rcond(m)
    if rc < RCOND_FLOOR:
        raise SingularMatrixError(f"matrix is numerically singular (rcond={rc:.3e})")
    return np.linalg.solve(m, b)


def refined_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of ``m`` with one Newton refinement step.

    The refinement ``V <- V (2I - M V)`` knocks the residual of the computed
    inverse down to the rounding floor, which matters when products built
    from the inverse must satisfy algebraic identities tightly.
    """
    n = m.shape[0]
    eye = np.eye(n, dtype=m.dtype)
    v = solve(m, eye)
    return v @ (2.0 * eye - m @ v)


def affiliation_residuals(a: np.ndarray, h: np.ndarray, t: np.ndarray,
                          j: np.ndarray, p: np.ndarray,
                          norm: str = "spectral") -> tuple[float, float]:
    """Residuals certifying that ``t`` takes the pair ``(a, h)`` to ``(j, p)``.

    Returns ``(||a t - t j|| / ||t||, ||t* h t - p||)``.  The similarity
    residual is formed multiplication-side rather than via ``t``-inverse so
    that ill-conditioning of ``t`` is not amplified into the certificate.
    """
    a, h, t, j, p = (np.asarray(x) for x in (a, h, t, j, p))
    tn = mat_norm(t, norm)
    if tn == 0.0:
        raise ValueError("t must be nonzero")
    sim = mat_norm(a @ t - t @ j, norm) / tn
    cong = mat_norm(t.conj().T @ h @ t - p, norm)
    return float(sim), float(cong)


def matrix_to_json(m: np.ndarray) -> dict:
    """Encode a matrix as the repo-wide JSON object."""
    m = np.atleast_2d(np.asarray(m))
    rows, cols = m.shape
    if np.iscomplexobj(m):
        data = [[float(x.real), float(x.imag)] for x in m.ravel()]
    else:
        data = [float(x) for x in m.ravel()]
    return {"rows": rows, "cols": cols, "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the repo-wide JSON matrix object, accepting real or complex data."""
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} != rows*cols {rows * cols}")
    if data and isinstance(data[0], (list, tuple)):
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
        if np.all(flat.imag == 0.0):
            flat = flat.real
    else:
        flat = np.array([float(x) for x in data], dtype=float)
    m = flat.reshape(rows, cols)
    return require_finite(m)
