"""Dense matrix arithmetic shared by every other module.

Matrices are plain numpy arrays: ``float64`` for real values and
``complex128`` for complex ones.  All functions here are pure; nothing is
mutated in place.

The JSON wire format for matrices, used across the whole package, is::

    {"rows": r, "cols": c, "data": [[re, im], ...]}   # row-major

Real matrices may abbreviate ``data`` to bare reals ``[x, ...]``; the parser
accepts both forms.  Every entry must be a JSON number.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import SingularMatrixError

#: Default absolute tolerance for residual certificates on exact fixtures.
DEFAULT_TOL = 1e-10

#: Solves are rejected below this reciprocal condition number.
RCOND_FLOOR = 1e3 * np.finfo(float).eps

_NORM_KINDS = ("spectral", "frobenius")


@lru_cache(maxsize=None)
def exchange(p: int) -> np.ndarray:
    """The p x p exchange matrix (ones on the anti-diagonal), read-only:
    the view ``np.fliplr(np.eye(p))``, built once per size."""
    out = np.fliplr(np.eye(p))
    out.flags.writeable = False
    return out


def anti_diagonal_mean(z: np.ndarray):
    """``np.mean(np.diag(np.fliplr(z)))`` of a square ``z``: the same sum of
    the same entries in the same order, divided by their count, without
    the wrappers."""
    return np.add.reduce(z[::-1].diagonal()[::-1]) / z.shape[0]


def require_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as an ndarray, rejecting NaN/Inf entries."""
    m = np.asarray(m)
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def max_imag(m: np.ndarray) -> float:
    """Largest ``|imaginary part|`` of an entry of ``m``; 0.0 for a real or
    an empty matrix."""
    return float(np.max(np.abs(m.imag))) if np.iscomplexobj(m) and m.size else 0.0


def mat_norm(m: np.ndarray, kind: str = "spectral") -> float:
    """Matrix norm used for residuals and stability ratios:
    ``mat_norms([m], kind)[0]``."""
    return mat_norms([m], kind)[0]


def check_norm_kind(kind: str) -> None:
    """Reject a norm kind other than ``spectral`` and ``frobenius``."""
    if kind not in _NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}")


def mat_norms(ms: list[np.ndarray], kind: str = "spectral") -> list[float]:
    """Norm of each matrix of ``ms``: the one implementation of both norms.

    ``spectral`` is the largest singular value; ``frobenius`` is the
    entrywise 2-norm.  An empty matrix has norm 0, and a matrix with a
    non-finite entry has norm inf, without an SVD, which would not converge.
    One singular-value call serves each group of the other matrices that
    share a shape and a dtype; the gufunc gives each matrix of a stack the
    value a call on it alone gives.
    """
    check_norm_kind(kind)
    ms = [np.atleast_2d(np.asarray(m)) for m in ms]
    out = [0.0 if np.isfinite(m).all() else np.inf for m in ms]
    if kind == "frobenius":
        return [float(np.linalg.norm(m)) if v == 0.0 else v for m, v in zip(ms, out)]
    groups: dict[tuple, list[int]] = {}
    for i, m in enumerate(ms):
        if m.size and out[i] == 0.0:
            groups.setdefault((m.shape, m.dtype), []).append(i)
    for idx in groups.values():
        group = [ms[i] for i in idx]
        stack = group[0][np.newaxis] if len(group) == 1 else np.array(group)
        s = np.linalg.svd(stack, compute_uv=False)
        for i, value in zip(idx, s[:, 0].tolist()):
            out[i] = value
    return out


def gate_norm(m: np.ndarray, limit: float) -> float:
    """Spectral norm of ``m`` for a gate ``norm > limit`` whose value is not kept.

    Every gate decides in the spectral norm, and every gate whose value is
    not reported follows one rule: it may decide on a bound that takes no
    SVD, and when the bound does not settle it, the exact norm decides and
    is the value its error reports.  Here the bound is the Frobenius norm,
    which bounds the spectral norm from above: within ``limit`` it is
    returned and the gate passes either way.  Otherwise returns
    ``mat_norm(m)``.  Gates whose *limit* scales with a norm use
    :func:`_norm_lower_bound` the same way.
    """
    frob = float(np.linalg.norm(m))
    if frob <= limit:
        return frob
    return mat_norm(m)


def _norm_lower_bound(m: np.ndarray) -> float:
    """A lower bound of ``mat_norm(m)`` that takes no SVD: the largest
    column 2-norm."""
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(m, axis=0)))


def norm_and_rcond(m: np.ndarray) -> tuple[float, float]:
    """Spectral norm and reciprocal condition number from one singular-value
    call; the rcond is 0 for a rank-deficient matrix.

    The norm is bit-identical to ``mat_norm(m)``; the SVD is its own because
    the rcond needs the smallest singular value too.
    """
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 0.0, 1.0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0.0, 0.0
    return float(s[0]), float(s[-1] / s[0])


def refined_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of square, numerically nonsingular ``m`` with one Newton
    refinement step.

    The refinement ``V <- V (2I - M V)`` knocks the residual of the computed
    inverse down to the rounding floor, which matters when products built
    from the inverse must satisfy algebraic identities tightly.

    Raises
    ------
    SingularMatrixError
        If the reciprocal condition number falls below :data:`RCOND_FLOOR`.
        The gate decides on the bound ``1 / (||m||_F ||m^-1||_F)`` of the
        rcond first, from the inverse the refinement needs anyway; the SVD
        runs only when the bound is below ``10 * RCOND_FLOOR`` (the margin
        covers the rounding of a poorly conditioned solve) or the solve
        fails, and the error reports the exact rcond.
    """
    m = require_finite(m, "m")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("m must be square")
    eye = np.eye(m.shape[0], dtype=m.dtype)
    try:
        v = np.linalg.solve(m, eye)
        settled = np.linalg.norm(m) * np.linalg.norm(v) <= 0.1 / RCOND_FLOOR
    except np.linalg.LinAlgError:
        v, settled = None, False
    if not settled:
        rc = norm_and_rcond(m)[1]
        if rc < RCOND_FLOOR:
            raise SingularMatrixError(f"matrix is numerically singular (rcond={rc:.3e})")
        if v is None:
            v = np.linalg.solve(m, eye)  # the rcond passed: the solve's error stands
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
    # a huge finite entry may overflow the products; their norms are then inf
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = [a @ t - t @ j, t.conj().T @ h @ t - p]
    tn, sim, cong = mat_norms([t, *residuals], norm)
    if tn == 0.0:
        raise ValueError("t must be nonzero")
    return sim / tn, cong


def require_int(value, name: str, minimum: int | None = None) -> int:
    """Return ``value`` if it is a JSON integer (an ``int`` that is not a
    ``bool``) of at least ``minimum``; otherwise raise ``ValueError`` naming
    the field.  A float or a numeric string is refused, not truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def require_number(value, name: str) -> float:
    """Return ``value`` as a float if it is a JSON number (an ``int`` or a
    ``float`` that is not a ``bool``); otherwise raise ``ValueError`` naming
    the field.  A numeric string or a boolean is refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of range, got {value!r}") from None


def _require_numbers(values: list, name: str) -> list:
    """``values``, if every entry passes :func:`require_number`.  The check
    reads the set of their types, which costs little per entry; only a set
    beyond ``int`` and ``float`` takes the per-entry check, which names the
    first offender."""
    if not set(map(type, values)) <= {int, float}:
        for value in values:
            require_number(value, name)
    return values


def matrix_to_json(m: np.ndarray) -> dict:
    """Encode a matrix as the repo-wide JSON object.

    The data list comes from one array conversion; its entries are the
    Python floats ``float(x.real), float(x.imag)`` (or ``float(x)``) of each
    entry, bit for bit, signed zeros and NaN included.
    """
    m = np.atleast_2d(np.asarray(m))
    rows, cols = m.shape
    if np.iscomplexobj(m):
        data = np.ascontiguousarray(m, dtype=complex).view(float).reshape(-1, 2).tolist()
    else:
        data = np.asarray(m, dtype=float).ravel().tolist()
    return {"rows": rows, "cols": cols, "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the repo-wide JSON matrix object, accepting real or complex data."""
    try:
        rows = require_int(obj["rows"], "rows", 0)
        cols = require_int(obj["cols"], "cols", 0)
        data = obj["data"]
        if len(data) != rows * cols:
            raise ValueError(f"matrix data length {len(data)} != rows*cols {rows * cols}")
        if data and isinstance(data[0], (list, tuple)):
            if set(map(len, data)) != {2}:
                raise ValueError("matrix data must be all [re, im] pairs or all bare reals")
            values = _require_numbers(list(chain.from_iterable(data)), "matrix entry")
            # the bytes of complex(re, im) per pair, from one conversion
            flat = np.fromiter(values, dtype=float, count=len(values)).view(complex)
            if not flat.imag.any():
                flat = flat.real
        else:
            values = _require_numbers(data, "matrix entry")
            flat = np.fromiter(values, dtype=float, count=len(values))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    m = flat.reshape(rows, cols)
    return require_finite(m)
