"""Shared fixtures: the worked-example matrices and exact-arithmetic oracles.

The oracles here are deliberately independent of the library code paths
they check: exact rational linear algebra built on ``fractions.Fraction``,
a characteristic polynomial via the Faddeev-LeVerrier recursion, and plain
bisection for its roots.
"""

from fractions import Fraction

import numpy as np
import pytest

from indefcanon import BlockSpec, JordanSpec
from indefcanon.linalg import mat_norm
from indefcanon.structure import CS_TOL, conjugate_symmetry_fit

# ---------------------------------------------------------------------------
# worked-example fixtures (4x4 pair with eigenvalues -2i, 2i)


@pytest.fixture(scope="session")
def ex_a():
    return np.array([[0, 0, 0, -16],
                     [1, 0, 0, 0],
                     [0, 1, 0, -8],
                     [0, 0, 1, 0]], dtype=float)


@pytest.fixture(scope="session")
def ex_h():
    return np.array([[0, 1, 0, -12],
                     [1, 0, -12, 0],
                     [0, -12, 0, 80],
                     [-12, 0, 80, 0]], dtype=float) / 128.0


@pytest.fixture(scope="session")
def ex_j():
    return np.array([[-2j, 1, 0, 0],
                     [0, -2j, 0, 0],
                     [0, 0, 2j, 1],
                     [0, 0, 0, 2j]], dtype=complex)


@pytest.fixture(scope="session")
def ex_p():
    return np.fliplr(np.eye(4))


@pytest.fixture(scope="session")
def ex_t():
    return np.array([[8j, 4, -8j, 12],
                     [-4, 4j, -4, -8j],
                     [2j, -1, -2j, 1],
                     [-1, 0, -1, -1j]], dtype=complex)


@pytest.fixture(scope="session")
def ex_l():
    return np.array([[8j, 4, -8j, 4],
                     [-4, 4j, -4, -4j],
                     [2j, -1, -2j, -1],
                     [-1, 0, -1, 0]], dtype=complex)


@pytest.fixture(scope="session")
def ex_l_gram():
    return np.array([[0, 0, 0, 1],
                     [0, 0, 1, -1j],
                     [0, 1, 0, 0],
                     [1, 1j, 0, 0]], dtype=complex)


@pytest.fixture(scope="session")
def ex_m():
    return np.array([[16j, 16, -16j, 16],
                     [-8, 12j, -8, -12j],
                     [4j, 0, -4j, 0],
                     [-2, 1j, -2, -1j]], dtype=complex) / 2.0


@pytest.fixture(scope="session")
def ex_jr():
    return np.array([[0, -2, 1, 0],
                     [2, 0, 0, 1],
                     [0, 0, 0, -2],
                     [0, 0, 2, 0]], dtype=float)


@pytest.fixture(scope="session")
def ex_r():
    return np.array([[-8, 8, 8, 8],
                     [-4, -4, -6, 6],
                     [-2, 2, 0, 0],
                     [-1, -1, -0.5, 0.5]], dtype=float)


@pytest.fixture(scope="session")
def ex_spec():
    return JordanSpec((BlockSpec("pair", -2j, 2),))


def cs_gamma(n, spec):
    """Fitted conjugate-symmetry scalar of ``n``, asserting that its residual
    is within ``CS_TOL * max(1, ||n||)``."""
    gamma, res, _ = conjugate_symmetry_fit(n, spec)
    assert res <= CS_TOL * max(1.0, mat_norm(n)), res
    return gamma


# ---------------------------------------------------------------------------
# exact rational oracle toolbox


def frac_matrix(rows):
    """Matrix of Fractions from nested lists of ints/Fractions."""
    return [[Fraction(x) for x in row] for row in rows]


def frac_matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
             for j in range(m)] for i in range(n)]


def frac_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def frac_inv(a):
    """Gauss-Jordan inverse in exact rational arithmetic."""
    n = len(a)
    aug = [row[:] + ident_row[:] for row, ident_row in zip(frac_matrix(a), frac_identity(n))]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def frac_transpose(a):
    return [list(col) for col in zip(*a)]


def frac_charpoly(m):
    """Coefficients of det(x I - M), highest power first (Faddeev-LeVerrier)."""
    n = len(m)
    coeffs = [Fraction(1)]
    am = [row[:] for row in frac_matrix(m)]
    mm = frac_identity(n)
    for k in range(1, n + 1):
        mm = frac_matmul(am, mm)
        c = -sum((mm[i][i] for i in range(n)), Fraction(0)) / k
        coeffs.append(c)
        for i in range(n):
            mm[i][i] += c
    return coeffs


def poly_eval(coeffs, x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + float(c)
    return acc


def poly_derivative(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _poly_mod(a, b):
    """Remainder of exact polynomial division (coefficients Fractions)."""
    a = a[:]
    while len(a) >= len(b) and any(x != 0 for x in a):
        if a[0] == 0:
            a.pop(0)
            continue
        f = a[0] / b[0]
        for i in range(len(b)):
            a[i] -= f * b[i]
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return a


def poly_squarefree(coeffs):
    """Square-free part p / gcd(p, p'), exact; multiple roots become simple."""
    a, b = coeffs[:], poly_derivative(coeffs)
    while b:
        a, b = b, _poly_mod(a, b)
    gcd = [c / a[0] for c in a]
    if len(gcd) == 1:
        return coeffs[:]
    # exact division of coeffs by gcd
    quot = []
    rem = coeffs[:]
    while len(rem) >= len(gcd):
        f = rem[0] / gcd[0]
        quot.append(f)
        for i in range(len(gcd)):
            rem[i] -= f * gcd[i]
        rem.pop(0)
    assert all(x == 0 for x in rem)
    return quot


def bisect_root(coeffs, lo: float, hi: float, iters: int = 200) -> float:
    """Bisection for a sign change of the polynomial on [lo, hi]."""
    flo = poly_eval(coeffs, lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = poly_eval(coeffs, mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_largest_root(coeffs, samples: int = 4096) -> float:
    """Largest real root via square-free reduction, a Cauchy bound, and a
    descending scan for the bracketing sign change."""
    sf = poly_squarefree(coeffs)
    lead = sf[0]
    sf = [c / lead for c in sf]
    bound = 1.0 + max(abs(float(c)) for c in sf[1:])
    hi = bound
    fhi = poly_eval(sf, hi)
    for k in range(1, samples + 1):
        x = bound * (1.0 - k / samples)
        fx = poly_eval(sf, x)
        if fx == 0.0:
            return x
        if (fx < 0) != (fhi < 0):
            return bisect_root(sf, x, hi)
        hi, fhi = x, fx
    raise AssertionError("no sign change found below the root bound")


#: Largest entrywise gap of ``toeplitz_inv_sqrt`` on a Fraction input
#: rounded to floats from the exact series, relative to the largest exact
#: entry (or 1): 100x 1.93e-13, the worst of 50 000 examples drawn as the
#: two tests that use it draw theirs, rounded up.
TOEPLITZ_RTOL = 2e-11


def frac_inv_sqrt_coefficients(count):
    """The first ``count`` binomial series coefficients of
    ``(1 + x)^(-1/2)``, exact: 1, -1/2, 3/8, ..., each the one before times
    ``-(2k - 1) / (2k)``."""
    coeffs = [Fraction(1)]
    for k in range(1, count):
        coeffs.append(coeffs[-1] * Fraction(-(2 * k - 1), 2 * k))
    return coeffs


def frac_toeplitz_inv_sqrt(g3):
    """Exact ``F`` with ``F F g3 = I`` for a unit lower-triangular ``g3`` of
    Fractions: the binomial series of ``(1 + E)^(-1/2)``, ``E = g3 - I``,
    truncated by nilpotency."""
    n = len(g3)
    assert all(g3[i][i] == 1 and not any(g3[i][i + 1:]) for i in range(n))
    e = [[g3[i][j] if j < i else Fraction(0) for j in range(n)] for i in range(n)]
    f = ek = frac_identity(n)
    for c in frac_inv_sqrt_coefficients(n)[1:]:
        ek = frac_matmul(ek, e)
        f = [[x + c * y for x, y in zip(fr, er)] for fr, er in zip(f, ek)]
    return f


def frac_gap(got, exact):
    """Largest entrywise gap of the float matrix ``got`` from the Fraction
    matrix ``exact``, taken exactly, relative to ``max(1, max |exact|)``."""
    scale = max([Fraction(1)] + [abs(x) for row in exact for x in row])
    gap = max(abs(Fraction(g) - x) for grow, row in zip(got.tolist(), exact)
              for g, x in zip(grow, row))
    return float(gap / scale)


# ---------------------------------------------------------------------------
# exact complex-rational rank (entries are pairs of Fractions)


def crat(re, im=0):
    return (Fraction(re), Fraction(im))


def _c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _c_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _c_div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def crat_matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[crat(0) for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = crat(0)
            for t in range(k):
                acc = _c_add(acc, _c_mul(a[i][t], b[t][j]))
            out[i][j] = acc
    return out


def crat_rank(m):
    """Rank over the Gaussian rationals by exact elimination."""
    mat = [row[:] for row in m]
    rows, cols = len(mat), len(mat[0])
    rank, prow = 0, 0
    for col in range(cols):
        piv = next((r for r in range(prow, rows)
                    if mat[r][col] != (Fraction(0), Fraction(0))), None)
        if piv is None:
            continue
        mat[prow], mat[piv] = mat[piv], mat[prow]
        pv = mat[prow][col]
        for r in range(rows):
            if r != prow and mat[r][col] != (Fraction(0), Fraction(0)):
                f = _c_div(mat[r][col], pv)
                mat[r] = [_c_sub(x, _c_mul(f, y)) for x, y in zip(mat[r], mat[prow])]
        rank += 1
        prow += 1
        if prow == rows:
            break
    return rank


def crat_from_int_matrix(m, shift_re=0, shift_im=0):
    """Complex-rational matrix from an integer matrix plus a diagonal shift."""
    n = len(m)
    out = [[crat(m[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        out[i][i] = _c_add(out[i][i], crat(shift_re, shift_im))
    return out


# ---------------------------------------------------------------------------
# randomized spec generation shared by property tests


def random_spec(rng: np.random.Generator, max_total: int = 12,
                min_sep: float = 0.6) -> JordanSpec:
    """Random mixed spec with well-separated nonzero eigenvalues."""
    blocks = []
    total = 0
    used: list[complex] = []

    def far_enough(lam: complex) -> bool:
        cands = [lam, lam.conjugate()]
        for u in used:
            for c in cands:
                if abs(c - u) < min_sep:
                    return False
        return abs(lam) > 0.3

    while total < 2 or (total < max_total and rng.uniform() < 0.7):
        pair = bool(rng.uniform() < 0.5)
        size = int(rng.integers(1, 3))
        width = 2 * size if pair else size
        if total + width > max_total:
            break
        for _ in range(200):
            if pair:
                lam = complex(rng.uniform(-2.5, 2.5), rng.choice([-1, 1]) * rng.uniform(0.4, 2.5))
            else:
                lam = complex(rng.choice([-1, 1]) * rng.uniform(0.4, 3.0), 0.0)
            if far_enough(lam):
                break
        else:
            break
        used.append(lam)
        if pair:
            used.append(lam.conjugate())
            blocks.append(BlockSpec("pair", lam, size))
        else:
            blocks.append(BlockSpec("real", lam, size, int(rng.choice([-1, 1]))))
        total += width
    if not blocks:
        blocks = [BlockSpec("real", 1.0, 2, 1)]
    return JordanSpec(tuple(blocks))


# ---------------------------------------------------------------------------
# stand-in for the stage after a gate under test


class Reached(Exception):
    """Raised by :func:`raise_reached`, standing in for the stage after the
    gate under test, so that passing the gate is observable."""


def raise_reached(*args, **kwargs):
    raise Reached
