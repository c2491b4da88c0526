"""Dense complex linear algebra with an explicit tolerance policy.

Every LAPACK call of the package (svd, eigvalsh, inv) is made here but one,
the ``np.linalg.solve`` of ``frames.canonical_duals``. ``ToleranceConfig``
turns rel_eps and cond_max into a decision everywhere but one place: the
CLI's ``--verify-all`` bundle passes rel_eps, or rel_eps times the
condition number, to ``report.finding``, which decides
``residual <= tolerance``. The three rules compare dimensionless ratios
with no absolute floor such as ``1 +``, so rescaling the frames or the
symbol moves no decision, up to rounding:

* ``spans(lower, upper, size)``: lower > rel_eps * upper;
* ``invertible(sigma_max, sigma_min, size)``: sigma_min > sigma_max / cond_max;
* ``within(residual, scale)``: residual <= rel_eps * scale < inf.

Each decides floats in Python arithmetic or stacked arrays elementwise, and
fails on NaN and on an overflowed upper value or scale. Under ``spans`` and
``invertible`` lies the rank floor size * eps of LAPACK and numpy's
``matrix_rank``, size = max(d, N) of the factors: a lower value at or below
that fraction of the upper one is rounding noise at any tolerance. Up to
size 4503 it lies below 1/DEFAULT_COND_MAX and DEFAULT_REL_EPS, so no
default decision meets it; ``--cond-max inf`` means no user ceiling, and
the floor still applies. A residual by a norm that is zero or overflowed
is +inf (``relative_to``) and fails ``within``.

Matrices are plain numpy arrays with dtype complex128. ``frobenius`` is the
norm of every matrix, vector or stack of matrices in the package.

A few matrices of equal shape, such as the two sides of a multiplier, are
stacked (``stacked``) so that each step takes one numpy or LAPACK call for
all of them. A slice of a stacked matmul, solve, eigvalsh or svd is the
per-matrix result bit for bit, as long as each slice has the memory layout
the matrix alone would have; the norms of such a stack are taken slice by
slice with the 2-D ``frobenius``, whose sums differ from a stacked norm's.

A decision reads the two ends of a spectrum: ``singular_extremes`` gives
(sigma_max, sigma_min) and ``hermitian_extremes`` (lambda_min, lambda_max),
floats for one matrix and arrays for a stack (..., m, n). They take every
svd and eigvalsh of the package and hold its two rules, in this order.
First, a matrix with an entry that is not finite gives (NaN, NaN), which
fails every rule above, and is not factorized: [inf] gives NaN, not inf.
Then a 1 x 1 matrix [a] is not factorized either: its singular value is
|a|, its eigenvalue the real part of a, so ``invertible`` decides it as
0 < |a| < inf (the scalar blocks of every packaged example; a subnormal |a|
can still fail the ceiling by rounding). Inverses and solves stay on LAPACK
even at 1 x 1, whose reciprocal differs from 1/a in the last bit.

Objects cache tolerance-free numbers; every tolerance test is decided at
each call. A ``frames.FiniteFrame`` or ``multipliers.Multiplier`` measures
its norm, its frame bounds or its extreme singular values once, and each
decision compares those floats with the tolerance it is given: a bundle of
checks on one object factorizes it once and remembers no decision.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NotInvertible

DEFAULT_REL_EPS = 1e-9
DEFAULT_COND_MAX = 1e12
EPS = 2.0 ** -52  # float64 machine epsilon, the unit of the rank floor size * EPS


class _Tolerances(NamedTuple):
    rel_eps: float = DEFAULT_REL_EPS
    cond_max: float = DEFAULT_COND_MAX


class ToleranceConfig(_Tolerances):
    """Relative tolerance and condition-number ceiling, and the three rules that use them.

    rel_eps, in (0, 1), scales every residual comparison; cond_max is the
    largest sigma_max/sigma_min ratio still accepted as invertible. An
    immutable pair, validated when it is made.
    """

    __slots__ = ()

    def __new__(cls, rel_eps: float = DEFAULT_REL_EPS, cond_max: float = DEFAULT_COND_MAX):
        if not 0 < rel_eps < 1:
            raise ValueError("rel_eps must lie strictly between 0 and 1")
        if not cond_max > 1:
            raise ValueError("cond_max must exceed 1")
        return super().__new__(cls, rel_eps, cond_max)

    def spans(self, lower, upper, size: int):
        """lower > rel_eps * upper, and above the rank floor of ``size``."""
        return (lower > self.rel_eps * upper) & (lower > size * EPS * upper)

    def invertible(self, sigma_max, sigma_min, size: int):
        """sigma_min > sigma_max / cond_max, and above the rank floor of ``size``.

        At cond_max = inf the ceiling sigma_max / inf is 0 for a finite
        sigma_max >= 0, which the floor already exceeds, and NaN (an inf / inf
        numpy warns about) for an infinite or NaN one, where the floor fails
        too: the floor decides alone.
        """
        floor = sigma_min > size * EPS * sigma_max
        if self.cond_max == math.inf:
            return floor
        return (sigma_min > sigma_max / self.cond_max) & floor

    def within(self, residual, scale):
        """residual <= rel_eps * scale, a bound that must be finite."""
        bound = self.rel_eps * scale
        return (residual <= bound) & (bound < math.inf)


DEFAULT_TOL = ToleranceConfig()


def stacked(arrays) -> np.ndarray:
    """The (K, ...) stack of K arrays of one shape: a view of the array for K = 1, else a C-ordered copy."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of ``a``, or of each matrix in a stack (..., m, n)."""
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def check_invertible(sigma_max, sigma_min, size: int, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Raise NotInvertible unless ``tol.invertible`` holds, with the values attached.

    The extreme singular values are floats for one matrix or arrays for a
    stack; for a stack the first failing matrix is reported.
    """
    ok = tol.invertible(sigma_max, sigma_min, size)
    if isinstance(ok, np.ndarray):
        failing = np.flatnonzero(~ok)
        if failing.size == 0:
            return
        # Python floats, whose inf / inf below is NaN without a numpy warning
        sigma_max, sigma_min = float(sigma_max.flat[failing[0]]), float(sigma_min.flat[failing[0]])
    elif ok:
        return
    ceiling = sigma_max / tol.cond_max
    if sigma_min > ceiling:  # only the rank floor failed
        message = f"sigma_min={sigma_min:.3e} <= sigma_max*{size * EPS:.3e}, the rank floor"
    else:
        message = f"sigma_min={sigma_min:.3e} <= sigma_max/cond_max={ceiling:.3e}"
    raise NotInvertible(message, sigma_min=sigma_min, sigma_max=sigma_max)


def singular_extremes(a: np.ndarray):
    """(sigma_max, sigma_min): the ends of np.linalg.svd's values, under the two rules.

    The |a| of a 1 x 1 matrix [a] may differ from LAPACK's value in the
    last bit: every decision on the pair is the same.
    """
    return _extremes(a, np.abs, lambda m: np.linalg.svd(m, compute_uv=False))


def hermitian_extremes(a: np.ndarray):
    """(lambda_min, lambda_max): the ends of np.linalg.eigvalsh's values, under the two rules.

    eigvalsh reads the lower triangle and the real part of the diagonal, so
    the real part of a 1 x 1 matrix is its eigenvalue bit for bit.
    """
    return _extremes(a, np.real, lambda m: np.linalg.eigvalsh(m))


def _extremes(a: np.ndarray, one_by_one, spectrum):
    """First and last of ``spectrum(a)``, floats for one matrix, by the two rules.

    Only the finite matrices of a stack are factorized, as one stack. A
    1 x 1 matrix [a] gives ``one_by_one(a)`` twice. ``spectrum`` looks
    np.linalg up at each call, so that a wrapper put in its place sees it.
    """
    if not np.isfinite(a).all():
        if a.ndim == 2:
            return math.nan, math.nan
        finite = np.isfinite(a).all(axis=(-2, -1))
        first, last = np.full(finite.shape, math.nan), np.full(finite.shape, math.nan)
        if finite.any():
            first[finite], last[finite] = _extremes(a[finite], one_by_one, spectrum)
        return first, last
    values = one_by_one(a[..., 0]) if a.shape[-2:] == (1, 1) else spectrum(a)
    if a.ndim == 2:
        return float(values[0]), float(values[-1])
    return values[..., 0], values[..., -1]


def inverse(a: np.ndarray, sigma_max: float = 0.0, sigma_min: float = 0.0) -> np.ndarray:
    """np.linalg.inv of a matrix or stack that passed ``check_invertible``.

    Should LU still meet an exactly zero pivot, NotInvertible is raised,
    with the extreme singular values attached when the caller gives them.
    """
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NotInvertible(f"singular to working precision: {exc}",
                            sigma_min=sigma_min, sigma_max=sigma_max) from None


def condition_number(a: np.ndarray) -> float:
    """sigma_max / sigma_min; +inf when the smallest singular value is zero."""
    return condition_from_sigmas(*singular_extremes(np.asarray(a, dtype=np.complex128)))


def condition_from_sigmas(sigma_max: float, sigma_min: float) -> float:
    """condition_number from the extreme singular values."""
    return math.inf if sigma_min == 0.0 else sigma_max / sigma_min


def frobenius(a: np.ndarray):
    """Frobenius norm of a complex128 matrix or vector, bit for bit ``np.linalg.norm(a)``.

    The arithmetic of numpy's axis-free path without its dispatch: the
    entries in memory order (``ravel('K')``), then re.re + im.im, then the
    square root; a float64 array gets the same bits, its im.im being 0. Like
    that path it squares the entries, so it overflows beyond about 1e154 and
    underflows below about 1e-154. A stack (..., m, n) gives
    ``np.linalg.norm(a, axis=(-2, -1))``.
    """
    if a.ndim > 2:
        return np.linalg.norm(a, axis=(-2, -1))
    x = a.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def relative_to(value: float, scale: float) -> float:
    """value / scale, or +inf unless the scale is finite and positive.

    A scale of 0 or +inf, a norm that under- or overflowed, measures
    nothing, so the quotient fails every tolerance.
    """
    if not 0.0 < scale < math.inf:
        return math.inf
    return value / scale
