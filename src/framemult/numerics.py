"""Dense complex linear algebra with an explicit tolerance policy.

All matrix work in the package funnels through here, and ``ToleranceConfig``
is the only code that turns rel_eps and cond_max into a decision. Its three
rules compare dimensionless ratios with no absolute floor such as ``1 +``,
so rescaling the frames or the symbol moves no decision, up to rounding:

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
norm of every single matrix or vector in ``numerics``, ``frames`` and
``multipliers``: numpy's axis-free ``norm`` without its dispatch.
``singular_values`` and ``hermitian_eigenvalues`` take every svd and
eigvalsh of the package. A 1 x 1 matrix [a] needs no factorization: its
singular value is |a|, its eigenvalue the real part of a, so ``invertible``
decides it as 0 < |a| < inf (the scalar blocks of every packaged example;
a subnormal |a| can still fail the ceiling by rounding).
Inverses and solves stay on LAPACK even at 1 x 1, whose reciprocal differs
from 1/a in the last bit.

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


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of ``a``, or of each matrix in a stack (..., m, n)."""
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def try_invert(a: np.ndarray, size: int, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Inverse of ``a`` under ``check_invertible`` at ``size``.

    ``a`` may be a stack (..., n, n) of square matrices; all of them are
    inverted, or the first one that fails the rule raises.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("try_invert requires square matrices")
    sigmas = singular_values(m)
    check_invertible(sigmas[..., 0], sigmas[..., -1], size, tol)
    return inverse(m)


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


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, or of each matrix in a stack (..., m, n), in descending order.

    Those of np.linalg.svd, except that a 1 x 1 matrix [a] takes |a| with no
    LAPACK call. |a| may differ from LAPACK's value in the last bit, and
    sigma_max = sigma_min for one entry: every decision on the pair is the
    same, and their ratio, the condition number, is 1 either way.
    ``np.linalg.svd`` is looked up at each call, so that a wrapper put in
    its place sees every factorization.
    """
    if a.shape[-2:] == (1, 1):
        return np.abs(a[..., 0])
    return np.linalg.svd(a, compute_uv=False)


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of each matrix in a stack, in ascending order.

    Those of np.linalg.eigvalsh, which reads the lower triangle and the real
    part of the diagonal; for a 1 x 1 matrix that real part is the
    eigenvalue, bit for bit, taken with no LAPACK call. ``np.linalg.eigvalsh``
    is looked up at each call, as in ``singular_values``.
    """
    if a.shape[-2:] == (1, 1):
        return np.array(a[..., 0].real)
    return np.linalg.eigvalsh(a)


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
    return condition_from_sigmas(singular_values(np.asarray(a, dtype=np.complex128)))


def condition_from_sigmas(sigmas) -> float:
    """condition_number from descending singular values, or the pair (sigma_max, sigma_min)."""
    if float(sigmas[-1]) == 0.0:
        return float("inf")
    return float(sigmas[0] / sigmas[-1])


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm of a float64 or complex128 array, bit for bit ``np.linalg.norm(a)``.

    The arithmetic of numpy's axis-free path without its dispatch: the
    entries in memory order (``ravel('K')``), then re.re + im.im for
    complex input, then the square root. Like that path it squares the
    entries, so it overflows beyond about 1e154 and underflows below about
    1e-154.
    """
    x = np.asarray(a).ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def relative_residual(actual: np.ndarray, reference: np.ndarray,
                      reference_norm: float | None = None) -> float:
    """Frobenius-norm residual ||actual - reference|| / ||reference||, by ``relative_to``.

    ``reference_norm``, when given, is ``frobenius(reference)`` measured
    before and is used as it is.
    """
    ref = np.asarray(reference, dtype=np.complex128)
    diff = frobenius(np.asarray(actual, dtype=np.complex128) - ref)
    return relative_to(diff, frobenius(ref) if reference_norm is None else reference_norm)


def relative_to(value: float, scale: float) -> float:
    """value / scale, or +inf unless the scale is finite and positive.

    A scale of 0 or +inf, a norm that under- or overflowed, measures
    nothing, so the quotient fails every tolerance.
    """
    if not 0.0 < scale < math.inf:
        return math.inf
    return value / scale
