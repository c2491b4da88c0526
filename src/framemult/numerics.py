"""Dense complex linear algebra with an explicit tolerance policy.

All matrix work in the package funnels through here so that invertibility
and residual decisions follow a single rule set. The decision rule: a
tolerance decision compares a dimensionless residual, a ratio of norms,
with rel_eps, and no absolute floor such as ``1 +`` or ``max(., 1)`` is
added to either side. Rescaling the frames or the symbol therefore moves
no decision, up to rounding. In particular:

* residual checks are relative, scaled by operand norms; a norm to
  divide by that is zero (exact or underflowed) or overflowed gives the
  residual +inf, a norm that overflows in a bound leaves it +inf, and
  each of these fails;
* invertibility means sigma_min > sigma_max / cond_max;
* singular values below rel_eps * sigma_max count as zero.

Matrices are plain numpy arrays with dtype complex128. ``frobenius`` is the
norm of every single matrix or vector in ``numerics``, ``frames`` and
``multipliers``: numpy's axis-free ``norm`` without its dispatch.

The functions here decide afresh on every call and cache nothing. The
objects that hold a matrix (``frames.FiniteFrame``, ``multipliers.Multiplier``)
measure its norm once and remember the last tolerance their policy passed
under, so a bundle of checks on one object decides and measures once; a
failure is never remembered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInvertible

DEFAULT_REL_EPS = 1e-9
DEFAULT_COND_MAX = 1e12


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerance and condition-number ceiling.

    rel_eps, in (0, 1), scales every residual comparison; cond_max is the
    largest sigma_max/sigma_min ratio still accepted as invertible.
    """

    rel_eps: float = DEFAULT_REL_EPS
    cond_max: float = DEFAULT_COND_MAX

    def __post_init__(self) -> None:
        if not 0 < self.rel_eps < 1:
            raise ValueError("rel_eps must lie strictly between 0 and 1")
        if not self.cond_max > 1:
            raise ValueError("cond_max must exceed 1")


DEFAULT_TOL = ToleranceConfig()


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of ``a``, or of each matrix in a stack (..., m, n)."""
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def try_invert(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Inverse of ``a`` under the condition-number policy of check_invertible.

    ``a`` may be a stack (..., n, n) of square matrices; all of them are
    inverted, or the first one that fails the policy raises.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("try_invert requires square matrices")
    check_invertible(np.linalg.svd(m, compute_uv=False), tol)
    return np.linalg.inv(m)


def check_invertible(sigmas: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """The condition-number policy, applied to descending singular values.

    Raises NotInvertible (with sigma_min and sigma_max attached) as soon
    as sigma_min <= sigma_max / cond_max, which covers rank deficiency and
    numerically hopeless conditioning alike. ``sigmas`` may also be a
    stack (..., n) of such rows, one per matrix; then the first failing
    row raises.
    """
    if np.ndim(sigmas) > 1:
        rows = np.reshape(sigmas, (-1, np.shape(sigmas)[-1]))
        failing = np.flatnonzero(_fails_policy(rows[:, 0], rows[:, -1], tol))
        if failing.size == 0:
            return
        sigmas = rows[failing[0]]
    sigma_max = float(sigmas[0])
    sigma_min = float(sigmas[-1])
    if _fails_policy(sigma_max, sigma_min, tol):
        raise NotInvertible(
            f"sigma_min={sigma_min:.3e} <= sigma_max/cond_max={sigma_max / tol.cond_max:.3e}",
            sigma_min=sigma_min,
            sigma_max=sigma_max,
        )


def _fails_policy(sigma_max, sigma_min, tol: ToleranceConfig):
    """The invertibility test itself, for floats or for arrays of them; NaN fails."""
    return np.logical_not(sigma_min > sigma_max / tol.cond_max)


def condition_number(a: np.ndarray) -> float:
    """sigma_max / sigma_min; +inf when the smallest singular value is zero."""
    sigmas = np.linalg.svd(np.asarray(a, dtype=np.complex128), compute_uv=False)
    return condition_from_sigmas(sigmas)


def condition_from_sigmas(sigmas: np.ndarray) -> float:
    """condition_number from already computed descending singular values."""
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
