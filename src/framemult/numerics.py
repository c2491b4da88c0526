"""Dense complex linear algebra with an explicit tolerance policy.

All matrix work in the package funnels through here so that invertibility
and residual decisions follow a single rule set:

* residual checks are relative, scaled by operand norms;
* invertibility means sigma_min > sigma_max / cond_max;
* singular values below rel_eps * sigma_max count as zero.

Matrices are plain numpy arrays with dtype complex128. ``as_matrix``
is the validating constructor used at module boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotInvertible

DEFAULT_REL_EPS = 1e-9
DEFAULT_COND_MAX = 1e12


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerance and condition-number ceiling.

    rel_eps scales every residual comparison; cond_max is the largest
    sigma_max/sigma_min ratio still accepted as invertible.
    """

    rel_eps: float = DEFAULT_REL_EPS
    cond_max: float = DEFAULT_COND_MAX

    def __post_init__(self) -> None:
        if not self.rel_eps > 0:
            raise ValueError("rel_eps must be positive")
        if not self.cond_max > 1:
            raise ValueError("cond_max must exceed 1")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a read-only 2-D complex128 array, rejecting NaN/Inf."""
    m = np.array(a, dtype=np.complex128, copy=True)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    m.setflags(write=False)
    return m


def as_vector(v, length: int | None = None) -> np.ndarray:
    """Coerce ``v`` to a 1-D complex128 array, optionally checking its length."""
    arr = np.array(v, dtype=np.complex128, copy=True).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    if length is not None and arr.size != length:
        raise ValueError(f"expected length {length}, got {arr.size}")
    return arr


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of ``a``."""
    return np.conj(np.asarray(a)).T


def pseudoinverse(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse.

    Singular values below rel_eps * sigma_max are treated as exact zeros,
    so a zero matrix maps to the zero matrix of transposed shape.
    """
    return np.linalg.pinv(np.asarray(a, dtype=np.complex128), rcond=tol.rel_eps)


def spectrum_hermitian(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    Raises NotHermitian when ||A - A*|| exceeds rel_eps * ||A||.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("spectrum_hermitian requires a square matrix")
    check_hermitian(m, tol)
    return np.linalg.eigvalsh(m)


def check_hermitian(m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Raise NotHermitian when ||M - M*|| exceeds rel_eps * ||M||."""
    scale = np.linalg.norm(m)
    deviation = np.linalg.norm(m - adjoint(m))
    if deviation > tol.rel_eps * scale:
        raise NotHermitian(
            f"matrix deviates from Hermitian by {deviation:.3e} (scale {scale:.3e})"
        )


def try_invert(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Inverse of ``a`` under the condition-number policy of check_invertible."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("try_invert requires a square matrix")
    check_invertible(np.linalg.svd(m, compute_uv=False), tol)
    return np.linalg.inv(m)


def check_invertible(sigmas: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """The condition-number policy, applied to descending singular values.

    Raises NotInvertible (with sigma_min and sigma_max attached) as soon
    as sigma_min <= sigma_max / cond_max, which covers rank deficiency and
    numerically hopeless conditioning alike.
    """
    sigma_max = float(sigmas[0])
    sigma_min = float(sigmas[-1])
    if sigma_max == 0.0 or sigma_min <= sigma_max / tol.cond_max:
        raise NotInvertible(
            f"sigma_min={sigma_min:.3e} <= sigma_max/cond_max={sigma_max / tol.cond_max:.3e}",
            sigma_min=sigma_min,
            sigma_max=sigma_max,
        )


def condition_number(a: np.ndarray) -> float:
    """sigma_max / sigma_min; +inf when the smallest singular value is zero."""
    sigmas = np.linalg.svd(np.asarray(a, dtype=np.complex128), compute_uv=False)
    return condition_from_sigmas(sigmas)


def condition_from_sigmas(sigmas: np.ndarray) -> float:
    """condition_number from already computed descending singular values."""
    if float(sigmas[-1]) == 0.0:
        return float("inf")
    return float(sigmas[0] / sigmas[-1])


def relative_residual(actual: np.ndarray, reference: np.ndarray) -> float:
    """Frobenius-norm residual ||actual - reference|| / ||reference||.

    A zero reference falls back to the absolute residual so the value
    stays informative instead of dividing by zero.
    """
    ref = np.asarray(reference, dtype=np.complex128)
    diff = float(np.linalg.norm(np.asarray(actual, dtype=np.complex128) - ref))
    scale = float(np.linalg.norm(ref))
    if scale == 0.0:
        return diff
    return diff / scale
