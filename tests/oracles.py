"""Reference routes the tests compare the package against, and which no CLI command needs.

The sampled uniqueness kernel (``multipliers.uniqueness_nullity`` decides it
exactly), the recovery statements behind the uniqueness of the induced duals,
the dual-family formula, random frames, the per-block embedding of a block system,
the multiplier of one block, and the extreme singular values and eigenvalues
taken by np.linalg, 1 x 1 matrices included.

They build frames the one way the package takes them, from rows: a synthesis
matrix S goes in as ``FiniteFrame(S.T)``, which keeps a C-ordered copy of S.
"""

import contextlib

import numpy as np

import framemult.blockseq as bs
import framemult.frames as fr
import framemult.multipliers as mp
import framemult.numerics as nu
from framemult.numerics import DEFAULT_TOL


class IdentityDoesNotHold(Exception):
    """The inverse identity a recovery statement assumes fails beyond tolerance."""


def random_frame(dim, size, rng):
    """Independent standard complex Gaussian entries, redrawn on a rank drop when size >= dim."""
    for _ in range(100):
        entries = rng.standard_normal((size, dim)) + 1j * rng.standard_normal((size, dim))
        frame = fr.FiniteFrame(entries / np.sqrt(2.0))
        if size < dim or fr.is_frame(frame):
            return frame
    raise RuntimeError("failed to draw a spanning sequence")


def dual_family(frame, h, tol=DEFAULT_TOL):
    """The dual frame of ``frame`` that the d x N perturbation ``h`` selects.

    Syn_tilde + H - (H Ana_Phi) Syn_tilde, the low-rank form of
    Syn_tilde + H (I - Ana_Phi Syn_tilde), evaluated out of place.
    """
    tilde = fr.canonical_dual(frame, tol).synthesis
    return fr.FiniteFrame((tilde + h - (h @ frame.analysis_matrix) @ tilde).T)


def _stacked_nullity(syntheses, recip, tol):
    stacked = np.vstack([syn * recip[None, :] for syn in syntheses])
    sigmas = np.linalg.svd(stacked, compute_uv=False)
    if sigmas.size == 0 or float(sigmas[0]) == 0.0:
        return stacked.shape[1]
    return stacked.shape[1] - int(np.sum(sigmas > tol.rel_eps * sigmas[0]))


def uniqueness_kernel(mult, dual_samples, *, seed, tol=DEFAULT_TOL):
    """Kernel dimension of the inverse-identity constraints of sampled duals.

    Each dual Psi_d constrains the unknown F in Minv = Syn_{Psi_d} diag(1/m) Ana_F;
    the larger nullity of the two sides is returned. The canonical dual comes
    first, then ``dual_samples - 1`` draws, one dual of Psi then one of Phi each.
    """
    if dual_samples < 1:
        raise ValueError("dual_samples must be at least 1")
    mp.invert(mult, tol)
    sides = (mult, mult.adjoint())
    rng = mp._as_rng(seed)
    duals = [[fr.canonical_dual(side.psi, tol).synthesis] for side in sides]
    for _ in range(dual_samples - 1):
        for side, found in zip(sides, duals):
            found.append(fr.random_dual_synthesis(side.psi, rng, tol))
    return max(_stacked_nullity(found, side.symbol.reciprocal().values, tol)
               for found, side in zip(duals, sides))


def recover_pseudo_dual_F(mult, candidate, tol=DEFAULT_TOL):
    """If Minv = Syn_F diag(1/m) Ana_{phi_dagger} holds, whether F reconstructs Psi (it must)."""
    phi_dagger = mp.induced_duals(mult, tol).phi_dagger
    residual = mp._inverse_residual(mult, candidate, phi_dagger.analysis_matrix, tol)
    if residual > tol.rel_eps:
        raise IdentityDoesNotHold(f"inverse identity fails for the candidate (residual {residual:.3e})")
    return fr.is_dual(candidate, mult.psi, tol)


def recover_pseudo_dual_G(mult, candidate, tol=DEFAULT_TOL):
    """If Minv = Syn_{psi_dagger} diag(1/m) Ana_G holds, whether G reconstructs Phi."""
    return recover_pseudo_dual_F(mult.adjoint(), candidate, tol)


def block_multiplier(sys, k):
    """The b x b block sum_n m_n phi_n conj(psi_n)^T of block k.

    Built alone, by the accumulation of ``Multiplier.matrix``, so embedding
    the blocks diagonally reproduces these matrices entrywise.
    """
    phi, psi, m = sys.block(k)
    return mp._termwise_matrices(m, fr.FiniteFrame(phi).synthesis, fr.FiniteFrame(psi).synthesis)


def assemble_blocks(sys, count):
    """The first ``count`` blocks embedded in C^(b*count), block k on coordinates [(k-1)b, kb)."""
    b, length = sys.block_dim, sys.block(1)[2].size
    phi_vectors = np.zeros((length * count, b * count), dtype=np.complex128)
    psi_vectors = np.zeros((length * count, b * count), dtype=np.complex128)
    weights = np.zeros(length * count, dtype=np.complex128)
    for k in range(1, count + 1):
        phi, psi, m = sys.block(k)
        lo = (k - 1) * b
        rows = slice((k - 1) * length, k * length)
        phi_vectors[rows, lo:lo + b] = phi
        psi_vectors[rows, lo:lo + b] = psi
        weights[rows] = m
    return mp.Symbol(weights), fr.FiniteFrame(phi_vectors), fr.FiniteFrame(psi_vectors)


def lapack_ends(values):
    """First and last of np.linalg's values: floats for one matrix, arrays for a stack."""
    if values.ndim == 1:
        return float(values[0]), float(values[-1])
    return values[..., 0], values[..., -1]


# np.linalg looked up at each call, so that a counter put in its place sees the calls
LAPACK_ROUTES = {
    "singular_extremes": lambda a: lapack_ends(np.linalg.svd(a, compute_uv=False)),
    "hermitian_extremes": lambda a: lapack_ends(np.linalg.eigvalsh(a)),
}


@contextlib.contextmanager
def through_lapack():
    """Inside the block the package takes every extreme singular value and eigenvalue from np.linalg.

    The extremes functions of ``numerics`` are replaced wherever a module
    looks them up, so a 1 x 1 matrix goes to LAPACK like any other (a
    non-finite one too, which the package itself never factorizes).
    """
    bindings = [(module, name) for module in (nu, fr, mp, bs) for name in LAPACK_ROUTES
                if hasattr(module, name)]
    saved = [getattr(module, name) for module, name in bindings]
    for module, name in bindings:
        setattr(module, name, LAPACK_ROUTES[name])
    try:
        yield
    finally:
        for (module, name), value in zip(bindings, saved):
            setattr(module, name, value)
