"""Reference routes the tests compare the package against, and which no CLI command needs.

The sampled uniqueness kernel (``multipliers.uniqueness_nullity`` decides it
exactly), the recovery statements behind the uniqueness of the induced duals,
the dual-family formula, random duals formed explicitly (the sampler reads
them off the all-duals certificate), random frames, the column loop of the
termwise matrix build, the per-block embedding of a block system,
the multiplier of one block, the extreme singular values and eigenvalues
taken by np.linalg, 1 x 1 matrices included, and the weighted-canonical
shortcut decided on the canonical dual of (m_n phi_n) itself. Also the inputs
that several test modules draw: the C5 fuzz families, the adjoint-swap family
and the benchmark's verify-small draws.

They build frames the one way the package takes them, from rows: a synthesis
matrix S goes in as ``FiniteFrame(S.T)``, which keeps a C-ordered copy of S.
"""

import contextlib
import pathlib
import sys

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


def semi_normalized_symbol(rng, size):
    """Moduli uniform in [0.5, 2], phases uniform."""
    moduli = rng.uniform(0.5, 2.0, size)
    phases = np.exp(2j * np.pi * rng.uniform(size=size))
    return mp.Symbol(moduli * phases)


def fuzz_instance(rng, family):
    """One multiplier from a C5 fuzz family, redrawn until well conditioned.

    Families: 0 fully random, 1 constructed equivalence psi ~ m.phi,
    2 constant symbol, 3 constant modulus, 4 Riesz pair. The conditioning
    cap keeps boolean criteria away from their tolerance thresholds, so a
    contradiction means a genuine logic defect rather than roundoff.
    """
    while True:
        dim = int(rng.integers(1, 5))
        size = dim if family == 4 else int(rng.integers(dim, 7))
        phi = random_frame(dim, size, rng)
        if family == 2:
            head = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
            symbol = mp.Symbol(np.full(size, head))
        elif family == 3:
            modulus = rng.uniform(0.5, 2.0)
            symbol = mp.Symbol(modulus * np.exp(2j * np.pi * rng.uniform(size=size)))
        else:
            symbol = semi_normalized_symbol(rng, size)
        if family == 1:
            weighted = mp.weighted_frame(phi, symbol)
            lift = np.eye(dim) + 0.3 * (rng.standard_normal((dim, dim))
                                        + 1j * rng.standard_normal((dim, dim)))
            if np.linalg.cond(lift) > 1e3:
                continue
            psi = fr.FiniteFrame((lift @ weighted.synthesis).T)
        else:
            psi = random_frame(dim, size, rng)
        mult = mp.build(symbol, phi, psi)
        if np.linalg.cond(mult.matrix) <= 1e6:
            return mult


def adjoint_family(seed):
    """(m, Phi, Psi) with psi_n = L(m_n phi_n): d in 1..4, N in d..3d + 1, moduli over e^-8..e^8.

    Phi and Psi are N x d arrays of rows, the vectors.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    size = int(rng.integers(dim, 3 * dim + 2))
    gaussian = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    phi, lift = gaussian(size, dim), gaussian(dim, dim)
    m = np.exp(rng.uniform(-8.0, 8.0, size)) * np.exp(2j * np.pi * rng.uniform(size=size))
    return m, phi, (m[:, None] * phi) @ lift.T


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def verify_small_draws(seed, count):
    """The first ``count`` draws (phi, psi, m, s, t, dual seed) of perfbench's verify-small stream.

    ``perfbench/worker.small_instance`` is imported, never changed, and no
    bytecode is written under ``perfbench/``.
    """
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import worker
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return [worker.small_instance(seed, index) for index in range(count)]


def dual_family(frame, h, tol=DEFAULT_TOL):
    """The dual frame of ``frame`` that the d x N perturbation ``h`` selects.

    Syn_tilde + H - (H Ana_Phi) Syn_tilde, the low-rank form of
    Syn_tilde + H (I - Ana_Phi Syn_tilde), evaluated out of place.
    """
    tilde = fr.canonical_dual(frame, tol).synthesis
    return fr.FiniteFrame((tilde + h - (h @ frame.analysis_matrix) @ tilde).T)


def random_dual_synthesis(frame, rng, tol=DEFAULT_TOL):
    """Synthesis matrix of a random dual of ``frame``, formed explicitly.

    The perturbation is the sampler's: H = ||tilde|| G / ||G||, with G drawn
    by the generator calls of ``multipliers.sampled_dual_residuals`` (2dN
    standard normals, row by row, the real part of each entry before its
    imaginary part). The dual is formed by ``dual_family``, the route the
    sampler's affine defect replaces.
    """
    normals = rng.standard_normal((frame.dim, frame.size, 2))
    g = normals[..., 0] + 1j * normals[..., 1]
    h = g * (fr.canonical_dual(frame, tol).norm / np.linalg.norm(g))
    return dual_family(frame, h, tol).synthesis


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
    rng = mp.sampling_generator(seed)
    duals = [[fr.canonical_dual(side.psi, tol).synthesis] for side in sides]
    for _ in range(dual_samples - 1):
        for side, found in zip(sides, duals):
            found.append(random_dual_synthesis(side.psi, rng, tol))
    return max(_stacked_nullity(found, side.symbol.reciprocal().values, tol)
               for found, side in zip(duals, sides))


def recover_pseudo_dual_F(mult, candidate, tol=DEFAULT_TOL):
    """If Minv = Syn_F diag(1/m) Ana_{phi_dagger} holds, whether F reconstructs Psi (it must)."""
    phi_dagger = mp.induced_duals(mult, tol).phi_dagger
    defect = mp._inverse_defect(mult, candidate, phi_dagger.analysis_matrix, tol)
    residual = nu.relative_to(nu.frobenius(defect), mult._minv_norm())
    if residual > tol.rel_eps:
        raise IdentityDoesNotHold(f"inverse identity fails for the candidate (residual {residual:.3e})")
    return fr.is_dual(candidate, mult.psi, tol)


def recover_pseudo_dual_G(mult, candidate, tol=DEFAULT_TOL):
    """If Minv = Syn_{psi_dagger} diag(1/m) Ana_G holds, whether G reconstructs Phi."""
    return recover_pseudo_dual_F(mult.adjoint(), candidate, tol)


def weighted_canonical_reference(phi, m, tol=DEFAULT_TOL):
    """The weighted-canonical shortcut by its definition: (decision, residual / tolerance).

    Forms the canonical dual of the weighted sequence (m_n phi_n), which
    raises NotAFrame when that sequence fails the spanning test, and compares
    it with (tilde_phi_n / conj(m_n)) by ``frames.frames_equal``: the
    residual ||lhs - rhs|| against rel_eps max(||lhs||, ||rhs||).
    ``multipliers.check_weighted_canonical`` decides the same identity
    without forming that dual.
    """
    lhs = fr.canonical_dual(mp.weighted_frame(phi, m), tol)
    rhs = fr.FiniteFrame((fr.canonical_dual(phi, tol).synthesis / np.conj(m.values)[None, :]).T)
    ratio = nu.frobenius(lhs.synthesis - rhs.synthesis) / (tol.rel_eps * max(lhs.norm, rhs.norm))
    return fr.frames_equal(lhs, rhs, tol), ratio


def termwise_columns(values, out_syn, in_syn):
    """``multipliers._termwise_matrices`` by strided columns: term n reads column n of each stack.

    The same terms in the same order with the same operands,
    values[n] * (out_n conj(in_n)^T), as the package's row loop, so the two
    give the same bits.
    """
    out = np.zeros(out_syn.shape[:-1] + in_syn.shape[-2:-1], dtype=np.complex128)
    conj_in = np.conj(in_syn)
    for n in range(values.shape[-1]):
        out += values[..., n, None, None] * (out_syn[..., :, n, None] * conj_in[..., None, :, n])
    return out


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
