"""Finite frames: analysis and synthesis, duals, equivalence, Riesz tests.

A finite frame is an ordered sequence of N vectors in C^d, stored as the
columns of its d x N synthesis matrix. Throughout the package the inner
product is linear in the first argument and conjugate-linear in the second:

    <f, g> = sum_k f[k] * conj(g[k])

so the analysis map is the conjugate transpose of the synthesis matrix.
Storage is 0-based; mathematical descriptions number vectors from 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAFrame, NotEquivalent, NotInvertible
from .numerics import DEFAULT_TOL, ToleranceConfig, adjoint, as_vector, check_invertible, frobenius


class FiniteFrame:
    """Ordered sequence of N complex vectors of common length d.

    The sequence need not actually satisfy the frame (spanning) property;
    predicates below decide that. Instances are immutable.

    The frame operator, its eigenvalues and the canonical dual are lazy
    per-instance caches, each computed at most once and free of any
    tolerance; the NotAFrame decision is made afresh on every call.
    """

    __slots__ = ("_syn", "_operator", "_eigs", "_dual")

    def __init__(self, vectors) -> None:
        rows = np.asarray(vectors if isinstance(vectors, np.ndarray) else list(vectors))
        if rows.ndim == 1:
            # a single vector: treat as one row
            rows = rows.reshape(1, -1)
        self._set_synthesis(rows.T)

    @classmethod
    def from_synthesis(cls, matrix) -> "FiniteFrame":
        """Build from a d x N matrix whose n-th column is the n-th vector.

        The frame keeps one validated, read-only, C-ordered complex128 copy
        of the matrix, the only copy made; a 1-D array is one vector.
        """
        syn = np.asarray(matrix)
        frame = cls.__new__(cls)
        frame._set_synthesis(syn.reshape(-1, 1) if syn.ndim == 1 else syn)
        return frame

    def _set_synthesis(self, syn: np.ndarray) -> None:
        """Keep a validated, read-only complex128 copy of a d x N array."""
        if syn.ndim != 2 or syn.shape[0] < 1 or syn.shape[1] < 1:
            raise ValueError("expected a nonempty list of equal-length vectors")
        syn = np.array(syn, dtype=np.complex128, order="C")
        if not np.isfinite(syn).all():
            raise ValueError("frame vectors must have finite entries")
        syn.setflags(write=False)
        self._syn = syn
        self._operator = self._eigs = self._dual = None

    @property
    def dim(self) -> int:
        return self._syn.shape[0]

    @property
    def size(self) -> int:
        """Number of vectors N."""
        return self._syn.shape[1]

    def __len__(self) -> int:
        return self.size

    @property
    def synthesis(self) -> np.ndarray:
        """d x N synthesis matrix (read-only view)."""
        return self._syn

    @property
    def analysis_matrix(self) -> np.ndarray:
        """N x d matrix of the analysis map, the adjoint of synthesis."""
        return adjoint(self._syn)

    def vector(self, n: int) -> np.ndarray:
        """n-th vector (0-based)."""
        return self._syn[:, n].copy()

    @property
    def vectors(self) -> list[np.ndarray]:
        return [self._syn[:, n].copy() for n in range(self.size)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FiniteFrame(dim={self.dim}, size={self.size})"


@dataclass(frozen=True)
class DualFamilyParam:
    """Parametrizes the dual frames of ``base`` by a perturbation sequence.

    ``perturbation`` holds N vectors h_n of length d (given as rows or as a
    d x N array); the zero perturbation selects the canonical dual.
    """

    base: FiniteFrame
    perturbation: object

    def perturbation_matrix(self) -> np.ndarray:
        h = np.asarray(self.perturbation, dtype=np.complex128)
        d, n = self.base.dim, self.base.size
        if h.shape == (n, d):
            h = h.T
        if h.shape != (d, n):
            raise DimensionMismatch(
                f"perturbation must hold {n} vectors of length {d}, got shape {h.shape}"
            )
        return h


def _require_same_shape(f: FiniteFrame, g: FiniteFrame) -> None:
    if f.dim != g.dim or f.size != g.size:
        raise DimensionMismatch(
            f"frame shapes differ: ({f.dim},{f.size}) vs ({g.dim},{g.size})"
        )


def analysis(frame: FiniteFrame, f) -> np.ndarray:
    """Coefficients c_n = <f, phi_n> of ``f`` against the frame."""
    vec = as_vector(f)
    if vec.size != frame.dim:
        raise DimensionMismatch(f"vector length {vec.size} != dim {frame.dim}")
    return frame.analysis_matrix @ vec


def synthesis(frame: FiniteFrame, c) -> np.ndarray:
    """Weighted sum sum_n c_n phi_n."""
    coeff = as_vector(c)
    if coeff.size != frame.size:
        raise DimensionMismatch(f"coefficient length {coeff.size} != size {frame.size}")
    return frame.synthesis @ coeff


def frame_operator(frame: FiniteFrame) -> np.ndarray:
    """The d x d positive semidefinite operator f -> sum_n <f, phi_n> phi_n (read-only)."""
    if frame._operator is None:
        # entries beyond the double range become inf or NaN, which
        # frame_bounds then rejects
        with np.errstate(over="ignore", invalid="ignore"):
            s = frame.synthesis @ frame.analysis_matrix
        s.setflags(write=False)
        frame._operator = s
    return frame._operator


def frame_bounds(frame: FiniteFrame, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[float, float]:
    """Optimal frame bounds (A, B), the extreme eigenvalues of the frame operator.

    Raises NotAFrame unless the lower bound exceeds rel_eps times the upper
    bound, i.e. when the vectors do not span or a bound is not a number
    (the operator left the double range). The operator is Hermitian by
    construction, up to rounding, and eigvalsh reads one triangle of it.
    """
    if frame._eigs is None:
        operator = frame_operator(frame)
        # eigvalsh may raise on inf or NaN entries; NaN bounds fail the test below
        frame._eigs = (np.linalg.eigvalsh(operator) if np.all(np.isfinite(operator))
                       else np.full(frame.dim, np.nan))
    eigs = frame._eigs
    lower = float(eigs[0].real)
    upper = float(eigs[-1].real)
    if not lower > tol.rel_eps * upper:
        raise NotAFrame(
            f"lower frame bound {lower:.3e} vanishes against upper {upper:.3e}"
        )
    return lower, upper


def is_frame(frame: FiniteFrame, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    try:
        frame_bounds(frame, tol)
    except NotAFrame:
        return False
    return True


def canonical_dual(frame: FiniteFrame, tol: ToleranceConfig = DEFAULT_TOL) -> FiniteFrame:
    """The canonical dual, vector n being S^-1 phi_n for the frame operator S."""
    frame_bounds(frame, tol)  # NotAFrame for rank-deficient input
    if frame._dual is None:
        dual_syn = np.linalg.solve(frame_operator(frame), frame.synthesis)
        frame._dual = FiniteFrame.from_synthesis(dual_syn)
    return frame._dual


def is_s_pseudo_dual(candidate: FiniteFrame, frame: FiniteFrame,
                     tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when f = sum_n <f, phi_n> c_n holds, i.e. Syn_C * Ana_Phi = I."""
    _require_same_shape(candidate, frame)
    return bool(_reconstructs(candidate.synthesis, frame.synthesis, tol))


def _reconstructs(candidate_syn: np.ndarray, frame_syn: np.ndarray, tol: ToleranceConfig):
    """The is_s_pseudo_dual test on synthesis matrices, for one pair or a stack of pairs.

    ||Syn_C Ana_Phi - I|| must not exceed rel_eps ||Syn_C|| ||Syn_Phi||;
    returns a bool, or one bool per matrix of a stack (..., d, N).
    """
    product = candidate_syn @ adjoint(frame_syn)
    residual = _frobenius(product - np.eye(product.shape[-1]))
    return residual <= tol.rel_eps * _frobenius(candidate_syn) * _frobenius(frame_syn)


def _frobenius(a: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix in a stack."""
    return frobenius(a) if a.ndim == 2 else np.linalg.norm(a, axis=(-2, -1))


def is_a_pseudo_dual(candidate: FiniteFrame, frame: FiniteFrame,
                     tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when f = sum_n <f, c_n> phi_n holds, i.e. Syn_Phi * Ana_C = I."""
    return is_s_pseudo_dual(frame, candidate, tol)


def is_dual(candidate: FiniteFrame, frame: FiniteFrame,
            tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when both reconstruction identities hold.

    On a finite index set the two one-sided identities are adjoints of one
    another, so they stand or fall together; both are still checked.
    """
    _require_same_shape(candidate, frame)
    return is_s_pseudo_dual(candidate, frame, tol) and is_a_pseudo_dual(candidate, frame, tol)


def dual_family(param: DualFamilyParam, tol: ToleranceConfig = DEFAULT_TOL) -> FiniteFrame:
    """The dual frame selected by a perturbation sequence (h_n).

    Vector n of the result is

        dual_n = tilde_n + h_n - sum_j <tilde_n, phi_j> h_j

    where (tilde_n) is the canonical dual. Every choice of (h_n) yields a
    dual frame, and every dual frame arises this way.

    In matrices this is Syn_tilde + H (I - Ana_Phi Syn_tilde), formed as
    Syn_tilde + H - (H Ana_Phi) Syn_tilde so that only d x d and d x N
    products appear, never the N x N cross-correlation.
    """
    base = param.base
    h = param.perturbation_matrix()
    tilde = canonical_dual(base, tol)
    return FiniteFrame.from_synthesis(_dual_synthesis(tilde.synthesis, base.analysis_matrix, h))


def _dual_synthesis(tilde_syn: np.ndarray, analysis: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Syn_tilde + H - (H Ana_Phi) Syn_tilde: the dual_family member of a d x N perturbation H."""
    return tilde_syn + h - (h @ analysis) @ tilde_syn


def equivalence_operator(phi: FiniteFrame, psi: FiniteFrame,
                         tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Invertible L with L phi_n = psi_n for every n, if one exists.

    The only possible candidate is L = Syn_Psi * pinv(Syn_Phi), and for a
    frame pinv(Syn_Phi) is the analysis matrix of the canonical dual, so L
    is formed from the cached dual (NotAFrame when ``phi`` does not span).
    The mapping property is decided by the residual ||L Syn_Phi - Syn_Psi||
    against rel_eps * ||Syn_Psi||, then L must pass the invertibility
    policy. Either failure raises NotEquivalent, with ``reason`` saying
    which requirement failed.
    """
    _require_same_shape(phi, psi)
    candidate = psi.synthesis @ canonical_dual(phi, tol).analysis_matrix
    scale = frobenius(psi.synthesis)
    residual = frobenius(candidate @ phi.synthesis - psi.synthesis)
    if residual > tol.rel_eps * scale:
        raise NotEquivalent(
            f"no linear map sends the first sequence to the second (residual {residual:.3e})",
            reason="no_linear_map",
            residual=residual,
        )
    try:
        check_invertible(np.linalg.svd(candidate, compute_uv=False), tol)
    except NotInvertible as exc:
        raise NotEquivalent(
            "the unique mapping operator is not invertible",
            reason="not_invertible",
            residual=residual,
        ) from exc
    return candidate


def is_riesz_basis(frame: FiniteFrame, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Exact bases: N == d together with the spanning property."""
    return frame.size == frame.dim and is_frame(frame, tol)


def frames_equal(f: FiniteFrame, g: FiniteFrame,
                 tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Equality as ordered sequences, up to rel_eps.

    ||Syn_F - Syn_G|| must not exceed rel_eps * max(||Syn_F||, ||Syn_G||);
    the sequences are ordered, so no permutation is allowed.
    """
    if f.dim != g.dim or f.size != g.size:
        return False
    scale = max(frobenius(f.synthesis), frobenius(g.synthesis))
    return frobenius(f.synthesis - g.synthesis) <= tol.rel_eps * scale


def random_frame(dim: int, size: int, rng: np.random.Generator) -> FiniteFrame:
    """Random sequence with independent standard complex Gaussian entries.

    For size >= dim this is a frame with probability one; the construction
    retries in the measure-zero event of a rank drop.
    """
    if size < 1 or dim < 1:
        raise ValueError("dim and size must be positive")
    for _ in range(100):
        entries = rng.standard_normal((size, dim)) + 1j * rng.standard_normal((size, dim))
        frame = FiniteFrame(entries / np.sqrt(2.0))
        if size < dim or is_frame(frame):
            return frame
    raise RuntimeError("failed to draw a spanning sequence")  # pragma: no cover


def random_dual(frame: FiniteFrame, rng: np.random.Generator,
                tol: ToleranceConfig = DEFAULT_TOL) -> FiniteFrame:
    """Random dual frame drawn through the perturbation parametrization.

    The FiniteFrame of ``random_dual_synthesis``, which draws it.
    """
    return FiniteFrame.from_synthesis(random_dual_synthesis(frame, rng, tol))


def random_dual_synthesis(frame: FiniteFrame, rng: np.random.Generator,
                          tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Synthesis matrix of a random dual frame, with no FiniteFrame built.

    The perturbation has a standard complex Gaussian direction and is
    rescaled to the Frobenius norm of the canonical dual, which keeps the
    sampled duals reasonably conditioned and makes them scale with the
    frame: the duals of s * Phi are those of Phi divided by s. Given the
    same generator state, it is the dual ``dual_family`` selects for that
    perturbation.
    """
    tilde = canonical_dual(frame, tol).synthesis
    d, n = tilde.shape
    h = (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))) / np.sqrt(2.0)
    h = h * (frobenius(tilde) / frobenius(h))
    if d == n:
        # DualFamilyParam reads a square perturbation as N rows; the draw keeps that
        # orientation, so a seed selects the same dual as through dual_family
        h = h.T
    return _dual_synthesis(tilde, frame.analysis_matrix, h)
