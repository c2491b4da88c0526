"""Finite frames: analysis and synthesis, duals, equivalence, Riesz tests.

A finite frame is an ordered sequence of N vectors in C^d, stored as the
columns of its d x N synthesis matrix. Throughout the package the inner
product is linear in the first argument and conjugate-linear in the second:

    <f, g> = sum_k f[k] * conj(g[k])

so the analysis map is the conjugate transpose of the synthesis matrix.
Storage is 0-based; mathematical descriptions number vectors from 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NotAFrame, NotEquivalent, NotInvertible
from .numerics import DEFAULT_TOL, ToleranceConfig, adjoint, check_invertible, frobenius


class FiniteFrame:
    """Ordered sequence of N complex vectors of common length d.

    The sequence need not actually satisfy the frame (spanning) property;
    predicates below decide that. Instances are immutable.

    The frame operator, its eigenvalues, the canonical dual and the norm
    are lazy per-instance caches, each computed at most once and free of
    any tolerance. ``canonical_dual`` evaluates the NotAFrame decision once
    per frame and tolerance while it passes: the frame remembers the last
    tolerance it spanned under. A failure is not remembered, so NotAFrame
    is raised on every call. Only scalars and decisions are cached beyond
    the operator and the dual, never another d x N array.
    """

    __slots__ = ("_syn", "_operator", "_eigs", "_dual", "_norm", "_spans_under")

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
        self._operator = self._eigs = self._dual = self._norm = self._spans_under = None

    @property
    def dim(self) -> int:
        return self._syn.shape[0]

    @property
    def size(self) -> int:
        """Number of vectors N."""
        return self._syn.shape[1]

    @property
    def synthesis(self) -> np.ndarray:
        """d x N synthesis matrix (read-only view)."""
        return self._syn

    @property
    def norm(self) -> float:
        """Frobenius norm of the synthesis matrix, measured once; +inf when it overflows."""
        if self._norm is None:
            self._norm = frobenius(self._syn)
        return self._norm

    @property
    def analysis_matrix(self) -> np.ndarray:
        """N x d matrix of the analysis map, the adjoint of synthesis."""
        return adjoint(self._syn)

def _require_same_shape(f: FiniteFrame, g: FiniteFrame) -> None:
    if f.dim != g.dim or f.size != g.size:
        raise DimensionMismatch(
            f"frame shapes differ: ({f.dim},{f.size}) vs ({g.dim},{g.size})"
        )


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
    """The canonical dual, vector n being S^-1 phi_n for the frame operator S.

    NotAFrame for input that does not span, decided by ``frame_bounds``
    once per frame and tolerance while it passes.
    """
    if frame._spans_under is not tol:
        frame_bounds(frame, tol)
        frame._spans_under = tol
    if frame._dual is None:
        dual_syn = np.linalg.solve(frame_operator(frame), frame.synthesis)
        frame._dual = FiniteFrame.from_synthesis(dual_syn)
    return frame._dual


def is_s_pseudo_dual(candidate: FiniteFrame, frame: FiniteFrame,
                     tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when f = sum_n <f, phi_n> c_n holds, i.e. Syn_C * Ana_Phi = I."""
    _require_same_shape(candidate, frame)
    return bool(_reconstructs(candidate.synthesis, frame.synthesis, tol,
                              (candidate.norm, frame.norm)))


def _reconstructs(candidate_syn: np.ndarray, frame_syn: np.ndarray, tol: ToleranceConfig,
                  norms=None):
    """The is_s_pseudo_dual test on synthesis matrices, for one pair or a stack of pairs.

    ||Syn_C Ana_Phi - I|| must not exceed rel_eps ||Syn_C|| ||Syn_Phi||,
    and that bound must be finite: a scale that overflows measures nothing.
    ``norms`` is (||Syn_C||, ||Syn_Phi||) when the caller knows them.
    Returns a bool, or one bool per matrix of a stack (..., d, N).
    """
    product = candidate_syn @ adjoint(frame_syn)
    residual = _frobenius(product - np.eye(product.shape[-1]))
    candidate_norm, frame_norm = norms or (_frobenius(candidate_syn), _frobenius(frame_syn))
    bound = tol.rel_eps * candidate_norm * frame_norm
    return (residual <= bound) & (bound < math.inf)


def _frobenius(a: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix in a stack."""
    return frobenius(a) if a.ndim == 2 else np.linalg.norm(a, axis=(-2, -1))


def is_dual(candidate: FiniteFrame, frame: FiniteFrame,
            tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when C is a dual of Phi: both reconstruction identities hold.

    The identities are f = sum_n <f, phi_n> c_n (Syn_C Ana_Phi = I) and
    f = sum_n <f, c_n> phi_n (Syn_Phi Ana_C = I). The second is the
    adjoint of the first, so its residual norm is the same up to rounding,
    against the same bound: checking the first decides both.
    """
    return is_s_pseudo_dual(candidate, frame, tol)


def _dual_synthesis(tilde_syn: np.ndarray, analysis: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Synthesis matrix of the dual frame of Phi that a d x N perturbation H selects.

    The dual is Syn_tilde + H (I - Ana_Phi Syn_tilde): every H gives a dual
    frame and every dual frame arises this way, H = 0 giving the canonical
    dual. It is formed as Syn_tilde + H - (H Ana_Phi) Syn_tilde, so that
    only d x d and d x N products appear, never the N x N cross-correlation.
    """
    return tilde_syn + h - (h @ analysis) @ tilde_syn


def equivalence_operator(phi: FiniteFrame, psi: FiniteFrame,
                         tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Invertible L with L phi_n = psi_n for every n, if one exists.

    The only possible candidate is L = Syn_Psi * pinv(Syn_Phi), and for a
    frame pinv(Syn_Phi) is the analysis matrix of the canonical dual, so L
    is formed from the cached dual (NotAFrame when ``phi`` does not span).
    The mapping property is decided by the residual ||L Syn_Phi - Syn_Psi||
    against rel_eps * ||Syn_Psi||, a bound that must be finite, then L must
    pass the invertibility policy. Either failure raises NotEquivalent,
    with ``reason`` saying which requirement failed.
    """
    _require_same_shape(phi, psi)
    candidate = psi.synthesis @ canonical_dual(phi, tol).analysis_matrix
    residual = frobenius(candidate @ phi.synthesis - psi.synthesis)
    if not residual <= tol.rel_eps * psi.norm < math.inf:
        raise NotEquivalent(
            "no linear map sends the first sequence to the second "
            f"(residual {residual:.3e} against norm {psi.norm:.3e})",
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

    ||Syn_F - Syn_G|| must not exceed rel_eps * max(||Syn_F||, ||Syn_G||),
    a bound that must be finite; the sequences are ordered, so no
    permutation is allowed.
    """
    if f.dim != g.dim or f.size != g.size:
        return False
    return frobenius(f.synthesis - g.synthesis) <= tol.rel_eps * max(f.norm, g.norm) < math.inf


def random_dual_synthesis(frame: FiniteFrame, rng: np.random.Generator,
                          tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Synthesis matrix of a random dual frame, with no FiniteFrame built.

    The perturbation has a standard complex Gaussian direction and is
    rescaled to the Frobenius norm of the canonical dual, which keeps the
    sampled duals reasonably conditioned and makes them scale with the
    frame: the duals of s * Phi are those of Phi divided by s. The dual is
    the one ``_dual_synthesis`` selects for that perturbation.
    """
    tilde = canonical_dual(frame, tol)
    d, n = tilde.dim, tilde.size
    h = (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))) / np.sqrt(2.0)
    h = h * (tilde.norm / frobenius(h))
    return _dual_synthesis(tilde.synthesis, frame.analysis_matrix, h)
