"""Finite frames: analysis and synthesis, duals, equivalence, Riesz tests.

A finite frame is an ordered sequence of N vectors in C^d, stored as the
columns of its d x N synthesis matrix. Throughout the package the inner
product is linear in the first argument and conjugate-linear in the second:

    <f, g> = sum_k f[k] * conj(g[k])

so the analysis map is the conjugate transpose of the synthesis matrix.
Storage is 0-based; mathematical descriptions number vectors from 1.
The tests (``is_frame``, ``is_dual``, ``frames_equal``, ``is_riesz_basis``)
are predicates: each returns a bool. ``canonical_duals`` takes several
frames of one shape and ``are_equivalent`` stacks of synthesis matrices,
such as the two sides of a multiplier: one numpy or LAPACK call per step for
all of them, each frame decided bit for bit as it is alone.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatch, NotAFrame
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    adjoint,
    frobenius,
    hermitian_extremes,
    singular_extremes,
    stacked,
)


class FiniteFrame:
    """Ordered sequence of N complex vectors of common length d.

    Built from a 2-D array-like of N rows, the vectors; any other shape is a
    ValueError. The sequence need not actually satisfy the frame (spanning)
    property; predicates below decide that. Instances are immutable.

    The frame operator, its two frame bounds, the canonical dual and the
    norm are lazy per-instance caches, each computed at most once and free
    of any tolerance; the spanning decision is made from the bounds at
    every call. Only scalars are cached beyond the operator and the dual,
    never another d x N array. A frame built from outside data keeps its
    own copy of it; a frame the package derives keeps the array it was
    computed into, with no second copy.
    """

    __slots__ = ("_syn", "_operator", "_bounds", "_dual", "_norm")

    def __init__(self, rows) -> None:
        self._set_synthesis(np.array(np.asarray(rows).T, dtype=np.complex128, order="C"))

    @classmethod
    def _adopt(cls, syn: np.ndarray) -> "FiniteFrame":
        """A frame of a d x N array computed for it and held nowhere else, kept without a copy.

        The frames the package derives (duals, weighted sequences) are built
        this way, so each holds the one array it was computed into.
        """
        frame = cls.__new__(cls)
        frame._set_synthesis(syn)
        return frame

    def _set_synthesis(self, syn: np.ndarray) -> None:
        """Keep ``syn`` as a validated, read-only d x N array, converted to C-ordered complex128 if it is not."""
        if syn.ndim != 2 or syn.shape[0] < 1 or syn.shape[1] < 1:
            raise ValueError("expected a nonempty list of equal-length vectors")
        syn = np.asarray(syn, dtype=np.complex128, order="C")
        require_finite(syn)
        syn.setflags(write=False)
        self._syn = syn
        self._operator = self._bounds = self._dual = self._norm = None

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


def require_finite(syn: np.ndarray) -> None:
    """ValueError unless every entry of a synthesis matrix, or of a stack of them, is finite."""
    if not np.isfinite(syn).all():
        raise ValueError("frame vectors must have finite entries")


def _require_same_shape(f: FiniteFrame, g: FiniteFrame) -> None:
    if f.dim != g.dim or f.size != g.size:
        raise DimensionMismatch(
            f"frame shapes differ: ({f.dim},{f.size}) vs ({g.dim},{g.size})"
        )


def _measure(frames: Sequence[FiniteFrame]):
    """Frame operators and bounds of the frames not yet measured, one stacked product and eigvalsh for all.

    Returns the stacks (syntheses, operators) of the frames it measured, or
    None when every frame was measured already.
    """
    todo = [frame for frame in frames if frame._bounds is None]
    if not todo:
        return None
    syn = stacked([frame._syn for frame in todo])
    # entries beyond the double range become inf or NaN, which
    # frame_bounds then rejects
    with np.errstate(over="ignore", invalid="ignore"):
        operators = syn @ adjoint(syn)
    operators.setflags(write=False)
    lower, upper = hermitian_extremes(operators)
    for frame, operator, bounds in zip(todo, operators, zip(lower.tolist(), upper.tolist())):
        frame._operator, frame._bounds = operator, bounds
    return syn, operators


def frame_operator(frame: FiniteFrame) -> np.ndarray:
    """The d x d positive semidefinite operator f -> sum_n <f, phi_n> phi_n (read-only)."""
    _measure((frame,))
    return frame._operator


def frame_bounds(frame: FiniteFrame, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[float, float]:
    """Optimal frame bounds (A, B), the extreme eigenvalues of the frame operator.

    Raises NotAFrame unless ``tol.spans`` the bounds at size max(d, N),
    i.e. when the vectors do not span or a bound is not a number (the
    operator left the double range). The operator is Hermitian by
    construction, up to rounding, and eigvalsh reads one triangle of it.
    """
    if frame._bounds is None:
        _measure((frame,))
    lower, upper = frame._bounds
    if not tol.spans(lower, upper, max(frame._syn.shape)):
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

    NotAFrame for input that does not span, decided by ``frame_bounds``,
    or whose operator is singular to working precision all the same.
    """
    return canonical_duals((frame,), tol)[0]


def canonical_duals(frames: Sequence[FiniteFrame],
                    tol: ToleranceConfig = DEFAULT_TOL) -> list[FiniteFrame]:
    """``canonical_dual`` of each frame, those not yet solved for in one stacked eigvalsh and solve.

    The frames have one shape, and the caller bounds how many it stacks.
    NotAFrame is raised for the first frame, in order, that does not span;
    a solve that meets a singular operator raises it for the stack.
    """
    todo = [frame for frame in frames if frame._dual is None]  # a frame with a dual has bounds
    measured = _measure(todo) if todo else None
    for frame in frames:
        frame_bounds(frame, tol)
    if todo:
        if measured is None or len(measured[0]) != len(todo):  # some were measured before
            measured = (stacked([frame._syn for frame in todo]),
                        stacked([frame_operator(frame) for frame in todo]))
        syn, operators = measured
        try:
            duals = np.linalg.solve(operators, syn)
        except np.linalg.LinAlgError as exc:
            raise NotAFrame(f"the frame operator is singular to working precision: {exc}") from None
        for frame, dual_syn in zip(todo, duals):
            frame._dual = FiniteFrame._adopt(dual_syn)
    return [frame._dual for frame in frames]


def reconstruction_defect(candidate_syn: np.ndarray, frame_syn: np.ndarray) -> np.ndarray:
    """Syn_C Ana_Phi - I, the defect of the reconstruction identity, for one pair or a stack of pairs."""
    defect = candidate_syn @ adjoint(frame_syn)
    defect -= np.eye(defect.shape[-1])
    return defect


def reconstructs(candidate_syn: np.ndarray, frame_syn: np.ndarray, tol: ToleranceConfig,
                 norms=None):
    """The is_dual test on synthesis matrices, for one pair or a stack of pairs (block sweeps).

    ``tol.within`` of ||Syn_C Ana_Phi - I|| at the scale ||Syn_C|| ||Syn_Phi||.
    ``norms`` is (||Syn_C||, ||Syn_Phi||) when the caller knows them.
    Returns a bool, or one bool per matrix of a stack (..., d, N).
    """
    residual = frobenius(reconstruction_defect(candidate_syn, frame_syn))
    candidate_norm, frame_norm = norms or (frobenius(candidate_syn), frobenius(frame_syn))
    return tol.within(residual, candidate_norm * frame_norm)


def is_dual(candidate: FiniteFrame, frame: FiniteFrame,
            tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when C is a dual of Phi: both reconstruction identities hold.

    The identities are f = sum_n <f, phi_n> c_n (Syn_C Ana_Phi = I) and
    f = sum_n <f, c_n> phi_n (Syn_Phi Ana_C = I). The second is the
    adjoint of the first, so its residual norm is the same up to rounding,
    against the same bound: checking the first decides both.
    """
    _require_same_shape(candidate, frame)
    return bool(reconstructs(candidate.synthesis, frame.synthesis, tol,
                             (candidate.norm, frame.norm)))


def are_equivalent(phi_syn: np.ndarray, dual_syn: np.ndarray, psi_syn: np.ndarray,
                   tol: ToleranceConfig = DEFAULT_TOL) -> list[bool]:
    """For each k of the stacks: does an invertible L have L phi_n = psi_n for every n?

    phi_syn and psi_syn are (K, d, N) stacks of synthesis matrices, and
    dual_syn[k] that of the canonical dual of the frame phi_syn[k]. The only
    possible candidate is L = Syn_Psi * pinv(Syn_Phi), and for a frame
    pinv(Syn_Phi) is the analysis matrix of its canonical dual. The mapping
    property is ``tol.within`` of the residual ||L Syn_Phi - Syn_Psi|| at
    the scale ||Syn_Psi||, then L must pass ``tol.invertible`` at size
    max(d, N). Each step is one call for the stack, and every norm the 2-D
    norm of its slice, so each pair is decided as it is alone; one stacked
    SVD takes the candidates whose mapping passed, and a candidate that
    fails it takes none. DimensionMismatch unless the stacks have one shape.
    """
    if not phi_syn.shape == dual_syn.shape == psi_syn.shape:
        raise DimensionMismatch(f"stack shapes differ: {phi_syn.shape}, {dual_syn.shape}, {psi_syn.shape}")
    candidate = psi_syn @ adjoint(dual_syn)
    residual = candidate @ phi_syn
    residual -= psi_syn
    mapped = np.array([tol.within(frobenius(r), frobenius(psi)) for r, psi in zip(residual, psi_syn)])
    if mapped.any():
        mapped[mapped] = tol.invertible(*singular_extremes(candidate[mapped]), max(psi_syn.shape[-2:]))
    return mapped.tolist()


def is_riesz_basis(frame: FiniteFrame, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Exact bases: N == d together with the spanning property."""
    return frame.size == frame.dim and is_frame(frame, tol)


def frames_equal(f: FiniteFrame, g: FiniteFrame,
                 tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Equality as ordered sequences: ``tol.within`` of ||Syn_F - Syn_G|| at max(||Syn_F||, ||Syn_G||).

    The sequences are ordered, so no permutation is allowed.
    """
    if f.dim != g.dim or f.size != g.size:
        return False
    return tol.within(frobenius(f.synthesis - g.synthesis), max(f.norm, g.norm))

