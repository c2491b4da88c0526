"""Frame multipliers: construction, inversion, induced duals, identity checks.

A multiplier is the operator f -> sum_n m_n <f, psi_n> phi_n built from a
weight sequence m (the symbol), an output-side sequence Phi and an
input-side sequence Psi. Its matrix is Syn_Phi * diag(m) * Ana_Psi.

When the multiplier is invertible, applying its inverse to the weighted
frame vectors produces two distinguished dual frames here called the
induced duals:

    psi_dagger_n = Minv (m_n phi_n)          (a dual of Psi)
    phi_dagger_n = Minv* (conj(m_n) psi_n)   (a dual of Phi)

They make the inverse itself a multiplier: for EVERY dual Psi_d of Psi,
Minv = Syn_{Psi_d} diag(1/m) Ana_{phi_dagger}, and for every dual Phi_d of
Phi, Minv = Syn_{psi_dagger} diag(1/m) Ana_{Phi_d}. The for-every
quantifier is certified exactly: the identity defect is affine in the dual
parametrization, so vanishing at the canonical dual plus a vanishing
linear term settles all duals at once. Every dual of Psi is
tilde + H (I - C) for a d x N perturbation H, and its defect is
E0 + H B, with E0 (d x d) the defect at the canonical dual and B (N x d)
the slope; the certificate keeps both. ``sampled_dual_residuals``
cross-checks a certificate on random duals by reading each residual off
that defect, ||E0 + H B|| / ||Minv||, one d x N by N x d product per draw;
the verification bundle draws the input side's duals and then the output
side's from one generator.

The induced dual is also the only sequence with that property, for any
zero-free symbol, semi-normalized or not. ``uniqueness_nullity`` decides
this exactly from the symbol alone.

The two formulas are one identity read through the adjoint
M* = M_{conj m, Psi, Phi}, whose inverse is Minv* and whose induced duals
are those of M swapped: the adjoint of the second formula is the first
formula for M*. So every output-side check below is its input-side twin
applied to ``Multiplier.adjoint()``.

The equivalence criteria are such twins too. On the input side, the
induced dual psi_dagger is the canonical dual of Psi exactly when
Psi ~ m Phi; read on M*, phi_dagger is the canonical dual of Phi exactly
when Phi ~ conj(m) Psi. ``check_prop_q`` decides the input side's pair on
M and on M* once each.

The verification bundle checks the twins of M (side 0) and M* (side 1)
stacked side by side (``_Sides``): the duality tests of the induced duals,
the all-duals certificates, the canonical duals of Psi and Phi and the
equivalence criteria take one numpy or LAPACK call per step for both
sides. A slice of a stacked call is the one-side result bit for bit and
norms are taken slice by slice, so the reports are those of side-by-side
checks. Both sides go in one step when two of their d x N arrays fit
SIDE_STACK_BYTES (64 KiB: d N <= 2048); above it one side at a time, so a
step holds the arrays of one side only. For a symbol of one nonzero modulus, the chain
"eq1 iff Psi ~ m Phi iff Phi ~ conj(m) Psi" is their corollary, asserted
and given by the same report. A violated implication between the criteria
is a value of that report, its message, which the CLI and the examples
report as a failed asserted finding with the message as its detail. Until
no norm squares its entries, a norm that leaves the double range can give
one on valid input: every input scaled by 1e-100 reports "yet eq1 fails".

The CLI's ``--verify-all`` builds its multiplier with ``build(...,
meanwhile)``, ``meanwhile`` being ``prepare_verification``: the canonical
duals and norms of Psi and Phi and the load of numpy.random, which need no
matrix. Where N d^2 reaches BUILD_CHILD_MIN_TERMS and ``overlap.may_fork``,
a forked child (``overlap.Child``) runs ``_termwise_matrices`` meanwhile and
sends the d x d matrix back over a pipe; any failure on its side leaves the
build to this process. Both routes compute the same bits, and a call
without ``meanwhile``, such as the benchmark's in-process bundle, never
forks.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import frames
from .errors import DimensionMismatch, NotAFrame, ZeroSymbolEntry
from .frames import FiniteFrame
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    adjoint,
    check_invertible,
    condition_from_sigmas,
    frobenius,
    inverse,
    relative_to,
    singular_extremes,
    stacked,
)
from .report import finding


class Symbol:
    """Finite complex weight sequence with modulus predicates.

    A finite symbol is semi-normalized exactly when ``inf_modulus`` > 0
    (the finite upper bound is automatic for a finite sequence).

    A symbol is immutable, so whether it is zero-free, its moduli and its
    reciprocal are lazy per-instance caches, each computed at most once;
    none depends on a tolerance. A failed reciprocal is not cached, so it
    raises ZeroSymbolEntry on every call.
    """

    __slots__ = ("_values", "_nonzero", "_moduli", "_range", "_reciprocal")

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=np.complex128, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("a symbol needs at least one entry")
        if not np.isfinite(arr).all():
            raise ValueError("symbol entries must be finite")
        self._set_values(arr)

    def _set_values(self, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        self._values = arr
        self._nonzero = self._moduli = self._range = self._reciprocal = None

    @classmethod
    def _from_checked(cls, arr: np.ndarray) -> "Symbol":
        """A symbol of a fresh nonempty array whose entries are known to be finite."""
        symbol = cls.__new__(cls)
        symbol._set_values(arr)
        return symbol

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __len__(self) -> int:
        return self._values.size

    @property
    def all_nonzero(self) -> bool:
        if self._nonzero is None:
            self._nonzero = bool((self._values != 0).all())
        return self._nonzero

    @property
    def moduli(self) -> np.ndarray:
        """|m_n| for every n (read-only)."""
        if self._moduli is None:
            self._moduli = np.abs(self._values)
            self._moduli.setflags(write=False)
        return self._moduli

    def _modulus_range(self) -> tuple[float, float]:
        if self._range is None:
            self._range = (float(self.moduli.min()), float(self.moduli.max()))
        return self._range

    @property
    def inf_modulus(self) -> float:
        return self._modulus_range()[0]

    @property
    def sup_modulus(self) -> float:
        return self._modulus_range()[1]

    def reciprocal(self) -> "Symbol":
        """Entrywise 1/m_n; ZeroSymbolEntry when an entry is zero or 1/m_n overflows."""
        if self._reciprocal is None:
            if not self.all_nonzero:
                raise ZeroSymbolEntry("cannot take the reciprocal of a symbol with zeros")
            with np.errstate(over="ignore", invalid="ignore"):
                recip = 1.0 / self._values
            if not np.isfinite(recip).all():
                raise ZeroSymbolEntry("the reciprocal of a symbol entry overflows")
            self._reciprocal = Symbol._from_checked(recip)
        return self._reciprocal

    def conjugate(self) -> "Symbol":
        return Symbol._from_checked(np.conj(self._values))

    def is_constant(self, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        """All entries equal to the first: ``tol.within`` of the spread at the largest modulus."""
        spread = float(np.abs(self._values - self._values[0]).max())
        return tol.within(spread, self.sup_modulus)

    def has_constant_modulus(self, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        """All moduli equal: ``tol.within`` of their spread at the largest modulus."""
        return tol.within(self.sup_modulus - self.inf_modulus, self.sup_modulus)


def weighted_frame(frame: FiniteFrame, weights: Symbol) -> FiniteFrame:
    """The sequence (w_n phi_n) for a symbol of one weight per vector, else DimensionMismatch."""
    if len(weights) != frame.size:
        raise DimensionMismatch(f"need {frame.size} weights, got {len(weights)}")
    return FiniteFrame._adopt(frame.synthesis * weights.values[None, :])


class Multiplier:
    """Realized multiplier (symbol, output side, input side) with its matrix.

    The extreme singular values, the inverse and its norm, the induced
    duals, the canonical-inversion residual, the adjoint's symbol, an
    adjoint's matrix and the stacked chunks of the two sides (``_Sides``)
    are lazy per-instance caches, each computed at most
    once and free of any tolerance. An adjoint takes its derived values from
    the multiplier it came from, so the two share one SVD, one inverse and
    one ||Minv||, which is also ||Minv*||.
    """

    def __init__(self, symbol: Symbol, phi: FiniteFrame, psi: FiniteFrame,
                 meanwhile: Callable[[], object] | None = None) -> None:
        if phi.dim != psi.dim:
            raise DimensionMismatch(f"frame dims differ: {phi.dim} vs {psi.dim}")
        if len(symbol) != phi.size or len(symbol) != psi.size:
            raise DimensionMismatch(
                f"symbol length {len(symbol)} does not match frame sizes "
                f"{phi.size} and {psi.size}"
            )
        self.symbol = symbol
        self.phi = phi
        self.psi = psi
        arrays = (symbol.values, phi.synthesis, psi.synthesis)
        self._matrix = (_termwise_matrices(*arrays) if meanwhile is None
                        else _build_meanwhile(arrays, meanwhile))

    # lazy caches; _origin is the multiplier an adjoint was derived from,
    # _conjugate the symbol conj(m) of a multiplier's adjoints, _extremes
    # the pair (sigma_max, sigma_min), _sides the chunks of _side_chunks
    _origin = _conjugate = _matrix = _extremes = _inverse = _inverse_norm = _duals = None
    _canonical_residual = _sides = None

    @property
    def matrix(self) -> np.ndarray:
        """The d x d matrix; an adjoint forms it, the conjugate transpose, on first access."""
        if self._matrix is None:
            self._matrix = adjoint(self._origin.matrix)
        return self._matrix

    @property
    def dim(self) -> int:
        return self.phi.dim

    @property
    def size(self) -> int:
        return self.phi.size

    def adjoint(self) -> "Multiplier":
        """M* = M_{conj m, Psi, Phi}, derived without a factorization or a matrix loop.

        An adjoint's adjoint is its origin, which keeps conj(m) but not the
        adjoint: no reference cycle, and each call builds a fresh adjoint.
        """
        if self._origin is not None:
            return self._origin
        if self._conjugate is None:
            self._conjugate = self.symbol.conjugate()
        adj = Multiplier.__new__(Multiplier)
        adj.symbol = self._conjugate
        adj.phi, adj.psi = self.psi, self.phi
        adj._origin = self
        return adj

    def _sigma_extremes(self) -> tuple[float, float]:
        """(sigma_max, sigma_min) of the matrix, measured once for a multiplier and its adjoint."""
        if self._extremes is None:
            self._extremes = (singular_extremes(self.matrix) if self._origin is None
                              else self._origin._sigma_extremes())
        return self._extremes

    def _inverse_matrix(self) -> np.ndarray:
        if self._inverse is None:
            self._inverse = (inverse(self.matrix, *self._sigma_extremes())
                             if self._origin is None
                             else adjoint(self._origin._inverse_matrix()))
        return self._inverse

    def _minv_norm(self) -> float:
        """||Minv||, measured once for a multiplier and its adjoint."""
        if self._inverse_norm is None:
            self._inverse_norm = (frobenius(self._inverse_matrix()) if self._origin is None
                                  else self._origin._minv_norm())
        return self._inverse_norm

    @property
    def condition_number(self) -> float:
        """sigma_max / sigma_min of the matrix; +inf when sigma_min is zero."""
        return condition_from_sigmas(*self._sigma_extremes())


def _termwise_matrices(values: np.ndarray, out_syn: np.ndarray, in_syn: np.ndarray) -> np.ndarray:
    """sum_n values[n] out_n conj(in_n)^T, term by term in index order, for each matrix of a stack.

    ``values`` is (..., N), ``out_syn`` (..., d, N) and ``in_syn``
    (..., e, N) with the same leading stack axes (none for one matrix);
    the result is (..., d, e), Syn_out * diag(values) * Ana_in.

    One accumulation builds ``Multiplier.matrix`` and the block matrices
    ``MultiplierStack.matrix`` of ``blockseq``, so a block matrix comes out
    the same whether it is built alone or as part of a stack. The fixed
    accumulation order makes the matrix of an embedded block-diagonal
    system agree entrywise with the per-block matrices (zero terms from
    other blocks leave partial sums untouched); a BLAS product would
    regroup the sums and lose that exactness. Reserved for matrices that
    must be entrywise exact. Candidates that only feed a relative residual
    norm (``_inverse_defect``, ``verify_canonical_inversion``) are one
    BLAS product (Syn_out * values) @ Ana_in instead.
    """
    out = np.zeros(out_syn.shape[:-1] + in_syn.shape[-2:-1], dtype=np.complex128)
    # term n reads row n of each, contiguous, not a strided column
    out_rows = np.ascontiguousarray(np.swapaxes(out_syn, -1, -2))
    in_rows = np.conj(np.swapaxes(in_syn, -1, -2), order="C")
    # entries beyond the double range become inf or NaN, which the
    # invertibility policy then rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(values.shape[-1]):
            out += values[..., n, None, None] * (out_rows[..., n, :, None] * in_rows[..., n, None, :])
    return out


def build(m: Symbol, phi: FiniteFrame, psi: FiniteFrame,
          meanwhile: Callable[[], object] | None = None) -> Multiplier:
    """Assemble the multiplier for symbol ``m``, output ``phi``, input ``psi``.

    ``meanwhile``, a function of no argument, runs once the shapes are
    checked and before the matrix is taken, which a forked child may
    accumulate in the meantime (``_build_meanwhile``). Without it nothing
    forks.
    """
    return Multiplier(m, phi, psi, meanwhile)


# The smallest N d^2 whose matrix a child accumulates. In a CLI process of
# one BLAS thread on a 2-core x86_64 host, the fork takes 1-1.8 ms, and the
# parent then pays a page fault at its first write to each page it shares
# with the child. `build` with `prepare_verification` as `meanwhile` took,
# serial against overlapped, in `multiplier --verify-all` processes of
# Gaussian frames (medians of 15 alternating runs), 13.7 -> 17.6 ms at
# (d, N) = (32, 128), 17.0 -> 20.0 ms at (64, 256), 24.7 -> 28.7 ms at
# (80, 320), 38.5 -> 31.6 ms at (88, 352) and 64.4 -> 45.8 ms at (128, 512):
# the child costs time up to N d^2 of about 2.0e6 and saves 5 ms or more
# from 2.7e6.
BUILD_CHILD_MIN_TERMS = 1 << 21


def _build_meanwhile(arrays: tuple[np.ndarray, ...], meanwhile: Callable[[], object]) -> np.ndarray:
    """``_termwise_matrices(*arrays)``, taken after ``meanwhile()`` has run.

    A forked child accumulates it meanwhile where N d^2 reaches
    BUILD_CHILD_MIN_TERMS and ``overlap.may_fork``, and sends it over a
    pipe; any failure on the child's side leaves it to this process.
    """
    from . import overlap  # formats has loaded it: only the multiplier command passes meanwhile

    values, out_syn, _ = arrays
    fork = values.size * out_syn.shape[0] ** 2 >= BUILD_CHILD_MIN_TERMS and overlap.may_fork()
    with overlap.Child(fork, _termwise_matrices, *arrays) as child:
        meanwhile()
        return child.result()


def apply_termwise(m: Symbol, phi: FiniteFrame, psi: FiniteFrame, f) -> np.ndarray:
    """Direct evaluation of sum_n m_n <f, psi_n> phi_n, term by term.

    Kept as an explicit loop so it stays an independent route from the
    matrix realization; tests compare the two.
    """
    vec = np.asarray(f, dtype=np.complex128).reshape(-1)
    if vec.size != phi.dim:
        raise DimensionMismatch(f"vector length {vec.size} != dim {phi.dim}")
    out = np.zeros(phi.dim, dtype=np.complex128)
    for n in range(phi.size):
        coefficient = complex(np.sum(vec * np.conj(psi.synthesis[:, n])))
        out = out + m.values[n] * coefficient * phi.synthesis[:, n]
    return out


def invert(mult: Multiplier, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Matrix inverse of the multiplier under ``check_invertible`` at size max(d, N)."""
    check_invertible(*mult._sigma_extremes(), max(mult.phi.synthesis.shape), tol)
    return mult._inverse_matrix()


class InducedDuals(NamedTuple):
    """The two dual frames an invertible multiplier induces."""

    psi_dagger: FiniteFrame
    phi_dagger: FiniteFrame


def induced_duals(mult: Multiplier, tol: ToleranceConfig = DEFAULT_TOL) -> InducedDuals:
    """Duals produced by pushing the weighted frame vectors through the inverse.

    psi_dagger_n = Minv (m_n phi_n) is a dual frame of the input side Psi;
    phi_dagger_n = Minv* (conj(m_n) psi_n) is a dual frame of the output
    side Phi. Requires invertibility and a zero-free symbol.
    """
    if not mult.symbol.all_nonzero:
        raise ZeroSymbolEntry("induced duals need a symbol without zero entries")
    minv = invert(mult, tol)
    if mult._duals is None:
        if mult._origin is not None:
            duals = induced_duals(mult._origin, tol)
            mult._duals = InducedDuals(psi_dagger=duals.phi_dagger, phi_dagger=duals.psi_dagger)
        else:
            psi_dagger, phi_dagger = _induced_dual_syntheses(
                minv, mult.symbol.values, mult.phi.synthesis, mult.psi.synthesis)
            mult._duals = InducedDuals(psi_dagger=FiniteFrame._adopt(psi_dagger),
                                       phi_dagger=FiniteFrame._adopt(phi_dagger))
    return mult._duals


def _induced_dual_syntheses(minv: np.ndarray, m: np.ndarray, phi_syn: np.ndarray,
                            psi_syn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Synthesis matrices of psi_dagger and phi_dagger, for one multiplier or a stack.

    Every argument may carry the same leading stack axes: minv (..., d, d),
    m (..., N), phi_syn and psi_syn (..., d, N).
    """
    return (minv @ (phi_syn * m[..., None, :]),
            adjoint(minv) @ (psi_syn * np.conj(m)[..., None, :]))


class MultiplierStack:
    """K multipliers given as arrays, the stacked twin of ``Multiplier`` for block sweeps.

    ``values`` (K, N) are the symbols and ``phi_syn``, ``psi_syn`` (K, d, N)
    the synthesis matrices of the two sides. ``matrix`` (K, d, d) is built
    by the accumulation of ``Multiplier.matrix``, so each of its matrices
    is the one the block alone gives, entry for entry.
    """

    __slots__ = ("values", "phi_syn", "psi_syn", "matrix")

    def __init__(self, values: np.ndarray, phi_syn: np.ndarray, psi_syn: np.ndarray) -> None:
        self.values, self.phi_syn, self.psi_syn = values, phi_syn, psi_syn
        self.matrix = _termwise_matrices(values, phi_syn, psi_syn)

    def induced_duals(self, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
        """Syntheses (psi_dagger, phi_dagger), each (K, d, N), by the checks of ``induced_duals``.

        ZeroSymbolEntry for any zero weight, NotInvertible for the first
        matrix failing ``check_invertible`` at size max(d, N).
        """
        if not np.all(self.values != 0):
            raise ZeroSymbolEntry("induced duals need a symbol without zero entries")
        check_invertible(*singular_extremes(self.matrix), max(self.phi_syn.shape[-2:]), tol)
        minv = inverse(self.matrix)
        return _induced_dual_syntheses(minv, self.values, self.phi_syn, self.psi_syn)


def _inverse_defect(minv: np.ndarray, recip: np.ndarray, out_syn: np.ndarray,
                    in_analysis: np.ndarray) -> np.ndarray:
    """Syn_out diag(1/m) Ana_in - Minv (d x d), for one multiplier or a stack of sides.

    Neither side is tested for duality. Every argument may carry the same
    leading stack axes: minv (..., d, d), recip (..., N), out_syn (..., d, N)
    and in_analysis (..., N, d).
    """
    defect = (out_syn * recip[..., None, :]) @ in_analysis
    defect -= minv
    return defect


class DualsCertificate(NamedTuple):
    """Exact certification of an inverse identity over every dual frame, with the defect it measured.

    Every dual of the input side is tilde + H (I - C) for a d x N
    perturbation H, and the identity's defect is affine in H: it is
    ``defect`` + H ``slope``, with ``defect`` (d x d) its value at the
    canonical dual and ``slope`` (N x d) the fixed matrix B. Checking it at
    H = 0 (base_residual, ||defect||) and checking that the linear
    coefficient vanishes (linear_residual, ||slope|| scaled by
    ``dual_norm`` = ||tilde||) covers all duals at once, which is the same
    as probing every basis perturbation one at a time. Both residuals are
    relative to ``inverse_norm`` = ||Minv||.
    """

    base_residual: float
    linear_residual: float
    defect: np.ndarray
    slope: np.ndarray
    dual_norm: float
    inverse_norm: float

    @property
    def max_residual(self) -> float:
        """The residual that certifies every dual at or below rel_eps."""
        return max(self.base_residual, self.linear_residual)


SIDE_STACK_BYTES = 1 << 16  # bytes of the d x N arrays of both sides that one stacked step holds
_ENTRY_BYTES = np.dtype(np.complex128).itemsize


def _both_sides_fit(mult: Multiplier | FiniteFrame) -> bool:
    """Whether two d x N arrays of a multiplier, or of one of its frames, fit SIDE_STACK_BYTES.

    If they do, both sides go in one step.
    """
    return 2 * mult.dim * mult.size * _ENTRY_BYTES <= SIDE_STACK_BYTES


def _dual_chunks(psi: FiniteFrame, phi: FiniteFrame) -> tuple[tuple[FiniteFrame, ...], ...]:
    """Psi and Phi in the chunks their canonical duals are solved in, as in ``_side_chunks``."""
    return ((psi, phi),) if _both_sides_fit(psi) else ((psi,), (phi,))


class _Sides:
    """A chunk of the sides M (side 0) and M* (side 1) of a multiplier, stacked side by side.

    Side k's input side is ``frames``[k] (Psi, Phi), its induced dual
    ``duals``[k] (psi_dagger, phi_dagger) and its symbol ``symbols``[k]
    (m, conj m); every stack holds side k at index k. M* swaps the sides,
    so for both sides the output-side stacks are the input-side ones
    reversed; a chunk of one side stacks views. Tolerance-free and built
    once per multiplier, a chunk holds no multiplier, so no reference cycle.
    """

    __slots__ = ("frames", "duals", "symbols", "minv", "in_syn", "out_syn", "in_duals", "out_duals",
                 "_values", "_recip", "_tilde")

    def __init__(self, sides: tuple[Multiplier, ...], duals: tuple[FiniteFrame, ...],
                 output_duals: tuple[FiniteFrame, ...]) -> None:
        self.frames = tuple(side.psi for side in sides)
        self.duals = duals
        self.symbols = tuple(side.symbol for side in sides)
        self.minv = stacked([side._inverse_matrix() for side in sides])
        self.in_syn = stacked([frame.synthesis for frame in self.frames])
        self.in_duals = stacked([dual.synthesis for dual in duals])
        if len(sides) == 2:
            self.out_syn, self.out_duals = self.in_syn[::-1], self.in_duals[::-1]
        else:
            self.out_syn = sides[0].phi.synthesis[None]
            self.out_duals = output_duals[0].synthesis[None]
        self._values = self._recip = self._tilde = None

    def canonical_duals(self, tol: ToleranceConfig) -> tuple[list[FiniteFrame], np.ndarray]:
        """The canonical duals of the input sides and their stack."""
        tildes = frames.canonical_duals(self.frames, tol)
        if self._tilde is None:
            self._tilde = stacked([dual.synthesis for dual in tildes])
        return tildes, self._tilde

    def reconstruct(self, tol: ToleranceConfig) -> list[bool]:
        """``frames.is_dual`` of each side's induced dual and input side."""
        defects = frames.reconstruction_defect(self.in_duals, self.in_syn)
        return [bool(tol.within(frobenius(defect), dual.norm * frame.norm))
                for defect, dual, frame in zip(defects, self.duals, self.frames)]

    def certificates(self, tol: ToleranceConfig, inverse_norm: Callable[[], float]) -> list[DualsCertificate]:
        """``certify_minv1_all_duals`` of each side; ``inverse_norm`` gives ||Minv||, also ||Minv*||."""
        if self._recip is None:
            self._recip = stacked([symbol.reciprocal().values for symbol in self.symbols])
        recip = self._recip
        tildes, tilde = self.canonical_duals(tol)
        # a conjugate copy of the output sides' duals, formed once for the defect and the slope
        ana = adjoint(self.out_duals)
        defect = _inverse_defect(self.minv, recip, tilde, ana)

        slope = recip[..., None] * ana
        del ana  # not held through the product below, the peak of the certificate
        slope -= adjoint(self.in_syn) @ (tilde @ slope)
        minv_norm = inverse_norm()
        return [DualsCertificate(
            base_residual=relative_to(frobenius(side_defect), minv_norm),
            linear_residual=relative_to(frobenius(side_slope) * dual.norm, minv_norm),
            defect=side_defect, slope=side_slope, dual_norm=dual.norm, inverse_norm=minv_norm)
            for side_defect, side_slope, dual in zip(defect, slope, tildes)]

    def criteria(self, tol: ToleranceConfig) -> list[tuple[bool, bool]]:
        """(input side ~ weighted output side, induced dual = canonical dual) of each side.

        The weighted sides m Phi and conj(m) Psi are one stack that dies
        with the call.
        """
        tildes, tilde = self.canonical_duals(tol)
        if self._values is None:
            self._values = stacked([symbol.values for symbol in self.symbols])
        weighted = self.out_syn * self._values[..., None, :]
        frames.require_finite(weighted)  # as the frames m Phi and conj(m) Psi would be
        equivalent = frames.are_equivalent(self.in_syn, tilde, weighted, tol)
        canonical = [frames.frames_equal(dual, canonical_dual, tol)
                     for dual, canonical_dual in zip(self.duals, tildes)]
        return list(zip(equivalent, canonical))


def _side_chunks(mult: Multiplier, tol: ToleranceConfig) -> tuple[_Sides, ...]:
    """The chunks of the sides of ``mult``, one of both sides when ``_both_sides_fit``, else one per side.

    The checks of ``induced_duals`` are made at every call.
    """
    duals = induced_duals(mult, tol)  # (psi_dagger, phi_dagger): the input-side duals of M and M*
    if mult._sides is None:
        sides = (mult, mult.adjoint())
        chunks = ((0, 1),) if _both_sides_fit(mult) else ((0,), (1,))
        mult._sides = tuple(_Sides(tuple(sides[k] for k in chunk), tuple(duals[k] for k in chunk),
                                   tuple(duals[1 - k] for k in chunk)) for chunk in chunks)
    return mult._sides


def all_duals_certificates(mult: Multiplier, tol: ToleranceConfig, read: Callable) -> list:
    """``read`` of each side's all-duals certificate, M's then M*'s, as soon as its chunk is done.

    Above SIDE_STACK_BYTES one side's certificate, with its N x d slope,
    dies before the other side is certified.
    """
    return [result for sides in _side_chunks(mult, tol)
            for result in map(read, sides.certificates(tol, mult._minv_norm))]


def certify_minv1_all_duals(mult: Multiplier, tol: ToleranceConfig = DEFAULT_TOL) -> DualsCertificate:
    """Certify Minv = Syn_{Psi_d} diag(1/m) Ana_{phi_dagger} for ALL duals Psi_d.

    Duals of Psi are exactly tilde_Psi + H (I - C) over perturbations H,
    with C = Ana_Psi Syn_tilde the cross-correlation of Psi with its
    canonical dual. The defect then equals defect(0) + H B for the fixed
    matrix B = (I - C) diag(1/m) Ana_{phi_dagger}, so defect(0) == 0 and
    B == 0 certify every dual. B is formed as X - Ana_Psi (Syn_tilde X)
    with X = diag(1/m) Ana_{phi_dagger}, never the N x N matrix C. Both
    norms are reported relative to ||Minv||, with B additionally scaled by
    ||tilde_Psi||, the perturbation norm the sampler uses. A ||Minv|| that
    is zero or overflows gives +inf, the rule of ``relative_to``. The
    certificate holds defect(0) and B, an N x d array, for the sampler.
    """
    duals = induced_duals(mult, tol)
    return _Sides((mult,), duals[:1], duals[1:]).certificates(tol, mult._minv_norm)[0]


def certify_minv2_all_duals(mult: Multiplier, tol: ToleranceConfig = DEFAULT_TOL) -> DualsCertificate:
    """Certify Minv = Syn_{psi_dagger} diag(1/m) Ana_{Phi_d} for ALL duals Phi_d."""
    return certify_minv1_all_duals(mult.adjoint(), tol)


def induced_duals_are_duals(mult: Multiplier, tol: ToleranceConfig = DEFAULT_TOL) -> list[bool]:
    """Whether psi_dagger is a dual of Psi and phi_dagger one of Phi, as ``frames.is_dual`` decides."""
    return [ok for sides in _side_chunks(mult, tol) for ok in sides.reconstruct(tol)]


def prepare_verification(phi: FiniteFrame, psi: FiniteFrame, tol: ToleranceConfig) -> None:
    """Fill what the --verify-all bundle reads and that needs neither the matrix nor a tolerance.

    Loads numpy.random, which ``sampling_generator`` uses, measures ||Psi||
    and ||Phi|| and solves for the canonical duals of Psi and Phi in the
    chunks of ``verify_canonical_inversion``: caches that the bundle would
    fill with the same bits. It raises and prints nothing. At the first
    step that would raise (NotAFrame, the ValueError of a dual that is not
    finite) or warn (a norm that overflows), it stops, and the bundle meets
    that error or warning at its usual point.
    """
    import numpy.random  # noqa: F401 - 12 ms in a fresh process

    with np.errstate(divide="raise", over="raise", invalid="raise"), \
            contextlib.suppress(NotAFrame, ValueError, FloatingPointError):
        psi.norm, phi.norm  # noqa: B018 - cached properties
        for chunk in _dual_chunks(psi, phi):
            frames.canonical_duals(chunk, tol)


def sampling_generator(seed: int) -> np.random.Generator:
    """The generator random duals are drawn from: np.random.default_rng of an explicit seed."""
    if seed is None:
        raise ValueError("sampling operations require an explicit seed")
    return np.random.default_rng(seed)


def sampled_dual_residuals(certificate: DualsCertificate, draws: int,
                           rng: np.random.Generator) -> float:
    """Cross-check of an all-duals certificate: the worst residual over ``draws`` random duals.

    Each draw is a dual tilde + H (I - C) of the certificate's input side,
    for a d x N perturbation H of norm ||tilde||. Its identity residual,
    relative to ||Minv||, is read off the certificate's affine defect as
    ||defect + H slope|| / ||Minv||: one d x N by N x d product per draw,
    and no dual, candidate or frame is formed. The draws are duals by
    construction, so they are not tested again (at a tiny rel_eps a
    duality test would reject them).

    H is ||tilde|| G / ||G|| for a d x N complex G whose entries' real and
    imaginary parts are standard normals, drawn in memory order: row by row,
    the real part of an entry just before its imaginary part, one draw after
    the other, into one buffer of as many draws as fit SIDE_STACK_BYTES
    (at least one), reused by every batch. The scale is applied to the
    d x d product G slope, not to G. The verification bundle draws both
    sides from one generator: the input side's duals, then the output
    side's, from the adjoint's certificate.
    """
    defect, slope = certificate.defect, certificate.slope
    shape = (defect.shape[0], slope.shape[0])
    batch = max(1, min(draws, SIDE_STACK_BYTES // (shape[0] * shape[1] * _ENTRY_BYTES)))
    buffer = np.empty((batch,) + shape, dtype=np.complex128)
    worst = 0.0
    for first in range(0, draws, batch):
        perturbations = buffer[:min(batch, draws - first)]
        rng.standard_normal(out=perturbations.view(np.float64))
        for perturbation, step in zip(perturbations, perturbations @ slope):
            step *= certificate.dual_norm / frobenius(perturbation)
            step += defect
            worst = max(worst, relative_to(frobenius(step), certificate.inverse_norm))
    return worst


def uniqueness_nullity(symbol: Symbol, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Kernel dimension of the inverse-identity constraints over ALL duals, from the symbol alone.

    With D = diag(1/m) and C = Ana_Psi Syn_tilde, a column x of Ana_G that
    satisfies Syn_{Psi_d} D x = 0 for every dual Psi_d = tilde_Psi + H (I - C)
    satisfies C D x = 0 (H = 0) and (I - C) D x = 0 (every H), so the
    constraints stack to [C; I - C] D. C is an orthogonal projector, so
    [C; I - C] is an isometry and the stack has exactly the singular values
    |1/m_n| of D.

    Under the package's rank rule (a singular value counts as zero unless
    ``tol.spans`` it and the largest, at size N) the nullity is the number
    of n for which min_k |m_k| and |m_n| fail ``tol.spans``: zero, so that
    the induced dual is the only solution, unless the moduli span 1/rel_eps
    (or 1/(N eps), the rank floor) or more. The count needs no frame, seed
    or factorization, does not change when the symbol is rescaled, and
    serves both sides, since conj(m) has the same moduli.
    """
    if not symbol.all_nonzero:
        raise ZeroSymbolEntry("the uniqueness constraints need a zero-free symbol")
    moduli = symbol.moduli
    return int(np.count_nonzero(~tol.spans(moduli.min(), moduli, moduli.size)))


def verify_canonical_inversion(mult: Multiplier, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Residual of Minv against the canonical-duals multiplier.

    Builds Syn_{tilde_Psi} diag(1/m) Ana_{tilde_Phi} and compares with the
    actual inverse, relative to ||Minv||. For exact (Riesz) bases with a
    zero-free symbol this vanishes; for redundant sequences it usually
    does not. The invertibility and spanning decisions are made under
    ``tol`` on every call; the residual itself depends on no tolerance and
    is computed once per multiplier.
    """
    minv = invert(mult, tol)  # NotInvertible before any NotAFrame
    tilde_psi, tilde_phi = [dual for chunk in _dual_chunks(mult.psi, mult.phi)
                            for dual in frames.canonical_duals(chunk, tol)]
    residual = mult._canonical_residual
    if residual is None:
        defect = _inverse_defect(minv, mult.symbol.reciprocal().values, tilde_psi.synthesis,
                                 tilde_phi.analysis_matrix)
        residual = relative_to(frobenius(defect), mult._minv_norm())
        mult._canonical_residual = residual
    return residual


class PropQReport(NamedTuple):
    """Joint outcome of the canonical-inversion and equivalence tests.

    ``violation`` is the message of the first implication between them
    that fails, and empty when the report is consistent.
    """

    eq1_holds: bool
    psi_equiv_mphi: bool
    phi_equiv_mbar_psi: bool
    psi_dagger_is_canonical: bool
    phi_dagger_is_canonical: bool
    constant_symbol: bool
    constant_modulus: bool
    violation: str = ""

    @property
    def constant_modulus_chain(self) -> dict | None:
        """The legs of the constant-modulus chain, or None when the moduli differ."""
        if not self.constant_modulus:
            return None
        return {
            "invertible_and_eq1": self.eq1_holds,
            "psi_equiv_mphi": self.psi_equiv_mphi,
            "phi_equiv_mbar_psi": self.phi_equiv_mbar_psi,
            "all_agree": self.eq1_holds == self.psi_equiv_mphi == self.phi_equiv_mbar_psi,
        }

    def as_dict(self) -> dict:
        """Every field but ``violation``, and ``constant_modulus``, which the chain reports."""
        fields = self._asdict()
        del fields["constant_modulus"], fields["violation"]
        return fields

    def as_finding(self, name: str, ok: bool, value) -> dict:
        """The finding of ``ok`` and ``value``; a failed one whose detail is the violation, if any."""
        if self.violation:
            return finding(name, False, detail=self.violation)
        return finding(name, ok, value=value)


def check_prop_q(mult: Multiplier, tol: ToleranceConfig = DEFAULT_TOL) -> PropQReport:
    """Evaluate the equivalence criteria tied to the canonical inversion.

    Computes five booleans: whether the canonical-duals multiplier inverts
    M (eq1_holds); for the input side, whether it is equivalent to the
    weighted output side m*Phi and whether its induced dual psi_dagger is
    its canonical dual; and the same pair for the output side, which is
    the input side of the adjoint M* = M_{conj m, Psi, Phi}: Phi against
    conj(m)*Psi, phi_dagger against the canonical dual of Phi. The
    implications that must hold between them are checked:

    * on each side, the equivalence implies eq1_holds and is equivalent to
      the induced dual being canonical;
    * for a symbol whose entries share one nonzero modulus, a constant
      symbol included, eq1_holds, psi_equiv_mphi and phi_equiv_mbar_psi
      agree: the constant-modulus chain, given as ``constant_modulus_chain``.
      With the two agreements above, the four non-eq1 booleans then agree.

    The message of the first that fails is the report's ``violation``, which
    callers report as a failed asserted finding with the message as its
    detail. Until no norm squares its entries, a norm that leaves the
    double range can give one on valid input (every input times 1e-100).

    Equivalence is symmetric, so ``frames.are_equivalent`` maps from Psi or
    Phi, whose canonical duals the canonical inversion has already taken
    (NotAFrame there for a side that does not span); the two sides are
    decided in the stacked chunks of ``_side_chunks``.
    ZeroSymbolEntry for a symbol with a zero, NotInvertible for a singular M.
    """
    if not mult.symbol.all_nonzero:
        raise ZeroSymbolEntry("the equivalence criteria need a zero-free symbol")
    eq1 = tol.within(verify_canonical_inversion(mult, tol), 1.0)
    # (psi_equiv_mphi, phi_equiv_mbar_psi) and (psi_dagger_is_canonical, phi_dagger_is_canonical)
    equivalent, canonical = zip(*(pair for sides in _side_chunks(mult, tol) for pair in sides.criteria(tol)))
    report = PropQReport(eq1, *equivalent, *canonical,
                         constant_symbol=mult.symbol.is_constant(tol),
                         constant_modulus=mult.symbol.has_constant_modulus(tol))
    return report._replace(violation=_prop_q_violation(report))


def _prop_q_violation(report: PropQReport) -> str:
    """The message of the first implication the report violates; empty if none."""
    for equivalent, canonical, side in (
            ("psi_equiv_mphi", "psi_dagger_is_canonical", "input side equivalent to weighted output side"),
            ("phi_equiv_mbar_psi", "phi_dagger_is_canonical",
             "output side equivalent to conjugate-weighted input side")):
        equivalence, is_canonical = getattr(report, equivalent), getattr(report, canonical)
        if equivalence and not report.eq1_holds:
            return f"{side}, yet eq1 fails"
        if equivalence != is_canonical:
            return f"{equivalent} and {canonical} must agree (got {equivalence} vs {is_canonical})"
    legs = (report.eq1_holds, report.psi_equiv_mphi, report.phi_equiv_mbar_psi)
    if (report.constant_modulus or report.constant_symbol) and len(set(legs)) != 1:
        return ("constant-modulus legs disagree: "
                f"eq1={report.eq1_holds}, "
                f"psi~mPhi={report.psi_equiv_mphi}, phi~mbarPsi={report.phi_equiv_mbar_psi}")
    return ""


def check_weighted_canonical(phi: FiniteFrame, m: Symbol,
                             tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Does the canonical dual of (m_n phi_n) equal (1/conj(m_n)) tilde_phi_n?

    With w = |m|^2 and S_w = Syn_Phi diag(w) Ana_Phi, its frame operator, it
    does exactly when S_w tilde_phi_n = w_n phi_n for every n, as on Riesz bases
    and for unit moduli: ``tol.within`` of ||S_w Syn_tilde - Syn_Phi diag(w)|| at
    ||Syn_Phi diag(w)||. No weighted frame is built, since for a zero-free m it
    spans with Phi: only Phi is tested (NotAFrame) and factorized. |m| is first
    divided, exactly, by the power of two of its largest entry: only Phi's range matters.
    """
    if not m.all_nonzero:
        raise ZeroSymbolEntry("weighted canonical comparison needs a zero-free symbol")
    if len(m) != phi.size:
        raise DimensionMismatch(f"need {phi.size} weights, got {len(m)}")
    tilde_phi = frames.canonical_dual(phi, tol)
    weighted = phi.synthesis * np.ldexp(m.moduli, -np.frexp(m.sup_modulus)[1]) ** 2
    defect = weighted @ phi.analysis_matrix @ tilde_phi.synthesis - weighted
    return bool(tol.within(frobenius(defect), frobenius(weighted)))
