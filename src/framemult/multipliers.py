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
M and on M* once each. For a symbol of one nonzero modulus, the chain
"eq1 iff Psi ~ m Phi iff Phi ~ conj(m) Psi" is their corollary, asserted
and given by the same report. A violated implication between the criteria
is a value of that report, its message, which the CLI and the examples
report as a failed asserted finding with the message as its detail. Until
no norm squares its entries, a norm that leaves the double range can give
one on valid input: every input scaled by 1e-100 reports "yet eq1 fails".
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import frames
from .errors import DimensionMismatch, ZeroSymbolEntry
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
)
from .report import finding


class Symbol:
    """Finite complex weight sequence with modulus predicates.

    A finite symbol is semi-normalized exactly when ``inf_modulus`` > 0
    (the finite upper bound is automatic for a finite sequence).

    A symbol is immutable, so whether it is zero-free and its reciprocal
    are lazy per-instance caches, each computed at most once; neither
    depends on a tolerance. A failed reciprocal is not cached, so it
    raises ZeroSymbolEntry on every call.
    """

    __slots__ = ("_values", "_nonzero", "_reciprocal")

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
        self._nonzero = self._reciprocal = None

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
    def inf_modulus(self) -> float:
        return float(np.min(np.abs(self._values)))

    @property
    def sup_modulus(self) -> float:
        return float(np.max(np.abs(self._values)))

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
        spread = float(np.max(np.abs(self._values - self._values[0])))
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
    duals, the canonical-inversion residual, the adjoint's symbol and an
    adjoint's matrix are lazy per-instance caches, each computed at most
    once and free of any tolerance. An adjoint takes its derived values from
    the multiplier it came from, so the two share one SVD, one inverse and
    one ||Minv||, which is also ||Minv*||.
    """

    def __init__(self, symbol: Symbol, phi: FiniteFrame, psi: FiniteFrame) -> None:
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
        self._matrix = _termwise_matrices(symbol.values, phi.synthesis, psi.synthesis)

    # lazy caches; _origin is the multiplier an adjoint was derived from,
    # _conjugate the symbol conj(m) of a multiplier's adjoints, _extremes
    # the pair (sigma_max, sigma_min)
    _origin = _conjugate = _matrix = _extremes = _inverse = _inverse_norm = _duals = None
    _canonical_residual = None

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


def build(m: Symbol, phi: FiniteFrame, psi: FiniteFrame) -> Multiplier:
    """Assemble the multiplier for symbol ``m``, output ``phi``, input ``psi``."""
    return Multiplier(m, phi, psi)


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


def _inverse_defect(mult: Multiplier, out_side: FiniteFrame, in_analysis: np.ndarray,
                    tol: ToleranceConfig) -> np.ndarray:
    """Syn_out diag(1/m) Ana_in - Minv (d x d), given Ana_in; neither side is tested for duality."""
    minv = invert(mult, tol)
    recip = mult.symbol.reciprocal().values
    defect = (out_side.synthesis * recip[None, :]) @ in_analysis
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
    invert(mult, tol)
    recip = mult.symbol.reciprocal().values
    tilde_psi = frames.canonical_dual(mult.psi, tol)
    phi_dagger = induced_duals(mult, tol).phi_dagger
    ana = phi_dagger.analysis_matrix  # a conjugate copy, formed once for the defect and the slope
    defect = _inverse_defect(mult, tilde_psi, ana, tol)

    slope = recip[:, None] * ana
    del ana  # not held through the product below, the peak of the certificate
    slope -= mult.psi.analysis_matrix @ (tilde_psi.synthesis @ slope)
    minv_norm = mult._minv_norm()
    return DualsCertificate(
        base_residual=relative_to(frobenius(defect), minv_norm),
        linear_residual=relative_to(frobenius(slope) * tilde_psi.norm, minv_norm),
        defect=defect, slope=slope, dual_norm=tilde_psi.norm, inverse_norm=minv_norm)


def certify_minv2_all_duals(mult: Multiplier, tol: ToleranceConfig = DEFAULT_TOL) -> DualsCertificate:
    """Certify Minv = Syn_{psi_dagger} diag(1/m) Ana_{Phi_d} for ALL duals Phi_d."""
    return certify_minv1_all_duals(mult.adjoint(), tol)


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
    the real part of an entry just before its imaginary part. G is drawn
    into one buffer that every draw reuses, and the scale is applied to the
    d x d product G slope, not to G. The verification bundle draws both
    sides from one generator: the input side's duals, then the output
    side's, from the adjoint's certificate.
    """
    defect, slope = certificate.defect, certificate.slope
    perturbation = np.empty((defect.shape[0], slope.shape[0]), dtype=np.complex128)
    worst = 0.0
    for _ in range(draws):
        rng.standard_normal(out=perturbation.view(np.float64))
        step = perturbation @ slope
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
    moduli = np.abs(symbol.values)
    return int(np.count_nonzero(~tol.spans(np.min(moduli), moduli, moduli.size)))


def verify_canonical_inversion(mult: Multiplier, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Residual of Minv against the canonical-duals multiplier.

    Builds Syn_{tilde_Psi} diag(1/m) Ana_{tilde_Phi} and compares with the
    actual inverse, relative to ||Minv||. For exact (Riesz) bases with a
    zero-free symbol this vanishes; for redundant sequences it usually
    does not. The invertibility and spanning decisions are made under
    ``tol`` on every call; the residual itself depends on no tolerance and
    is computed once per multiplier.
    """
    invert(mult, tol)  # NotInvertible before any NotAFrame
    tilde_psi = frames.canonical_dual(mult.psi, tol)
    tilde_phi = frames.canonical_dual(mult.phi, tol)
    residual = mult._canonical_residual
    if residual is None:
        defect = _inverse_defect(mult, tilde_psi, tilde_phi.analysis_matrix, tol)
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


def _input_side_criteria(mult: Multiplier, tol: ToleranceConfig) -> tuple[bool, bool]:
    """(Psi ~ m Phi, psi_dagger = tilde Psi) of the input side; of the output side on the adjoint.

    The weighted side m Phi is built here and dies with the call.
    """
    return (frames.is_equivalent(mult.psi, weighted_frame(mult.phi, mult.symbol), tol),
            frames.frames_equal(induced_duals(mult, tol).psi_dagger,
                                frames.canonical_dual(mult.psi, tol), tol))


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

    Equivalence is symmetric, so ``frames.is_equivalent`` maps from Psi or
    Phi, whose canonical duals the canonical inversion has already taken
    (NotAFrame there for a side that does not span).
    ZeroSymbolEntry for a symbol with a zero, NotInvertible for a singular M.
    """
    if not mult.symbol.all_nonzero:
        raise ZeroSymbolEntry("the equivalence criteria need a zero-free symbol")
    eq1 = tol.within(verify_canonical_inversion(mult, tol), 1.0)
    # (psi_equiv_mphi, phi_equiv_mbar_psi) and (psi_dagger_is_canonical, phi_dagger_is_canonical)
    equivalent, canonical = zip(*(_input_side_criteria(side, tol) for side in (mult, mult.adjoint())))
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
    moduli = np.abs(m.values)
    weighted = phi.synthesis * np.ldexp(moduli, -np.frexp(np.max(moduli))[1]) ** 2
    defect = weighted @ phi.analysis_matrix @ tilde_phi.synthesis - weighted
    return bool(tol.within(frobenius(defect), frobenius(weighted)))
