"""Block-structured infinite frame and symbol systems.

Two shapes of infinite system are covered.

* ``BlockSystem``: the multiplier splits into independent finite blocks,
  one per index k >= 1, so every operator question reduces to a sweep of
  small dense problems plus closed-form limit metadata.
* ``InterleavedSystem``: one recurrent basis direction keeps receiving
  terms forever (with geometrically decaying coefficient products) while
  every other direction is touched finitely often; the operator action is
  evaluated with a certified truncation-tail bound.

Each system is its closed form: base templates and per-slot exponents for
a block system, heads and ratios for an interleaved one. The statements
about every k (the symbol envelope, the tail ratio, whether the weighted
side m Phi is Bessel) are read off that closed form, with no generated
prefix; only the numeric frame-bound extremes come from a sweep. The side
conj(m) Psi is the weighted side of ``adjoint()``, M* = M_(conj m, Psi, Phi).

Sweeps over blocks k = 1..horizon are stacked: ``BlockSystem.stacked``
returns the blocks of a range as (K, L, b) and (K, L) arrays, and each
sweep handles them with a few numpy calls per stack instead of Python work
per block: stacked products, ``inv``, and the singular values and
eigenvalues of ``numerics``, which for scalar blocks (b = 1, every packaged
example) are the moduli and real parts of the entries, with no LAPACK
call. The stacked work goes through one named entry point per module:
``multipliers.MultiplierStack`` for the block multipliers and their induced
duals, ``frames.reconstructs`` for the duality test. A sweep takes its
blocks in chunks of at most SWEEP_CHUNK, so its memory does not grow with
the horizon. Every value a sweep reports is the one the per-block
computation gives, bit for bit: the stacked arithmetic is the same
elementwise and per-matrix arithmetic on the same operands. The one
exception is the duality decision: ``frames.reconstructs`` takes a stack's
norms from ``np.linalg.norm(axis=(-2, -1))``, ``is_dual`` one pair's from
the 2-D ``frobenius``, whose sums of squares differ by a few ulps (4.1e-16
relative seen), so a decision exactly at its threshold can differ.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import frames as fr
from . import multipliers as mp
from .errors import RatioNotCertified, UnknownExample
from .numerics import DEFAULT_TOL, ToleranceConfig, adjoint, hermitian_extremes
from .report import finding

CLASS_FRAME = "frame"
CLASS_NOT_BESSEL = "not_bessel"
CLASS_BESSEL_NOT_FRAME = "bessel_not_frame"

SWEEP_HORIZON = 1000        # default per-block sweep depth
SWEEP_CHUNK = 1024          # blocks per stacked step of a sweep; bounds a sweep's memory


class SymbolProfile(NamedTuple):
    """Modulus envelope of an infinite weight sequence."""

    inf_modulus: float
    sup_modulus: float  # math.inf when unbounded
    all_nonzero: bool

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.sup_modulus)

    @property
    def semi_normalized(self) -> bool:
        return self.inf_modulus > 0.0 and self.bounded


class SystemBounds(NamedTuple):
    """Numeric extremes over a horizon plus the limit classification."""

    lambda_min: float
    lambda_max: float
    classification: str


class BlockSystem:
    """Infinite system whose multiplier is block-diagonal.

    Block k carries L template vectors per side in C^b and L weights: fixed
    base templates and weights, each slot scaled by k^(-e) with one exponent
    per slot. That closed form is the whole system, and the constructor
    takes it directly; ``constant_template`` builds the special case of
    all-zero exponents.
    """

    # ---------------------------------------------------------------- construction

    def __init__(self, phi, phi_exponents, psi, psi_exponents, m, m_exponents) -> None:
        phi_b = _as_templates(phi)
        psi_b = _as_templates(psi)
        m_b = np.asarray(m, dtype=np.complex128).reshape(-1)
        phi_e, psi_e, m_e = (np.asarray(e, dtype=float).reshape(-1)
                             for e in (phi_exponents, psi_exponents, m_exponents))
        length = m_b.size
        if not (phi_b.shape[0] == psi_b.shape[0] == length
                and phi_e.size == psi_e.size == m_e.size == length):
            raise ValueError("per-block template lengths must all match")
        if phi_b.shape[1] != psi_b.shape[1]:
            raise ValueError("template vector dimensions must match")
        if phi_b.shape[1] < 1:
            raise ValueError("block_dim must be positive")
        if not all(np.all(np.isfinite(a)) for a in (phi_b, phi_e, psi_b, psi_e, m_b, m_e)):
            raise ValueError("bases, exponents and weights must be finite")
        self.block_dim = phi_b.shape[1]
        self._closed_form = {"phi": (phi_b, phi_e), "psi": (psi_b, psi_e), "m": (m_b, m_e)}

    @classmethod
    def constant_template(cls, phi, psi, m) -> "BlockSystem":
        """Same templates in every block."""
        zeros = np.zeros(np.size(m))
        return cls(phi, zeros, psi, zeros, m, zeros)

    # ---------------------------------------------------------------- access

    def _parts(self):
        """(base, exponents) of phi, psi and m, in block order."""
        return (self._closed_form[key] for key in ("phi", "psi", "m"))

    def block(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Templates of block k >= 1: (phi (L,b), psi (L,b), m (L,))."""
        if k < 1:
            raise ValueError("block index starts at 1")
        return tuple(_scaled(base, np.power(float(k), -exponents))
                     for base, exponents in self._parts())

    def stacked(self, first: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Blocks first..first+count-1 stacked: phi (K,L,b), psi (K,L,b), m (K,L).

        k^(-e) is evaluated for all k at once, and entry i of each array
        equals the matching part of block(first + i) bit for bit.
        Non-finite entries (a finite exponent can still leave the double
        range) raise ValueError naming the first such block, the rule
        FiniteFrame and Symbol apply to a single block.
        """
        if first < 1:
            raise ValueError("block index starts at 1")
        if count < 1:
            raise ValueError("count must be at least 1")
        ks = np.arange(first, first + count, dtype=float)
        # both operands in full: with a broadcast exponent np.power takes a
        # scalar-exponent fast path (1/k for e = 1) that rounds differently
        # from the elementwise power block(k) computes
        phi, psi, m = (_scaled(base, np.power(np.repeat(ks[:, None], exponents.size, axis=1),
                                              np.tile(-exponents, (count, 1))))
                       for base, exponents in self._parts())
        # one whole-array test each; the per-block reduction only names a bad block
        if not (np.isfinite(phi).all() and np.isfinite(psi).all() and np.isfinite(m).all()):
            finite = np.isfinite(phi).all(axis=(1, 2)) & np.isfinite(psi).all(axis=(1, 2))
            finite &= np.isfinite(m).all(axis=1)
            raise ValueError(f"block {first + int(np.argmin(finite))} has non-finite entries")
        return phi, psi, m

    def adjoint(self) -> "BlockSystem":
        """The system of M* = M_(conj m, Psi, Phi): Phi and Psi swap and m becomes conj(m)."""
        (phi, phi_e), (psi, psi_e), (m, m_e) = self._parts()
        return BlockSystem(psi, psi_e, phi, phi_e, np.conj(m), m_e)

    def symbol_profile(self) -> SymbolProfile:
        """Modulus envelope of the weights over every block, from the closed form.

        A nonzero slot weight m k^(-e) decays to 0 from |m| at k = 1 when
        e > 0, grows without bound when e < 0 and stays |m| when e = 0.
        These are exact weights, not their doubles: weights [5e-324] with
        exponents [1] are ``all_nonzero``, yet ``stacked(1, 3)`` gives 5e-324,
        0, 0, on which ``MultiplierStack.induced_duals`` raises ZeroSymbolEntry.
        """
        m_b, m_e = self._closed_form["m"]
        mod = np.abs(m_b)
        low = np.where(m_e > 0, 0.0, mod)
        high = np.where((m_e < 0) & (mod > 0), math.inf, mod)
        return SymbolProfile(float(low.min()), float(high.max()), bool(np.all(mod > 0)))


def _scaled(base: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Base templates (L, b) or weights (L,) times per-slot weights (L,) or (K, L)."""
    return base * (weights if base.ndim == 1 else weights[..., None])


def _sweep(sys: BlockSystem, horizon: int):
    """Blocks 1..horizon as stacks (phi, psi, m) of at most SWEEP_CHUNK blocks each."""
    for first in range(1, horizon + 1, SWEEP_CHUNK):
        yield sys.stacked(first, min(SWEEP_CHUNK, horizon + 1 - first))


def _synthesis(templates: np.ndarray) -> np.ndarray:
    """(K, b, L) synthesis stack of (K, L, b) templates, laid out as FiniteFrame stores one."""
    return np.ascontiguousarray(templates.swapaxes(-1, -2))


def _block_matrices(phi: np.ndarray, psi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The block multipliers of a stack, by the accumulation of ``Multiplier.matrix``."""
    return mp.MultiplierStack(m, _synthesis(phi), _synthesis(psi)).matrix


def _worst_block_deviation(sys: BlockSystem, horizon: int, target: np.ndarray) -> float:
    """max over k = 1..horizon of max |M_k - target|, M_k the multiplier of block k."""
    return max(float(np.max(np.abs(_block_matrices(*blocks) - target)))
               for blocks in _sweep(sys, horizon))


def _as_templates(vectors) -> np.ndarray:
    arr = np.asarray(vectors, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError("templates must be a list of equal-length vectors")
    return arr


def block_frames(sys: BlockSystem, k: int) -> tuple[mp.Symbol, fr.FiniteFrame, fr.FiniteFrame]:
    """Block k as a finite (symbol, output frame, input frame) triple."""
    phi, psi, m = sys.block(k)
    return mp.Symbol(m), fr.FiniteFrame(phi), fr.FiniteFrame(psi)


# A power-of-two exponent beyond every slot's, the sum of two np.frexp
# exponents in [-2146, 2048], and twice it: a zero slot takes its negative,
# below every other, and the extremes of no block are (+inf, 0) at it.
_OUTER_EXPONENT = 8192
_NO_EXTREMES = ((math.inf, _OUTER_EXPONENT), (0.0, -_OUTER_EXPONENT))


def _closed_form_bounds(sys: BlockSystem, extremes, tol: ToleranceConfig) -> SystemBounds:
    """Swept extremes of the weighted side m Phi, classified by its closed-form limit.

    The classification is the quotient of the least lower and the greatest
    upper extreme over the sweep and the limit system, compared at one
    exponent, so it does not depend on the side's scale. The bounds are
    reported at their true scale: 0 or inf where they leave the double range.
    """
    swept = [_times_power_of_two(*pair) for pair in extremes]
    (phi, phi_e), _, (m, m_e) = sys._parts()
    exponents = m_e + phi_e
    # a slot whose weight and template are not zero grows without bound, whatever their scale
    if bool(np.any((exponents < 0) & (m != 0) & np.any(phi != 0, axis=1))):
        return SystemBounds(*swept, CLASS_NOT_BESSEL)
    # the limit system: the slots that neither grow nor decay
    (lower, low), (upper, high) = _widened(extremes, _operator_extremes(phi, np.where(exponents == 0, m, 0)))
    # high >= low: the upper's shift to the lower's exponent overflows only
    # when the quotient lies below 2^-1024, which spans no tolerance
    spans = tol.spans(lower, _times_power_of_two(upper, high - low), max(phi.shape))
    return SystemBounds(*swept, CLASS_FRAME if spans else CLASS_BESSEL_NOT_FRAME)


def system_frame_bounds(sys, horizon: int = SWEEP_HORIZON,
                        tol: ToleranceConfig = DEFAULT_TOL) -> SystemBounds:
    """Frame-bound extremes of the weighted side m Phi plus classification.

    For block systems: the per-block operator extremes are swept for
    k <= horizon, and the classification (frame / not Bessel / Bessel but
    not a frame) comes from the closed-form limit behavior. For interleaved
    systems the directions play the role of the blocks.
    """
    if isinstance(sys, InterleavedSystem):
        return sys.side_bounds(horizon, tol)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    extremes = _NO_EXTREMES
    for phi, _, m in _sweep(sys, horizon):
        extremes = _widened(extremes, _operator_extremes(phi, m))
    return _closed_form_bounds(sys, extremes, tol)


def _widened(extremes, more):
    """The least of two lower and the greatest of two upper extremes, each a (value, exponent) pair."""
    return (_extreme(np.min, *zip(extremes[0], more[0])), _extreme(np.max, *zip(extremes[1], more[1])))


def _operator_extremes(templates: np.ndarray, weights: np.ndarray):
    """Extreme eigenvalues of (w T)^T conj(w T), symmetrized, for (L, b) templates T and (L,) weights w or stacks.

    Templates and weights are split into mantissas and the powers of two of
    their largest moduli, and w T is formed divided by 2^s, the largest
    product of those over a block's slots, so no product of doubles leaves
    the range. Returns the least lower and greatest upper eigenvalue over the
    blocks as pairs (value, 2s) for value * 2^(2s); NaN for a block that is
    not finite.
    """
    templates, weights = np.ascontiguousarray(templates), np.ascontiguousarray(weights)
    largest, moduli = np.max(np.abs(templates), axis=-1), np.abs(weights)
    t_exp, w_exp = np.frexp(largest)[1], np.frexp(moduli)[1]
    slots = np.where((largest > 0) & (moduli > 0), t_exp + w_exp, -_OUTER_EXPONENT)
    # each block's largest slot, reduced along the first axis of a copy: the short last is ten times slower
    top = np.ascontiguousarray(slots.reshape(-1, slots.shape[-1]).T).max(axis=0).reshape(slots.shape[:-1])
    side = _ldexp(weights[..., None], slots - top[..., None] - w_exp) * _ldexp(templates, -t_exp)
    with np.errstate(invalid="ignore"):  # inf * 0 in a block that is not finite
        s = side.swapaxes(-1, -2) @ np.conj(side)
    lower, upper = hermitian_extremes((s + adjoint(s)) / 2.0)
    return _extreme(np.min, lower, 2 * top), _extreme(np.max, upper, 2 * top)


def _ldexp(vectors: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Complex vectors (..., n) times 2^exponents (...), one exponent per vector."""
    return np.ldexp(vectors.view(np.float64), exponents[..., None]).view(np.complex128)


def _extreme(reduce, values, exponents) -> tuple[float, int]:
    """np.min or np.max of values * 2^exponents, as (value, that reduce of the exponents); NaN wins.

    Each value moves to the common exponent: for np.min a shift up, exact or
    an overflow to inf, which is not the least; for np.max a shift down,
    exact or a rounding of what lies far below the greatest.
    """
    exponents = np.asarray(exponents)
    common = int(reduce(exponents))
    with np.errstate(over="ignore"):
        return float(reduce(np.ldexp(values, exponents - common))), common


class _InterleavedCoefficients(NamedTuple):
    """The closed form of an InterleavedSystem, whose subclass has the instance dict a cache needs."""

    phi_head: complex
    psi_head: complex
    m_head: complex
    phi_ratio: complex
    psi_ratio: complex
    m_ratio: complex
    transient_phi: complex
    transient_psi: complex
    transient_m: complex
    ratio_bound: float


class InterleavedSystem(_InterleavedCoefficients):
    """System with one recurrent direction and per-index transient terms.

    The recurrent basis direction (index 0) receives term k >= 0 with
    coefficients head * ratio^k on each of the three components; the
    coefficient products p_k = m_k phi_k conj(psi_k) then form a geometric
    series. Transient term j touches only basis direction j (j >= 1), with
    fixed coefficients. ``ratio_bound`` is the certified tail ratio r < 1
    with |p_(k+1)| <= r |p_k| for every k, which ``certify_ratio`` decides
    from the closed form.
    """

    # -------------------------------------------------------------- series

    def adjoint(self) -> "InterleavedSystem":
        """The system of M* = M_(conj m, Psi, Phi), whose products conj(p_k) keep ``ratio_bound``."""
        return InterleavedSystem(self.psi_head, self.phi_head, np.conj(self.m_head),
                                 self.psi_ratio, self.phi_ratio, np.conj(self.m_ratio),
                                 self.transient_psi, self.transient_phi, np.conj(self.transient_m),
                                 self.ratio_bound)

    @cached_property
    def _products(self) -> tuple:
        """p_0, rho and the transient product, each m phi conj(psi) by ``_product``, once per system."""
        return (_product(self.m_head, self.phi_head, self.psi_head),
                _product(self.m_ratio, self.phi_ratio, self.psi_ratio),
                _product(self.transient_m, self.transient_phi, self.transient_psi))

    def recurrent_product(self, k: int) -> complex:
        """p_k = (m coeff) * (output coeff) * conj(input coeff) of term k, that is p_0 rho^k."""
        p0, rho, _ = self._products
        with np.errstate(over="ignore", invalid="ignore"):
            return complex(p0 * np.power(rho, k))

    @property
    def transient_product(self) -> complex:
        return complex(self._products[2])

    def certify_ratio(self) -> None:
        """Raise RatioNotCertified unless the declared tail ratio holds for every k.

        p_(k+1) = rho p_k with rho = m_ratio phi_ratio conj(psi_ratio), so
        the bound holds for all k exactly when p_0 = 0 or |rho| <= r, here
        with a relative slack of 1e-12 for the rounding of rho.
        """
        r = float(self.ratio_bound)
        if not r < 1.0:
            raise RatioNotCertified(f"declared ratio {r} is not below 1")
        with np.errstate(over="ignore"):
            rho = np.abs(self._products[1])
        if self._products[0] != 0 and not rho <= r * (1.0 + 1e-12):
            raise RatioNotCertified(f"|p_(k+1) / p_k| = {rho:.3e} exceeds the declared ratio {r}")

    def symbol_profile(self) -> SymbolProfile:
        """Modulus envelope of the weights: the head, the transients and head * ratio^k, k >= 1."""
        head, transient, ratio = abs(self.m_head), abs(self.transient_m), abs(self.m_ratio)
        if head == 0.0 or ratio == 0.0:
            low = high = 0.0
        else:
            low = 0.0 if ratio < 1.0 else head * ratio
            high = math.inf if ratio > 1.0 else head * ratio
        return SymbolProfile(min(head, transient, low), max(head, transient, high),
                             bool(head > 0 and transient > 0 and ratio > 0))

    # -------------------------------------------------------------- sides

    def side_bounds(self, horizon: int = SWEEP_HORIZON,
                    tol: ToleranceConfig = DEFAULT_TOL) -> SystemBounds:
        """Frame-bound extremes of the weighted side m Phi over directions, with closed-form classification.

        The recurrent direction accumulates sum_k |head * ratio^k|^2 over
        k = 0..horizon and every transient direction contributes
        |transient|^2 once. Both are summed as logarithms, from the
        log-moduli of the side's factors, so a bound that is a normal double
        is right to rounding whatever the scale of its factors; one beyond
        the double range is inf. The classification compares the limit
        extremes by their quotient, free of the side's scale.
        """
        # log |head|^2, log |ratio|^2 and log |transient|^2, each from the sum of
        # its factors' log-moduli, never the log of their product, which may
        # leave the double range where the bounds do not
        weights = (self.m_head, self.m_ratio, self.transient_m)
        params = (self.phi_head, self.phi_ratio, self.transient_phi)
        with np.errstate(divide="ignore"):  # -inf for a zero
            logs = 2.0 * (np.log(np.abs(weights)) + np.log(np.abs(params)))
        log_head, log_ratio, log_transient = logs.tolist()
        # a zero head empties the direction whatever its ratio
        nonempty = log_head > -math.inf
        growing = nonempty and log_ratio >= 0.0
        log_partial = log_total = -math.inf
        if nonempty:
            log_partial = log_head + _log_geometric_sum(log_ratio, horizon + 1)
            log_total = math.inf if growing else log_head - math.log(-math.expm1(log_ratio))
        with np.errstate(over="ignore"):
            lam_min, lam_max = np.exp(sorted((log_partial, log_transient))).tolist()
        low, high = sorted((log_total, log_transient))
        # a closed form, not a factorization: the rank floor of one value
        classification = (CLASS_NOT_BESSEL if growing
                          else CLASS_FRAME if tol.spans(math.exp(low - high), 1.0, 1)
                          else CLASS_BESSEL_NOT_FRAME)
        return SystemBounds(lam_min, lam_max, classification)


def _log_geometric_sum(log_ratio: float, terms: int) -> float:
    """log sum_{k < terms} e^(k log_ratio), factored by its first or last term; 0 at -inf."""
    if log_ratio == 0.0:
        return math.log(terms)
    shrink = -abs(log_ratio)
    return ((terms - 1) * max(log_ratio, 0.0)
            + math.log(math.expm1(terms * shrink) / math.expm1(shrink)))


def _product(m, phi, psi):
    """m * phi * conj(psi), real for real factors, from the factors divided by powers of two.

    The plain product bit for bit where its partial products are normal, 0 or inf beyond the double range.
    """
    factors = (m, phi, np.conj(psi))
    exponents = [math.frexp(max(abs(f.real), abs(f.imag)))[1] for f in factors]
    a, b, c = (_times_power_of_two(f, -e) for f, e in zip(factors, exponents))
    return _times_power_of_two(a * b * c, sum(exponents))


def _times_power_of_two(value, exponent: int):
    """The scalar value * 2^exponent, rounded once: 0 or inf beyond the double range.

    One np.ldexp scales the real and the imaginary part. A real value gives
    a float, not a complex: ``recurrent_product`` raises rho to a power, and
    np.power rounds a complex rho differently from a real one.
    """
    with np.errstate(over="ignore", under="ignore"):
        parts = np.ldexp((value.real, value.imag), exponent)
    return complex(*parts) if isinstance(value, complex) else float(parts[0])


def interleaved_apply(sys: InterleavedSystem, f, tol: float) -> tuple[np.ndarray, float]:
    """Apply the interleaved multiplier to a finitely supported vector.

    Transient directions are exact (a single term each). The recurrent
    direction sums its geometric coefficient series until the certified
    tail bound drops to ``tol``; the returned bound is that tail estimate
    (zero when the recurrent direction is untouched). RatioNotCertified
    when the ratio is not certified, or at once when p_0 is not finite:
    every p_k = p_0 rho^k and every tail bound is then inf or NaN.
    """
    sys.certify_ratio()
    vec = np.asarray(f, dtype=np.complex128).reshape(-1)
    out = np.zeros_like(vec)
    if vec.size > 1:
        out[1:] = sys.transient_product * vec[1:]
    if vec.size == 0 or vec[0] == 0:
        return out, 0.0
    p_0 = sys._products[0]
    if not np.isfinite(p_0):
        raise RatioNotCertified(f"p_0 = {p_0} is not finite, so no tail bound reaches the tolerance")

    r = float(sys.ratio_bound)
    tail_factor = r / (1.0 - r)
    acc = 0.0 + 0.0j
    k = 0
    while True:
        p_k = sys.recurrent_product(k)
        acc += p_k
        bound = float(abs(vec[0]) * abs(p_k) * tail_factor)
        if bound <= tol:
            break
        k += 1
        if k > 100000:  # pragma: no cover - defensive cap
            raise RatioNotCertified("tail bound failed to reach the tolerance")
    out[0] = vec[0] * acc
    return out, bound


# ---------------------------------------------------------------------- registry


class RegistryEntry(NamedTuple):
    """A prebuilt example system, the runner of its checks and its behavioral annotations."""

    system: object
    runner: Callable[[object, ToleranceConfig, int], list[dict]]
    summary: str
    annotations: dict


_SQRT5 = math.sqrt(5.0)
EX5_3_SYMBOL = ((5.0 + 2.0 * _SQRT5) / 5.0, (5.0 - 2.0 * _SQRT5) / 5.0, 1.0)


def _build_registry() -> dict[str, RegistryEntry]:
    ex4_1 = BlockSystem(
        phi=[[1.0], [1.0], [-1.0]], phi_exponents=[0, 0, 0],
        psi=[[1.0], [1.0], [1.0]], psi_exponents=[0, 1, 1],
        m=[1.0, 1.0, 1.0], m_exponents=[0, 1, 1],
    )
    ex4_2 = InterleavedSystem(
        phi_head=1.0, psi_head=1.0, m_head=1.0,
        phi_ratio=0.5, psi_ratio=2.0 ** -0.5, m_ratio=2.0 ** 0.5,
        transient_phi=1.0, transient_psi=1.0, transient_m=1.0,
        ratio_bound=0.5,
    )
    ex5_3 = BlockSystem.constant_template(
        phi=[[1.0], [1.0], [-1.0]],
        psi=[[1.0], [1.0], [1.0]],
        m=list(EX5_3_SYMBOL),
    )
    ex5_final = BlockSystem.constant_template(
        phi=[[1.0], [1.0]],
        psi=[[1.0], [-1.0]],
        m=[1.0, -1.0],
    )
    return {
        "ex4_1": RegistryEntry(
            system=ex4_1, runner=_run_ex4_1,
            summary="identity multiplier from harmonically reweighted scalar blocks",
            annotations={
                "symbol": "bounded, zero-free, not semi-normalized",
                "unit_symbol_weighted_route": "applies: the weighted output side is a frame, "
                                              "so the unit-symbol rebuild gives the same induced duals",
                "weighted_canonical_shortcut": "does not hold (block weights change the frame operator "
                                               "by a non-constant factor)",
            },
        ),
        "ex4_2": RegistryEntry(
            system=ex4_2, runner=_run_ex4_2,
            summary="interleaved system with unbounded symbol and geometric recurrent tail",
            annotations={
                "symbol": "unbounded, zero-free",
                "conjugate_weighted_input_side": "not Bessel (unit-size recurrent coefficients forever)",
                "identity_claim": "computed recurrent total departs from the uniform identity "
                                  "(documented; the certified computation is authoritative)",
            },
        ),
        "ex5_3": RegistryEntry(
            system=ex5_3, runner=_run_ex5_3,
            summary="identity multiplier with semi-normalized symbol on constant scalar blocks",
            annotations={
                "symbol": "semi-normalized",
                "canonical_inversion": "holds even though neither equivalence does",
                "equivalences": "input side vs weighted output side fails; "
                                "output side vs conjugate-weighted input side fails",
            },
        ),
        "ex5_final": RegistryEntry(
            system=ex5_final, runner=_run_ex5_final,
            summary="unimodular symbol where both weighted-side equivalences hold",
            annotations={
                "symbol": "unimodular (constant modulus one)",
                "equivalence_chain": "all three legs hold",
            },
        ),
    }


def example_registry() -> dict[str, RegistryEntry]:
    """The prebuilt example systems, keyed by registry name."""
    return dict(_REGISTRY)


def get_example(name: str) -> RegistryEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownExample(
            f"unknown example {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


# ------------------------------------------------------------- example runners

IDENTITY_SWEEP_TOL = 1e-12
REPRODUCTION_TOL = 1e-10


def _run_ex4_1(sys: BlockSystem, tol: ToleranceConfig, horizon: int) -> list[dict]:
    checks: list[dict] = []

    # per block k: the block multiplier against the identity; the induced
    # duals of M_k = M(m, phi, psi) against those of the unit-symbol rebuild
    # M(1, m*phi, psi); the duality of M_k's induced duals; and the frame
    # bounds of the weighted output side m*phi
    identity_worst = 0.0
    route_worst = 0.0
    duality_ok = True
    extremes = _NO_EXTREMES
    eye = np.eye(sys.block_dim)
    for phi, psi, m in _sweep(sys, horizon):
        phi_syn, psi_syn = _synthesis(phi), _synthesis(psi)
        direct = mp.MultiplierStack(m, phi_syn, psi_syn)
        identity_worst = max(identity_worst, float(np.max(np.abs(direct.matrix - eye))))
        unit_route = mp.MultiplierStack(np.ones_like(m), phi_syn * m[:, None, :], psi_syn)
        psi_dagger, phi_dagger = direct.induced_duals(tol)
        route_psi_dagger, _ = unit_route.induced_duals(tol)
        route_worst = max(route_worst, float(np.max(np.abs(psi_dagger - route_psi_dagger))))
        # frames.is_dual on each block: one reconstruction identity decides both
        duality_ok = duality_ok and bool(np.all(
            fr.reconstructs(psi_dagger, psi_syn, tol) & fr.reconstructs(phi_dagger, phi_syn, tol)))
        extremes = _widened(extremes, _operator_extremes(phi, m))

    checks.append(finding("block_multiplier_is_identity", residual=identity_worst,
                          tolerance=IDENTITY_SWEEP_TOL, detail=f"k = 1..{horizon}"))
    checks.append(finding("unit_symbol_route_matches_induced_duals", residual=route_worst,
                          tolerance=REPRODUCTION_TOL, detail=f"k = 1..{horizon}"))
    checks.append(finding("induced_duals_pass_duality_per_block", duality_ok))

    profile = sys.symbol_profile()
    checks.append(finding("symbol_bounded", profile.bounded, value=profile.sup_modulus))
    checks.append(finding("symbol_not_semi_normalized", not profile.semi_normalized,
                          value=profile.inf_modulus))
    checks.append(finding("symbol_all_nonzero", profile.all_nonzero))

    bounds = _closed_form_bounds(sys, extremes, tol)
    in_window = (bounds.classification == CLASS_FRAME
                 and 1.0 < bounds.lambda_min
                 and bounds.lambda_max <= 3.0 + IDENTITY_SWEEP_TOL)
    checks.append(finding("weighted_output_side_is_frame_with_expected_bounds", in_window,
                          value=[bounds.lambda_min, bounds.lambda_max],
                          detail="per-block extremes stay inside (1, 3]"))
    return checks


def _independent_recurrent_total(sys: InterleavedSystem, stop: float = 1e-16) -> float:
    """Plain partial summation of the recurrent products, no tail formula."""
    total = 0.0
    k = 0
    while True:
        term = abs(sys.recurrent_product(k))  # real positive series here
        total += term
        if term < stop or k > 10000:
            return total
        k += 1


def _run_ex4_2(sys: InterleavedSystem, tol: ToleranceConfig, horizon: int) -> list[dict]:
    checks: list[dict] = []
    try:
        sys.certify_ratio()
        checks.append(finding("tail_ratio_certified", True, value=sys.ratio_bound))
    except RatioNotCertified as exc:  # pragma: no cover - registry data is certified
        checks.append(finding("tail_ratio_certified", False, detail=str(exc)))
        return checks

    basis2 = np.array([0.0, 1.0])
    image2, bound2 = interleaved_apply(sys, basis2, IDENTITY_SWEEP_TOL)
    checks.append(finding("transient_direction_exact",
                          residual=np.max(np.abs(image2 - basis2)), tolerance=0.0,
                          detail="one term only, bound must be zero"))
    checks.append(finding("transient_bound_is_zero", bound2 == 0.0))

    basis1 = np.array([1.0, 0.0])
    image1, bound1 = interleaved_apply(sys, basis1, IDENTITY_SWEEP_TOL)
    total = float(image1[0].real)
    oracle = _independent_recurrent_total(sys)
    checks.append(finding("tail_bound_at_most_tolerance", bound1 <= IDENTITY_SWEEP_TOL,
                          value=bound1))
    checks.append(finding("recurrent_total_matches_partial_summation",
                          residual=abs(total - oracle), tolerance=IDENTITY_SWEEP_TOL + bound1,
                          detail=f"computed {total!r} vs summed {oracle!r}"))
    checks.append(finding("departs_from_claimed_uniform_identity", abs(total - 1.0) > 1e-6,
                          value=total,
                          detail="the recurrent direction coefficient is 2, not 1; "
                                 "the certified computation is authoritative",
                          documented_departure=True))

    profile = sys.symbol_profile()
    checks.append(finding("symbol_unbounded", not profile.bounded))
    checks.append(finding("symbol_all_nonzero", profile.all_nonzero))

    checks.append(finding(
        "conjugate_weighted_input_side_not_bessel",
        system_frame_bounds(sys.adjoint(), horizon, tol).classification == CLASS_NOT_BESSEL,
    ))
    checks.append(finding(
        "weighted_output_side_is_frame",
        system_frame_bounds(sys, horizon, tol).classification == CLASS_FRAME,
    ))
    return checks


def _run_ex5_3(sys: BlockSystem, tol: ToleranceConfig, horizon: int) -> list[dict]:
    checks: list[dict] = []
    identity_worst = _worst_block_deviation(sys, horizon, np.eye(sys.block_dim))
    checks.append(finding("block_multiplier_is_identity", residual=identity_worst,
                          tolerance=IDENTITY_SWEEP_TOL, detail=f"k = 1..{horizon}"))

    symbol, phi_k, psi_k = block_frames(sys, 1)
    checks.append(finding(
        "canonical_duals_are_one_third_of_templates",
        residual=max(float(np.max(np.abs(fr.canonical_dual(frame, tol).synthesis - frame.synthesis / 3.0)))
                     for frame in (phi_k, psi_k)),
        tolerance=REPRODUCTION_TOL,
    ))

    mult = mp.build(symbol, phi_k, psi_k)
    checks.append(finding("canonical_inversion_identity_holds",
                          residual=mp.verify_canonical_inversion(mult, tol),
                          tolerance=REPRODUCTION_TOL))

    report = mp.check_prop_q(mult, tol)
    checks.append(report.as_finding(
        "equivalences_fail_while_inversion_holds",
        report.eq1_holds and not report.psi_equiv_mphi and not report.phi_equiv_mbar_psi
        and not report.psi_dagger_is_canonical and not report.phi_dagger_is_canonical,
        report.as_dict(),
    ))
    checks.append(finding(
        "weighted_canonical_shortcut_fails",
        not mp.check_weighted_canonical(phi_k, symbol, tol),
    ))

    profile = sys.symbol_profile()
    expected_inf = min(abs(v) for v in EX5_3_SYMBOL)
    expected_sup = max(abs(v) for v in EX5_3_SYMBOL)
    profile_ok = (profile.semi_normalized
                  and abs(profile.inf_modulus - expected_inf) <= IDENTITY_SWEEP_TOL
                  and abs(profile.sup_modulus - expected_sup) <= IDENTITY_SWEEP_TOL)
    checks.append(finding("symbol_semi_normalized_with_expected_envelope", profile_ok,
                          value=[profile.inf_modulus, profile.sup_modulus]))
    return checks


def _run_ex5_final(sys: BlockSystem, tol: ToleranceConfig, horizon: int) -> list[dict]:
    checks: list[dict] = []
    worst = _worst_block_deviation(sys, horizon, 2.0 * np.eye(sys.block_dim))
    checks.append(finding("block_multiplier_is_twice_identity", residual=worst,
                          tolerance=IDENTITY_SWEEP_TOL, detail=f"k = 1..{horizon}"))

    # m Phi is Psi, and in the adjoint conj(m) Psi is Phi
    symbol, phi_k, psi_k = block_frames(sys, 1)
    exact = all(float(np.max(np.abs(mp.weighted_frame(out, weights).synthesis - inp.synthesis))) == 0.0
                for weights, out, inp in ((symbol, phi_k, psi_k), block_frames(sys.adjoint(), 1)))
    checks.append(finding("weighted_sides_coincide_with_counterparts", exact,
                          detail="input side equals the weighted output side entrywise"))

    mult = mp.build(symbol, phi_k, psi_k)
    report = mp.check_prop_q(mult, tol)
    chain = report.constant_modulus_chain
    checks.append(report.as_finding("constant_modulus_chain_all_equivalent", all(chain.values()), chain))

    profile = sys.symbol_profile()
    checks.append(finding("symbol_unimodular",
                          profile.inf_modulus == 1.0 and profile.sup_modulus == 1.0))
    return checks


# built once the runners above exist
_REGISTRY = _build_registry()


def run_example(name: str, tol: ToleranceConfig = DEFAULT_TOL,
                horizon: int = SWEEP_HORIZON) -> tuple[dict, ...]:
    """Execute an example's annotated expectation list: its checks, as report findings.

    Every check is asserted. ``report.verdict`` over them is "fail" when
    any check misses, "flagged" when every check holds but one of them
    records a documented departure from the claimed identity, and "pass"
    otherwise.
    """
    entry = get_example(name)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    return tuple(entry.runner(entry.system, tol, horizon))
