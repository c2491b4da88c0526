"""Block-structured infinite frame and symbol systems.

Two shapes of infinite system are covered.

* ``BlockSystem``: the multiplier splits into independent finite blocks,
  one per index k >= 1, so every operator question reduces to a sweep of
  small dense problems plus closed-form limit metadata.
* ``InterleavedSystem``: one recurrent basis direction keeps receiving
  terms forever (with geometrically decaying coefficient products) while
  every other direction is touched finitely often; the operator action is
  evaluated with a certified truncation-tail bound.

Infinite statements (limits, classifications) come from closed-form
metadata derived from the generator parameters; the code verifies the
metadata on finite prefixes but does not prove limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import frames as fr
from . import multipliers as mp
from .errors import MetadataMissing, RatioNotCertified, UnknownExample
from .numerics import DEFAULT_TOL, ToleranceConfig

CLASS_FRAME = "frame"
CLASS_NOT_BESSEL = "not_bessel"
CLASS_BESSEL_NOT_FRAME = "bessel_not_frame"

# The template family each side uses and the weight applied to it: none,
# the symbol m, or its conjugate.
_SIDE_TABLE = {
    "phi": ("phi", None),
    "psi": ("psi", None),
    "mphi": ("phi", lambda m: m),
    "mbar_psi": ("psi", np.conj),
}
SIDES = tuple(_SIDE_TABLE)

SWEEP_HORIZON = 1000        # default per-block sweep depth
SPOT_CHECK_BLOCKS = 64      # prefix length for metadata spot checks
SYMBOL_SPOT_CHECK = 1024    # symbol entries compared against the closed form


@dataclass(frozen=True)
class SymbolProfile:
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


@dataclass(frozen=True)
class SystemBounds:
    """Numeric extremes over a horizon plus the limit classification."""

    lambda_min: float
    lambda_max: float
    classification: str


class BlockSystem:
    """Infinite system whose multiplier is block-diagonal.

    Block k carries L template vectors per side in C^b and L weights. The
    built-in generators scale fixed base templates by k^(-e) with one
    exponent per template slot; a constant system is the special case of
    all-zero exponents. Custom callables are accepted but can only be
    classified when their blocks are constant over the spot-check prefix
    (otherwise MetadataMissing).
    """

    def __init__(self, block_dim: int, block_fn, *, name: str = "",
                 kind: str | None = None, closed_form: dict | None = None) -> None:
        if block_dim < 1:
            raise ValueError("block_dim must be positive")
        self.block_dim = int(block_dim)
        self._block_fn = block_fn
        self.name = name
        self.kind = kind
        self._closed_form = closed_form  # {"phi": (base, exp), "psi": ..., "m": ...}

    # ---------------------------------------------------------------- construction

    @classmethod
    def constant_template(cls, phi, psi, m, *, name: str = "") -> "BlockSystem":
        """Same templates in every block."""
        phi_b = _as_templates(phi)
        psi_b = _as_templates(psi)
        m_b = np.asarray(m, dtype=np.complex128).reshape(-1)
        zeros = np.zeros(m_b.size)
        return cls._from_closed_form(phi_b, zeros, psi_b, zeros, m_b, zeros,
                                     kind="constant-template", name=name)

    @classmethod
    def harmonic_weight(cls, phi, phi_exponents, psi, psi_exponents,
                        m, m_exponents, *, name: str = "") -> "BlockSystem":
        """Base templates scaled per slot by k^(-e) in block k."""
        return cls._from_closed_form(
            _as_templates(phi), np.asarray(phi_exponents, dtype=float).reshape(-1),
            _as_templates(psi), np.asarray(psi_exponents, dtype=float).reshape(-1),
            np.asarray(m, dtype=np.complex128).reshape(-1),
            np.asarray(m_exponents, dtype=float).reshape(-1),
            kind="harmonic-weight", name=name,
        )

    @classmethod
    def _from_closed_form(cls, phi_b, phi_e, psi_b, psi_e, m_b, m_e, *,
                          kind: str, name: str) -> "BlockSystem":
        length = m_b.size
        if not (phi_b.shape[0] == psi_b.shape[0] == length
                and phi_e.size == psi_e.size == m_e.size == length):
            raise ValueError("per-block template lengths must all match")
        if phi_b.shape[1] != psi_b.shape[1]:
            raise ValueError("template vector dimensions must match")
        closed = {"phi": (phi_b, phi_e), "psi": (psi_b, psi_e), "m": (m_b, m_e)}

        def block_fn(k: int):
            wp = np.power(float(k), -phi_e)
            wq = np.power(float(k), -psi_e)
            wm = np.power(float(k), -m_e)
            return phi_b * wp[:, None], psi_b * wq[:, None], m_b * wm

        return cls(phi_b.shape[1], block_fn, name=name, kind=kind, closed_form=closed)

    @classmethod
    def from_generator(cls, block_dim: int, block_fn, *, name: str = "") -> "BlockSystem":
        """Wrap an arbitrary callable k -> (phi_k, psi_k, m_k); no closed form."""
        return cls(block_dim, block_fn, name=name, kind=None, closed_form=None)

    # ---------------------------------------------------------------- access

    def block(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Templates of block k >= 1: (phi (L,b), psi (L,b), m (L,))."""
        if k < 1:
            raise ValueError("block index starts at 1")
        phi, psi, m = self._block_fn(k)
        phi = _as_templates(phi)
        psi = _as_templates(psi)
        m = np.asarray(m, dtype=np.complex128).reshape(-1)
        if phi.shape != psi.shape or phi.shape[0] != m.size or phi.shape[1] != self.block_dim:
            raise ValueError(f"generator returned inconsistent templates for block {k}")
        return phi, psi, m

    @property
    def block_length(self) -> int:
        return self.block(1)[2].size

    def symbol_prefix(self, count: int) -> np.ndarray:
        """First ``count`` weight entries in block order."""
        out = []
        k = 1
        while len(out) < count:
            out.extend(self.block(k)[2].tolist())
            k += 1
        return np.asarray(out[:count], dtype=np.complex128)

    def _side_closed_form(self, side: str) -> tuple[np.ndarray, np.ndarray]:
        """Base vectors and exponents of the requested weighted side."""
        if self._closed_form is None:
            raise MetadataMissing(f"no closed form available for system {self.name!r}")
        family, weight = _side_entry(side)
        base, exponents = self._closed_form[family]
        if weight is None:
            return base, exponents
        m_b, m_e = self._closed_form["m"]
        return weight(m_b)[:, None] * base, m_e + exponents

    def side_templates(self, side: str, k: int) -> np.ndarray:
        """Weighted template vectors of block k for one side."""
        family, weight = _side_entry(side)
        phi, psi, m = self.block(k)
        base = phi if family == "phi" else psi
        return base if weight is None else weight(m)[:, None] * base


def _side_entry(side: str):
    """(template family, weight) of one side; ValueError for an unknown side."""
    try:
        return _SIDE_TABLE[side]
    except KeyError:
        raise ValueError(f"unknown side {side!r}; expected one of {SIDES}") from None


def _as_templates(vectors) -> np.ndarray:
    arr = np.asarray(vectors, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError("templates must be a list of equal-length vectors")
    return arr


def block_multiplier(sys: BlockSystem, k: int) -> np.ndarray:
    """The b x b block sum_n m_n phi_n conj(psi_n)^T of block k.

    Shares the accumulation path of the generic multiplier build, so
    embedding the blocks diagonally reproduces these matrices entrywise.
    """
    phi, psi, m = sys.block(k)
    return mp._multiplier_matrix(m, fr.FiniteFrame(phi), fr.FiniteFrame(psi))


def block_frames(sys: BlockSystem, k: int) -> tuple[mp.Symbol, fr.FiniteFrame, fr.FiniteFrame]:
    """Block k as a finite (symbol, output frame, input frame) triple."""
    phi, psi, m = sys.block(k)
    return mp.Symbol(m), fr.FiniteFrame(phi), fr.FiniteFrame(psi)


def assemble_blocks(sys: BlockSystem, count: int) -> tuple[mp.Symbol, fr.FiniteFrame, fr.FiniteFrame]:
    """Embed the first ``count`` blocks into one finite system in C^(b*count).

    Block k occupies coordinates [(k-1)*b, k*b); the resulting finite
    multiplier is exactly the block-diagonal of the per-block multipliers.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    b = sys.block_dim
    length = sys.block_length
    dim = b * count
    total = length * count
    phi_vectors = np.zeros((total, dim), dtype=np.complex128)
    psi_vectors = np.zeros((total, dim), dtype=np.complex128)
    weights = np.zeros(total, dtype=np.complex128)
    for k in range(1, count + 1):
        phi, psi, m = sys.block(k)
        lo = (k - 1) * b
        rows = slice((k - 1) * length, k * length)
        phi_vectors[rows, lo:lo + b] = phi
        psi_vectors[rows, lo:lo + b] = psi
        weights[rows] = m
    return mp.Symbol(weights), fr.FiniteFrame(phi_vectors), fr.FiniteFrame(psi_vectors)


def _classify_closed_form(base: np.ndarray, exponents: np.ndarray,
                          sweep_min: float, sweep_max: float,
                          tol: ToleranceConfig) -> str:
    norms = np.linalg.norm(base, axis=1)
    if bool(np.any((exponents < 0) & (norms > 0))):
        return CLASS_NOT_BESSEL
    limit = base * (exponents == 0)[:, None]
    # operator of the limit system: sum of v v^H over surviving template slots
    s_limit = limit.T @ np.conj(limit)
    eigs = np.linalg.eigvalsh((s_limit + s_limit.conj().T) / 2.0)
    limit_min = float(eigs[0].real)
    limit_max = float(eigs[-1].real)
    overall_min = min(sweep_min, limit_min)
    overall_max = max(sweep_max, limit_max)
    if overall_min > tol.rel_eps * max(overall_max, 1.0):
        return CLASS_FRAME
    return CLASS_BESSEL_NOT_FRAME


def _blocks_constant_over_prefix(sys: BlockSystem, prefix: int = SPOT_CHECK_BLOCKS) -> bool:
    first = sys.block(1)
    for k in range(2, prefix + 1):
        current = sys.block(k)
        for a, b in zip(first, current):
            if a.shape != b.shape or not np.allclose(a, b, rtol=0.0, atol=1e-14):
                return False
    return True


def system_frame_bounds(sys, side: str, horizon: int = SWEEP_HORIZON,
                        tol: ToleranceConfig = DEFAULT_TOL) -> SystemBounds:
    """Frame-bound extremes of one (possibly weighted) side plus classification.

    For block systems: the per-block operator extremes are swept for
    k <= horizon, and the classification (frame / not Bessel / Bessel but
    not a frame) comes from the closed-form limit behavior. For interleaved
    systems the directions play the role of the blocks.
    """
    if isinstance(sys, InterleavedSystem):
        return sys.side_bounds(side, horizon, tol)
    _side_entry(side)  # ValueError for an unknown side
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    sweep_min = math.inf
    sweep_max = 0.0
    for k in range(1, horizon + 1):
        templates = sys.side_templates(side, k)
        s_block = templates.T @ np.conj(templates)
        eigs = np.linalg.eigvalsh((s_block + s_block.conj().T) / 2.0)
        sweep_min = min(sweep_min, float(eigs[0].real))
        sweep_max = max(sweep_max, float(eigs[-1].real))

    if sys._closed_form is not None:
        base, exponents = sys._side_closed_form(side)
        classification = _classify_closed_form(base, exponents, sweep_min, sweep_max, tol)
    elif _blocks_constant_over_prefix(sys):
        # constant blocks: the horizon extremes are the true extremes
        classification = (CLASS_FRAME
                          if sweep_min > tol.rel_eps * max(sweep_max, 1.0)
                          else CLASS_BESSEL_NOT_FRAME)
    else:
        raise MetadataMissing(
            f"system {sys.name!r} has no closed form and its blocks vary; "
            "cannot classify the limit"
        )
    return SystemBounds(lambda_min=sweep_min, lambda_max=sweep_max,
                        classification=classification)


def _profile_from_envelope(per_entry: list[tuple[float, float, bool]]) -> SymbolProfile:
    inf_m = min(e[0] for e in per_entry)
    sup_m = max(e[1] for e in per_entry)
    nonzero = all(e[2] for e in per_entry)
    return SymbolProfile(inf_modulus=inf_m, sup_modulus=sup_m, all_nonzero=nonzero)


def _spot_check_profile(profile: SymbolProfile, prefix: np.ndarray) -> None:
    moduli = np.abs(prefix)
    slack = 1e-12 * (1.0 + float(np.max(moduli)))
    if float(np.min(moduli)) < profile.inf_modulus - slack:
        raise MetadataMissing("closed-form lower modulus contradicts generated entries")
    if profile.bounded and float(np.max(moduli)) > profile.sup_modulus + slack:
        raise MetadataMissing("closed-form upper modulus contradicts generated entries")
    if profile.all_nonzero and bool(np.any(prefix == 0)):
        raise MetadataMissing("closed form claims zero-free but the prefix has zeros")


def symbol_profile(sys, tol: ToleranceConfig = DEFAULT_TOL) -> SymbolProfile:
    """Modulus envelope of the weight sequence, from the closed form.

    The result is spot-checked against the first generated entries; a
    contradiction raises MetadataMissing (the metadata, not the generator,
    is considered wrong in that case).
    """
    if isinstance(sys, InterleavedSystem):
        profile = sys._symbol_profile_closed_form()
        _spot_check_profile(profile, sys.symbol_prefix(SYMBOL_SPOT_CHECK))
        return profile
    if sys._closed_form is not None:
        m_base, m_exp = sys._closed_form["m"]
        per_entry = []
        for value, e in zip(m_base, m_exp):
            mod = abs(value)
            if mod == 0.0:
                per_entry.append((0.0, 0.0, False))
            elif e > 0:
                per_entry.append((0.0, mod, True))      # decays to 0, max at k=1
            elif e < 0:
                per_entry.append((mod, math.inf, True))  # grows without bound
            else:
                per_entry.append((mod, mod, True))
        profile = _profile_from_envelope(per_entry)
    elif _blocks_constant_over_prefix(sys):
        m = sys.block(1)[2]
        moduli = np.abs(m)
        profile = SymbolProfile(
            inf_modulus=float(np.min(moduli)),
            sup_modulus=float(np.max(moduli)),
            all_nonzero=bool(np.all(m != 0)),
        )
    else:
        raise MetadataMissing(
            f"system {sys.name!r} has no closed form and its blocks vary; "
            "cannot bound the symbol"
        )
    _spot_check_profile(profile, sys.symbol_prefix(SYMBOL_SPOT_CHECK))
    return profile


@dataclass(frozen=True)
class InterleavedSystem:
    """System with one recurrent direction and per-index transient terms.

    The recurrent basis direction (index 0) receives term k >= 0 with
    coefficients head * ratio^k on each of the three components; the
    coefficient products p_k = m_k phi_k conj(psi_k) then form a geometric
    series. Transient term j touches only basis direction j (j >= 1), with
    fixed coefficients. ``ratio_bound`` is the certified tail ratio r < 1
    with |p_(k+1)| <= r |p_k|; it is spot-checked on the first 64 terms.
    """

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
    name: str = ""

    # -------------------------------------------------------------- series

    def recurrent_product(self, k: int) -> complex:
        """p_k = (m coeff) * (output coeff) * conj(input coeff) of term k."""
        rho = self.m_ratio * self.phi_ratio * np.conj(self.psi_ratio)
        p0 = self.m_head * self.phi_head * np.conj(self.psi_head)
        return complex(p0 * rho ** k)

    @property
    def transient_product(self) -> complex:
        return complex(self.transient_m * self.transient_phi * np.conj(self.transient_psi))

    def certify_ratio(self, prefix: int = SPOT_CHECK_BLOCKS) -> None:
        """Raise RatioNotCertified unless the declared tail ratio holds."""
        r = float(self.ratio_bound)
        if not r < 1.0:
            raise RatioNotCertified(f"declared ratio {r} is not below 1")
        previous = abs(self.recurrent_product(0))
        for k in range(1, prefix + 1):
            current = abs(self.recurrent_product(k))
            if current > r * previous * (1.0 + 1e-12):
                raise RatioNotCertified(
                    f"|p_{k}| = {current:.3e} exceeds ratio * |p_{k-1}| = {r * previous:.3e}"
                )
            previous = current

    def symbol_prefix(self, count: int) -> np.ndarray:
        """Weight entries in sequence order: head, then transient/recurrent pairs."""
        out = [self.m_head]
        k = 1
        while len(out) < count:
            out.append(self.transient_m)
            if len(out) < count:
                out.append(self.m_head * self.m_ratio ** k)
            k += 1
        return np.asarray(out[:count], dtype=np.complex128)

    def _symbol_profile_closed_form(self) -> SymbolProfile:
        entries: list[tuple[float, float, bool]] = []
        for value in (self.m_head, self.transient_m):
            mod = abs(value)
            entries.append((mod, mod, mod > 0))
        ratio_mod = abs(self.m_ratio)
        head_mod = abs(self.m_head)
        if head_mod == 0.0 or ratio_mod == 0.0:
            entries.append((0.0, 0.0, False))
        elif ratio_mod > 1.0:
            entries.append((head_mod * ratio_mod, math.inf, True))
        elif ratio_mod < 1.0:
            entries.append((0.0, head_mod * ratio_mod, True))
        else:
            entries.append((head_mod, head_mod, True))
        return _profile_from_envelope(entries)

    # -------------------------------------------------------------- sides

    def _side_params(self, side: str) -> tuple[complex, complex, complex]:
        """(head, ratio, transient coefficient) of one weighted side."""
        family, weight = _side_entry(side)
        params = (getattr(self, f"{family}_head"), getattr(self, f"{family}_ratio"),
                  getattr(self, f"transient_{family}"))
        if weight is None:
            return params
        weights = (self.m_head, self.m_ratio, self.transient_m)
        return tuple(complex(weight(w)) * p for w, p in zip(weights, params))

    def side_bounds(self, side: str, horizon: int = SWEEP_HORIZON,
                    tol: ToleranceConfig = DEFAULT_TOL) -> SystemBounds:
        """Frame-bound extremes over directions, with closed-form classification.

        The recurrent direction accumulates sum_k |head * ratio^k|^2 and
        every transient direction contributes |transient|^2 once.
        """
        head, ratio, transient = self._side_params(side)
        head_sq = float(abs(head)) ** 2
        ratio_sq = float(abs(ratio)) ** 2
        transient_sq = abs(transient) ** 2

        try:
            partial = head_sq * sum(ratio_sq ** k for k in range(horizon + 1))
        except OverflowError:  # ratio_sq > 1: the partial sum leaves float range
            partial = math.inf if head_sq > 0.0 else 0.0
        lam_min = min(partial, transient_sq)
        lam_max = max(partial, transient_sq)

        if head_sq > 0.0 and ratio_sq >= 1.0:
            classification = CLASS_NOT_BESSEL
        else:
            total = head_sq / (1.0 - ratio_sq) if head_sq > 0.0 else 0.0
            floor = min(total, transient_sq)
            ceil = max(total, transient_sq)
            classification = (CLASS_FRAME
                              if floor > tol.rel_eps * max(ceil, 1.0)
                              else CLASS_BESSEL_NOT_FRAME)
        return SystemBounds(lambda_min=lam_min, lambda_max=lam_max,
                            classification=classification)


def interleaved_apply(sys: InterleavedSystem, f, tol: float) -> tuple[np.ndarray, float]:
    """Apply the interleaved multiplier to a finitely supported vector.

    Transient directions are exact (a single term each). The recurrent
    direction sums its geometric coefficient series until the certified
    tail bound drops to ``tol``; the returned bound is that tail estimate
    (zero when the recurrent direction is untouched).
    """
    sys.certify_ratio()
    vec = np.asarray(f, dtype=np.complex128).reshape(-1)
    out = np.zeros_like(vec)
    if vec.size > 1:
        out[1:] = sys.transient_product * vec[1:]
    if vec.size == 0 or vec[0] == 0:
        return out, 0.0

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


@dataclass(frozen=True)
class ExampleCheck:
    """One verified statement about a registry example."""

    name: str
    ok: bool
    residual: float | None = None
    tolerance: float | None = None
    value: object = None
    detail: str = ""
    documented_departure: bool = False

    def as_dict(self) -> dict:
        out: dict = {"name": self.name, "ok": self.ok}
        if self.residual is not None:
            out["residual"] = self.residual
            out["tolerance"] = self.tolerance
        if self.value is not None:
            out["value"] = self.value
        if self.detail:
            out["detail"] = self.detail
        if self.documented_departure:
            out["documented_departure"] = True
        return out


@dataclass(frozen=True)
class ExampleRun:
    """Outcome of running one example's annotated expectation list."""

    name: str
    checks: tuple[ExampleCheck, ...]
    verdict: str  # pass | fail | flagged

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "checks": [c.as_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class RegistryEntry:
    """A prebuilt example system with its behavioral annotations."""

    name: str
    system: object
    summary: str
    annotations: dict = field(default_factory=dict)


_SQRT5 = math.sqrt(5.0)
EX5_3_SYMBOL = ((5.0 + 2.0 * _SQRT5) / 5.0, (5.0 - 2.0 * _SQRT5) / 5.0, 1.0)


def _build_registry() -> dict[str, RegistryEntry]:
    ex4_1 = BlockSystem.harmonic_weight(
        phi=[[1.0], [1.0], [-1.0]], phi_exponents=[0, 0, 0],
        psi=[[1.0], [1.0], [1.0]], psi_exponents=[0, 1, 1],
        m=[1.0, 1.0, 1.0], m_exponents=[0, 1, 1],
        name="ex4_1",
    )
    ex4_2 = InterleavedSystem(
        phi_head=1.0, psi_head=1.0, m_head=1.0,
        phi_ratio=0.5, psi_ratio=2.0 ** -0.5, m_ratio=2.0 ** 0.5,
        transient_phi=1.0, transient_psi=1.0, transient_m=1.0,
        ratio_bound=0.5, name="ex4_2",
    )
    ex5_3 = BlockSystem.constant_template(
        phi=[[1.0], [1.0], [-1.0]],
        psi=[[1.0], [1.0], [1.0]],
        m=list(EX5_3_SYMBOL),
        name="ex5_3",
    )
    ex5_final = BlockSystem.constant_template(
        phi=[[1.0], [1.0]],
        psi=[[1.0], [-1.0]],
        m=[1.0, -1.0],
        name="ex5_final",
    )
    return {
        "ex4_1": RegistryEntry(
            name="ex4_1", system=ex4_1,
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
            name="ex4_2", system=ex4_2,
            summary="interleaved system with unbounded symbol and geometric recurrent tail",
            annotations={
                "symbol": "unbounded, zero-free",
                "conjugate_weighted_input_side": "not Bessel (unit-size recurrent coefficients forever)",
                "identity_claim": "computed recurrent total departs from the uniform identity "
                                  "(documented; the certified computation is authoritative)",
            },
        ),
        "ex5_3": RegistryEntry(
            name="ex5_3", system=ex5_3,
            summary="identity multiplier with semi-normalized symbol on constant scalar blocks",
            annotations={
                "symbol": "semi-normalized",
                "canonical_inversion": "holds even though neither equivalence does",
                "equivalences": "input side vs weighted output side fails; "
                                "output side vs conjugate-weighted input side fails",
            },
        ),
        "ex5_final": RegistryEntry(
            name="ex5_final", system=ex5_final,
            summary="unimodular symbol where both weighted-side equivalences hold",
            annotations={
                "symbol": "unimodular (constant modulus one)",
                "equivalence_chain": "all three legs hold",
            },
        ),
    }


_REGISTRY = _build_registry()


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


def _check_residual(name: str, residual: float, tolerance: float,
                    detail: str = "") -> ExampleCheck:
    return ExampleCheck(name=name, ok=bool(residual <= tolerance),
                        residual=float(residual), tolerance=float(tolerance),
                        detail=detail)


def _check_flag(name: str, ok: bool, detail: str = "", value: object = None) -> ExampleCheck:
    return ExampleCheck(name=name, ok=bool(ok), detail=detail, value=value)


def _run_ex4_1(sys: BlockSystem, tol: ToleranceConfig, horizon: int) -> list[ExampleCheck]:
    checks: list[ExampleCheck] = []

    identity_worst = 0.0
    route_worst = 0.0
    duality_ok = True
    eye = np.eye(sys.block_dim)
    for k in range(1, horizon + 1):
        identity_worst = max(identity_worst,
                             float(np.max(np.abs(block_multiplier(sys, k) - eye))))
        symbol, phi_k, psi_k = block_frames(sys, k)
        direct = mp.build(symbol, phi_k, psi_k)
        weighted = mp.weighted_frame(phi_k, symbol)
        unit_route = mp.build(mp.Symbol(np.ones(len(symbol))), weighted, psi_k)
        direct_duals = mp.induced_duals(direct, tol)
        route_duals = mp.induced_duals(unit_route, tol)
        route_worst = max(route_worst, float(np.max(np.abs(
            direct_duals.psi_dagger.synthesis - route_duals.psi_dagger.synthesis))))
        if not (fr.is_dual(direct_duals.psi_dagger, psi_k, tol)
                and fr.is_dual(direct_duals.phi_dagger, phi_k, tol)):
            duality_ok = False

    checks.append(_check_residual("block_multiplier_is_identity", identity_worst,
                                  IDENTITY_SWEEP_TOL, f"k = 1..{horizon}"))
    checks.append(_check_residual("unit_symbol_route_matches_induced_duals", route_worst,
                                  REPRODUCTION_TOL, f"k = 1..{horizon}"))
    checks.append(_check_flag("induced_duals_pass_duality_per_block", duality_ok))

    profile = symbol_profile(sys, tol)
    checks.append(_check_flag("symbol_bounded", profile.bounded,
                              value=profile.sup_modulus))
    checks.append(_check_flag("symbol_not_semi_normalized", not profile.semi_normalized,
                              value=profile.inf_modulus))
    checks.append(_check_flag("symbol_all_nonzero", profile.all_nonzero))

    bounds = system_frame_bounds(sys, "mphi", horizon, tol)
    in_window = (bounds.classification == CLASS_FRAME
                 and 1.0 < bounds.lambda_min
                 and bounds.lambda_max <= 3.0 + IDENTITY_SWEEP_TOL)
    checks.append(_check_flag("weighted_output_side_is_frame_with_expected_bounds", in_window,
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


def _run_ex4_2(sys: InterleavedSystem, tol: ToleranceConfig, horizon: int) -> list[ExampleCheck]:
    checks: list[ExampleCheck] = []
    try:
        sys.certify_ratio()
        checks.append(_check_flag("tail_ratio_certified", True, value=sys.ratio_bound))
    except RatioNotCertified as exc:  # pragma: no cover - registry data is certified
        checks.append(_check_flag("tail_ratio_certified", False, detail=str(exc)))
        return checks

    basis2 = np.array([0.0, 1.0])
    image2, bound2 = interleaved_apply(sys, basis2, IDENTITY_SWEEP_TOL)
    checks.append(_check_residual("transient_direction_exact",
                                  float(np.max(np.abs(image2 - basis2))), 0.0,
                                  detail="one term only, bound must be zero"))
    checks.append(_check_flag("transient_bound_is_zero", bound2 == 0.0))

    basis1 = np.array([1.0, 0.0])
    image1, bound1 = interleaved_apply(sys, basis1, IDENTITY_SWEEP_TOL)
    total = float(image1[0].real)
    oracle = _independent_recurrent_total(sys)
    checks.append(_check_flag("tail_bound_at_most_tolerance", bound1 <= IDENTITY_SWEEP_TOL,
                              value=bound1))
    checks.append(_check_residual("recurrent_total_matches_partial_summation",
                                  abs(total - oracle), IDENTITY_SWEEP_TOL + bound1,
                                  detail=f"computed {total!r} vs summed {oracle!r}"))
    checks.append(ExampleCheck(
        name="departs_from_claimed_uniform_identity",
        ok=abs(total - 1.0) > 1e-6,
        value=total,
        detail="the recurrent direction coefficient is 2, not 1; "
               "the certified computation is authoritative",
        documented_departure=True,
    ))

    profile = symbol_profile(sys, tol)
    checks.append(_check_flag("symbol_unbounded", not profile.bounded))
    checks.append(_check_flag("symbol_all_nonzero", profile.all_nonzero))

    checks.append(_check_flag(
        "conjugate_weighted_input_side_not_bessel",
        system_frame_bounds(sys, "mbar_psi", horizon, tol).classification == CLASS_NOT_BESSEL,
    ))
    checks.append(_check_flag(
        "weighted_output_side_is_frame",
        system_frame_bounds(sys, "mphi", horizon, tol).classification == CLASS_FRAME,
    ))
    return checks


def _run_ex5_3(sys: BlockSystem, tol: ToleranceConfig, horizon: int) -> list[ExampleCheck]:
    checks: list[ExampleCheck] = []
    eye = np.eye(sys.block_dim)
    identity_worst = max(
        float(np.max(np.abs(block_multiplier(sys, k) - eye)))
        for k in range(1, horizon + 1)
    )
    checks.append(_check_residual("block_multiplier_is_identity", identity_worst,
                                  IDENTITY_SWEEP_TOL, f"k = 1..{horizon}"))

    symbol, phi_k, psi_k = block_frames(sys, 1)
    third_phi = fr.FiniteFrame.from_synthesis(phi_k.synthesis / 3.0)
    third_psi = fr.FiniteFrame.from_synthesis(psi_k.synthesis / 3.0)
    dual_phi = fr.canonical_dual(phi_k, tol)
    dual_psi = fr.canonical_dual(psi_k, tol)
    checks.append(_check_residual(
        "canonical_duals_are_one_third_of_templates",
        max(float(np.max(np.abs(dual_phi.synthesis - third_phi.synthesis))),
            float(np.max(np.abs(dual_psi.synthesis - third_psi.synthesis)))),
        REPRODUCTION_TOL,
    ))

    mult = mp.build(symbol, phi_k, psi_k)
    checks.append(_check_residual("canonical_inversion_identity_holds",
                                  mp.verify_canonical_inversion(mult, tol),
                                  REPRODUCTION_TOL))

    report = mp.check_prop_q(mult, tol)
    checks.append(_check_flag(
        "equivalences_fail_while_inversion_holds",
        report.eq1_holds and not report.psi_equiv_mphi and not report.phi_equiv_mbar_psi
        and not report.psi_dagger_is_canonical and not report.phi_dagger_is_canonical,
        value=report.as_dict(),
    ))
    checks.append(_check_flag(
        "weighted_canonical_shortcut_fails",
        not mp.check_weighted_canonical(phi_k, symbol, tol),
    ))

    profile = symbol_profile(sys, tol)
    expected_inf = min(abs(v) for v in EX5_3_SYMBOL)
    expected_sup = max(abs(v) for v in EX5_3_SYMBOL)
    profile_ok = (profile.semi_normalized
                  and abs(profile.inf_modulus - expected_inf) <= IDENTITY_SWEEP_TOL
                  and abs(profile.sup_modulus - expected_sup) <= IDENTITY_SWEEP_TOL)
    checks.append(_check_flag("symbol_semi_normalized_with_expected_envelope", profile_ok,
                              value=[profile.inf_modulus, profile.sup_modulus]))
    return checks


def _run_ex5_final(sys: BlockSystem, tol: ToleranceConfig, horizon: int) -> list[ExampleCheck]:
    checks: list[ExampleCheck] = []
    double_eye = 2.0 * np.eye(sys.block_dim)
    worst = max(
        float(np.max(np.abs(block_multiplier(sys, k) - double_eye)))
        for k in range(1, horizon + 1)
    )
    checks.append(_check_residual("block_multiplier_is_twice_identity", worst,
                                  IDENTITY_SWEEP_TOL, f"k = 1..{horizon}"))

    symbol, phi_k, psi_k = block_frames(sys, 1)
    weighted_out = mp.weighted_frame(phi_k, symbol)
    weighted_in = mp.weighted_frame(psi_k, symbol.conjugate())
    exact = (float(np.max(np.abs(weighted_out.synthesis - psi_k.synthesis))) == 0.0
             and float(np.max(np.abs(weighted_in.synthesis - phi_k.synthesis))) == 0.0)
    checks.append(_check_flag("weighted_sides_coincide_with_counterparts", exact,
                              detail="input side equals the weighted output side entrywise"))

    mult = mp.build(symbol, phi_k, psi_k)
    report = mp.check_constant_modulus(mult, tol)
    checks.append(_check_flag("constant_modulus_chain_all_equivalent",
                              report.all_equivalent, value=report.as_dict()))

    profile = symbol_profile(sys, tol)
    checks.append(_check_flag("symbol_unimodular",
                              profile.inf_modulus == 1.0 and profile.sup_modulus == 1.0))
    return checks


_RUNNERS = {
    "ex4_1": _run_ex4_1,
    "ex4_2": _run_ex4_2,
    "ex5_3": _run_ex5_3,
    "ex5_final": _run_ex5_final,
}


def run_example(name: str, tol: ToleranceConfig = DEFAULT_TOL,
                horizon: int = SWEEP_HORIZON) -> ExampleRun:
    """Execute an example's annotated expectation list.

    The verdict is "fail" when any check misses, "flagged" when every
    check holds but one of them records a documented departure from the
    claimed identity, and "pass" otherwise.
    """
    entry = get_example(name)
    checks = _RUNNERS[name](entry.system, tol, horizon)
    all_ok = all(c.ok for c in checks)
    departed = any(c.documented_departure and c.ok for c in checks)
    if not all_ok:
        verdict = "fail"
    elif departed:
        verdict = "flagged"
    else:
        verdict = "pass"
    return ExampleRun(name=name, checks=tuple(checks), verdict=verdict)
