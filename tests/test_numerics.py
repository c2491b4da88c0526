import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framemult.multipliers as mp
from framemult.errors import NotAFrame, NotInvertible
from framemult.frames import FiniteFrame, canonical_dual
from framemult.numerics import (
    DEFAULT_TOL,
    EPS,
    ToleranceConfig,
    adjoint,
    check_invertible,
    condition_number,
    frobenius,
    hermitian_eigenvalues,
    relative_residual,
    singular_values,
    try_invert,
)


def test_tolerance_config_defaults():
    assert DEFAULT_TOL.rel_eps == 1e-9
    assert DEFAULT_TOL.cond_max == 1e12


def test_tolerance_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ToleranceConfig(rel_eps=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(rel_eps=-1e-9)
    with pytest.raises(ValueError):
        ToleranceConfig(cond_max=0.5)
    for rel_eps in (1.0, 2.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ToleranceConfig(rel_eps=rel_eps)


def test_adjoint_is_conjugate_transpose():
    a = np.array([[1.0 + 2.0j, 3.0], [0.0, -1.0j]])
    expected = np.array([[1.0 - 2.0j, 0.0], [3.0, 1.0j]])
    assert np.array_equal(adjoint(a), expected)


def test_try_invert_oracle():
    # inverse of the unit shear flips the off-diagonal sign
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    expected = np.array([[1.0, -1.0], [0.0, 1.0]])
    assert np.allclose(try_invert(a, 2), expected, atol=1e-14, rtol=0.0)


def test_try_invert_rejects_singular():
    with pytest.raises(NotInvertible):
        try_invert(np.zeros((2, 2)), 2)
    with pytest.raises(NotInvertible):
        check_invertible(np.nan, np.nan, 2)
    with pytest.raises(NotInvertible) as info:
        try_invert(np.array([[1.0, 0.0], [0.0, 1e-15]]), 2)
    assert info.value.sigma_max > 0
    assert info.value.sigma_min / info.value.sigma_max < 1.0 / DEFAULT_TOL.cond_max


def test_try_invert_respects_cond_max_policy():
    a = np.diag([1.0, 1e-6])
    try_invert(a, 2)  # fine under the default ceiling
    with pytest.raises(NotInvertible):
        try_invert(a, 2, ToleranceConfig(cond_max=1e5))


# ------------------------------------------------------- the three decision rules

SIZE = 512  # the rank floor of a (128, 512) multiplier, still below 1/cond_max and rel_eps


def decide(rule, tol, a, b):
    """A rule on its two measured values, spans and invertible at size SIZE."""
    return tol.within(a, b) if rule == "within" else getattr(tol, rule)(a, b, SIZE)


# the inline expressions the rules replaced, in their argument order
INLINE = {
    "spans": lambda tol, lower, upper: lower > tol.rel_eps * upper,
    "invertible": lambda tol, sigma_max, sigma_min: sigma_min > sigma_max / tol.cond_max,
    "within": lambda tol, residual, scale: residual <= tol.rel_eps * scale < math.inf,
}
# the threshold that the reference value (upper, sigma_max, scale) sets for the other one
THRESHOLD = {
    "spans": lambda tol, upper: tol.rel_eps * upper,
    "invertible": lambda tol, sigma_max: sigma_max / tol.cond_max,
    "within": lambda tol, scale: tol.rel_eps * scale,
}
REFERENCES = [5e-324, 1e-310, 2.5e-300, 1e-154, 3e-9, 0.7, 1.0, 3.5, 1e12, 1e154, 1e300, 1.7e308]


def threshold_grid(rule, tol):
    """Argument pairs of ``rule`` with the decided value at, and one ulp either side of, its threshold."""
    pairs = []
    for reference in REFERENCES:
        threshold = THRESHOLD[rule](tol, reference)
        for value in (0.0, threshold, np.nextafter(threshold, -math.inf),
                      np.nextafter(threshold, math.inf), 2.0 * threshold, reference):
            value = float(value)
            pairs.append((reference, value) if rule == "invertible" else
                         (value, reference))
    return pairs


@pytest.mark.parametrize("rule", sorted(INLINE))
def test_each_rule_is_its_inline_expression_at_default_tolerances(rule):
    pairs = threshold_grid(rule, DEFAULT_TOL)
    old = [INLINE[rule](DEFAULT_TOL, a, b) for a, b in pairs]
    assert [decide(rule, DEFAULT_TOL, a, b) for a, b in pairs] == old
    assert True in old and False in old
    # stacked: one decision per entry, the same ones
    first, second = (np.array(column) for column in zip(*pairs))
    assert decide(rule, DEFAULT_TOL, first, second).tolist() == old
    assert decide(rule, DEFAULT_TOL, first.reshape(3, -1), second.reshape(3, -1)).ravel().tolist() == old


@pytest.mark.parametrize("rule", sorted(INLINE))
@pytest.mark.parametrize("exponent", [-400, -1, 1, 400])
def test_scaling_both_values_by_a_power_of_two_moves_no_decision(rule, exponent):
    tol = ToleranceConfig(rel_eps=1e-6, cond_max=1e8)
    pairs = [(a, b) for a, b in threshold_grid(rule, tol)
             if all(1e-180 < abs(x) < 1e180 or x == 0.0 for x in (a, b))]
    scaled = [(math.ldexp(a, exponent), math.ldexp(b, exponent)) for a, b in pairs]
    assert [decide(rule, tol, a, b) for a, b in scaled] == [decide(rule, tol, a, b) for a, b in pairs]


NON_FINITE = [
    ("spans", math.nan, 1.0), ("spans", 1.0, math.nan), ("spans", 1.0, math.inf),
    ("spans", math.inf, math.inf), ("spans", -math.inf, 1.0),
    ("invertible", math.nan, 1.0), ("invertible", 1.0, math.nan), ("invertible", math.inf, 1.0),
    ("invertible", math.inf, math.inf), ("invertible", 1.0, -math.inf),
    ("within", math.nan, 1.0), ("within", 0.0, math.nan), ("within", math.inf, 1.0),
    ("within", 0.0, math.inf), ("within", math.inf, math.inf), ("within", 0.0, -math.inf),
]


@pytest.mark.parametrize("rule, a, b", NON_FINITE)
@pytest.mark.parametrize("tol", [DEFAULT_TOL, ToleranceConfig(rel_eps=1e-300, cond_max=math.inf)])
def test_a_measured_value_that_is_nan_or_infinite_fails_every_rule(rule, a, b, tol):
    assert decide(rule, tol, a, b) is False
    passing = (0.0, 1.0) if rule == "within" else (1.0, 1.0)
    stacked = decide(rule, tol, np.array([a, passing[0]]), np.array([b, passing[1]]))
    assert stacked.tolist() == [False, True]


@pytest.mark.parametrize("tol", [ToleranceConfig(rel_eps=1e-300, cond_max=math.inf),
                                 ToleranceConfig(rel_eps=1e-17, cond_max=1e17)])
@pytest.mark.parametrize("size", [1, 3, 512])
def test_the_rank_floor_holds_at_every_accepted_tolerance(tol, size):
    # at or below size * eps of the largest value, a computed lower bound or
    # sigma_min is rounding noise: no tolerance makes it span or invert
    for upper in (1e-200, 1.0, 1e200):
        floor = size * EPS * upper
        assert not tol.spans(floor, upper, size)
        assert tol.spans(np.nextafter(floor, math.inf), upper, size)
        assert not tol.invertible(upper, floor, size)
        assert tol.invertible(upper, np.nextafter(floor, math.inf), size)
    with pytest.raises(NotInvertible, match="rank floor") as info:
        check_invertible(2.0, size * EPS * 2.0, size, tol)
    assert (info.value.sigma_max, info.value.sigma_min) == (2.0, size * EPS * 2.0)
    with pytest.raises(NotInvertible):
        try_invert(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -52]]), 2, tol)


def test_check_invertible_names_the_first_failing_matrix_of_a_stack():
    sigma_max = np.array([[1.0, 2.0], [4.0, 8.0]])
    sigma_min = np.array([[1.0, 1e-13], [1e-14, 1.0]])
    with pytest.raises(NotInvertible) as info:
        check_invertible(sigma_max, sigma_min, 2)
    assert (info.value.sigma_max, info.value.sigma_min) == (2.0, 1e-13)
    check_invertible(sigma_max[1:, 1:], sigma_min[1:, 1:], 2)
    # an overflowed matrix at cond_max inf is reported without an inf / inf warning
    with pytest.raises(NotInvertible) as info:
        check_invertible(np.array([1.0, math.inf]), np.array([1.0, math.inf]), 2,
                         ToleranceConfig(rel_eps=1e-300, cond_max=math.inf))
    assert (info.value.sigma_max, info.value.sigma_min) == (math.inf, math.inf)


def test_an_exactly_singular_factorization_is_not_invertible_nor_a_frame(monkeypatch):
    # should LU meet an exact zero pivot after the rule passed, the
    # LinAlgError becomes the package's own verdict
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NotInvertible):
        try_invert(np.eye(2), 2)
    onb = FiniteFrame(np.eye(2))
    mult = mp.build(mp.Symbol([1.0, 2.0]), onb, onb)
    with pytest.raises(NotInvertible) as info:
        mp.invert(mult)
    assert (info.value.sigma_max, info.value.sigma_min) == (2.0, 1.0)
    with pytest.raises(NotAFrame):
        canonical_dual(onb)


def test_condition_number_identity():
    assert condition_number(np.eye(3)) == pytest.approx(1.0)


# ------------------------------------- singular values and eigenvalues of 1 x 1 matrices

SPECIAL_ENTRIES = [0.0, 5e-324, -5e-324, 1.0, 1e300, 1e308 + 1e308j, math.inf, -math.inf, math.nan]
HELPER_TOLERANCES = [ToleranceConfig(1e-9, 1e12), ToleranceConfig(1e-17, 1e17),
                     ToleranceConfig(1e-300, math.inf)]


def one_by_one_entries():
    """The special entries, then random phases at moduli from 1e-320 to 1e308."""
    rng = np.random.default_rng(18)
    moduli = 10.0 ** rng.uniform(-320.0, 308.0, 400)
    phases = np.exp(2j * np.pi * rng.uniform(size=moduli.size))
    return np.concatenate([np.array(SPECIAL_ENTRIES, dtype=np.complex128), moduli * phases])


def lapack_or_none(route, a):
    """np.linalg's values, or None where it raises (it may on inf or NaN)."""
    try:
        return route(a)
    except np.linalg.LinAlgError:
        return None


def decisions(tol, sigmas, eigs, size):
    """The invertible decision on the singular values and the spans decision on the eigenvalues."""
    return (tol.invertible(sigmas[..., 0], sigmas[..., -1], size),
            tol.spans(eigs[..., 0], eigs[..., -1], size))


def test_one_by_one_helpers_decide_as_lapack_does():
    entries = one_by_one_entries()
    lapack_svd = lambda a: np.linalg.svd(a, compute_uv=False)
    stack = entries.reshape(-1, 1, 1)
    finite = stack[np.isfinite(entries)]
    assert hermitian_eigenvalues(finite).tobytes() == np.linalg.eigvalsh(finite).tobytes()
    for tol in HELPER_TOLERANCES:
        for size in (1, 3):
            expected = []
            for a in entries:
                matrix = np.array([[a]])
                sigmas, eigs = singular_values(matrix), hermitian_eigenvalues(matrix)
                ours = decisions(tol, sigmas, eigs, size)
                lapack_sigmas = lapack_or_none(lapack_svd, matrix)
                lapack_eigs = lapack_or_none(np.linalg.eigvalsh, matrix)
                if lapack_eigs is None:
                    assert not ours[1], a
                else:
                    assert eigs.tobytes() == lapack_eigs.tobytes(), a
                    assert ours[1] == tol.spans(lapack_eigs[0], lapack_eigs[-1], size), a
                if lapack_sigmas is None:
                    assert not ours[0], a
                else:
                    assert ours[0] == tol.invertible(lapack_sigmas[0], lapack_sigmas[-1], size), a
                expected.append((bool(ours[0]), bool(ours[1])))
            # a stack of them: one decision per matrix, the same ones
            stacked = decisions(tol, singular_values(stack), hermitian_eigenvalues(stack), size)
            assert list(zip(stacked[0].ravel().tolist(), stacked[1].ravel().tolist())) == expected
            lapack = decisions(tol, lapack_svd(finite), np.linalg.eigvalsh(finite), size)
            ours = decisions(tol, singular_values(finite), hermitian_eigenvalues(finite), size)
            assert all(np.array_equal(x, y) for x, y in zip(ours, lapack))


def test_the_helpers_take_a_1x1_matrix_without_lapack_and_anything_larger_from_it(monkeypatch):
    calls = []
    for name in ("svd", "eigvalsh"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    stack = np.array([3.0 - 4.0j, -2.0, 0.0]).reshape(3, 1, 1)
    assert singular_values(stack).tolist() == [[5.0], [2.0], [0.0]]
    assert hermitian_eigenvalues(stack).tolist() == [[3.0], [-2.0], [0.0]]
    assert singular_values(stack[0]).tolist() == [5.0]
    assert calls == []
    # the lookup is at call time, so a wrapper in np.linalg sees the larger calls
    square = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    assert np.array_equal(singular_values(square), np.linalg.svd(square, compute_uv=False))
    assert np.array_equal(hermitian_eigenvalues(square), np.linalg.eigvalsh(square))
    assert calls == ["svd", "svd", "eigvalsh", "eigvalsh"]
    # a 1 x n or n x 1 matrix is not 1 x 1
    assert np.allclose(singular_values(np.array([[3.0, 4.0]])), [5.0])
    assert calls[-1] == "svd"


def test_relative_residual_of_a_zero_reference_is_inf():
    # nothing is measured against a zero reference, whether it is exactly
    # zero or its norm underflowed (entries 1e-300 square to 0)
    zero = np.zeros((2, 2))
    tiny = np.full((2, 2), 1e-300)
    for reference in (zero, tiny):
        assert relative_residual(zero, reference) == math.inf
        assert relative_residual(np.eye(2), reference) == math.inf
        assert relative_residual(reference, reference) == math.inf
    assert relative_residual(2.0 * np.eye(2), np.eye(2)) == 1.0


shapes = st.one_of(st.tuples(st.integers(1, 40)),
                   st.tuples(st.integers(1, 12), st.integers(1, 12)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shape=shapes, is_complex=st.booleans(), exponent=st.integers(-100, 100),
       seed=st.integers(0, 2 ** 32 - 1))
def test_frobenius_is_numpys_norm_bit_for_bit(shape, is_complex, exponent, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * 10.0 ** exponent
    if is_complex:
        a = a + 1j * rng.standard_normal(shape) * 10.0 ** exponent
    layouts = [a, np.asfortranarray(a), a.T, np.conj(a), np.conj(a).T, a[..., ::-1],
               a[..., ::2], a.T[::2]]
    for view in layouts:
        assert frobenius(view) == np.linalg.norm(view), (view.shape, view.strides)


# small integer entries keep the nonzero singular values away from the
# truncation cutoff, so the identities hold at float precision
complex_entries = st.builds(
    complex,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    data = draw(
        st.lists(
            st.lists(complex_entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.array(data, dtype=np.complex128)


@given(small_matrices())
def test_adjoint_is_an_involution(a):
    assert np.array_equal(adjoint(adjoint(a)), a)
