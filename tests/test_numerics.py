import math
import warnings

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
    hermitian_extremes,
    relative_to,
    singular_extremes,
)
from oracles import lapack_ends


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


def stack_of(*matrices):
    """A MultiplierStack whose block matrices are ``matrices``, entry for entry.

    The output sides are the matrices, the input sides the identity and the
    weights 1, so the induced dual phi_dagger is the adjoint of the inverse.
    """
    a = np.array(matrices, dtype=np.complex128)
    ones = np.ones(a.shape[:-1], dtype=np.complex128)
    return mp.MultiplierStack(ones, a, np.broadcast_to(np.eye(a.shape[-1], dtype=np.complex128), a.shape))


def stack_inverses(stack, tol=DEFAULT_TOL):
    return adjoint(stack.induced_duals(tol)[1])


def test_a_multiplier_stack_inverts_its_matrices():
    # inverse of the unit shear flips the off-diagonal sign
    stack = stack_of([[1.0, 1.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 4.0]])
    assert np.array_equal(stack.matrix[0], [[1.0, 1.0], [0.0, 1.0]])
    expected = [[[1.0, -1.0], [0.0, 1.0]], [[0.5, 0.0], [0.0, 0.25]]]
    assert np.allclose(stack_inverses(stack), expected, atol=1e-14, rtol=0.0)


def test_a_multiplier_stack_rejects_a_singular_matrix():
    with pytest.raises(NotInvertible):
        stack_inverses(stack_of(np.eye(2), np.zeros((2, 2))))
    with pytest.raises(NotInvertible):
        check_invertible(np.nan, np.nan, 2)
    with pytest.raises(NotInvertible) as info:
        stack_inverses(stack_of([[1.0, 0.0], [0.0, 1e-15]]))
    assert info.value.sigma_max > 0
    assert info.value.sigma_min / info.value.sigma_max < 1.0 / DEFAULT_TOL.cond_max


def test_a_multiplier_stack_respects_the_cond_max_policy():
    stack = stack_of(np.diag([1.0, 1e-6]))
    stack_inverses(stack)  # fine under the default ceiling
    with pytest.raises(NotInvertible):
        stack_inverses(stack, ToleranceConfig(cond_max=1e5))


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
        stack_inverses(stack_of([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -52]]), tol)


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
        stack_inverses(stack_of(np.eye(2)))
    onb = FiniteFrame(np.eye(2))
    mult = mp.build(mp.Symbol([1.0, 2.0]), onb, onb)
    with pytest.raises(NotInvertible) as info:
        mp.invert(mult)
    assert (info.value.sigma_max, info.value.sigma_min) == (2.0, 1.0)
    with pytest.raises(NotAFrame):
        canonical_dual(onb)


def test_condition_number_identity():
    assert condition_number(np.eye(3)) == pytest.approx(1.0)


# ------------------------------------------------- extreme singular values and eigenvalues

SPECIAL_ENTRIES = [0.0, 5e-324, -5e-324, 1.0, 1e300, 1e308 + 1e308j, math.inf, -math.inf, math.nan]
HELPER_TOLERANCES = [ToleranceConfig(1e-9, 1e12), ToleranceConfig(1e-17, 1e17),
                     ToleranceConfig(1e-300, math.inf)]
LAPACK = {"svd": lambda a: lapack_ends(np.linalg.svd(a, compute_uv=False)),
          "eigvalsh": lambda a: lapack_ends(np.linalg.eigvalsh(a))}


def one_by_one_entries():
    """The special entries, then random phases at moduli from 1e-320 to 1e308."""
    rng = np.random.default_rng(18)
    moduli = 10.0 ** rng.uniform(-320.0, 308.0, 400)
    phases = np.exp(2j * np.pi * rng.uniform(size=moduli.size))
    return np.concatenate([np.array(SPECIAL_ENTRIES, dtype=np.complex128), moduli * phases])


def decisions(tol, sigmas, eigs, size):
    """The invertible decision on the singular values and the spans decision on the eigenvalues."""
    return tol.invertible(*sigmas, size), tol.spans(*eigs, size)


def same_bits(ours, theirs):
    return all(np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(ours, theirs))


@pytest.fixture
def lapack_calls(monkeypatch):
    """The np.linalg factorizations called in the test, each with whether its input was finite."""
    calls = []
    for name in ("svd", "eigvalsh"):
        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, bool(np.isfinite(a).all())))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_one_by_one_extremes_decide_as_lapack_does():
    entries = one_by_one_entries()
    stack = entries.reshape(-1, 1, 1)
    finite = stack[np.isfinite(entries)]
    # eigenvalues bit for bit, singular values to the last bit (|a| rounds on its own)
    assert same_bits(hermitian_extremes(finite), LAPACK["eigvalsh"](finite))
    for tol in HELPER_TOLERANCES:
        for size in (1, 3):
            expected = []
            for a in entries:
                matrix = np.array([[a]])
                sigmas, eigs = singular_extremes(matrix), hermitian_extremes(matrix)
                ours = decisions(tol, sigmas, eigs, size)
                if np.isfinite(a):
                    assert same_bits(eigs, LAPACK["eigvalsh"](matrix)), a
                    assert ours == decisions(tol, LAPACK["svd"](matrix), eigs, size), a
                else:
                    assert ours == (False, False), a
                expected.append(ours)
            # a stack of them: one decision per matrix, the same ones
            stacked = decisions(tol, singular_extremes(stack), hermitian_extremes(stack), size)
            assert list(zip(stacked[0].ravel().tolist(), stacked[1].ravel().tolist())) == expected
            lapack = decisions(tol, LAPACK["svd"](finite), LAPACK["eigvalsh"](finite), size)
            ours = decisions(tol, singular_extremes(finite), hermitian_extremes(finite), size)
            assert all(np.array_equal(x, y) for x, y in zip(ours, lapack))


def test_the_extremes_take_a_1x1_matrix_without_lapack_and_anything_larger_from_it(lapack_calls):
    stack = np.array([3.0 - 4.0j, -2.0, 0.0]).reshape(3, 1, 1)
    assert [x.tolist() for x in singular_extremes(stack)] == [[5.0, 2.0, 0.0]] * 2
    assert [x.tolist() for x in hermitian_extremes(stack)] == [[3.0, -2.0, 0.0]] * 2
    assert singular_extremes(stack[0]) == (5.0, 5.0)
    assert lapack_calls == []
    # the lookup is at call time, so a wrapper in np.linalg sees the larger calls; the
    # ends are LAPACK's bit for bit, as floats for one matrix and arrays for a stack
    rng = np.random.default_rng(22)
    square = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    hermitian = square + adjoint(square)
    for extremes, route, a in [(singular_extremes, "svd", square),
                               (singular_extremes, "svd", np.stack([square, 2.0 * square])),
                               (hermitian_extremes, "eigvalsh", hermitian),
                               (hermitian_extremes, "eigvalsh", np.stack([hermitian, -hermitian]))]:
        ours = extremes(a)
        assert same_bits(ours, LAPACK[route](a))
        assert all(isinstance(x, float) for x in ours) == (a.ndim == 2)
    assert [name for name, _ in lapack_calls] == ["svd", "svd"] * 2 + ["eigvalsh", "eigvalsh"] * 2
    # a 1 x n or n x 1 matrix is not 1 x 1
    assert np.allclose(singular_extremes(np.array([[3.0, 4.0]])), (5.0, 5.0))
    assert lapack_calls[-1][0] == "svd"


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan, complex(1.0, math.inf),
                                   complex(math.nan, 0.0)])
def test_a_matrix_that_is_not_finite_has_nan_extremes_with_no_lapack_call(entry, lapack_calls):
    # the rule comes before the 1 x 1 shortcut, which would read inf off [inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 3):
            matrix = np.eye(n, dtype=np.complex128)
            matrix[n - 1, 0] = entry
            for extremes in (singular_extremes, hermitian_extremes):
                first, last = extremes(matrix)
                assert type(first) is type(last) is float
                assert math.isnan(first) and math.isnan(last)
            assert lapack_calls == []
            # in a stack the others are measured as they are alone, and LAPACK sees no
            # entry that is not finite
            stack = np.stack([2.0 * np.eye(n), matrix, 3.0 * np.eye(n)])
            for extremes in (singular_extremes, hermitian_extremes):
                first, last = extremes(stack)
                alone = [extremes(a) for a in stack]
                assert same_bits(first, [a[0] for a in alone]) and same_bits(last, [a[1] for a in alone])
            assert all(finite for _, finite in lapack_calls)
            # a stack with no finite matrix, such as one matrix alone, takes no call
            for extremes in (singular_extremes, hermitian_extremes):
                first, last = extremes(matrix[None])
                assert np.isnan(first).all() and np.isnan(last).all()
    # per function at n = 3: the stack, once, and its two finite matrices alone
    assert len(lapack_calls) == 6


def test_relative_residual_of_a_zero_reference_is_inf():
    # nothing is measured against a zero reference, whether it is exactly
    # zero or its norm underflowed (entries 1e-300 square to 0)
    zero = np.zeros((2, 2))
    tiny = np.full((2, 2), 1e-300)
    for reference in (zero, tiny):
        norm = frobenius(reference)
        for actual in (zero, np.eye(2), reference):
            assert relative_to(frobenius(actual - reference), norm) == math.inf
    assert relative_to(frobenius(np.eye(2)), frobenius(np.eye(2))) == 1.0


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


@pytest.mark.parametrize("shape", [(5, 1, 1), (7, 1, 3), (4, 3, 1), (6, 3, 6), (3, 8, 32),
                                   (2, 2, 9, 9)])
@pytest.mark.parametrize("exponent", [-100, 0, 100])
def test_frobenius_of_a_stack_is_the_norm_of_each_matrix(shape, exponent):
    rng = np.random.default_rng(abs(exponent) + len(shape))
    a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** exponent
    for stack in (a, a.real.copy(), adjoint(a)):
        norms = frobenius(stack)
        assert norms.shape == stack.shape[:-2]
        for index in np.ndindex(*stack.shape[:-2]):
            matrix = stack[index]
            # bit for bit the matrix's norm by the same axis reduction, in a stack of any size ...
            assert norms[index] == np.linalg.norm(matrix, axis=(-2, -1)) == frobenius(matrix[None])[0]
            # ... and to rounding its norm by the 2-D path, whose dot sums in another order
            assert norms[index] == pytest.approx(frobenius(matrix), rel=4 * EPS, abs=0.0)


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
