import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framemult.errors import NotInvertible
from framemult.numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    adjoint,
    as_vector,
    check_invertible,
    condition_number,
    frobenius,
    relative_residual,
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


def test_as_vector_length_check():
    v = as_vector([1.0, 2.0], length=2)
    assert v.dtype == np.complex128
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0, 3.0], length=2)


def test_adjoint_is_conjugate_transpose():
    a = np.array([[1.0 + 2.0j, 3.0], [0.0, -1.0j]])
    expected = np.array([[1.0 - 2.0j, 0.0], [3.0, 1.0j]])
    assert np.array_equal(adjoint(a), expected)


def test_try_invert_oracle():
    # inverse of the unit shear flips the off-diagonal sign
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    expected = np.array([[1.0, -1.0], [0.0, 1.0]])
    assert np.allclose(try_invert(a), expected, atol=1e-14, rtol=0.0)


def test_try_invert_rejects_singular():
    with pytest.raises(NotInvertible):
        try_invert(np.zeros((2, 2)))
    with pytest.raises(NotInvertible):
        check_invertible(np.array([np.nan, np.nan]))
    with pytest.raises(NotInvertible) as info:
        try_invert(np.array([[1.0, 0.0], [0.0, 1e-15]]))
    assert info.value.sigma_max > 0
    assert info.value.sigma_ratio < 1.0 / DEFAULT_TOL.cond_max


def test_try_invert_respects_cond_max_policy():
    a = np.diag([1.0, 1e-6])
    try_invert(a)  # fine under the default ceiling
    with pytest.raises(NotInvertible):
        try_invert(a, ToleranceConfig(cond_max=1e5))


def test_condition_number_identity():
    assert condition_number(np.eye(3)) == pytest.approx(1.0)


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
