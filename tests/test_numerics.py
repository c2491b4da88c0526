import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framemult.errors import NotInvertible
from framemult.numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    adjoint,
    as_vector,
    condition_number,
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


def test_relative_residual_zero_reference_falls_back_to_absolute():
    zero = np.zeros((2, 2))
    assert relative_residual(zero, zero) == 0.0
    assert relative_residual(np.eye(2), zero) == pytest.approx(np.sqrt(2.0))


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
