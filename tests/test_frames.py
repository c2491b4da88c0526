import numpy as np
import pytest

from framemult.errors import DimensionMismatch, NotAFrame
from framemult.frames import (
    FiniteFrame,
    canonical_dual,
    frame_bounds,
    frame_operator,
    frames_equal,
    is_dual,
    is_equivalent,
    is_frame,
    is_riesz_basis,
)
from framemult.numerics import ToleranceConfig
from oracles import dual_family, random_dual_synthesis, random_frame


def mercedes():
    # e1, e2 and their sum: the smallest redundant frame of C^2
    return FiniteFrame([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_constructor_shapes():
    f = mercedes()
    assert f.dim == 2
    assert f.size == 3
    assert f.synthesis.shape == (2, 3)
    assert np.array_equal(f.synthesis[:, 2], np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        FiniteFrame([[[1.0]]])


def test_constructor_takes_rows_only():
    # a 1-D array-like is not read as one vector: every caller passes rows
    for vector in ([1.0, 2.0], np.array([1.0j, 2.0])):
        with pytest.raises(ValueError):
            FiniteFrame(vector)


def test_synthesis_matrix_is_read_only():
    f = mercedes()
    with pytest.raises(ValueError):
        f.synthesis[0, 0] = 5.0


def test_analysis_matrix_is_the_adjoint():
    f = FiniteFrame([[1.0 + 1.0j, 0.0], [0.0, 2.0j]])
    assert np.array_equal(f.analysis_matrix, f.synthesis.conj().T)


def test_frame_operator_oracle():
    # S = I + I restricted... for {e1, e2, e1+e2}: S = [[2,1],[1,2]]
    expected = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(frame_operator(mercedes()), expected, atol=1e-15, rtol=0.0)


def test_frame_bounds_oracle():
    lower, upper = frame_bounds(mercedes())
    assert lower == pytest.approx(1.0, abs=1e-12)
    assert upper == pytest.approx(3.0, abs=1e-12)


def test_analysis_oracle():
    # <(1,2), e1> = 1, <(1,2), e2> = 2, <(1,2), e1+e2> = 3
    coeffs = mercedes().analysis_matrix @ np.array([1.0, 2.0])
    assert np.allclose(coeffs, [1.0, 2.0, 3.0], atol=1e-15, rtol=0.0)


def test_analysis_conjugates_the_frame_vector():
    f = FiniteFrame([[1.0j, 0.0]])
    # <e1, (i, 0)> = conj(i) = -i
    assert np.allclose(f.analysis_matrix @ np.array([1.0, 0.0]), [-1.0j], atol=1e-15, rtol=0.0)


def test_synthesis_oracle():
    out = mercedes().synthesis @ np.array([1.0, 1.0, 1.0])
    assert np.allclose(out, [2.0, 2.0], atol=1e-15, rtol=0.0)


def test_not_a_frame_when_vectors_do_not_span():
    flat = FiniteFrame([[1.0, 0.0], [2.0, 0.0]])
    assert not is_frame(flat)
    with pytest.raises(NotAFrame):
        frame_bounds(flat)
    with pytest.raises(NotAFrame):
        canonical_dual(flat)


def test_canonical_dual_oracle():
    # S^-1 = (1/3) [[2,-1],[-1,2]] applied to each vector
    dual = canonical_dual(mercedes())
    expected = np.array([[2.0, -1.0], [-1.0, 2.0], [1.0, 1.0]]).T / 3.0
    assert np.allclose(dual.synthesis, expected, atol=1e-12, rtol=0.0)
    assert is_dual(dual, mercedes())


def test_redundant_frame_is_not_its_own_dual():
    f = mercedes()
    assert not is_dual(f, f)


def test_orthonormal_basis_is_self_dual_and_riesz():
    onb = FiniteFrame(np.eye(3))
    assert is_dual(onb, onb)
    assert is_riesz_basis(onb)
    assert not is_riesz_basis(mercedes())


def test_pseudo_dual_predicates_agree_on_both_sides():
    # the two one-sided reconstruction identities, Syn_C Ana_Phi = I and
    # Syn_Phi Ana_C = I, are adjoints of each other, so is_dual checks one
    rng = np.random.default_rng(11)
    for _ in range(25):
        f = random_frame(3, 5, rng)
        candidate = random_frame(3, 5, rng)
        assert is_dual(candidate, f) == is_dual(f, candidate)
        member = dual_family(f, rng.standard_normal((3, 5)))
        assert is_dual(member, f) and is_dual(f, member)
    dual = canonical_dual(mercedes())
    assert is_dual(dual, mercedes())
    assert is_dual(mercedes(), dual)


def test_dual_family_zero_perturbation_is_canonical():
    f = mercedes()
    got = dual_family(f, np.zeros((2, 3)))
    assert frames_equal(got, canonical_dual(f))


def test_dual_family_members_are_duals():
    f = mercedes()
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        member = dual_family(f, h)
        assert is_dual(member, f)


def test_dual_family_low_rank_form_matches_the_cross_correlation_form():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 9))
        size = int(rng.integers(dim, 4 * dim + 3))
        base = random_frame(dim, size, rng)
        h = rng.standard_normal((dim, size)) + 1j * rng.standard_normal((dim, size))
        tilde = canonical_dual(base)
        cross = base.analysis_matrix @ tilde.synthesis
        want = tilde.synthesis + h @ (np.eye(size) - cross)
        got = dual_family(base, h).synthesis
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), seed


def test_riesz_basis_has_a_unique_dual():
    basis = FiniteFrame([[2.0, 0.0], [1.0, 1.0]])
    tilde = canonical_dual(basis)
    rng = np.random.default_rng(2)
    h = rng.standard_normal((2, 2))
    assert frames_equal(dual_family(basis, h), tilde)


def test_a_rotated_frame_is_equivalent(svd_calls):
    # the candidate map passes the mapping test, then one SVD finds it invertible
    phi = FiniteFrame(np.eye(2))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    psi = FiniteFrame((rot @ phi.synthesis).T)
    assert is_equivalent(phi, psi) is True
    assert svd_calls == [(2, 2)]


def test_unrelated_sequences_are_not_equivalent_and_take_no_svd(svd_calls):
    # no linear map sends one to the other, so invertibility is never asked
    phi = mercedes()
    psi = FiniteFrame([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    assert is_equivalent(phi, psi) is False
    assert svd_calls == []


def test_a_singular_map_is_not_equivalent_after_one_svd(svd_calls):
    # the map exists, and its SVD finds it singular
    phi = FiniteFrame(np.eye(2))
    psi = FiniteFrame([[1.0, 0.0], [1.0, 0.0]])
    assert is_equivalent(phi, psi) is False
    assert svd_calls == [(2, 2)]


def test_equivalence_raises_for_a_first_sequence_that_does_not_span_or_a_shape_mismatch():
    with pytest.raises(NotAFrame):
        is_equivalent(FiniteFrame([[1.0, 0.0], [1.0, 0.0]]), FiniteFrame(np.eye(2)))
    with pytest.raises(DimensionMismatch):
        is_equivalent(mercedes(), FiniteFrame(np.eye(2)))


def test_frames_equal_is_order_sensitive():
    f = mercedes()
    permuted = FiniteFrame([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    assert frames_equal(f, f)
    assert not frames_equal(f, permuted)
    assert not frames_equal(f, FiniteFrame(np.eye(2)))


def test_random_frame_is_deterministic_per_seed():
    a = random_frame(3, 6, np.random.default_rng(42))
    b = random_frame(3, 6, np.random.default_rng(42))
    assert np.array_equal(a.synthesis, b.synthesis)
    assert is_frame(a)


def test_random_dual_produces_duals():
    f = mercedes()
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = FiniteFrame(random_dual_synthesis(f, rng).T)
        assert is_dual(d, f)


def test_cached_spectrum_still_decides_each_tolerance_afresh():
    # a frame remembers only a tolerance it passed under, never a failure,
    # so a pass at one tolerance hides no failure at another, in either order
    frame = mercedes()
    tight = ToleranceConfig(rel_eps=0.5)
    assert frame_bounds(frame) == pytest.approx((1.0, 3.0), abs=1e-12)
    # bounds (1, 3): a lower bound at or below rel_eps * 3 counts as zero
    with pytest.raises(NotAFrame):
        frame_bounds(frame, tight)
    for _ in range(2):
        with pytest.raises(NotAFrame):
            canonical_dual(frame, tight)
    assert canonical_dual(frame) is canonical_dual(frame)
    for _ in range(2):
        with pytest.raises(NotAFrame):
            canonical_dual(frame, tight)
        assert is_dual(canonical_dual(frame), frame)


# Norms square the entries, so frames with entries near 1e160 have the
# Frobenius norm +inf: a bound rel_eps * norm is then +inf, passes any
# finite or infinite residual and measures nothing, so the decision fails.
overflow_warning = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


@overflow_warning
def test_the_norm_is_the_frobenius_norm_of_the_synthesis_matrix():
    frame = FiniteFrame([[3.0, 0.0], [0.0, 4j]])
    assert frame.norm == 5.0
    assert FiniteFrame(np.full((4, 3), 1e160)).norm == np.inf


@overflow_warning
def test_an_overflowed_scale_fails_frames_equal():
    rng = np.random.default_rng(3)
    f, g = (FiniteFrame(1e160 * rng.standard_normal((5, 2))) for _ in range(2))
    assert not frames_equal(f, g)


@overflow_warning
def test_an_overflowed_scale_fails_the_mapping_test(svd_calls):
    # no linear map sends a frame of 5 vectors in C^2 to an unrelated one
    rng = np.random.default_rng(3)
    phi = FiniteFrame(rng.standard_normal((5, 2)))
    psi = FiniteFrame(1e160 * rng.standard_normal((5, 2)))
    assert is_equivalent(phi, psi) is False
    assert svd_calls == []


@overflow_warning
def test_an_overflowed_scale_fails_the_reconstruction_tests():
    # ||C|| overflows while C Ana_Phi stays in range and is far from I
    rng = np.random.default_rng(3)
    frame = FiniteFrame(1e-160 * rng.standard_normal((5, 2)))
    candidate = FiniteFrame(1e160 * rng.standard_normal((5, 2)))
    assert candidate.norm == np.inf
    assert not is_dual(candidate, frame)
    assert not is_dual(frame, candidate)
