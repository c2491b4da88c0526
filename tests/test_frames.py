import numpy as np
import pytest

from framemult.errors import DimensionMismatch, NotAFrame, NotEquivalent
from framemult.frames import (
    DualFamilyParam,
    FiniteFrame,
    analysis,
    canonical_dual,
    dual_family,
    equivalence_operator,
    frame_bounds,
    frame_operator,
    frames_equal,
    is_a_pseudo_dual,
    is_dual,
    is_frame,
    is_riesz_basis,
    is_s_pseudo_dual,
    random_dual,
    random_frame,
    synthesis,
)
from framemult.numerics import ToleranceConfig


def mercedes():
    # e1, e2 and their sum: the smallest redundant frame of C^2
    return FiniteFrame([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_constructor_shapes():
    f = mercedes()
    assert f.dim == 2
    assert f.size == 3
    assert len(f) == 3
    assert f.synthesis.shape == (2, 3)
    assert np.array_equal(f.vector(2), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        FiniteFrame([[[1.0]]])


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
    coeffs = analysis(mercedes(), [1.0, 2.0])
    assert np.allclose(coeffs, [1.0, 2.0, 3.0], atol=1e-15, rtol=0.0)


def test_analysis_conjugates_the_frame_vector():
    f = FiniteFrame([[1.0j, 0.0]])
    # <e1, (i, 0)> = conj(i) = -i
    assert np.allclose(analysis(f, [1.0, 0.0]), [-1.0j], atol=1e-15, rtol=0.0)


def test_synthesis_oracle():
    out = synthesis(mercedes(), [1.0, 1.0, 1.0])
    assert np.allclose(out, [2.0, 2.0], atol=1e-15, rtol=0.0)


def test_analysis_dimension_check():
    with pytest.raises(DimensionMismatch):
        analysis(mercedes(), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        synthesis(mercedes(), [1.0, 2.0])


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
    # the two one-sided reconstruction identities are adjoints of each other
    rng = np.random.default_rng(11)
    for _ in range(25):
        f = random_frame(3, 5, rng)
        candidate = random_frame(3, 5, rng)
        assert is_s_pseudo_dual(candidate, f) == is_a_pseudo_dual(candidate, f)
    dual = canonical_dual(mercedes())
    assert is_s_pseudo_dual(dual, mercedes())
    assert is_a_pseudo_dual(dual, mercedes())


def test_dual_family_zero_perturbation_is_canonical():
    f = mercedes()
    got = dual_family(DualFamilyParam(f, np.zeros((2, 3))))
    assert frames_equal(got, canonical_dual(f))


def test_dual_family_members_are_duals():
    f = mercedes()
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        member = dual_family(DualFamilyParam(f, h))
        assert is_dual(member, f)


def test_dual_family_accepts_row_perturbations():
    f = mercedes()
    h = np.arange(6.0).reshape(3, 2)  # N x d layout
    assert is_dual(dual_family(DualFamilyParam(f, h)), f)
    with pytest.raises(DimensionMismatch):
        DualFamilyParam(f, np.zeros((4, 4))).perturbation_matrix()


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
        got = dual_family(DualFamilyParam(base, h)).synthesis
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), seed


def test_riesz_basis_has_a_unique_dual():
    basis = FiniteFrame([[2.0, 0.0], [1.0, 1.0]])
    tilde = canonical_dual(basis)
    rng = np.random.default_rng(2)
    h = rng.standard_normal((2, 2))
    assert frames_equal(dual_family(DualFamilyParam(basis, h)), tilde)


def test_equivalence_operator_recovers_the_map():
    phi = FiniteFrame(np.eye(2))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    psi = FiniteFrame.from_synthesis(rot @ phi.synthesis)
    op = equivalence_operator(phi, psi)
    assert np.allclose(op, rot, atol=1e-12, rtol=0.0)


def test_equivalence_operator_rejects_unrelated_sequences():
    phi = mercedes()
    psi = FiniteFrame([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    with pytest.raises(NotEquivalent) as info:
        equivalence_operator(phi, psi)
    assert info.value.reason == "no_linear_map"


def test_equivalence_operator_rejects_singular_map():
    phi = FiniteFrame(np.eye(2))
    psi = FiniteFrame([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NotEquivalent) as info:
        equivalence_operator(phi, psi)
    assert info.value.reason == "not_invertible"


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
        d = random_dual(f, rng)
        assert is_dual(d, f)


def test_cached_spectrum_still_decides_each_tolerance_afresh():
    frame = mercedes()
    assert frame_bounds(frame) == pytest.approx((1.0, 3.0), abs=1e-12)
    # bounds (1, 3): a lower bound at or below rel_eps * 3 counts as zero
    with pytest.raises(NotAFrame):
        frame_bounds(frame, ToleranceConfig(rel_eps=0.5))
    with pytest.raises(NotAFrame):
        canonical_dual(frame, ToleranceConfig(rel_eps=0.5))
    assert canonical_dual(frame) is canonical_dual(frame)
