import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framemult.frames as fr
import framemult.multipliers as mp
from framemult.errors import (
    DimensionMismatch,
    ImplicationViolated,
    NotAFrame,
    NotInvertible,
    ZeroSymbolEntry,
)
from framemult.frames import FiniteFrame
from framemult.numerics import DEFAULT_TOL, frobenius
from framemult.numerics import ToleranceConfig
from oracles import (
    IdentityDoesNotHold,
    adjoint_family,
    random_dual_synthesis,
    random_frame,
    recover_pseudo_dual_F,
    recover_pseudo_dual_G,
    termwise_columns,
    uniqueness_kernel,
    verify_small_draws,
    weighted_canonical_reference,
)

SQRT5 = math.sqrt(5.0)


def scalar_example():
    """Scalar templates with an identity multiplier but no equivalences."""
    phi = FiniteFrame([[1.0], [1.0], [-1.0]])
    psi = FiniteFrame([[1.0], [1.0], [1.0]])
    m = mp.Symbol([(5.0 + 2.0 * SQRT5) / 5.0, (5.0 - 2.0 * SQRT5) / 5.0, 1.0])
    return mp.build(m, phi, psi)


def flat_pair():
    """Redundant scalar pair where the canonical-duals formula fails to invert."""
    phi = FiniteFrame([[1.0], [1.0]])
    return mp.build(mp.Symbol([1.0, 2.0]), phi, phi)


# ----------------------------------------------------------------- Symbol


def test_symbol_basics():
    m = mp.Symbol([1.0, -2.0j, 0.5])
    assert len(m) == 3
    assert m.all_nonzero
    assert m.inf_modulus == pytest.approx(0.5)
    assert m.sup_modulus == pytest.approx(2.0)
    assert not m.is_constant()
    assert not m.has_constant_modulus()


def test_symbol_rejects_bad_input():
    with pytest.raises(ValueError):
        mp.Symbol([])
    with pytest.raises(ValueError):
        mp.Symbol([np.nan])


def test_symbol_reciprocal_and_conjugate():
    m = mp.Symbol([2.0, 1.0j])
    r = m.reciprocal()
    assert np.allclose(r.values, [0.5, -1.0j], atol=1e-15, rtol=0.0)
    assert np.allclose(m.conjugate().values, [2.0, -1.0j], atol=1e-15, rtol=0.0)
    with pytest.raises(ZeroSymbolEntry):
        mp.Symbol([1.0, 0.0]).reciprocal()
    with pytest.raises(ZeroSymbolEntry):
        mp.Symbol([1.0, 1e-310]).reciprocal()  # 1/m overflows


def test_symbol_constant_modulus_detection():
    assert mp.Symbol([1.0j, -1.0, 1.0]).has_constant_modulus()
    assert not mp.Symbol([1.0j, -1.0, 1.0]).is_constant()
    assert mp.Symbol([3.0, 3.0, 3.0]).is_constant()


def test_weighted_frame_scales_each_vector():
    f = FiniteFrame([[1.0, 0.0], [0.0, 1.0]])
    w = mp.weighted_frame(f, mp.Symbol([2.0, -1.0j]))
    assert np.allclose(w.synthesis, [[2.0, 0.0], [0.0, -1.0j]], atol=1e-15, rtol=0.0)
    with pytest.raises(DimensionMismatch):
        mp.weighted_frame(f, mp.Symbol([1.0]))


# ------------------------------------------------------------- construction


def test_build_checks_dimensions():
    phi = FiniteFrame(np.eye(2))
    psi3 = FiniteFrame(np.eye(3))
    with pytest.raises(DimensionMismatch):
        mp.build(mp.Symbol([1.0, 1.0]), phi, psi3)
    with pytest.raises(DimensionMismatch):
        mp.build(mp.Symbol([1.0, 1.0, 1.0]), phi, phi)


def test_multiplier_matrix_on_orthonormal_basis_is_diagonal():
    onb = FiniteFrame(np.eye(3))
    mult = mp.build(mp.Symbol([2.0, -1.0j, 0.5]), onb, onb)
    assert np.allclose(mult.matrix, np.diag([2.0, -1.0j, 0.5]), atol=1e-15, rtol=0.0)


def test_scalar_example_matrix_is_identity():
    mult = scalar_example()
    assert mult.matrix.shape == (1, 1)
    assert abs(mult.matrix[0, 0] - 1.0) <= 1e-14


def test_flat_pair_matrix_oracle():
    assert flat_pair().matrix[0, 0] == pytest.approx(3.0, abs=1e-15)


def test_apply_termwise_matches_matrix_route():
    rng = np.random.default_rng(1)
    for _ in range(20):
        phi = random_frame(3, 5, rng)
        psi = random_frame(3, 5, rng)
        m = mp.Symbol(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        direct = mp.apply_termwise(m, phi, psi, f)
        via_matrix = mp.build(m, phi, psi).matrix @ f
        assert np.linalg.norm(direct - via_matrix) <= 1e-12 * (1.0 + np.linalg.norm(direct))


def test_apply_termwise_checks_length():
    onb = FiniteFrame(np.eye(2))
    with pytest.raises(DimensionMismatch):
        mp.apply_termwise(mp.Symbol([1.0, 1.0]), onb, onb, [1.0, 2.0, 3.0])


def test_termwise_matrices_equal_the_column_loop_bit_for_bit():
    # the build reads contiguous rows; the terms, their order and operands are the column loop's
    rng = np.random.default_rng(31)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    block_diagonal = np.zeros((2, 4, 6), dtype=np.complex128)
    block_diagonal[:, :2, :3], block_diagonal[:, 2:, 3:] = gaussian(2, 2, 3), gaussian(2, 2, 3)
    cases = {
        "dense": (gaussian(9), gaussian(4, 9), gaussian(4, 9)),
        "stacked": (gaussian(50, 7), gaussian(50, 3, 7), gaussian(50, 3, 7)),
        "block-diagonal": (gaussian(6), block_diagonal[0], block_diagonal[1]),
        "non-contiguous": (gaussian(18)[::2], gaussian(4, 18)[:, ::2], gaussian(9, 4).T),
    }
    for name, (values, out_syn, in_syn) in cases.items():
        got = mp._termwise_matrices(values, out_syn, in_syn)
        assert np.array_equal(got, termwise_columns(values, out_syn, in_syn)), name


# ---------------------------------------------------------------- inversion


def test_invert_caches_per_tolerance():
    mult = scalar_example()
    first = mp.invert(mult)
    assert mp.invert(mult) is first
    other = mp.invert(mult, DEFAULT_TOL)
    assert other is first


def test_invert_raises_on_singular_multiplier():
    phi = FiniteFrame([[1.0], [1.0]])
    psi = FiniteFrame([[1.0], [-1.0]])
    mult = mp.build(mp.Symbol([1.0, 1.0]), phi, psi)  # 1*1 + 1*(-1) = 0
    with pytest.raises(NotInvertible):
        mp.invert(mult)


def test_induced_duals_oracle_on_scalar_example():
    mult = scalar_example()
    duals = mp.induced_duals(mult)
    # M = I, so psi_dagger is the weighted output side itself
    expected = np.array([(5.0 + 2.0 * SQRT5) / 5.0, (5.0 - 2.0 * SQRT5) / 5.0, -1.0])
    assert np.allclose(duals.psi_dagger.synthesis.ravel(), expected, atol=1e-12, rtol=0.0)
    # duality sum against the input side: sum_n psi_dagger_n * conj(psi_n) = 1
    total = np.sum(duals.psi_dagger.synthesis.ravel() * np.conj([1.0, 1.0, 1.0]))
    assert abs(total - 1.0) <= 1e-12
    assert fr.is_dual(duals.psi_dagger, mult.psi)
    assert fr.is_dual(duals.phi_dagger, mult.phi)


def test_induced_duals_need_a_zero_free_symbol():
    phi = FiniteFrame([[1.0], [1.0]])
    mult = mp.build(mp.Symbol([1.0, 0.0]), phi, phi)  # invertible: M = [[1]]
    with pytest.raises(ZeroSymbolEntry):
        mp.induced_duals(mult)


def random_invertible_multiplier(rng, dim, size):
    while True:
        phi = random_frame(dim, size, rng)
        psi = random_frame(dim, size, rng)
        moduli = rng.uniform(0.5, 2.0, size)
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size))
        mult = mp.build(mp.Symbol(moduli * phases), phi, psi)
        try:
            mp.invert(mult)
        except NotInvertible:
            continue
        return mult


def test_all_duals_certificates_pass_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(10):
        mult = random_invertible_multiplier(rng, 3, 6)
        c1 = mp.certify_minv1_all_duals(mult)
        c2 = mp.certify_minv2_all_duals(mult)
        assert c1.max_residual <= DEFAULT_TOL.rel_eps
        assert c2.max_residual <= DEFAULT_TOL.rel_eps
        worst1 = mp.sampled_dual_residuals(c1, 2, rng)
        worst2 = mp.sampled_dual_residuals(c2, 2, rng)
        cond = np.linalg.cond(mult.matrix)
        assert worst1 <= 1e-10 * max(1.0, cond)
        assert worst2 <= 1e-10 * max(1.0, cond)


def test_an_underflowed_inverse_norm_fails_every_residual_without_a_warning():
    # symbol entries near 1e300: ||Minv|| squares entries near 1e-300 and
    # underflows to 0, so nothing is measured and each residual is +inf
    rng = np.random.default_rng(1)
    phi, psi = (rng.standard_normal((2, 6, 3)) + 1j * rng.standard_normal((2, 6, 3))) / np.sqrt(2.0)
    m = rng.uniform(0.5, 2.0, 6) * np.exp(2j * np.pi * rng.uniform(size=6))
    mult = mp.build(mp.Symbol(1e300 * m), FiniteFrame(phi), FiniteFrame(psi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius(mp.invert(mult)) == 0.0
        certificates = (mp.certify_minv1_all_duals(mult), mp.certify_minv2_all_duals(mult))
        rng = mp.sampling_generator(1)
        sampled = [mp.sampled_dual_residuals(certificate, 3, rng) for certificate in certificates]
    for certificate in certificates:
        assert certificate.base_residual == certificate.linear_residual == math.inf
    assert sampled == [math.inf, math.inf]


# ------------------------------------------- the sampled route against explicit duals
# sampled_dual_residuals reads each residual off the certificate's affine
# defect; the oracle forms each dual with the same perturbation H and then
# the residual of the identity Minv = Syn_dual diag(1/m) Ana_{phi_dagger}
# with numpy's norm.


def oracle_minv1_residual(mult, psi_dual_syn, tol):
    minv = mp.invert(mult, tol)
    recip = mult.symbol.reciprocal().values
    phi_dagger = mp.induced_duals(mult, tol).phi_dagger
    candidate = (psi_dual_syn * recip[None, :]) @ phi_dagger.analysis_matrix
    return float(np.linalg.norm(candidate - minv)) / float(np.linalg.norm(minv))


def acceptance_style_multiplier(rng):
    """d in 1..6, N in d..12, rescaled complex Gaussian frames, moduli in [0.5, 2], cond <= 1e8."""
    while True:
        dim = int(rng.integers(1, 7))
        size = int(rng.integers(dim, 13))
        phi, psi = (rng.standard_normal((2, size, dim))
                    + 1j * rng.standard_normal((2, size, dim))) / np.sqrt(2.0)
        m = rng.uniform(0.5, 2.0, size) * np.exp(2j * np.pi * rng.uniform(size=size))
        if np.linalg.cond(phi.T @ (m[:, None] * np.conj(psi))) <= 1e8:
            break
    s, t = 10.0 ** rng.uniform(-8.0, 8.0), 10.0 ** rng.uniform(-4.0, 4.0)
    return mp.build(mp.Symbol(m * t), FiniteFrame(phi * s), FiniteFrame(psi * s))


def test_sampled_residuals_match_the_explicitly_formed_duals():
    # one generator for both sides, the input side's draws first, as in the
    # bundle; each residual lies within 4 cond eps of the explicit dual's
    rng = np.random.default_rng(2024)
    square = 0
    for index in range(300):
        mult = acceptance_style_multiplier(rng)
        square += mult.dim == mult.size
        allowance = 4.0 * mult.condition_number * np.finfo(float).eps
        sampler, oracle = np.random.default_rng(index), np.random.default_rng(index)
        for side in (mult, mult.adjoint()):
            certificate = mp.certify_minv1_all_duals(side)
            for _ in range(3):
                sampled = mp.sampled_dual_residuals(certificate, 1, sampler)
                dual = random_dual_synthesis(side.psi, oracle)
                assert abs(sampled - oracle_minv1_residual(side, dual, DEFAULT_TOL)) <= allowance, index
    # d == N is where a transposed perturbation still has the right shape, so only the values catch it
    assert square >= 20


def test_sampled_residuals_obey_the_triangle_inequality():
    # ||defect + H slope|| <= ||defect|| + ||H|| ||slope||, and ||H|| = ||tilde||
    rng = np.random.default_rng(2024)
    for index in range(300):
        mult = acceptance_style_multiplier(rng)
        for side in (mult, mult.adjoint()):
            certificate = mp.certify_minv1_all_duals(side)
            bound = certificate.base_residual + certificate.linear_residual
            sampled = mp.sampled_dual_residuals(certificate, 3, np.random.default_rng(index))
            assert sampled <= bound * (1.0 + 4.0 * np.finfo(float).eps), index


def test_sampling_requires_a_seed():
    mult = scalar_example()
    with pytest.raises(ValueError):
        mp.sampled_dual_residuals(mp.certify_minv1_all_duals(mult), 1, mp.sampling_generator(None))
    with pytest.raises(ValueError):
        uniqueness_kernel(mult, 2, seed=None)


def test_uniqueness_kernel_on_scalar_example():
    mult = scalar_example()
    # a single dual cannot pin down a length-3 sequence in dimension 1
    assert uniqueness_kernel(mult, 1, seed=0) == 2
    assert uniqueness_kernel(mult, 5, seed=0) == 0


def test_uniqueness_kernel_on_orthonormal_basis():
    onb = FiniteFrame(np.eye(3))
    mult = mp.build(mp.Symbol([1.0, 2.0, 3.0]), onb, onb)
    assert uniqueness_kernel(mult, 3, seed=1) == 0


@settings(deadline=None, max_examples=100, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 6.0), scale=st.floats(-8.0, 8.0))
def test_uniqueness_nullity_matches_the_sampled_kernel(seed, spread, scale):
    # moduli spanning at most 10**spread <= 1e6, far from 1/rel_eps, where
    # the sampled count would depend on the seed
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 7))
    size = int(rng.integers(dim, 13))
    while True:
        moduli = 10.0 ** rng.uniform(0.0, spread, size)
        symbol = mp.Symbol(moduli * np.exp(2j * np.pi * rng.uniform(size=size)))
        mult = mp.build(symbol, random_frame(dim, size, rng), random_frame(dim, size, rng))
        if mult.condition_number <= 1e8:
            break
    nullity = mp.uniqueness_nullity(symbol)
    assert nullity == uniqueness_kernel(mult, math.ceil(size / dim) + 2, seed=seed)
    assert mp.uniqueness_nullity(mp.Symbol(10.0 ** scale * symbol.values)) == nullity


def test_uniqueness_nullity_past_the_rank_threshold():
    # |1/m| spans 1e12 > 1/rel_eps, so two of its three values count as zero
    ones = FiniteFrame([[1.0], [1.0], [1.0]])
    symbol = mp.Symbol([1e-12, 1.0, -1.0j])
    assert mp.uniqueness_nullity(symbol) == 2
    assert uniqueness_kernel(mp.build(symbol, ones, ones), 5, seed=0) == 2
    assert mp.uniqueness_nullity(symbol, ToleranceConfig(rel_eps=1e-13)) == 0
    with pytest.raises(ZeroSymbolEntry):
        mp.uniqueness_nullity(mp.Symbol([1.0, 0.0]))


def test_recover_pseudo_dual_roundtrip():
    mult = random_invertible_multiplier(np.random.default_rng(23), 2, 4)
    duals = mp.induced_duals(mult)
    assert recover_pseudo_dual_F(mult, duals.psi_dagger)
    assert recover_pseudo_dual_G(mult, duals.phi_dagger)
    # any dual of the input side satisfies the first identity as well
    psi_dual = FiniteFrame(random_dual_synthesis(mult.psi, np.random.default_rng(4)).T)
    assert recover_pseudo_dual_F(mult, psi_dual)


def test_recover_pseudo_dual_rejects_wrong_candidates():
    mult = random_invertible_multiplier(np.random.default_rng(29), 2, 4)
    wrong = FiniteFrame((3.0 * mult.psi.synthesis).T)
    with pytest.raises(IdentityDoesNotHold):
        recover_pseudo_dual_F(mult, wrong)
    with pytest.raises(IdentityDoesNotHold):
        recover_pseudo_dual_G(mult, wrong)


# ------------------------------------------------------- inversion identities


def test_canonical_inversion_holds_on_scalar_example():
    assert mp.verify_canonical_inversion(scalar_example()) <= 1e-12


def test_canonical_inversion_fails_on_flat_pair():
    # candidate (1/9)(sum 1/m_n ...) gives 3/8 against the true inverse 1/3:
    # relative defect |3/8 - 1/3| / (1/3) = 1/8
    residual = mp.verify_canonical_inversion(flat_pair())
    assert residual == pytest.approx(0.125, abs=1e-12)


def test_canonical_inversion_exact_for_riesz_pairs():
    rng = np.random.default_rng(31)
    for _ in range(10):
        mult = random_invertible_multiplier(rng, 4, 4)
        cond = np.linalg.cond(mult.matrix)
        assert mp.verify_canonical_inversion(mult) <= 1e-10 * max(1.0, cond)


def test_check_prop_q_on_scalar_example():
    report = mp.check_prop_q(scalar_example())
    assert report.eq1_holds
    assert not report.psi_equiv_mphi
    assert not report.phi_equiv_mbar_psi
    assert not report.psi_dagger_is_canonical
    assert not report.phi_dagger_is_canonical
    assert not report.constant_symbol


def test_check_prop_q_on_equivalent_construction():
    # force psi = L(m phi) with invertible L: every criterion turns true
    rng = np.random.default_rng(37)
    phi = random_frame(3, 5, rng)
    m = mp.Symbol(rng.uniform(0.5, 2.0, 5))
    l_map = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    psi = FiniteFrame((l_map @ mp.weighted_frame(phi, m).synthesis).T)
    report = mp.check_prop_q(mp.build(m, phi, psi))
    assert report.eq1_holds
    assert report.psi_equiv_mphi
    assert report.psi_dagger_is_canonical


def test_check_prop_q_needs_zero_free_symbol():
    phi = FiniteFrame([[1.0], [1.0]])
    with pytest.raises(ZeroSymbolEntry):
        mp.check_prop_q(mp.build(mp.Symbol([1.0, 0.0]), phi, phi))


def test_check_prop_q_dict_is_json_friendly():
    import json

    report = mp.check_prop_q(scalar_example())
    parsed = json.loads(json.dumps(report.as_dict()))
    assert parsed["eq1_holds"] is True


def test_weighted_canonical_shortcut_for_unimodular_weights():
    f = FiniteFrame([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    phases = mp.Symbol([1.0j, -1.0, np.exp(0.5j)])
    assert mp.check_weighted_canonical(f, phases)


def test_weighted_canonical_shortcut_reads_the_moduli_only_through_their_ratios():
    # |m|^2 overflows at moduli of 2^600 and vanishes at 2^-600; the shortcut
    # first divides them by the power of two of the largest, exactly
    f = FiniteFrame([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    phases = np.array([1.0j, -1.0, np.exp(0.5j)])
    scalar = scalar_example()
    for scale in (2.0 ** -600, 2.0 ** 600):
        assert mp.check_weighted_canonical(f, mp.Symbol(phases * scale))
        assert not mp.check_weighted_canonical(scalar.phi, mp.Symbol(scalar.symbol.values * scale))


def test_weighted_canonical_shortcut_fails_on_scalar_example():
    mult = scalar_example()
    assert not mp.check_weighted_canonical(mult.phi, mult.symbol)
    # the weighted frame operator moves from 3 to 23/5, and not by a constant factor
    m_phi = mp.weighted_frame(mult.phi, mult.symbol)
    assert fr.frame_operator(m_phi)[0, 0] == pytest.approx(23.0 / 5.0, abs=1e-12)


def shortcut_inputs():
    """(Phi, m) pairs: 300 rescaled verify-small draws, and both sides of the adjoint-swap family."""
    for phi, psi, m, s, t, _ in verify_small_draws(1, 300):
        yield FiniteFrame(phi * s), mp.Symbol(m * t)
    for seed in range(50):
        m, phi, psi = adjoint_family(seed)
        yield FiniteFrame(phi), mp.Symbol(m)
        yield FiniteFrame(psi), mp.Symbol(np.conj(m))


def test_weighted_canonical_shortcut_agrees_with_the_weighted_frames_canonical_dual():
    # the reference forms the canonical dual of (m_n phi_n); where it
    # decides (m Phi spans) away from its threshold, both routes agree
    compared = skipped = 0
    for phi, m in shortcut_inputs():
        try:
            expected, ratio = weighted_canonical_reference(phi, m)
        except NotAFrame:
            skipped += 1
            continue
        if 0.25 <= ratio <= 4.0:
            continue
        compared += 1
        assert mp.check_weighted_canonical(phi, m) == expected, (phi.synthesis, m.values)
    # 300 verify-small draws, 77 of the adjoint-swap family; (m_n phi_n)
    # fails the reference's spanning test on 22 sides of that family
    assert compared >= 370 and skipped <= 25, (compared, skipped)


def test_the_weighted_canonical_shortcut_holds_on_every_riesz_basis():
    # on a basis <tilde_phi_n, phi_k> = delta_nk, so S_w tilde_phi_n = w_n phi_n
    # for every zero-free m. With moduli over e^-8..e^8, (m_n phi_n) still spans
    # but its operator is so ill conditioned that the reference route, its
    # canonical dual, misses the identity by more than four times the tolerance
    rng = np.random.default_rng(263)
    phi = FiniteFrame(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    m = mp.Symbol(np.exp(rng.uniform(-8.0, 8.0, 2)) * np.exp(2j * np.pi * rng.uniform(size=2)))
    expected, ratio = weighted_canonical_reference(phi, m)
    assert not expected and ratio > 4.0
    assert mp.check_weighted_canonical(phi, m)
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        phi = FiniteFrame(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        m = np.exp(rng.uniform(-8.0, 8.0, dim)) * np.exp(2j * np.pi * rng.uniform(size=dim))
        assert fr.is_riesz_basis(phi) and mp.check_weighted_canonical(phi, mp.Symbol(m))


def test_constant_modulus_chain_all_true():
    phi = FiniteFrame([[1.0], [1.0]])
    psi = FiniteFrame([[1.0], [-1.0]])
    report = mp.check_prop_q(mp.build(mp.Symbol([1.0, -1.0]), phi, psi))
    assert report.constant_modulus_chain == {"invertible_and_eq1": True, "psi_equiv_mphi": True,
                                             "phi_equiv_mbar_psi": True, "all_agree": True}


def test_constant_modulus_chain_all_false():
    # M = 0: not invertible, and neither weighted side is equivalent to the other side
    phi = FiniteFrame([[1.0], [1.0]])
    psi = FiniteFrame([[1.0], [-1.0]])
    m = mp.Symbol([1.0, 1.0])
    with pytest.raises(NotInvertible):
        mp.check_prop_q(mp.build(m, phi, psi))
    assert not fr.is_equivalent(psi, mp.weighted_frame(phi, m))
    assert not fr.is_equivalent(phi, mp.weighted_frame(psi, m.conjugate()))


def test_constant_modulus_chain_with_an_input_side_that_does_not_span(svd_calls):
    # M has rank one; Psi is equivalent to no frame, and the only map from
    # Phi onto the weighted Psi exists but is singular
    phi = FiniteFrame(np.eye(2))
    psi = FiniteFrame([[1.0, 0.0], [1.0, 0.0]])
    m = mp.Symbol([1.0, 1.0])
    with pytest.raises(NotInvertible):
        mp.check_prop_q(mp.build(m, phi, psi))
    with pytest.raises(NotAFrame):
        fr.is_equivalent(psi, mp.weighted_frame(phi, m))
    del svd_calls[:]
    assert not fr.is_equivalent(phi, mp.weighted_frame(psi, m.conjugate()))
    assert svd_calls == [(2, 2)]


def test_constant_modulus_requires_constant_moduli():
    report = mp.check_prop_q(scalar_example())
    assert not report.constant_modulus
    assert report.constant_modulus_chain is None
    # a constant symbol has constant modulus, and its chain holds with the criteria
    rng = np.random.default_rng(7)
    phi, psi = random_frame(3, 5, rng), random_frame(3, 5, rng)
    report = mp.check_prop_q(mp.build(mp.Symbol(np.full(5, 2.0 - 1.0j)), phi, psi))
    assert report.constant_symbol and report.constant_modulus
    assert report.constant_modulus_chain["invertible_and_eq1"] == report.eq1_holds


@pytest.mark.parametrize("constant_symbol, constant_modulus, raises", [
    (False, False, False), (False, True, True), (True, False, True)])
def test_the_constant_modulus_chain_is_asserted_from_the_report(constant_symbol, constant_modulus,
                                                                raises):
    # eq1 holds while neither weighted-side equivalence does: consistent for a
    # general symbol, a violated chain for one modulus or a constant symbol
    report = mp.PropQReport(eq1_holds=True, psi_equiv_mphi=False, phi_equiv_mbar_psi=False,
                            psi_dagger_is_canonical=False, phi_dagger_is_canonical=False,
                            constant_symbol=constant_symbol, constant_modulus=constant_modulus)
    if raises:
        with pytest.raises(ImplicationViolated, match="constant-modulus legs disagree"):
            mp._assert_prop_q_consistency(report)
    else:
        mp._assert_prop_q_consistency(report)
    assert (report.constant_modulus_chain is None) == (not constant_modulus)


def side_report(eq1_holds=True, psi=(False, False), phi=(False, False)):
    """A general-symbol report with each side's (equivalence, induced dual is canonical)."""
    return mp.PropQReport(eq1_holds=eq1_holds, psi_equiv_mphi=psi[0], phi_equiv_mbar_psi=phi[0],
                          psi_dagger_is_canonical=psi[1], phi_dagger_is_canonical=phi[1],
                          constant_symbol=False, constant_modulus=False)


@pytest.mark.parametrize("report, message", [
    (side_report(eq1_holds=False, psi=(True, True)),
     "input side equivalent to weighted output side, yet eq1 fails"),
    (side_report(eq1_holds=False, phi=(True, True)),
     "output side equivalent to conjugate-weighted input side, yet eq1 fails"),
    *((side_report(psi=pair), "psi_equiv_mphi and psi_dagger_is_canonical must agree "
                              f"(got {pair[0]} vs {pair[1]})") for pair in ((True, False), (False, True))),
    *((side_report(phi=pair), "phi_equiv_mbar_psi and phi_dagger_is_canonical must agree "
                              f"(got {pair[0]} vs {pair[1]})") for pair in ((True, False), (False, True))),
])
def test_the_implications_of_each_side_are_asserted_from_the_report(report, message):
    # on each side the equivalence implies eq1 and agrees with the induced
    # dual being canonical; a violation names that side. The eq1 messages
    # reach reports (inversion_equivalence_criteria), so their words stay.
    with pytest.raises(ImplicationViolated) as raised:
        mp._assert_prop_q_consistency(report)
    assert str(raised.value) == message


@pytest.mark.parametrize("report", [
    side_report(), side_report(psi=(True, True)), side_report(phi=(True, True)),
    side_report(psi=(True, True), phi=(True, True)), side_report(eq1_holds=False)])
def test_a_consistent_report_passes_its_implications(report):
    mp._assert_prop_q_consistency(report)


# ----------------------------------------------------------------- properties


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.builds(
            complex,
            st.integers(min_value=-3, max_value=3).map(float),
            st.integers(min_value=-3, max_value=3).map(float),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_multiplier_on_orthonormal_basis_is_diagonal(values):
    onb = FiniteFrame(np.eye(len(values)))
    mult = mp.build(mp.Symbol(values), onb, onb)
    assert np.array_equal(mult.matrix, np.diag(np.asarray(values, dtype=np.complex128)))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_adjoint_route_matches_conjugate_symbol_swap(seed):
    # M_{m,phi,psi}^* equals M_{conj m, psi, phi}: the two assembly routes
    # produce the same operator up to rounding
    rng = np.random.default_rng(seed)
    phi = random_frame(2, 4, rng)
    psi = random_frame(2, 4, rng)
    m = mp.Symbol(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    left = mp.build(m, phi, psi).matrix.conj().T
    right = mp.build(m.conjugate(), psi, phi).matrix
    assert np.allclose(left, right, atol=1e-13, rtol=0.0)


def test_an_adjoint_forms_its_matrix_on_first_access():
    rng = np.random.default_rng(8)
    mult = mp.build(mp.Symbol(rng.standard_normal(4) + 1j * rng.standard_normal(4)),
                    random_frame(2, 4, rng), random_frame(2, 4, rng))
    adj = mult.adjoint()
    assert adj._matrix is None
    assert np.array_equal(adj.matrix, mult.matrix.conj().T)
    assert adj.matrix is adj._matrix


def test_a_multiplier_whose_adjoint_was_taken_is_freed_without_the_collector():
    # an adjoint refers to its multiplier, which does not refer back; every
    # adjoint has the one conjugate symbol the multiplier keeps
    rng = np.random.default_rng(8)
    mult = random_invertible_multiplier(rng, 2, 4)
    adj = mult.adjoint()
    mp.induced_duals(adj)
    assert adj.adjoint() is mult
    assert mult.adjoint().symbol is adj.symbol
    # a symbol and a frame are slotted without weak references: their arrays stand in
    held = (mult, adj, adj.symbol.values, mp.induced_duals(mult).psi_dagger.synthesis)
    refs = [weakref.ref(obj) for obj in held]
    del held
    gc.disable()
    try:
        del mult, adj
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_cached_inverse_still_checks_a_tighter_cond_max():
    # a multiplier and its adjoint share the last tolerance the policy
    # passed under and never remember a failure, so a pass at one
    # cond_max hides no failure at another, in either order
    onb = FiniteFrame(np.eye(2))
    tight = ToleranceConfig(cond_max=5.0)
    for adjoint_first in (False, True):
        mult = mp.build(mp.Symbol([1.0, 10.0]), onb, onb)
        sides = (mult.adjoint(), mult) if adjoint_first else (mult, mult.adjoint())
        for side in sides:
            with pytest.raises(NotInvertible):
                mp.invert(side, tight)
        mp.invert(sides[0])
        assert mult.condition_number == pytest.approx(10.0)
        for _ in range(2):
            for side in sides:
                with pytest.raises(NotInvertible):
                    mp.invert(side, tight)
                with pytest.raises(NotInvertible):
                    mp.induced_duals(side, tight)
                assert mp.certify_minv1_all_duals(side).max_residual <= DEFAULT_TOL.rel_eps


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_adjoint_matches_conjugate_symbol_swap_built_from_scratch(seed):
    rng = np.random.default_rng(seed)
    mult = random_invertible_multiplier(rng, 2, 4)
    adj = mult.adjoint()
    rebuilt = mp.build(mult.symbol.conjugate(), mult.psi, mult.phi)
    assert adj.adjoint() is mult
    # rounding in the inverse and everything built on it grows with the condition number
    rounding = 1e-12 * mult.condition_number

    minv = mp.invert(mult)
    assert np.array_equal(mp.invert(adj), minv.conj().T)
    assert np.linalg.norm(mp.invert(rebuilt) - minv.conj().T) <= rounding * np.linalg.norm(minv)

    duals = mp.induced_duals(mult)
    swapped = mp.induced_duals(adj)
    assert swapped.psi_dagger is duals.phi_dagger
    assert swapped.phi_dagger is duals.psi_dagger
    fresh = mp.induced_duals(rebuilt)
    for got, want in ((fresh.psi_dagger, duals.phi_dagger), (fresh.phi_dagger, duals.psi_dagger)):
        assert np.linalg.norm(got.synthesis - want.synthesis) <= rounding * np.linalg.norm(want.synthesis)

    via_adjoint = mp.certify_minv2_all_duals(mult)
    from_scratch = mp.certify_minv1_all_duals(rebuilt)
    assert max(via_adjoint.max_residual, from_scratch.max_residual) <= DEFAULT_TOL.rel_eps
    assert abs(via_adjoint.base_residual - from_scratch.base_residual) <= rounding
    assert abs(via_adjoint.linear_residual - from_scratch.linear_residual) <= rounding


def test_blas_residual_candidates_match_the_entrywise_exact_matrix():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 9))
        size = int(rng.integers(dim, 4 * dim + 3))
        mult = random_invertible_multiplier(rng, dim, size)
        recip = mult.symbol.reciprocal().values
        duals = mp.induced_duals(mult)
        tilde_psi, tilde_phi = fr.canonical_dual(mult.psi), fr.canonical_dual(mult.phi)
        minv = mp.invert(mult)
        for out_side, in_side in ((tilde_psi, duals.phi_dagger), (tilde_psi, tilde_phi)):
            want = mp._termwise_matrices(recip, out_side.synthesis, in_side.synthesis)
            got = (out_side.synthesis * recip[None, :]) @ in_side.analysis_matrix
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), seed
        # the residuals the bundle reports come from those candidates
        for residual, in_side in ((mp.certify_minv1_all_duals(mult).base_residual, duals.phi_dagger),
                                  (mp.verify_canonical_inversion(mult), tilde_phi)):
            exact = mp._termwise_matrices(recip, tilde_psi.synthesis, in_side.synthesis)
            scale = np.linalg.norm(minv)
            assert abs(residual - np.linalg.norm(exact - minv) / scale) <= (
                1e-12 * np.linalg.norm(exact) / scale), seed


def test_certificate_slope_low_rank_form_matches_the_cross_correlation_form():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 9))
        size = int(rng.integers(dim, 4 * dim + 3))
        mult = random_invertible_multiplier(rng, dim, size)
        recip = mult.symbol.reciprocal().values
        tilde_psi = fr.canonical_dual(mult.psi)
        weighted = recip[:, None] * mp.induced_duals(mult).phi_dagger.analysis_matrix
        cross = mult.psi.analysis_matrix @ tilde_psi.synthesis
        slope = (np.eye(size) - cross) @ weighted
        scale = (1.0 + np.linalg.norm(tilde_psi.synthesis)) / np.linalg.norm(mp.invert(mult))
        linear_residual = mp.certify_minv1_all_duals(mult).linear_residual
        assert abs(linear_residual - np.linalg.norm(slope) * scale) <= (
            1e-12 * np.linalg.norm(weighted) * scale), seed
