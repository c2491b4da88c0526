"""Acceptance gate for the package.

Each test below is one release criterion. A criterion passes or fails as a
whole, so ``pytest -v tests/test_acceptance.py`` prints one line per gate.
The whole module is meant to finish in well under a minute.
"""

import math

import numpy as np
import pytest

import framemult.blockseq as bs
import framemult.frames as fr
import framemult.multipliers as mp
from framemult.errors import NotInvertible
from framemult.numerics import DEFAULT_TOL
from framemult.report import verdict
from oracles import (
    block_multiplier,
    equivalent,
    fuzz_instance,
    random_frame,
    semi_normalized_symbol,
    uniqueness_kernel,
)


def _random_invertible_multiplier(rng, dim, size, cond_cap=1e8):
    """Draw (m, phi, psi) until the multiplier matrix is comfortably invertible.

    The conditioning cap keeps boolean duality checks far away from their
    tolerance thresholds; almost every draw passes on the first try.
    """
    while True:
        phi = random_frame(dim, size, rng)
        psi = random_frame(dim, size, rng)
        mult = mp.build(semi_normalized_symbol(rng, size), phi, psi)
        try:
            mp.invert(mult)
        except NotInvertible:
            continue
        cond = np.linalg.cond(mult.matrix)
        if cond <= cond_cap:
            return mult, float(cond)


@pytest.fixture(scope="module")
def invertible_batch():
    """100 random invertible multipliers shared by the dual and kernel gates."""
    rng = np.random.default_rng(20260815)
    batch = []
    for _ in range(100):
        dim = int(rng.integers(1, 7))
        size = int(rng.integers(dim, 13))
        batch.append(_random_invertible_multiplier(rng, dim, size))
    return batch


def test_c1_scalar_identity_example_reproduction():
    symbol, phi, psi = bs.block_frames(bs.get_example("ex5_3").system, 1)
    tol = 1e-10

    matrix = block_multiplier(bs.get_example("ex5_3").system, 1)
    assert np.max(np.abs(matrix - np.eye(1))) <= tol

    tilde_phi = fr.canonical_dual(phi)
    tilde_psi = fr.canonical_dual(psi)
    assert np.max(np.abs(tilde_phi.synthesis - phi.synthesis / 3.0)) <= tol
    assert np.max(np.abs(tilde_psi.synthesis - psi.synthesis / 3.0)) <= tol

    rebuilt = mp.build(symbol.reciprocal(), tilde_psi, tilde_phi)
    assert np.max(np.abs(rebuilt.matrix - np.eye(1))) <= tol

    assert equivalent([mp.weighted_frame(phi, symbol), mp.weighted_frame(psi, symbol.conjugate())],
                             [psi, phi]) == [False, False]


def test_c2_canonical_inversion_on_riesz_pairs():
    rng = np.random.default_rng(2)
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        phi = random_frame(dim, dim, rng)
        while not fr.is_riesz_basis(phi):
            phi = random_frame(dim, dim, rng)
        psi = random_frame(dim, dim, rng)
        while not fr.is_riesz_basis(psi):
            psi = random_frame(dim, dim, rng)
        mult = mp.build(semi_normalized_symbol(rng, dim), phi, psi)
        residual = mp.verify_canonical_inversion(mult)
        assert residual <= 1e-8 * np.linalg.cond(mult.matrix)


def test_c3_induced_duals_certified_for_every_dual(invertible_batch):
    for mult, cond in invertible_batch:
        duals = mp.induced_duals(mult)
        assert fr.is_dual(duals.psi_dagger, mult.psi)
        assert fr.is_dual(duals.phi_dagger, mult.phi)
        bound = 1e-8 * cond
        assert mp.certify_minv1_all_duals(mult).max_residual <= bound
        assert mp.certify_minv2_all_duals(mult).max_residual <= bound


def test_c4_uniqueness_kernel_vanishes_only_with_enough_duals(invertible_batch):
    for index, (mult, _) in enumerate(invertible_batch):
        samples = math.ceil(mult.size / mult.dim) + 2
        assert uniqueness_kernel(mult, samples, seed=9000 + index) == 0

    # With a single sampled dual of a redundant pair the stacked system is
    # rank deficient, so the all-duals quantifier is doing real work.
    _, phi, psi = bs.block_frames(bs.get_example("ex5_3").system, 1)
    symbol = mp.Symbol(bs.EX5_3_SYMBOL)
    probe = mp.build(symbol, phi, psi)
    assert probe.size > probe.dim
    assert uniqueness_kernel(probe, 1, seed=0) > 0


def test_c5_equivalence_criteria_never_contradict_each_other():
    rng = np.random.default_rng(5)
    violations = 0
    for trial in range(10_000):
        family = trial % 5
        mult = fuzz_instance(rng, family)
        try:
            violations += bool(mp.check_prop_q(mult).violation)
        except NotInvertible:
            pass
    assert violations == 0

    _, phi, psi = bs.block_frames(bs.get_example("ex5_final").system, 1)
    chain = mp.check_prop_q(mp.build(mp.Symbol([1.0, -1.0]), phi, psi)).constant_modulus_chain
    assert all(chain.values())

    _, phi, psi = bs.block_frames(bs.get_example("ex5_3").system, 1)
    report = mp.check_prop_q(mp.build(mp.Symbol(bs.EX5_3_SYMBOL), phi, psi))
    assert report.eq1_holds
    assert not report.psi_equiv_mphi
    assert not report.phi_equiv_mbar_psi


def test_c6_harmonic_weight_blocks_reproduce_identity():
    checks = bs.run_example("ex4_1", horizon=1000)
    assert verdict(checks) == "pass"
    by_name = {check["name"]: check for check in checks}

    identity = by_name["block_multiplier_is_identity"]
    assert identity["ok"] and identity["residual"] <= 1e-12

    route = by_name["unit_symbol_route_matches_induced_duals"]
    assert route["ok"] and route["residual"] <= 1e-10

    assert by_name["induced_duals_pass_duality_per_block"]["ok"]

    profile = bs.get_example("ex4_1").system.symbol_profile()
    assert profile.bounded and not profile.semi_normalized

    lo, hi = by_name["weighted_output_side_is_frame_with_expected_bounds"]["value"]
    assert by_name["weighted_output_side_is_frame_with_expected_bounds"]["ok"]
    assert 1.0 < lo and hi <= 3.0 + 1e-12


def test_c7_interleaved_tail_certified_and_departure_flagged():
    sys = bs.get_example("ex4_2").system

    image, bound = bs.interleaved_apply(sys, np.array([1.0, 0.0]), 1e-12)
    assert bound <= 1e-12

    # Independent oracle: sum the recurrent coefficient series 2^-k directly.
    oracle, term = 0.0, 1.0
    while term >= 1e-16:
        oracle += term
        term *= 0.5
    assert abs(image[0] - oracle) <= 1e-12

    assert verdict(bs.run_example("ex4_2")) == "flagged"

    bounds = bs.system_frame_bounds(sys.adjoint())
    assert bounds.classification == bs.CLASS_NOT_BESSEL

    profile = sys.symbol_profile()
    assert not profile.bounded
    assert math.isinf(profile.sup_modulus)


def test_c8_matrix_action_matches_termwise_summation():
    rng = np.random.default_rng(8)
    for _ in range(500):
        dim = int(rng.integers(1, 6))
        size = int(rng.integers(1, 9))
        phi = random_frame(dim, size, rng)
        psi = random_frame(dim, size, rng)
        symbol = mp.Symbol(rng.standard_normal(size) + 1j * rng.standard_normal(size))
        f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        via_matrix = mp.build(symbol, phi, psi).matrix @ f
        via_terms = mp.apply_termwise(symbol, phi, psi, f)
        scale = 1.0 + float(np.linalg.norm(via_terms))
        assert float(np.linalg.norm(via_matrix - via_terms)) <= 1e-10 * scale
