import collections
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from sys import float_info

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import framemult.blockseq as bs
import framemult.multipliers as mp
from framemult.errors import ImplicationViolated, RatioNotCertified, UnknownExample
from framemult.frames import FiniteFrame, is_dual
from framemult.numerics import DEFAULT_TOL
from framemult.report import finding, verdict
from oracles import assemble_blocks, block_multiplier


def harmonic_demo():
    """Scalar blocks phi = (1, 1, -1), psi = m = (1, 1/k, 1/k)."""
    return bs.BlockSystem(
        phi=[[1.0], [1.0], [-1.0]], phi_exponents=[0, 0, 0],
        psi=[[1.0], [1.0], [1.0]], psi_exponents=[0, 1, 1],
        m=[1.0, 1.0, 1.0], m_exponents=[0, 1, 1],
    )


def with_unit_symbol(system):
    """The same templates under the symbol 1, whose weighted side is the system's own side Phi."""
    if isinstance(system, bs.InterleavedSystem):
        return system._replace(m_head=1.0, m_ratio=1.0, transient_m=1.0)
    (phi, phi_e), (psi, psi_e), (m, _) = system._parts()
    return bs.BlockSystem(phi, phi_e, psi, psi_e, np.ones_like(m), np.zeros(m.size))


def interleave_demo():
    return bs.InterleavedSystem(
        phi_head=1.0, psi_head=1.0, m_head=1.0,
        phi_ratio=0.5, psi_ratio=2.0 ** -0.5, m_ratio=2.0 ** 0.5,
        transient_phi=1.0, transient_psi=1.0, transient_m=1.0,
        ratio_bound=0.5,
    )


# ------------------------------------------------------------- block systems


def test_block_generation_and_validation():
    sys = harmonic_demo()
    phi, psi, m = sys.block(4)
    assert np.allclose(phi.ravel(), [1.0, 1.0, -1.0], atol=1e-15, rtol=0.0)
    assert np.allclose(psi.ravel(), [1.0, 0.25, 0.25], atol=1e-15, rtol=0.0)
    assert np.allclose(m, [1.0, 0.25, 0.25], atol=1e-15, rtol=0.0)
    with pytest.raises(ValueError):
        sys.block(0)
    with pytest.raises(ValueError):  # templates are rows, one vector each
        bs.BlockSystem([1.0], [0], [[1.0]], [0], [1.0], [0])


def test_constant_template_blocks_do_not_change():
    sys = bs.BlockSystem.constant_template([[1.0, 0.0]], [[0.0, 1.0]], [2.0])
    a = sys.block(1)
    b = sys.block(97)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    profile = sys.symbol_profile()
    assert (profile.inf_modulus, profile.sup_modulus) == (2.0, 2.0)


def closed_form(system):
    if isinstance(system, bs.InterleavedSystem):
        return tuple(system)
    return tuple(array.tolist() for part in system._parts() for array in part)


@pytest.mark.parametrize("system", [
    harmonic_demo(),
    bs.BlockSystem([[1 + 2j, 0], [0, 3j]], [0, 1], [[1, -1j], [2, 0]], [1, 0], [1j, 2 - 1j], [0, 2]),
    interleave_demo(),
    bs.InterleavedSystem(1 + 1j, 2, 0.5j, 0.5, 1j, 0.3 - 0.2j, 1j, 2, -1j, 0.5),
], ids=["harmonic", "complex-blocks", "interleaved", "complex-interleaved"])
def test_the_adjoint_of_the_adjoint_has_the_closed_form_of_the_system(system):
    assert closed_form(system.adjoint().adjoint()) == closed_form(system)
    assert closed_form(system.adjoint()) != closed_form(system)


def test_block_multiplier_identity_for_harmonic_demo():
    sys = harmonic_demo()
    for k in (1, 2, 10, 313):
        # 1*1*1 + (1/k)(1/k)... the reweighted terms cancel in pairs
        assert abs(block_multiplier(sys, k)[0, 0] - 1.0) <= 1e-13


def test_weighted_block_operator_oracle():
    # the weighted output side (m phi) in block k has operator 1 + 2/k^2
    phi, _, m = harmonic_demo().block(5)
    templates = m[:, None] * phi
    s = templates.T @ np.conj(templates)
    assert s[0, 0] == pytest.approx(1.0 + 2.0 / 25.0, abs=1e-14)


def test_assemble_blocks_is_entrywise_exact():
    rng = np.random.default_rng(13)
    base_phi = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    base_psi = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    weights = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    sys = bs.BlockSystem(
        base_phi, [0, 1, 2], base_psi, [1, 0, 0], weights, [0, 0, 1]
    )
    for count in (1, 7, 40):
        symbol, big_phi, big_psi = assemble_blocks(sys, count)
        assert big_phi.dim == 2 * count
        assert len(symbol) == 3 * count
        big = mp.build(symbol, big_phi, big_psi).matrix
        expected = np.zeros_like(big)
        for k in range(1, count + 1):
            lo = 2 * (k - 1)
            expected[lo:lo + 2, lo:lo + 2] = block_multiplier(sys, k)
        assert np.array_equal(big, expected)


def test_induced_duals_assemble_per_block():
    sys = harmonic_demo()
    for k in range(1, 51):
        symbol, phi_k, psi_k = bs.block_frames(sys, k)
        duals = mp.induced_duals(mp.build(symbol, phi_k, psi_k))
        assert is_dual(duals.psi_dagger, psi_k)
        assert is_dual(duals.phi_dagger, phi_k)


def test_system_frame_bounds_classifications():
    sys = harmonic_demo()
    weighted = bs.system_frame_bounds(sys, horizon=200)
    assert weighted.classification == "frame"
    assert weighted.lambda_min == pytest.approx(1.0 + 2.0 / 200.0 ** 2, abs=1e-12)
    assert weighted.lambda_max == pytest.approx(3.0, abs=1e-12)

    constant_side = bs.system_frame_bounds(with_unit_symbol(sys), horizon=50)
    assert constant_side.classification == "frame"
    assert constant_side.lambda_min == pytest.approx(3.0, abs=1e-12)


def test_negative_exponent_side_is_not_bessel():
    sys = bs.BlockSystem(
        phi=[[1.0]], phi_exponents=[-1], psi=[[1.0]], psi_exponents=[0],
        m=[1.0], m_exponents=[0],
    )
    assert bs.system_frame_bounds(sys, horizon=10).classification == "not_bessel"


def test_vanishing_limit_side_is_bessel_but_not_frame():
    sys = bs.BlockSystem(
        phi=[[1.0]], phi_exponents=[1], psi=[[1.0]], psi_exponents=[0],
        m=[1.0], m_exponents=[0],
    )
    assert bs.system_frame_bounds(sys, horizon=10).classification == "bessel_not_frame"


def test_symbol_profile_harmonic_demo():
    profile = harmonic_demo().symbol_profile()
    assert profile.inf_modulus == 0.0
    assert profile.sup_modulus == pytest.approx(1.0)
    assert profile.all_nonzero
    assert profile.bounded
    assert not profile.semi_normalized


def test_profile_of_a_growing_symbol_comes_from_the_closed_form():
    # m_k = k^200 leaves the double range at k = 35; the envelope needs no block
    system = bs.BlockSystem([[1.0]], [0.0], [[1.0]], [0.0], [1.0], [-200.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert system.symbol_profile() == (1.0, math.inf, True)


# -------------------------------------------------------------- interleaved


def test_recurrent_products_are_geometric():
    sys = interleave_demo()
    # m_k phi_k conj(psi_k) = 2^{k/2} 2^{-k} 2^{-k/2} = 2^{-k}
    for k in range(8):
        assert sys.recurrent_product(k) == pytest.approx(0.5 ** k, abs=1e-14)
    assert sys.transient_product == pytest.approx(1.0)


def test_certify_ratio_accepts_the_true_bound():
    interleave_demo().certify_ratio()


def test_certify_ratio_rejects_wrong_bounds():
    bad = bs.InterleavedSystem(
        phi_head=1.0, psi_head=1.0, m_head=1.0,
        phi_ratio=0.5, psi_ratio=2.0 ** -0.5, m_ratio=2.0 ** 0.5,
        transient_phi=1.0, transient_psi=1.0, transient_m=1.0,
        ratio_bound=0.4,  # the true ratio is 0.5
    )
    with pytest.raises(RatioNotCertified):
        bad.certify_ratio()
    not_contracting = bs.InterleavedSystem(
        phi_head=1.0, psi_head=1.0, m_head=1.0,
        phi_ratio=1.0, psi_ratio=1.0, m_ratio=1.0,
        transient_phi=1.0, transient_psi=1.0, transient_m=1.0,
        ratio_bound=1.0,
    )
    with pytest.raises(RatioNotCertified):
        not_contracting.certify_ratio()


def loop_certifies(sys, prefix=64):
    """The check certify_ratio made before it decided the ratio in closed form: 64 terms."""
    r = float(sys.ratio_bound)
    if not r < 1.0:
        return False
    previous = abs(sys.recurrent_product(0))
    for k in range(1, prefix + 1):
        current = abs(sys.recurrent_product(k))
        if current > r * previous * (1.0 + 1e-12):
            return False
        previous = current
    return True


def certifies(sys):
    try:
        sys.certify_ratio()
    except RatioNotCertified:
        return False
    return True


@pytest.mark.parametrize("factor", [1.0 - 1e-9, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.0 + 1e-9])
@pytest.mark.parametrize("m_head, phi_ratio, psi_ratio, m_ratio", [
    (1.0, 0.5, 2.0 ** -0.5, 2.0 ** 0.5),  # the ex4_2 ratios: |rho| = 0.5000000000000001
    (1.0, 0.3, 1.0, 1.0),
    (1.0, 0.9j, 1.0, 1.0),
    (2.0, 0.5, 0.8j, 1.1),
    (1.0, 0.999, 1.0, 1.0),
    (1.0, 0.0, 1.0, 1.0),  # rho = 0
    (0.0, 0.5, 1.0, 1.0),  # p_0 = 0, so every p_k is 0
])
def test_closed_form_ratio_certificate_agrees_with_the_64_term_loop(m_head, phi_ratio, psi_ratio,
                                                                    m_ratio, factor):
    # declared bound r = |rho| * factor: |rho| at r, within the 1e-12 slack above or
    # below it, and 1e-9 above or below it
    rho = abs(m_ratio * phi_ratio * np.conj(psi_ratio))
    system = bs.InterleavedSystem(1.0, 1.0, m_head, phi_ratio, psi_ratio, m_ratio,
                                  1.0, 1.0, 1.0, rho * factor)
    assert certifies(system) == loop_certifies(system)
    assert certifies(system) == (factor > 1.0 - 1e-12 or m_head == 0.0 or rho == 0.0)


def test_interleaved_symbol_profile():
    profile = interleave_demo().symbol_profile()
    assert profile.inf_modulus == pytest.approx(1.0)
    assert math.isinf(profile.sup_modulus)
    assert profile.all_nonzero
    assert not profile.bounded
    assert not profile.semi_normalized


@pytest.mark.parametrize("m_ratio", [2.0 ** 0.5, 1.0, -1.0j, 0.5, 0.0])
def test_interleaved_profile_bounds_the_weights_of_the_sequence(m_ratio):
    system = interleave_demo()._replace(m_head=3.0, transient_m=0.7j, m_ratio=m_ratio)
    profile = system.symbol_profile()
    # head, transients, and the recurrent weights head * ratio^k
    moduli = np.abs([3.0, 0.7j] + [3.0 * m_ratio ** k for k in range(1, 60)])
    assert profile.inf_modulus <= moduli.min() and moduli.max() <= profile.sup_modulus
    assert profile.all_nonzero == bool(np.all(moduli > 0))


def test_interleaved_apply_recurrent_direction():
    out, bound = bs.interleaved_apply(interleave_demo(), [1.0, 0.0, 0.0], 1e-12)
    assert bound <= 1e-12
    assert abs(out[0] - 2.0) <= 1e-11
    assert out[1] == 0.0 and out[2] == 0.0


def test_interleaved_apply_transient_is_exact():
    out, bound = bs.interleaved_apply(interleave_demo(), [0.0, 3.0, -1.0j], 1e-12)
    assert bound == 0.0
    assert np.array_equal(out, np.array([0.0, 3.0, -1.0j], dtype=np.complex128))


def test_interleaved_apply_bound_is_sound_under_refinement():
    sys = interleave_demo()
    coarse, bound = bs.interleaved_apply(sys, [1.0, 0.0], 1e-6)
    fine, _ = bs.interleaved_apply(sys, [1.0, 0.0], 1e-15)
    assert abs(coarse[0] - fine[0]) <= bound


@pytest.mark.parametrize("scale", [1e-6, 1e-10])
def test_system_frame_bounds_classification_is_scale_free(scale):
    templates = scale * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    constant = bs.BlockSystem.constant_template(templates, templates, [1.0, 2.0, 3.0])
    interleaved = bs.InterleavedSystem(
        phi_head=scale, psi_head=1.0, m_head=1.0, phi_ratio=0.5, psi_ratio=2.0 ** -0.5,
        m_ratio=2.0 ** 0.5, transient_phi=scale, transient_psi=1.0, transient_m=1.0,
        ratio_bound=0.5)
    for system in (constant, interleaved):
        assert bs.system_frame_bounds(with_unit_symbol(system), horizon=20).classification == "frame"


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("templates, extremes", [
    ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], (1.0, 3.0)),
    ([[1.0], [1.0j], [-1.0]], (3.0, 3.0)),  # scalar blocks, whose extremes take no LAPACK call
])
def test_block_side_bounds_are_free_of_the_scale(templates, extremes, weighted):
    # the operator squares the side: its templates and weights, each divided
    # by a power of two before they are multiplied, neither under- nor
    # overflow, and the bounds come back at their true scale, s^2 (templates
    # s) or s^4 (weights s as well) times those at s = 1, wherever that is a
    # normal double, and 0 or inf beyond the double range; the side entries
    # s * s of the weighted case are rounded once more
    templates = np.array(templates)
    ulps = 3 if weighted else 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (10.0 ** e for e in range(-300, 301)):
            weights = [scale if weighted else 1.0] * 3
            system = bs.BlockSystem.constant_template(scale * templates, scale * templates, weights)
            bounds = bs.system_frame_bounds(system, horizon=3)
            assert bounds.classification == "frame", scale
            for got, at_one in zip(bounds[:2], extremes):
                want = Fraction(at_one) * Fraction(scale) ** (4 if weighted else 2)
                if want > float_info.max:
                    assert got == math.inf, scale
                elif want < float_info.min:
                    assert 0.0 <= got < float_info.min, scale
                else:
                    assert abs(Fraction(got) - want) <= ulps * float_info.epsilon * want, scale


def test_a_block_whose_weights_and_templates_scale_against_each_other_is_a_frame():
    # slots (1, 2^-600) and (2^-600, 1): each side vector is 2^-600, though the
    # largest weight times the largest template is 1; divided by that, the
    # block's operator 2^-1199 would underflow to 0
    system = bs.BlockSystem.constant_template([[2.0 ** -600], [1.0]], [[1.0], [1.0]],
                                              [1.0, 2.0 ** -600])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bs.system_frame_bounds(system, horizon=3).classification == "frame"


def test_interleaved_side_bounds():
    sys = interleave_demo()
    weighted = bs.system_frame_bounds(sys, horizon=200)
    assert weighted.classification == "frame"
    assert weighted.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert weighted.lambda_max == pytest.approx(2.0, abs=1e-12)

    phi = bs.system_frame_bounds(with_unit_symbol(sys), horizon=400)
    assert phi.classification == "frame"
    assert phi.lambda_max == pytest.approx(4.0 / 3.0, abs=1e-12)

    conj_weighted_input = bs.system_frame_bounds(sys.adjoint(), horizon=50)
    assert conj_weighted_input.classification == "not_bessel"


# ----------------------------------------------------------------- registry


def test_registry_contents():
    reg = bs.example_registry()
    assert sorted(reg) == ["ex4_1", "ex4_2", "ex5_3", "ex5_final"]
    assert reg["ex4_2"].annotations
    with pytest.raises(UnknownExample):
        bs.get_example("ex9_9")
    with pytest.raises(UnknownExample):
        bs.run_example("ex9_9")


def test_ex5_3_symbol_envelope():
    profile = bs.get_example("ex5_3").system.symbol_profile()
    sqrt5 = math.sqrt(5.0)
    assert profile.inf_modulus == pytest.approx((5.0 - 2.0 * sqrt5) / 5.0, abs=1e-14)
    assert profile.sup_modulus == pytest.approx((5.0 + 2.0 * sqrt5) / 5.0, abs=1e-14)
    assert profile.semi_normalized


def test_ex5_3_solves_for_the_canonical_duals_of_its_two_sides_alone(monkeypatch):
    # one solve per canonical dual, of Phi and of Psi, and the multiplier's
    # inverse; the weighted-canonical shortcut reuses the dual of Phi
    counts = collections.Counter()
    for name in ("solve", "inv", "pinv", "svd", "eigvalsh"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert verdict(bs.run_example("ex5_3", horizon=60)) == "pass"
    assert counts == {"solve": 2, "inv": 1}


def test_run_example_verdicts():
    assert verdict(bs.run_example("ex4_1", horizon=60)) == "pass"
    assert verdict(bs.run_example("ex5_3", horizon=60)) == "pass"
    assert verdict(bs.run_example("ex5_final", horizon=60)) == "pass"
    flagged = bs.run_example("ex4_2", horizon=60)
    assert verdict(flagged) == "flagged"
    departures = [c for c in flagged if c.get("documented_departure")]
    assert len(departures) == 1
    assert departures[0]["ok"]
    # the computed recurrent total is 2, not the claimed 1
    assert departures[0]["value"] == pytest.approx(2.0, abs=1e-9)


def test_run_example_checks_all_pass():
    for name in ("ex4_1", "ex4_2", "ex5_3", "ex5_final"):
        checks = bs.run_example(name, horizon=40)
        assert all(c["ok"] for c in checks), [c["name"] for c in checks if not c["ok"]]


def test_example_run_as_dict_shape():
    checks = bs.run_example("ex5_final", horizon=10)
    assert isinstance(checks, tuple)
    assert verdict(checks) == "pass"
    assert all("name" in c and "ok" in c for c in checks)


@pytest.mark.parametrize("name, check", [
    ("ex5_3", "equivalences_fail_while_inversion_holds"),
    ("ex5_final", "constant_modulus_chain_all_equivalent"),
])
def test_a_violated_implication_is_a_failing_check(monkeypatch, name, check):
    def violated(mult, tol):
        raise ImplicationViolated("the legs disagree")

    monkeypatch.setattr(mp, "check_prop_q", violated)
    checks = bs.run_example(name, horizon=5)
    assert [c for c in checks if c["name"] == check] == [
        finding(check, False, detail="the legs disagree")]
    assert verdict(checks) == "fail"


def test_interleaved_side_with_growing_ratio_is_not_bessel():
    # |ratio| > 1: the partial sum over the default horizon leaves float range
    for ratio in (2, 2.0):
        system = bs.InterleavedSystem(1, 1, 1, ratio, 1, 1, 1, 1, 1, 0.5)
        bounds = bs.system_frame_bounds(system)
        assert bounds.classification == "not_bessel"
        assert bounds.lambda_max == math.inf
        assert bounds.lambda_min == 1.0


def test_a_growing_side_is_not_bessel_at_every_scale():
    # templates s k and heads s 2^k grow for every s > 0; the squares of
    # s = 1e-200 and s = 1e-170 underflow to 0 and must not decide it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exponent in range(-300, 301):
            scale = 10.0 ** exponent
            for system in (bs.BlockSystem([[scale]], [-1], [[1.0]], [0], [1.0], [0]),
                           bs.InterleavedSystem(scale, 1, 1, 2.0, 1, 1, 1, 1, 1, 0.5)):
                bounds = bs.system_frame_bounds(system)
                assert bounds.classification == "not_bessel", (system, scale)


def exact_side_bounds(head, ratio, horizon):
    """(lambda_min, lambda_max) of the weighted side of InterleavedSystem(head, 1, 1, ratio, 1, ...), to 60 digits.

    The transient contributes 1, the recurrent direction sum_{k <= horizon} |head ratio^k|^2.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        head_sq, ratio_sq = Decimal(head) ** 2, Decimal(ratio) ** 2
        terms = horizon + 1
        series = terms if ratio_sq == 1 else (ratio_sq ** terms - 1) / (ratio_sq - 1)
        return sorted((+(head_sq * series), Decimal(1)))


def expected_classification(head, ratio):
    """The limit classification from the exact sums, at the default tolerance."""
    if ratio >= 1.0:
        return "not_bessel"
    with localcontext() as ctx:
        ctx.prec = 60
        total = Decimal(head) ** 2 / (1 - Decimal(ratio) ** 2)
        low, high = sorted((total, Decimal(1)))
        return "frame" if low > Decimal(DEFAULT_TOL.rel_eps) * high else "bessel_not_frame"


@pytest.mark.parametrize("horizon", [1, 7, bs.SWEEP_HORIZON])
@pytest.mark.parametrize("ratio", [0.5, 1.0, 1.5, 2.0])
def test_interleaved_side_bounds_match_the_exact_sums_at_every_head(ratio, horizon):
    # |head|^2 under- or overflows for heads beyond about 1e-154 and 1e154 while
    # the bounds, head^2 times a sum up to 4^1000, can still be normal doubles
    normal = (Decimal(float_info.min), Decimal(float_info.max))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exponent in range(-300, 301):
            head = 10.0 ** exponent
            system = bs.InterleavedSystem(head, 1, 1, ratio, 1, 1, 1, 1, 1, 0.5)
            bounds = bs.system_frame_bounds(system, horizon)
            for value, exact in zip(bounds[:2], exact_side_bounds(head, ratio, horizon)):
                if normal[0] <= exact <= normal[1]:
                    assert value == pytest.approx(float(exact), rel=1e-12), (head, exact)
                elif exact > normal[1]:
                    assert value == math.inf, (head, exact)
                else:
                    assert 0.0 <= value < float_info.min, (head, exact)
            assert bounds.classification == expected_classification(head, ratio), head


def test_interleaved_classification_does_not_move_with_the_scale():
    # head and transient both s: their squares under- or overflow together,
    # and the quotient of the limit extremes, 3/4, does not depend on s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exponent in range(-300, 301):
            scale = 10.0 ** exponent
            system = bs.InterleavedSystem(scale, 1, 1, 0.5, 1, 1, scale, 1, 1, 0.5)
            assert bs.system_frame_bounds(system).classification == "frame", scale


def test_interleaved_bounds_beyond_the_double_range_are_inf():
    # |head|^2 = 1e400 leaves the double range; the rule still classifies
    system = bs.InterleavedSystem(1e200, 1, 1, 0.5, 1, 1, 1, 1, 1, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = bs.system_frame_bounds(system)
    assert bounds.lambda_max == math.inf
    assert bounds.lambda_min == 1.0
    assert bounds.classification == "bessel_not_frame"


def test_interleaved_bounds_of_a_side_whose_ratio_product_leaves_the_double_range():
    # the side's ratio m_ratio * phi_ratio = 1e400 overflows as a product, while
    # lambda_max = 1e-600 (1 + 1e800) = 1e200 is a normal double
    system = bs.InterleavedSystem(1e-300, 1, 1, 1e200, 1, 1e200, 1, 1, 1, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = bs.system_frame_bounds(system, horizon=1)
    assert bounds.lambda_min == 1.0
    assert bounds.lambda_max == pytest.approx(1e200, rel=1e-12)
    assert bounds.classification == "not_bessel"


def test_interleaved_profile_of_a_symbol_beyond_the_double_range():
    system = bs.InterleavedSystem(1, 1, 1, 1, 1, 1e10, 1, 1, 1, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = system.symbol_profile()
    assert profile.inf_modulus == 1.0
    assert profile.sup_modulus == math.inf
    assert profile.all_nonzero


@pytest.mark.parametrize("m_ratio, k", [(1e10, 40), (1e200j, 3)])
def test_recurrent_product_beyond_the_double_range_is_not_finite(m_ratio, k):
    system = bs.InterleavedSystem(1, 1, 1, 2, 1, m_ratio, 1, 1, 1, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        product = system.recurrent_product(k)
        assert system.recurrent_product(1) == 2 * m_ratio
    assert not np.isfinite(product)


def test_interleaved_coefficients_are_free_of_their_scale():
    # m_head phi_head = 1e400 overflows as a product of doubles; p_0 = 1e100
    system = bs.InterleavedSystem(1e200, 1e-300, 1e200, 0.5, 1, 1, 1, 1, 1, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert system.recurrent_product(0) == pytest.approx(1e100, rel=1e-15)
        image, bound = bs.interleaved_apply(system, [1, 0], 1e-6)
    assert bound <= 1e-6
    assert image[0] == pytest.approx(2e100, rel=1e-15)  # p_0 / (1 - rho), rho = 1/2


def test_interleaved_apply_rejects_a_p0_beyond_the_double_range_at_once(monkeypatch):
    # p_0 = 1e400: every p_k and every tail bound is inf, though the ratio is certified
    system = bs.InterleavedSystem(1e200, 1, 1e200, 0.5, 1, 1, 1, 1, 1, 0.5)
    system.certify_ratio()
    calls = []
    original = bs.InterleavedSystem.recurrent_product

    def counted(self, k):
        calls.append(k)
        return original(self, k)

    monkeypatch.setattr(bs.InterleavedSystem, "recurrent_product", counted)
    with pytest.raises(RatioNotCertified, match=r"^p_0 = inf is not finite"):
        bs.interleaved_apply(system, [1, 0], 1e-6)
    assert len(calls) <= 1
    # the transient direction alone does not need p_0
    image, bound = bs.interleaved_apply(system, [0, 1], 1e-6)
    assert bound == 0.0 and image[1] == 1.0


@pytest.mark.parametrize("system, certified", [
    # rho = 1e160 * 1e160 * 1e-321 = 0.1, though m_ratio phi_ratio overflows as doubles
    (bs.InterleavedSystem(1, 1, 1, 1e160, 1e-321, 1e160, 1, 1, 1, 0.5), True),
    # p_0 = 1e-100, though m_head phi_head underflows as doubles, and |rho| = 1 exceeds r
    (bs.InterleavedSystem(1e-200, 1e300, 1e-200, 1, 1, 1, 1, 1, 1, 0.5), False),
])
def test_certify_ratio_forms_its_products_free_of_their_scale(system, certified):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert certifies(system) == certified


def multiplication_is_normal(x, y):
    """Every real product and sum inside the complex product x * y is an exact zero or a normal double."""
    def normal(value, exact_zero):
        return exact_zero or float_info.min <= abs(value) <= float_info.max

    (a, b), (c, d) = ((complex(v).real, complex(v).imag) for v in (x, y))
    products = all(normal(p * q, p == 0 or q == 0) for p, q in ((a, c), (b, d), (a, d), (b, c)))
    return products and all(normal(v, v == 0) for v in (a * c - b * d, a * d + b * c))


def scaled_numbers():
    """Real or complex numbers with integer parts below 2^20 times a power of ten up to 10^200."""
    part = st.integers(-2 ** 20, 2 ** 20)
    return st.tuples(part, part, st.integers(-200, 200), st.booleans()).map(
        lambda p: (complex(p[0], p[1]) if p[3] else float(p[0])) * 10.0 ** p[2])


@settings(max_examples=300, deadline=None)
@given(m=scaled_numbers(), phi=scaled_numbers(), psi=scaled_numbers())
def test_products_are_the_plain_products_wherever_every_partial_product_is_normal(m, phi, psi):
    with np.errstate(all="ignore"):
        assume(multiplication_is_normal(m, phi) and multiplication_is_normal(m * phi, np.conj(psi)))
        plain = m * phi * np.conj(psi)
    got = bs._product(m, phi, psi)
    assert isinstance(got, complex) == isinstance(plain, complex)
    assert np.complex128(got).tobytes() == np.complex128(plain).tobytes()


@pytest.mark.parametrize("ratio", [0.0, 0.25, 0.5, 0.9, 1.0 - 2.0 ** -40, 1.0, 1.0 + 2.0 ** -40,
                                   1.01, 2.0])
@pytest.mark.parametrize("terms", [1, 2, 7, 1001])
def test_geometric_sum_matches_the_plain_loop(ratio, terms):
    # the closed form regroups the arithmetic; 1e-12 is a few thousand ulps of a double
    loop = sum(ratio ** k for k in range(terms))
    with np.errstate(divide="ignore"):  # a zero ratio has the logarithm -inf
        log_ratio = float(np.log(ratio))
    assert math.exp(bs._log_geometric_sum(log_ratio, terms)) == pytest.approx(loop, rel=1e-12)
