"""The stacked block sweeps of blockseq against per-block reference loops.

The reference functions below are the per-block forms the sweeps had
before they were stacked: one Python iteration, with FiniteFrame and
Multiplier objects, per block. Every stacked result must equal them bit
for bit, across chunk boundaries included.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import framemult.blockseq as bs
import framemult.frames as fr
import framemult.multipliers as mp
from framemult.errors import ZeroSymbolEntry
from framemult.numerics import DEFAULT_TOL
from framemult.report import finding
from oracles import assemble_blocks, block_multiplier

# ------------------------------------------------------------ per-block oracle


def ldexp_complex(values, exponents):
    return np.ldexp(values.real, exponents) + 1j * np.ldexp(values.imag, exponents)


def oracle_system_frame_bounds(sys, horizon=bs.SWEEP_HORIZON, tol=DEFAULT_TOL):
    """The bounds of the weighted side m Phi, block by block."""
    if isinstance(sys, bs.InterleavedSystem):
        return sys.side_bounds(horizon, tol)
    lows, highs, exponents = [], [], []
    for k in range(1, horizon + 1):
        phi, _, m = sys.block(k)
        # each weight and each template split into a mantissa and a power of
        # two, and the block divided by the largest power over its slots, a
        # zero slot taking the exponent below every other
        t_exp = [math.frexp(float(np.max(np.abs(t))))[1] for t in phi]
        w_exp = [math.frexp(abs(w))[1] for w in m]
        slots = [te + we if np.any(t != 0) and w != 0 else -bs._OUTER_EXPONENT
                 for t, w, te, we in zip(phi, m, t_exp, w_exp)]
        top = max(slots)
        side = (ldexp_complex(m, np.subtract(slots, top) - w_exp)[:, None]
                * ldexp_complex(phi, -np.array(t_exp)[:, None]))
        s_block = side.T @ np.conj(side)
        eigs = np.linalg.eigvalsh((s_block + s_block.conj().T) / 2.0)
        lows.append(float(eigs[0].real))
        highs.append(float(eigs[-1].real))
        exponents.append(2 * top)
    extremes = (bs._extreme(np.min, lows, exponents), bs._extreme(np.max, highs, exponents))
    return bs._closed_form_bounds(sys, extremes, tol)


def oracle_run_ex4_1(sys, tol, horizon):
    checks = []
    identity_worst = 0.0
    route_worst = 0.0
    duality_ok = True
    eye = np.eye(sys.block_dim)
    for k in range(1, horizon + 1):
        identity_worst = max(identity_worst,
                             float(np.max(np.abs(block_multiplier(sys, k) - eye))))
        symbol, phi_k, psi_k = bs.block_frames(sys, k)
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

    checks.append(finding("block_multiplier_is_identity", residual=identity_worst,
                          tolerance=bs.IDENTITY_SWEEP_TOL, detail=f"k = 1..{horizon}"))
    checks.append(finding("unit_symbol_route_matches_induced_duals", residual=route_worst,
                          tolerance=bs.REPRODUCTION_TOL, detail=f"k = 1..{horizon}"))
    checks.append(finding("induced_duals_pass_duality_per_block", duality_ok))

    profile = sys.symbol_profile()
    checks.append(finding("symbol_bounded", profile.bounded, value=profile.sup_modulus))
    checks.append(finding("symbol_not_semi_normalized", not profile.semi_normalized,
                          value=profile.inf_modulus))
    checks.append(finding("symbol_all_nonzero", profile.all_nonzero))

    bounds = oracle_system_frame_bounds(sys, horizon, tol)
    in_window = (bounds.classification == bs.CLASS_FRAME
                 and 1.0 < bounds.lambda_min
                 and bounds.lambda_max <= 3.0 + bs.IDENTITY_SWEEP_TOL)
    checks.append(finding("weighted_output_side_is_frame_with_expected_bounds", in_window,
                          value=[bounds.lambda_min, bounds.lambda_max],
                          detail="per-block extremes stay inside (1, 3]"))
    return checks


def oracle_worst_deviation(sys, horizon, target):
    return max(float(np.max(np.abs(block_multiplier(sys, k) - target)))
               for k in range(1, horizon + 1))


def oracle_run_example(name, horizon):
    """run_example(name, horizon) with every sweep done block by block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bs, "system_frame_bounds", oracle_system_frame_bounds)
        patch.setattr(bs, "_worst_block_deviation", oracle_worst_deviation)
        patch.setitem(bs._REGISTRY, "ex4_1",
                      bs._REGISTRY["ex4_1"]._replace(runner=oracle_run_ex4_1))
        return bs.run_example(name, horizon=horizon)


# ------------------------------------------------------------------ systems


def complex_arrays(shape):
    parts = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    size = int(np.prod(shape))
    return st.tuples(st.lists(parts, min_size=size, max_size=size),
                     st.lists(parts, min_size=size, max_size=size)).map(
        lambda p: (np.array(p[0]) + 1j * np.array(p[1])).reshape(shape))


@st.composite
def harmonic_systems(draw):
    b = draw(st.integers(1, 3))
    length = draw(st.integers(1, 4))
    exponents = st.lists(st.floats(-2.0, 3.0), min_size=length, max_size=length)
    return bs.BlockSystem(
        draw(complex_arrays((length, b))), draw(exponents),
        draw(complex_arrays((length, b))), draw(exponents),
        draw(complex_arrays((length,))), draw(exponents),
    )


def assert_blocks_match(sys, first, count):
    stacked = sys.stacked(first, count)
    matrices = bs._block_matrices(*stacked)
    for i, k in enumerate(range(first, first + count)):
        for got, want in zip(stacked, sys.block(k)):
            assert got[i].shape == want.shape
            assert np.array_equal(got[i], want), k
        assert np.array_equal(matrices[i], block_multiplier(sys, k)), k


# -------------------------------------------------------------------- tests


@settings(max_examples=60, deadline=None)
@given(sys=harmonic_systems(), first=st.integers(1, 60), count=st.integers(1, 40))
def test_stacked_blocks_and_block_matrices_equal_the_per_block_ones(sys, first, count):
    assert_blocks_match(sys, first, count)


@pytest.mark.parametrize("exponent", [1.0, -1.0, 2.0, 0.5, 3.0])
def test_stacked_powers_equal_block_powers_for_a_single_slot(exponent):
    # one template slot with a whole exponent: where numpy has fast paths
    # for a broadcast exponent that round differently from block(k)
    sys = bs.BlockSystem([[1.0]], [exponent], [[1.0]], [0.0], [1.0], [exponent])
    assert_blocks_match(sys, 1, 3000)


@settings(max_examples=30, deadline=None)
@given(sys=harmonic_systems(), horizon=st.integers(1, 40), adjoint=st.booleans())
def test_stacked_frame_bounds_equal_the_per_block_sweep(sys, horizon, adjoint):
    sys = sys.adjoint() if adjoint else sys
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bs, "SWEEP_CHUNK", 7)
        got = bs.system_frame_bounds(sys, horizon)
    assert got == oracle_system_frame_bounds(sys, horizon)


def interleaved_systems():
    coefficients = complex_arrays((9,)).map(lambda a: a.tolist())
    return st.builds(lambda c, r: bs.InterleavedSystem(*c, r), coefficients, st.floats(0.0, 0.99))


@settings(max_examples=30, deadline=None)
@given(sys=st.one_of(harmonic_systems(), interleaved_systems()), horizon=st.integers(1, 40))
def test_the_adjoint_bounds_the_conjugate_weighted_input_side(sys, horizon):
    # the oracle reads the weighted side m Phi: given conj(m) Psi as that
    # side, it bounds what the adjoint's sweep bounds
    if isinstance(sys, bs.InterleavedSystem):
        side = sys._replace(phi_head=sys.psi_head, phi_ratio=sys.psi_ratio,
                            transient_phi=sys.transient_psi, m_head=np.conj(sys.m_head),
                            m_ratio=np.conj(sys.m_ratio), transient_m=np.conj(sys.transient_m))
    else:
        _, (psi, psi_e), (m, m_e) = sys._parts()
        side = bs.BlockSystem(psi, psi_e, psi, psi_e, np.conj(m), m_e)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bs, "SWEEP_CHUNK", 7)
        got = bs.system_frame_bounds(sys.adjoint(), horizon)
    assert got == oracle_system_frame_bounds(side, horizon)


@settings(max_examples=30, deadline=None)
@given(sys=harmonic_systems(), count=st.integers(1, 12))
def test_stacked_block_matrices_are_the_diagonal_blocks_of_the_assembly(sys, count):
    # the stacked block matrices are the diagonal blocks of the embedded system, entry for entry
    embedded = mp.build(*assemble_blocks(sys, count)).matrix
    b = sys.block_dim
    want = np.zeros_like(embedded)
    for i, block in enumerate(bs._block_matrices(*sys.stacked(1, count))):
        want[i * b:(i + 1) * b, i * b:(i + 1) * b] = block
    assert np.array_equal(embedded, want)


def assert_profile_bounds_the_blocks(sys, count):
    profile = sys.symbol_profile()
    moduli = np.abs(sys.stacked(1, count)[2])
    assert profile.inf_modulus <= moduli.min() and moduli.max() <= profile.sup_modulus
    if profile.all_nonzero:
        # the envelope describes the exact weights |m| k^(-e); one below the
        # normal double range may round to 0 in the generated block
        m_b, m_e = sys._closed_form["m"]
        exact_log = np.log(np.abs(m_b)) - m_e * np.log(np.arange(1.0, count + 1.0))[:, None]
        assert np.all(moduli[exact_log >= np.log(np.finfo(float).tiny)] > 0)


@settings(max_examples=60, deadline=None)
@given(sys=harmonic_systems(), count=st.integers(1, 400))
@example(sys=bs.BlockSystem([[1.0]], [0.0], [[1.0]], [0.0], [5e-324], [1.0]), count=3)
def test_closed_form_profile_bounds_every_generated_weight(sys, count):
    assert_profile_bounds_the_blocks(sys, count)


@pytest.mark.parametrize("name", [name for name, entry in sorted(bs.example_registry().items())
                                  if isinstance(entry.system, bs.BlockSystem)])
def test_closed_form_profile_bounds_the_registry_weights(name):
    assert_profile_bounds_the_blocks(bs.get_example(name).system, 3000)


@pytest.mark.parametrize("horizon", [1, 2, 6, 7, 8, 17, 200])
@pytest.mark.parametrize("name", sorted(bs.example_registry()))
def test_run_example_equals_the_per_block_oracle(monkeypatch, name, horizon):
    # a chunk of 7 blocks: horizons 6, 7 and 8 sit at the chunk size -1, 0, +1
    want = oracle_run_example(name, horizon)
    monkeypatch.setattr(bs, "SWEEP_CHUNK", 7)
    assert bs.run_example(name, horizon=horizon) == want


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_closed_form_block_is_rejected_like_a_single_block():
    # 2^1100 leaves the double range although the exponent itself is finite
    sys = bs.BlockSystem([[1.0]], [-1100.0], [[1.0]], [0.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        bs.block_frames(sys, 2)
    with pytest.raises(ValueError, match="block 2 has non-finite entries"):
        sys.stacked(1, 3)
    with pytest.raises(ValueError, match="block 2"):
        bs.system_frame_bounds(sys, horizon=3)
    assert np.array_equal(sys.stacked(1, 1)[0][0], sys.block(1)[0])


def test_a_weight_that_underflows_in_the_stack_is_a_zero_symbol_entry():
    # the closed-form weight 5e-324 / k is nonzero for every k, and the profile
    # says so; its doubles round to 0 from k = 2 on, and the stack meets those
    sys = bs.BlockSystem([[1.0]], [0], [[1.0]], [0], [5e-324], [1])
    assert sys.symbol_profile().all_nonzero
    phi, psi, m = sys.stacked(1, 3)
    assert m.ravel().tolist() == [5e-324, 0.0, 0.0]
    stack = mp.MultiplierStack(m, bs._synthesis(phi), bs._synthesis(psi))
    with pytest.raises(ZeroSymbolEntry):
        stack.induced_duals(DEFAULT_TOL)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_closed_form_rejects_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="finite"):
        bs.BlockSystem([[1.0]], [bad], [[1.0]], [0.0], [1.0], [0.0])
    with pytest.raises(ValueError, match="finite"):
        bs.BlockSystem([[1.0]], [0.0], [[1.0]], [0.0], [1.0], [bad])
    with pytest.raises(ValueError, match="finite"):
        bs.BlockSystem.constant_template([[bad]], [[1.0]], [1.0])
    with pytest.raises(ValueError, match="finite"):
        bs.BlockSystem.constant_template([[1.0]], [[1.0]], [complex(1.0, bad)])


def test_run_example_rejects_a_horizon_below_one():
    for horizon in (0, -3):
        with pytest.raises(ValueError, match="horizon"):
            bs.run_example("ex5_3", horizon=horizon)


def linalg_functions():
    return [name for name, value in vars(np.linalg).items()
            if not name.startswith("_") and callable(value) and not isinstance(value, type)
            and name != "test"]


def test_sweep_work_does_not_grow_with_the_horizon(monkeypatch):
    # a horizon inside one chunk: the same calls whatever the horizon
    assert bs.SWEEP_CHUNK >= 500
    counts = collections.Counter()

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    counting(bs.BlockSystem, "block")
    counting(bs.BlockSystem, "stacked")
    counting(bs, "hermitian_extremes")
    counting(mp, "build")
    counting(mp, "induced_duals")
    for name in linalg_functions():
        counting(np.linalg, name)

    per_horizon = []
    for horizon in (50, 500):
        counts.clear()
        bs.run_example("ex4_1", horizon=horizon)
        per_horizon.append(dict(counts))
    assert per_horizon[0] == per_horizon[1]
    assert per_horizon[0].get("block", 0) <= 2
    assert per_horizon[0]["stacked"] == 1  # one chunk, generated once
    assert per_horizon[0].get("hermitian_extremes", 0) > 0

    # the symbol envelope is read off the closed form: no block is generated
    counts.clear()
    for entry in bs.example_registry().values():
        entry.system.symbol_profile()
    assert counts == {}
