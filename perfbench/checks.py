"""Expected outcomes of each workload's operations, and the comparison.

An operation is judged by its verdict and by the names and ``ok`` flags of
its asserted findings, never by residual values or report bytes, so a
refactor that moves a residual by a few ulps still checks as correct.
"""

from __future__ import annotations

# Asserted findings of `framemult multiplier --verify-all` on an invertible
# multiplier whose symbol does not have constant modulus.
VERIFY_ALL = dict.fromkeys((
    "induced_dual_of_input_side_is_dual",
    "induced_dual_of_output_side_is_dual",
    "inverse_identity_all_input_duals",
    "inverse_identity_all_output_duals",
    "sampled_input_duals_match_inverse",
    "sampled_output_duals_match_inverse",
    "uniqueness_kernel_trivial",
    "inversion_equivalence_criteria",
), True)

FRAME_INFO_DUAL = dict.fromkeys(("canonical_dual_written", "canonical_dual_reconstructs"), True)

EXAMPLES_ALL = dict.fromkeys((
    "ex4_1.block_multiplier_is_identity",
    "ex4_1.unit_symbol_route_matches_induced_duals",
    "ex4_1.induced_duals_pass_duality_per_block",
    "ex4_1.symbol_bounded",
    "ex4_1.symbol_not_semi_normalized",
    "ex4_1.symbol_all_nonzero",
    "ex4_1.weighted_output_side_is_frame_with_expected_bounds",
    "ex4_2.tail_ratio_certified",
    "ex4_2.transient_direction_exact",
    "ex4_2.transient_bound_is_zero",
    "ex4_2.tail_bound_at_most_tolerance",
    "ex4_2.recurrent_total_matches_partial_summation",
    "ex4_2.departs_from_claimed_uniform_identity",
    "ex4_2.symbol_unbounded",
    "ex4_2.symbol_all_nonzero",
    "ex4_2.conjugate_weighted_input_side_not_bessel",
    "ex4_2.weighted_output_side_is_frame",
    "ex5_3.block_multiplier_is_identity",
    "ex5_3.canonical_duals_are_one_third_of_templates",
    "ex5_3.canonical_inversion_identity_holds",
    "ex5_3.equivalences_fail_while_inversion_holds",
    "ex5_3.weighted_canonical_shortcut_fails",
    "ex5_3.symbol_semi_normalized_with_expected_envelope",
    "ex5_final.block_multiplier_is_twice_identity",
    "ex5_final.weighted_sides_coincide_with_counterparts",
    "ex5_final.constant_modulus_chain_all_equivalent",
    "ex5_final.symbol_unimodular",
), True)

# The all-duals certificates (cap = 1 + ||tilde||) and the equivalence
# criteria (frames_equal and equivalence_operator, floored by 1 + ... and
# max(., 1)) mix an absolute 1 into relative bounds, so they fail on some
# rescaled but mathematically valid inputs. The uniqueness kernel fails the
# same way, more rarely: draw 2256 of seed 54 (d=1, N=2) passes every
# finding at s = t = 1 and at s = 1e-6, and reports a non-trivial kernel at
# s = 1e-8.
# A rescaled verify-small instance whose only wrong findings are among
# these, and whose unscaled draw passes every finding, is counted as this
# recorded scale-invariance defect rather than as a new failure
# (worker.judge_small).
SCALE_DEFECT = frozenset(("inverse_identity_all_input_duals",
                          "inverse_identity_all_output_duals",
                          "inversion_equivalence_criteria",
                          "uniqueness_kernel_trivial"))

OK, FAILED, DEFECT = "ok", "failed", "defect"


def asserted_flags(findings: list[dict]) -> dict[str, bool]:
    return {f["name"]: f["ok"] for f in findings if f.get("asserted")}


def classify(verdict: str, asserted: dict[str, bool], expected_verdict: str,
             expected: dict[str, bool], tolerated: frozenset = frozenset()) -> str:
    """OK when verdict and asserted flags match; DEFECT when only tolerated flags differ."""
    if asserted.keys() != expected.keys():
        return FAILED
    wrong = {name for name, ok in expected.items() if asserted[name] != ok}
    if not wrong:
        return OK if verdict == expected_verdict else FAILED
    if wrong <= tolerated and verdict == "fail":
        return DEFECT
    return FAILED
