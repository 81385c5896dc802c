"""Lottery mechanism and two-labeling reduction tests."""

import random
from fractions import Fraction as F

import pytest

from advicemech import (
    ClassMismatchError,
    LabelingLottery,
    global_risk,
    personal_risk,
    pfa_two_labeling,
    preference_summary,
    sample_outcome,
    shared_binary_instance,
    srda,
    srda_two_labeling,
    two_labeling_reduce,
)


def lottery_probability(lottery, index):
    return sum(p for i, p in lottery.branches if i == index)


def random_two_labeling_instance(rng, max_n=5, max_m=8):
    m = rng.randint(2, max_m)
    while True:
        first = tuple(rng.randint(0, 1) for _ in range(m))
        second = tuple(rng.randint(0, 1) for _ in range(m))
        if first != second:
            break
    vectors = [
        tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(rng.randint(1, max_n))
    ]
    return shared_binary_instance(vectors, (first, second))


# ---------------------------------------------------------------------------
# srda
# ---------------------------------------------------------------------------


def test_unanimous_support_is_deterministic():
    inst = shared_binary_instance([(1, 1, 1)] * 3)
    lottery = srda(F(1, 2), inst, 1)
    assert lottery_probability(lottery, 1) == 1


def test_split_support_gamma_one():
    inst = shared_binary_instance([(1, 1, 1), (0, 0, 0)])
    lottery = srda(1, inst, 1)
    assert lottery_probability(lottery, 1) == F(1, 2)


def test_split_support_small_gamma_boosts_advice():
    inst = shared_binary_instance([(1, 1, 1), (0, 0, 0)])
    assert lottery_probability(srda(F(1, 2), inst, 1), 1) == F(4, 5)
    assert lottery_probability(srda(F(1, 2), inst, 0), 1) == F(1, 5)


def test_probabilities_are_exact_rationals_summing_to_one():
    rng = random.Random(8)
    for _ in range(100):
        m = rng.randint(1, 4)
        inst = shared_binary_instance(
            [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(rng.randint(1, 5))]
        )
        gamma = rng.choice((F(1, 4), F(1, 3), F(1, 2), 1))
        lottery = srda(gamma, inst, rng.randint(0, 1))
        assert all(isinstance(p, F) for _, p in lottery.branches)
        assert sum(p for _, p in lottery.branches) == 1


def test_indicator_counts_weak_preference_for_ones():
    # ties (even m, split labels) side with the all-ones labeling
    inst = shared_binary_instance([(1, 0), (0, 0)])
    assert preference_summary(inst) == F(1, 2)
    # the literal flipped reading counts weak preference for zeros instead
    assert preference_summary(inst, literal_indicator=True) == 1


def test_literal_indicator_changes_lottery():
    inst = shared_binary_instance([(1, 1, 1), (1, 1, 0), (0, 0, 0)])
    assert preference_summary(inst) == F(2, 3)
    assert preference_summary(inst, literal_indicator=True) == F(1, 3)
    assert srda(1, inst, 1) != srda(1, inst, 1, literal_indicator=True)


def test_gamma_validation():
    inst = shared_binary_instance([(1,)])
    with pytest.raises(ValueError):
        srda(0, inst, 1)
    with pytest.raises(ValueError):
        srda(2, inst, 1)


def test_requires_c0c1_menu():
    inst = shared_binary_instance([(1, 0)], ((1, 0), (0, 1)))
    with pytest.raises(ClassMismatchError):
        srda(1, inst, 0)


def test_sample_outcome_is_seed_deterministic():
    lottery = LabelingLottery(((0, F(1, 3)), (1, F(2, 3))))
    draws = [sample_outcome(lottery, seed) for seed in range(20)]
    assert draws == [sample_outcome(lottery, seed) for seed in range(20)]
    assert set(draws) <= {0, 1}


# ---------------------------------------------------------------------------
# two-labeling reduction
# ---------------------------------------------------------------------------


def test_reduce_example():
    first, second = (0, 1, 0), (1, 1, 1)
    inst = shared_binary_instance([(1, 1, 0)], (first, second))
    red = two_labeling_reduce(inst, 0)
    assert red.indices == (0, 2)  # disagreement points
    assert red.instance.agents[0].labels == (1, 0)
    # error counts on the disagreement set are preserved
    m = len(first)
    J = len(red.indices)
    for c in (0, 1):
        orig = global_risk(c, inst) * inst.n * m
        reduced = global_risk(c, red.instance) * inst.n * J
        assert orig == reduced + red.off_errors


def test_reduce_all_agree_with_first():
    inst = shared_binary_instance([(0, 1, 0)], ((0, 1, 0), (1, 0, 1)))
    red = two_labeling_reduce(inst, 0)
    assert red.instance.agents[0].labels == (0, 0, 0)


def test_reduce_all_agree_with_second():
    inst = shared_binary_instance([(1, 0, 1)], ((0, 1, 0), (1, 0, 1)))
    red = two_labeling_reduce(inst, 1)
    assert red.instance.agents[0].labels == (1, 1, 1)


def test_reduction_fidelity_random():
    rng = random.Random(13)
    for _ in range(200):
        inst = random_two_labeling_instance(rng)
        red = two_labeling_reduce(inst, rng.randint(0, 1))
        n, m, J = inst.n, len(inst.agents[0]), len(red.indices)
        for c in (0, 1):
            lhs = global_risk(c, inst)
            rhs = (global_risk(c, red.instance) * n * J + red.off_errors) / F(n * m)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# blackbox wrappers
# ---------------------------------------------------------------------------


def test_pfa_two_labeling_unanimous():
    first, second = (0, 1, 0), (1, 0, 1)
    inst = shared_binary_instance([first] * 3, (first, second))
    assert pfa_two_labeling(1, inst, 1).index == 0


def test_pfa_two_labeling_majority_single_point():
    inst = shared_binary_instance([(0,), (0,), (1,)])
    assert pfa_two_labeling(2, inst, 1).index == 0
    # heavier advice flips the lone disagreement point
    assert pfa_two_labeling(F(2, 3), inst, 1).index == 1


def test_srda_two_labeling_composes():
    first, second = (0, 0, 1), (1, 1, 0)
    # one agent matches each labeling exactly: reduced support splits 1/2
    inst = shared_binary_instance([first, second], (first, second))
    lottery = srda_two_labeling(1, inst, 1)
    assert lottery_probability(lottery, 1) == F(1, 2)
    unanimous = shared_binary_instance([first] * 4, (first, second))
    assert lottery_probability(srda_two_labeling(1, unanimous, 0), 0) == 1


def test_wrappers_reject_more_than_two_labelings():
    menu = ((0, 0), (1, 1), (0, 1))
    inst = shared_binary_instance([(0, 1)], menu)
    with pytest.raises(ClassMismatchError):
        pfa_two_labeling(1, inst, 0)
    with pytest.raises(ClassMismatchError):
        srda_two_labeling(1, inst, 0)


def test_expected_risk_of_lifted_lottery_matches_branch_mix():
    rng = random.Random(77)
    for _ in range(100):
        inst = random_two_labeling_instance(rng)
        gamma = rng.choice((F(1, 4), F(1, 2), 1))
        advice = rng.randint(0, 1)
        lottery = srda_two_labeling(gamma, inst, advice)
        mixed = sum(p * global_risk(i, inst) for i, p in lottery.branches)
        assert global_risk(lottery, inst) == mixed
        for agent in inst.agents:
            cls = inst.function_class
            mixed_i = sum(p * personal_risk(i, agent, cls) for i, p in lottery.branches)
            assert personal_risk(lottery, agent, cls) == mixed_i
