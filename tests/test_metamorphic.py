"""Metamorphic properties of the mechanisms, exact on rationals: pfa is
equivariant under translation and positive scaling of labels and advice,
lpfa's slope and advice scale inversely with x, and srda's lottery flips
when 0 and 1 swap in the labels and the advice.  Every registered
mechanism is anonymous: permuting the agents leaves its outcome unchanged,
which is what lets an audit share outcome rows across instances.  On
quarter-grid data the float path of pfa and lpfa agrees with the exact
path within 1e-9."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advicemech import (
    MECHANISMS,
    Instance,
    PfaConfig,
    ValueDomain,
    constant_instance,
    linear_instance,
    lpfa,
    pfa,
    shared_binary_instance,
    srda,
)

EXAMPLES = settings(max_examples=200, deadline=None, derandomize=True, database=None)

rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 4))
quarters = st.builds(F, st.integers(-40, 40), st.just(4))
positive = st.builds(F, st.integers(1, 30), st.integers(1, 7))
gammas = st.sampled_from((F(1, 4), F(1, 2), F(2, 3), 1, F(3, 2), 2))
srda_gammas = st.sampled_from((F(1, 4), F(1, 2), F(2, 3), 1))


def label_lists(values):
    return st.lists(st.lists(values, min_size=1, max_size=4), min_size=1, max_size=4)


@EXAMPLES
@given(gammas, label_lists(rationals), rationals, rationals)
def test_pfa_translation_equivariant(gamma, labels, advice, c):
    cfg = PfaConfig(gamma)
    shifted = constant_instance([[y + c for y in agent] for agent in labels])
    expected = pfa(cfg, constant_instance(labels), advice).value + c
    assert pfa(cfg, shifted, advice + c).value == expected


@EXAMPLES
@given(gammas, label_lists(rationals), rationals, positive)
def test_pfa_positive_scaling_equivariant(gamma, labels, advice, k):
    cfg = PfaConfig(gamma)
    scaled = constant_instance([[k * y for y in agent] for agent in labels])
    expected = k * pfa(cfg, constant_instance(labels), advice).value
    assert pfa(cfg, scaled, k * advice).value == expected


@EXAMPLES
@given(
    gammas,
    label_lists(st.tuples(st.builds(F, st.integers(-6, 6), st.integers(1, 3)), rationals)),
    rationals,
    positive,
)
def test_lpfa_x_scaling_divides_slope_and_advice(gamma, pairs, advice, k):
    scaled = linear_instance([[(k * x, y) for x, y in agent] for agent in pairs])
    expected = lpfa(gamma, linear_instance(pairs), advice).slope / k
    assert lpfa(gamma, scaled, advice / k).slope == expected


@EXAMPLES
@given(srda_gammas, st.sampled_from((1, 3, 5)), st.data(), st.sampled_from((0, 1)))
def test_srda_label_swap_complements_the_lottery(gamma, m, data, advice):
    # m odd: no agent agrees with exactly half the points, so none is indifferent
    vectors = data.draw(
        st.lists(st.tuples(*[st.sampled_from((0, 1))] * m), min_size=1, max_size=5)
    )
    swapped = [tuple(1 - y for y in v) for v in vectors]
    p1 = srda(gamma, shared_binary_instance(vectors), advice).probability(1)
    assert srda(gamma, shared_binary_instance(swapped), 1 - advice).probability(1) == 1 - p1


@EXAMPLES
@given(gammas, label_lists(quarters), quarters)
def test_pfa_float_path_matches_exact(gamma, labels, advice):
    exact = pfa(PfaConfig(gamma), constant_instance(labels), advice).value
    floats = constant_instance([[float(y) for y in agent] for agent in labels])
    assert abs(pfa(PfaConfig(gamma), floats, float(advice)).value - exact) <= 1e-9


@EXAMPLES
@given(gammas, label_lists(st.tuples(quarters.filter(bool), quarters)), quarters)
def test_lpfa_float_path_matches_exact(gamma, pairs, advice):
    exact = lpfa(gamma, linear_instance(pairs), advice).slope
    floats = linear_instance([[(float(x), float(y)) for x, y in agent] for agent in pairs])
    assert abs(lpfa(gamma, floats, float(advice)).slope - exact) <= 1e-9


FINITE = ValueDomain.finite((-2, -1, F(1, 2), 3))


def binary_vectors(data, m, labelings=None):
    rows = data.draw(st.lists(st.tuples(*[st.sampled_from((0, 1))] * m), min_size=1, max_size=5))
    return shared_binary_instance(rows, labelings)


def two_labelings(data, m):
    pair = data.draw(
        st.tuples(*[st.tuples(*[st.sampled_from((0, 1))] * m)] * 2).filter(lambda p: p[0] != p[1])
    )
    return binary_vectors(data, m, pair)


# registry name -> draw(data) of (instance, advice), exact labels throughout
PERMUTATION_CASES = {
    "pfa": lambda data: (
        constant_instance(data.draw(label_lists(rationals))), data.draw(rationals)
    ),
    "pfa-finite": lambda data: (
        constant_instance(data.draw(label_lists(rationals)), FINITE),
        data.draw(st.sampled_from(FINITE.values)),
    ),
    # x = 0 points included: an agent whose x are all zero is slope-invisible
    "lpfa": lambda data: (
        linear_instance(
            data.draw(label_lists(st.tuples(st.integers(-3, 3).map(F), rationals)))
        ),
        data.draw(rationals),
    ),
    "srda": lambda data: (
        binary_vectors(data, data.draw(st.integers(1, 4))), data.draw(st.sampled_from((0, 1)))
    ),
    "pfa-two-labeling": lambda data: (
        two_labelings(data, data.draw(st.integers(1, 4))), data.draw(st.sampled_from((0, 1)))
    ),
    "srda-two-labeling": lambda data: (
        two_labelings(data, data.draw(st.integers(1, 4))), data.draw(st.sampled_from((0, 1)))
    ),
    "mean": lambda data: (
        constant_instance(data.draw(label_lists(rationals))), data.draw(rationals)
    ),
}


def test_permutation_cases_cover_the_registry():
    assert {case.removesuffix("-finite") for case in PERMUTATION_CASES} == set(MECHANISMS)


@pytest.mark.parametrize("case", sorted(PERMUTATION_CASES))
@EXAMPLES
@given(data=st.data())
def test_permuting_agents_keeps_every_registered_outcome(case, data):
    family = MECHANISMS[case.removesuffix("-finite")]
    instance, advice = PERMUTATION_CASES[case](data)
    gamma = data.draw(st.sampled_from((F(1, 4), F(1, 2), F(2, 3), 1, F(3, 2), 2)).filter(
        lambda g: g <= family.gamma_max
    ))
    mech = family.mechanism(gamma, instance.function_class)
    assert mech.fit is not None
    order = data.draw(st.permutations(range(instance.n)))
    permuted = Instance(tuple(instance.agents[i] for i in order), instance.function_class)
    assert mech.fn(permuted, advice) == mech.fn(instance, advice)
