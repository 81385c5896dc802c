"""Metamorphic properties of the mechanisms, exact on rationals: pfa is
equivariant under translation and positive scaling of labels and advice,
lpfa's slope and advice scale inversely with x, and srda's lottery flips
when 0 and 1 swap in the labels and the advice.  Every registered
mechanism is anonymous: permuting the agents leaves its outcome unchanged,
which is what lets an audit share outcome rows across instances.  On
quarter-grid data the float path of pfa and lpfa agrees with the exact
path within 1e-9.

The same relations hold of verdicts: a group audit of pfa or of the mean
moves by a known rule under translation, positive scaling and agent
permutation, on a fresh context and on one the untransformed audit
warmed, where a cache keyed by too little would answer stale.  A sweep's
rows, its worst ratios per gamma, do not move at all under the relations
that keep ratios (translation and scaling for pfa, y- and x-scaling for
lpfa, agent and corpus order for every swept family, and for the
two-labeling srda which labeling comes first), and a sweep of a corpus
reads the worst of its instances' sweeps.  Every corpus holds at least
three instances, so one mechanism per gamma serves several classes."""

from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advicemech import (
    MECHANISMS,
    Instance,
    LabelingsClass,
    PfaConfig,
    ValueDomain,
    constant_instance,
    linear_instance,
    lpfa,
    pfa,
    shared_binary_instance,
    srda,
)
from advicemech.audit import (
    AuditReport,
    GridLabels,
    Violation,
    check_group_strategyproof,
    consistency_robustness_sweep,
    mean_mechanism,
    pfa_mechanism,
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


# ---------------------------------------------------------------------------
# verdicts: the relations on audit reports, fresh and on a warm context
# ---------------------------------------------------------------------------

AUDIT_EXAMPLES = settings(max_examples=25, deadline=None, derandomize=True, database=None)

grid_levels = st.lists(st.integers(-3, 3), min_size=2, max_size=3, unique=True)
# two or three agents of one to three labels on the grid's range
audit_labels = st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=3), min_size=2, max_size=3)


def mapped(report, label, risk):
    """`report` with every reported label through `label` and every risk
    and gain through `risk`."""
    def violation(v):
        return Violation(
            v.agents, tuple(tuple(map(label, r)) for r in v.misreports),
            tuple(map(risk, v.risks_before)), tuple(map(risk, v.risks_after)), risk(v.gain),
        )
    return AuditReport(tuple(map(violation, report.violations)), risk(report.max_gain), report.candidates_checked)


def by_agent(report, place=lambda i: i):
    """The report's violations as a multiset of (each member's (agent at
    `place`, report, risk before, risk after), gain)."""
    return Counter(
        (tuple(sorted(zip(map(place, v.agents), v.misreports, v.risks_before, v.risks_after))), v.gain)
        for v in report.violations
    )


def audits(make, sibling, instance, advice, levels, transformed):
    """The audit of `instance` at `advice` on a grid of `levels`, and the
    audits of the `transformed` (instance, advice, levels) on a fresh
    context and on the context the untransformed audit warmed.  `sibling`
    (pfa's mechanism at another gamma, which shares the context, or None)
    audits the untransformed instance first."""
    held = make()
    if sibling is not None:
        check_group_strategyproof(sibling(), instance, advice, GridLabels(levels), 2)
    expected = check_group_strategyproof(held, instance, advice, GridLabels(levels), 2)
    t_instance, t_advice, t_levels = transformed
    # a second mechanism at a live gamma starts a new context
    fresh = check_group_strategyproof(make(), t_instance, t_advice, GridLabels(t_levels), 2)
    warm = check_group_strategyproof(held, t_instance, t_advice, GridLabels(t_levels), 2)
    return expected, fresh, warm


# name -> (gamma -> the mechanism, whether it has gamma-siblings on its context)
AUDITED = {"pfa": (pfa_mechanism, True), "mean": (lambda gamma: mean_mechanism(), False)}
SHIFTS = {
    "translate-int": st.integers(-5, 5),
    "translate-fraction": st.builds(F, st.integers(-9, 9), st.integers(2, 5)).filter(lambda c: c.denominator > 1),
}
FACTORS = {"scale-3": 3, "scale-1/7": F(1, 7)}
RELATIONS = (*SHIFTS, *FACTORS, "permute")


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("name", sorted(AUDITED))
@AUDIT_EXAMPLES
@given(data=st.data())
def test_audit_verdicts_follow_translation_scaling_and_permutation(name, relation, data):
    labels, levels = data.draw(audit_labels), data.draw(grid_levels)
    advice, gamma = data.draw(st.integers(-3, 3)), data.draw(gammas)
    make, siblings = AUDITED[name]
    other = data.draw(gammas.filter(lambda g: g != gamma))
    sibling = (lambda: make(other)) if siblings else None
    instance = constant_instance(labels)
    if relation == "permute":
        order = data.draw(st.permutations(range(instance.n)))
        permuted = Instance(tuple(instance.agents[i] for i in order), instance.function_class)
        place = {i: j for j, i in enumerate(order)}.get  # agent i's position in the permuted instance
        expected, *got = audits(lambda: make(gamma), sibling, instance, advice, levels, (permuted, advice, levels))
        for report in got:
            assert (report.candidates_checked, report.max_gain) == (expected.candidates_checked, expected.max_gain)
            assert by_agent(report) == by_agent(expected, place)
        return
    if relation in SHIFTS:
        c = data.draw(SHIFTS[relation])
        label, risk = (lambda y: y + c), (lambda r: r)
    else:
        k = FACTORS[relation]
        label, risk = (lambda y: k * y), (lambda r: k * r)
    moved = constant_instance([list(map(label, agent)) for agent in labels])
    expected, fresh, warm = audits(
        lambda: make(gamma), sibling, instance, advice, levels, (moved, label(advice), list(map(label, levels)))
    )
    assert fresh == warm == mapped(expected, label, risk)


# ---------------------------------------------------------------------------
# verdicts: the relations on sweep rows, over corpora one mechanism serves
# ---------------------------------------------------------------------------

SWEEP_EXAMPLES = settings(max_examples=15, deadline=None, derandomize=True, database=None)
SWEEP_GAMMAS = {"pfa": (F(1, 4), 1, 2), "lpfa": (F(1, 2), 2), "pfa-two-labeling": (F(1, 4), 1, 2),
                "srda-two-labeling": (F(1, 4), F(2, 3), 1)}
small_labels = st.lists(st.lists(rationals, min_size=1, max_size=3), min_size=1, max_size=3)
# x = 0 points included, but every instance has a nonzero x, or no slope is optimal
linear_points = st.lists(
    st.lists(st.tuples(st.builds(F, st.integers(-3, 3), st.integers(1, 2)), rationals), min_size=1, max_size=3),
    min_size=1, max_size=3,
).filter(lambda agents: any(x for agent in agents for x, _ in agent))


@st.composite
def two_labeling_instances(draw, odd=False):
    """A two-labeling instance over 1 to 4 shared points; with `odd`, its
    labelings disagree on an odd number of points, so that no agent sides
    with both."""
    m = draw(st.integers(1, 4))
    bits = st.tuples(*[st.sampled_from((0, 1))] * m)
    pair = draw(st.tuples(bits, bits).filter(
        lambda p: p[0] != p[1] and (not odd or sum(a != b for a, b in zip(*p)) % 2)
    ))
    return shared_binary_instance(draw(st.lists(bits, min_size=1, max_size=4)), pair)


def corpora(instances):
    return st.lists(instances, min_size=3, max_size=4)


CORPORA = {
    "pfa": corpora(small_labels.map(constant_instance)),
    "lpfa": corpora(linear_points.map(linear_instance)),
    "pfa-two-labeling": corpora(two_labeling_instances()),
    "srda-two-labeling": corpora(two_labeling_instances()),
}


def sweep(name, corpus):
    return consistency_robustness_sweep(MECHANISMS[name], SWEEP_GAMMAS[name], corpus)


@pytest.mark.parametrize("relation", (*SHIFTS, *FACTORS))
@SWEEP_EXAMPLES
@given(data=st.data())
def test_pfa_sweep_rows_keep_under_translation_and_scaling(relation, data):
    corpus = data.draw(CORPORA["pfa"])
    if relation in SHIFTS:
        c = data.draw(SHIFTS[relation])
        label = lambda y: y + c  # noqa: E731
    else:
        label = lambda y: FACTORS[relation] * y  # noqa: E731
    moved = [constant_instance([list(map(label, a.labels)) for a in inst.agents]) for inst in corpus]
    fresh = sweep("pfa", moved)
    # a pfa mechanism at a gamma the sweep does not use keeps the context
    # the untransformed sweep warmed alive for the transformed one
    held = pfa_mechanism(F(3, 2))  # noqa: F841
    expected = sweep("pfa", corpus)
    assert fresh == sweep("pfa", moved) == expected


@pytest.mark.parametrize("axis", ("y", "x"))
@SWEEP_EXAMPLES
@given(data=st.data())
def test_lpfa_sweep_rows_keep_under_y_and_x_scaling(axis, data):
    corpus, k = data.draw(CORPORA["lpfa"]), data.draw(positive)
    moved = [
        linear_instance([[(x, k * y) if axis == "y" else (k * x, y) for x, y in zip(a.xs, a.labels)]
                         for a in inst.agents])
        for inst in corpus
    ]
    assert sweep("lpfa", moved) == sweep("lpfa", corpus)


@pytest.mark.parametrize("name", sorted(CORPORA))
@SWEEP_EXAMPLES
@given(data=st.data())
def test_sweep_rows_keep_under_agent_and_corpus_permutation(name, data):
    corpus = data.draw(CORPORA[name])
    expected = sweep(name, corpus)
    permuted = [
        Instance(tuple(inst.agents[i] for i in data.draw(st.permutations(range(inst.n)))), inst.function_class)
        for inst in corpus
    ]
    assert sweep(name, permuted) == expected
    assert sweep(name, data.draw(st.permutations(corpus))) == expected


@SWEEP_EXAMPLES
@given(corpus=corpora(two_labeling_instances(odd=True)))
def test_srda_two_labeling_sweep_rows_keep_when_the_labelings_swap(corpus):
    swapped = [Instance(inst.agents, LabelingsClass(inst.function_class.labelings[::-1])) for inst in corpus]
    assert sweep("srda-two-labeling", swapped) == sweep("srda-two-labeling", corpus)


@pytest.mark.parametrize("name", ["pfa-two-labeling", "srda-two-labeling"])
@SWEEP_EXAMPLES
@given(data=st.data())
def test_a_two_labeling_corpus_sweep_reads_the_worst_of_its_instances(name, data):
    corpus = data.draw(CORPORA[name])
    singles = [sweep(name, [inst]) for inst in corpus]
    for g, row in enumerate(sweep(name, corpus)):
        assert row.consistency == max(rows[g].consistency for rows in singles)
        assert row.robustness == max(rows[g].robustness for rows in singles)
