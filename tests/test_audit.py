"""Audit engine tests: misreport search soundness and completeness,
approximation ratios, frontier sweeps, and the interpolation check."""

import gc
import random
import weakref
from fractions import Fraction as F
from itertools import combinations, product
from math import prod

import pytest

from advicemech import (
    MECHANISMS,
    AllBinaryVectors,
    AuditableMechanism,
    ConstantChoice,
    GridLabels,
    ProjectedConstant,
    SpaceTooLargeError,
    advice_grid,
    approximation_ratio,
    brute_force_optimal_risk,
    check_group_strategyproof,
    check_strategyproof,
    consistency_robustness_sweep,
    constant_instance,
    error_interpolation_check,
    gen_S,
    gen_S_linear,
    linear_instance,
    lpfa_mechanism,
    mean_mechanism,
    optimal_functions,
    pfa_family,
    pfa_mechanism,
    pfa_two_labeling_mechanism,
    shared_binary_instance,
    srda_family,
    srda_mechanism,
    srda_two_labeling_mechanism,
)
from advicemech import audit
from advicemech.audit import AuditReport, Violation, risk_ratio
from advicemech.model import (
    ClassMismatchError,
    Instance,
    ValueDomain,
    global_risk,
    personal_risk,
)


def ungrouped(mech):
    """The same mechanism with its signature stripped: every report is
    evaluated individually."""
    return AuditableMechanism(mech.fn, mech.name + "/raw")


# ---------------------------------------------------------------------------
# single-agent audits
# ---------------------------------------------------------------------------


def test_pfa_single_agent_never_violated():
    rng = random.Random(1)
    levels = (-2, -1, 0, 1, 2)
    for _ in range(40):
        inst = constant_instance([[rng.choice(levels) for _ in range(rng.randint(1, 3))]])
        mech = pfa_mechanism(rng.choice((F(1, 2), 1, 2)))
        report = check_strategyproof(mech, inst, rng.choice(levels), GridLabels(levels))
        assert report.ok
        assert report.max_gain <= 0


def test_mean_baseline_violation_example():
    inst = constant_instance([[0], [10]])
    mech = mean_mechanism()
    report = check_strategyproof(mech, inst, 0, GridLabels((-10, 0, 10)))
    assert not report.ok
    best = max(report.violations, key=lambda v: v.gain)
    assert best.agents == (0,)
    assert best.misreports == ((-10,),)
    assert best.gain == 5
    # soundness: the recorded violation replays exactly
    deviant = inst.with_agent_labels(0, best.misreports[0])
    out = mech(deviant, 0)
    cls = inst.function_class
    assert personal_risk(out, inst.agents[0], cls) == best.risks_after[0]


def test_epsilon_threshold_filters_small_gains():
    inst = constant_instance([[0], [10]])
    space = GridLabels((-10, 0, 10))
    strict = check_strategyproof(mean_mechanism(), inst, 0, space)
    assert strict.max_gain == 5
    relaxed = check_strategyproof(mean_mechanism(), inst, 0, space, epsilon=6)
    assert relaxed.ok  # every gain is at most 5, within the 6 allowance
    assert relaxed.max_gain == 5


def test_report_counts_every_candidate():
    inst = constant_instance([[0, 1], [2]])
    report = check_strategyproof(
        pfa_mechanism(1), inst, 0, GridLabels((0, 1, 2))
    )
    # multisets of size 2 over 3 levels: 6; of size 1: 3
    assert report.candidates_checked == 9


def test_space_guard():
    inst = constant_instance([[0] * 30])
    with pytest.raises(SpaceTooLargeError):
        check_strategyproof(
            pfa_mechanism(1), inst, 0, GridLabels(tuple(range(10)))
        )


@pytest.mark.parametrize(
    "space, max_coalition, epsilon, match",
    [
        (GridLabels((0, 1, 2)), 0, 0, "certifies nothing"),
        (GridLabels((0, 1, 2)), -3, 0, "certifies nothing"),
        (GridLabels(()), 2, 0, "certifies nothing"),
        (ProjectedConstant(()), 2, 0, "certifies nothing"),
        (GridLabels((0, 1, 2)), 1, -1, "epsilon"),
    ],
    ids=["no-coalition", "negative-coalition", "empty-grid", "empty-projected", "negative-epsilon"],
)
def test_an_audit_that_would_certify_nothing_is_refused(space, max_coalition, epsilon, match):
    inst = constant_instance([[0], [2]])
    for mech in (mean_mechanism(), ungrouped(mean_mechanism())):
        with pytest.raises(ValueError, match=match):
            check_group_strategyproof(mech, inst, 0, space, max_coalition, epsilon)


def test_all_binary_vectors_refuse_an_agent_of_another_size():
    agent = shared_binary_instance([(1, 0)]).agents[0]
    with pytest.raises(ValueError, match="size"):
        AllBinaryVectors(3).reports(agent)


def test_coalitions_larger_than_the_agent_count_add_nothing():
    inst = constant_instance([[0], [10]])
    space = GridLabels((-10, 0, 10))
    for mech in (mean_mechanism(), ungrouped(mean_mechanism())):
        full = check_group_strategyproof(mech, inst, 0, space, 2)
        assert full.candidates_checked == 15 and not full.ok
        assert check_group_strategyproof(mech, inst, 0, space, 10**9) == full


def test_the_budget_counts_every_joint_report_of_every_coalition():
    inst = constant_instance([[0], [1, 2], [2, 0, 1], [1]])
    space = GridLabels((0, 1, 2))
    counts = [space.count(a) for a in inst.agents]
    for size in range(1, 5):
        expected = sum(
            prod(counts[i] for i in coalition)
            for k in range(1, size + 1)
            for coalition in combinations(range(len(counts)), k)
        )
        report = check_group_strategyproof(mean_mechanism(), inst, 0, space, size)
        assert report.candidates_checked == expected, size


def test_a_repeated_grid_level_is_one_level():
    inst = constant_instance([[0], [10]])
    repeated = check_strategyproof(mean_mechanism(), inst, 0, GridLabels((-10, 0, 0, 10)))
    plain = check_strategyproof(mean_mechanism(), inst, 0, GridLabels((-10, 0, 10)))
    assert repeated == plain and plain.candidates_checked == 6


def test_both_spaces_keep_a_float_beside_an_equal_exact_value():
    # 0.5 == 1/2, but a float report is a class of its own, so both stay
    for values in (GridLabels((F(1, 2), 0.5)).levels, ProjectedConstant((F(1, 2), 0.5)).candidates):
        assert values == (F(1, 2), 0.5) and [type(v) for v in values] == [F, float]
    # of two equal values of one kind, the first stays
    assert [type(v) for v in ProjectedConstant((1, F(1), 0)).candidates] == [int, int]


def test_grouped_audit_matches_raw_enumeration():
    # the signature grouping is a cache, not a pruning
    rng = random.Random(23)
    levels = (0, 1, 2)
    for _ in range(60):
        inst = constant_instance(
            [
                [rng.choice(levels) for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 3))
            ]
        )
        advice = rng.choice(levels)
        gamma = rng.choice((F(1, 2), 1, 2))
        mech = pfa_mechanism(gamma)
        grouped = check_strategyproof(mech, inst, advice, GridLabels(levels))
        raw = check_strategyproof(ungrouped(mech), inst, advice, GridLabels(levels))
        assert grouped.ok == raw.ok
        assert grouped.max_gain == raw.max_gain
        mean = mean_mechanism()
        g2 = check_strategyproof(mean, inst, advice, GridLabels(levels))
        r2 = check_strategyproof(ungrouped(mean), inst, advice, GridLabels(levels))
        assert g2.ok == r2.ok
        assert g2.max_gain == r2.max_gain


def test_projected_constant_equals_grid_for_pfa():
    # for the projection mechanism, single-value reports reach every
    # achievable outcome, so the projected space finds a violation iff the
    # full grid does
    rng = random.Random(31)
    levels = (0, 1, 2, 3)
    for _ in range(60):
        inst = constant_instance(
            [
                [rng.choice(levels) for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 2))
            ]
        )
        advice = rng.choice(levels)
        mech = pfa_mechanism(rng.choice((F(1, 2), 1, 2)))
        grid = check_strategyproof(mech, inst, advice, GridLabels(levels))
        projected = check_strategyproof(
            mech, inst, advice, ProjectedConstant.for_instance(inst, advice)
        )
        assert grid.ok == projected.ok
        assert grid.max_gain == projected.max_gain


def test_srda_small_exhaustive_no_violations():
    inst = shared_binary_instance([(1, 0, 1), (0, 0, 1), (1, 1, 0)])
    for gamma in (F(1, 4), F(1, 2), 1):
        for advice in (0, 1):
            report = check_strategyproof(
                srda_mechanism(gamma), inst, advice, AllBinaryVectors(3)
            )
            assert report.ok


# ---------------------------------------------------------------------------
# coalition audits
# ---------------------------------------------------------------------------


def test_group_audit_covers_singletons():
    inst = constant_instance([[0], [10]])
    report = check_group_strategyproof(
        mean_mechanism(), inst, 0, GridLabels((-10, 0, 10)), max_coalition=1
    )
    assert not report.ok


def test_pfa_group_sp_on_odd_sizes():
    rng = random.Random(47)
    levels = (0, 1, 2)
    for _ in range(30):
        inst = constant_instance(
            [
                [rng.choice(levels) for _ in range(rng.choice((1, 3)))]
                for _ in range(rng.randint(2, 3))
            ]
        )
        mech = pfa_mechanism(rng.choice((F(1, 2), 1, 2)))
        report = check_group_strategyproof(
            mech, inst, rng.choice(levels), GridLabels(levels), max_coalition=2
        )
        assert report.ok


def test_pfa_even_sizes_group_counterexample_is_recorded():
    # the odd-size hypothesis is real: with even datasets, a throwaway
    # misreport by an indifferent agent can help a partner
    inst = constant_instance([[0, 2], [0, 0]])
    mech = pfa_mechanism(2)
    report = check_group_strategyproof(
        mech, inst, 0, GridLabels((0, 1, 2)), max_coalition=2
    )
    # recorded, not asserted empty: this documents the hypothesis
    for v in report.violations:
        assert len(v.agents) <= 2
        assert v.gain > 0
    assert report.candidates_checked > 0
    assert not report.ok  # this crafted instance does admit one


def test_unanimous_respecting_mechanism_resists_full_coalition():
    inst = constant_instance([[1], [1], [1]])
    mech = pfa_mechanism(1)
    report = check_group_strategyproof(
        mech, inst, 1, GridLabels((0, 1, 2)), max_coalition=3
    )
    assert report.ok


def test_pfa_sp_holds_on_sampled_four_agent_odd_instances():
    # sampled slice of the four-agent odd-size world; the exhaustive gate
    # for three agents lives in the acceptance suite
    rng = random.Random(97)
    levels = (0, 1, 2, 3, 4)
    space = GridLabels(levels)
    mechs = {g: pfa_mechanism(g) for g in (F(1, 2), 1, 2)}
    for _ in range(200):
        inst = constant_instance(
            [
                [rng.choice(levels) for _ in range(rng.choice((1, 3)))]
                for _ in range(4)
            ]
        )
        mech = mechs[rng.choice((F(1, 2), 1, 2))]
        report = check_strategyproof(mech, inst, rng.choice(levels), space)
        assert report.ok


def test_audit_reports_are_deterministic():
    inst = constant_instance([[0, 2], [1], [2, 2, 0]])
    space = GridLabels((0, 1, 2))
    runs = [
        check_strategyproof(pfa_mechanism(1), inst, 2, space) for _ in range(3)
    ] + [
        check_strategyproof(mean_mechanism(), inst, 2, space) for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]
    assert runs[3] == runs[4] == runs[5]
    group_runs = [
        check_group_strategyproof(
            pfa_mechanism(1), inst, 2, space, max_coalition=2
        )
        for _ in range(2)
    ]
    assert group_runs[0] == group_runs[1]


# ---------------------------------------------------------------------------
# the one engine against the audit's definition
# ---------------------------------------------------------------------------


def reference_audit(mech, instance, advice, space, max_coalition, epsilon=0):
    """The audit by its definition: every joint report run through the plain
    mechanism, gains as differences of normalized personal risks."""
    cls = instance.function_class
    base = mech.fn(instance, advice)
    violations, max_gain, checked = [], 0, 0
    for size in range(1, max_coalition + 1):
        for coalition in combinations(range(instance.n), size):
            pools = [[tuple(r) for r in space.reports(instance.agents[i])] for i in coalition]
            for joint in product(*pools):
                checked += 1
                reported = instance
                for i, labels in zip(coalition, joint):
                    reported = reported.with_agent_labels(i, labels)
                out = mech.fn(reported, advice)
                before = [personal_risk(base, instance.agents[i], cls) for i in coalition]
                after = [personal_risk(out, instance.agents[i], cls) for i in coalition]
                gains = [b - a for b, a in zip(before, after)]
                max_gain = max(max_gain, *gains)
                if all(g >= epsilon for g in gains) and any(g > epsilon for g in gains):
                    violations.append(
                        Violation(coalition, joint, tuple(before), tuple(after), max(gains))
                    )
    return AuditReport(tuple(violations), max_gain, checked)


def first_per_signature(mech, instance, report):
    """The report with only the first violation of each signature class: what
    the grouped audit, which evaluates one report per class, records."""
    cls = instance.function_class
    seen, kept = set(), []
    for v in report.violations:
        key = v.agents, tuple(
            mech.signature(instance.agents[i].xs, labels, cls)
            for i, labels in zip(v.agents, v.misreports)
        )
        if key not in seen:
            seen.add(key)
            kept.append(v)
    return AuditReport(tuple(kept), report.max_gain, report.candidates_checked)


def seeded_constant(rng, levels, domain=None, max_agents=3):
    labels = [
        [rng.choice(levels) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, max_agents))
    ]
    return constant_instance(labels) if domain is None else constant_instance(labels, domain)


def engine_cases():
    rng = random.Random(53)
    finite = ValueDomain.finite((0, 1, 2))
    grid = GridLabels((0, 1, 2))
    for _ in range(8):
        gamma = rng.choice((F(1, 3), F(1, 2), 1, 2))
        yield "pfa-reals", pfa_mechanism(gamma), seeded_constant(rng, (0, 1, 2)), rng.choice((0, F(1, 2), 2)), grid, 0
        yield "pfa-finite", pfa_mechanism(gamma, finite), seeded_constant(rng, (0, 1, 2), finite), rng.choice((0, 1, 2)), grid, 0
        yield "mean", mean_mechanism(), seeded_constant(rng, (0, 1, 2)), 1, grid, 0
        yield "mean-epsilon", mean_mechanism(), seeded_constant(rng, (0, 1, 2)), 1, grid, F(1, 6)
        yield "pfa-float", pfa_mechanism(1), seeded_constant(rng, (0.1, 0.5, 1.0)), 0.5, GridLabels((0.1, 0.5, 1.0)), 0
        m = rng.randint(1, 3)
        vectors = [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(rng.randint(1, 3))]
        mech = srda_mechanism(rng.choice((F(1, 4), F(1, 2), 1)), rng.random() < 0.3)
        yield "srda", mech, shared_binary_instance(vectors), rng.randint(0, 1), AllBinaryVectors(m), 0


def test_engine_matches_the_definition_at_every_coalition_size():
    kinds = set()
    for kind, mech, inst, advice, space, epsilon in engine_cases():
        kinds.add(kind)
        for size in range(1, min(3, inst.n) + 1):
            expected = reference_audit(mech, inst, advice, space, size, epsilon)
            raw = check_group_strategyproof(ungrouped(mech), inst, advice, space, size, epsilon)
            grouped = check_group_strategyproof(mech, inst, advice, space, size, epsilon)
            assert raw == expected, (kind, inst, advice, size)
            assert grouped == first_per_signature(mech, inst, expected), (kind, inst, advice, size)
        assert check_strategyproof(mech, inst, advice, space, epsilon) == (
            check_group_strategyproof(mech, inst, advice, space, 1, epsilon)
        )
    assert len(kinds) == 6


def permuted(instance, order):
    return Instance(tuple(instance.agents[i] for i in order), instance.function_class)


# kind -> (mechanism factory, instance A, an unrelated instance, advice, space, epsilon)
WARM_CASES = {
    "pfa": (
        lambda: pfa_mechanism(F(1, 2)), constant_instance([[0, 2], [1], [2, 2, 0]]),
        constant_instance([[1], [0, 0, 2]]), 1, GridLabels((0, 1, 2)), 0,
    ),
    "pfa-even": (
        lambda: pfa_mechanism(2), constant_instance([[0, 2], [0, 0], [1]]),
        constant_instance([[2, 2], [0]]), 0, GridLabels((0, 1, 2)), 0,
    ),
    "pfa-finite": (
        lambda: pfa_mechanism(1, ValueDomain.finite((0, 2))),
        constant_instance([[0, 1], [2], [1, 1, 2]], ValueDomain.finite((0, 2))),
        constant_instance([[2], [0, 0]], ValueDomain.finite((0, 2))), 2, GridLabels((0, 1, 2)), 0,
    ),
    # float epsilon on exact labels: shared rows, normalized gains
    "pfa-float-epsilon": (
        lambda: pfa_mechanism(2), constant_instance([[0, 2], [0, 0], [1]]),
        constant_instance([[1], [2, 0]]), 0, GridLabels((0, 1, 2)), 0.1,
    ),
    "mean": (
        mean_mechanism, constant_instance([[0, 1], [2], [2, 2, 1]]),
        constant_instance([[1], [0, 2]]), 1, GridLabels((0, 1, 2)), 0,
    ),
    "mean-float-epsilon": (
        mean_mechanism, constant_instance([[0, 1], [2], [2, 2, 1]]),
        constant_instance([[1], [0, 2]]), 1, GridLabels((0, 1, 2)), 0.1,
    ),
    # float labels or reports: no row is shared across agent orders
    "mean-float-labels": (
        mean_mechanism, constant_instance([[0.45, 0.1, 0.56], [2.71, 0.23, 0.48], [0.3]]),
        constant_instance([[0.78], [1.14, 2.77]]), 0, GridLabels((0, 1, 2)), 0,
    ),
    "mean-float-reports": (
        mean_mechanism, constant_instance([[0, 1], [2], [2, 2, 1]]),
        constant_instance([[1], [0, 2]]), 0, ProjectedConstant((0.78, 0.89, 1.14, 2.77)), 0,
    ),
    "pfa-float-advice": (
        lambda: pfa_mechanism(F(1, 2)), constant_instance([[0, 2], [1], [2, 2, 0]]),
        constant_instance([[1], [0, 0, 2]]), 0.5, GridLabels((0, 1, 2)), 0,
    ),
    # an agent whose x are all zero has the empty projection
    "lpfa": (
        lambda: lpfa_mechanism(1), linear_instance([[(0, 1), (1, 2)], [(2, 1)], [(0, 3)]]),
        linear_instance([[(1, 0)], [(0, 2)]]), 1, GridLabels((0, 1, 2)), 0,
    ),
    "srda": (
        lambda: srda_mechanism(F(1, 2)), shared_binary_instance([(1, 0, 1), (0, 0, 1), (1, 1, 0)]),
        shared_binary_instance([(0, 1, 1), (1, 1, 1)]), 1, AllBinaryVectors(3), 0,
    ),
    # float gamma: pfa and lpfa keep exact outcomes and the caches; srda's
    # float lottery gives float base risks, so its audits run the definition
    "pfa-float-gamma": (
        lambda: pfa_mechanism(0.5), constant_instance([[0, 2], [1], [2, 2, 0]]),
        constant_instance([[1], [0, 0, 2]]), 1, GridLabels((0, 1, 2)), 0,
    ),
    "lpfa-float-gamma": (
        lambda: lpfa_mechanism(0.7), linear_instance([[(0, 1), (1, 2)], [(2, 1)], [(0, 3)]]),
        linear_instance([[(1, 0)], [(0, 2)]]), 1, GridLabels((0, 1, 2)), 0,
    ),
    "srda-float-gamma": (
        lambda: srda_mechanism(0.5), shared_binary_instance([(1, 0, 1), (0, 0, 1), (1, 1, 0)]),
        shared_binary_instance([(0, 1, 1), (1, 1, 1)]), 1, AllBinaryVectors(3), 0,
    ),
}


# the cases whose steps record violations: mean, and pfa coalitions on
# instances with an even-sized agent
WARM_VIOLATIONS = {
    "mean", "mean-float-epsilon", "mean-float-labels", "mean-float-reports",
    "pfa", "pfa-even", "pfa-float-advice", "pfa-float-gamma",
}


@pytest.mark.parametrize("kind", sorted(WARM_CASES))
def test_warm_engine_matches_the_definition(kind):
    # one mechanism object: A, A with its agents permuted, an unrelated
    # instance, then A again unilaterally and in coalitions on one plan
    factory, inst, other, advice, space, epsilon = WARM_CASES[kind]
    mech = factory()
    steps = [(inst, 1), (permuted(inst, (2, 0, 1)), 1), (other, 2), (inst, 1), (inst, 2)]
    recorded = 0
    for instance, size in steps:
        expected = reference_audit(mech, instance, advice, space, size, epsilon)
        grouped = check_group_strategyproof(mech, instance, advice, space, size, epsilon)
        assert grouped == first_per_signature(mech, instance, expected), (kind, instance, size)
        recorded += len(grouped.violations)
    assert (recorded > 0) == (kind in WARM_VIOLATIONS)


def test_engine_exact_gains_in_mean_violations():
    inst = constant_instance([[0, 1], [2], [2, 2, 1]])
    space = GridLabels((0, 1, 2))
    for epsilon in (0, F(1, 10)):
        report = check_group_strategyproof(mean_mechanism(), inst, 1, space, 2, epsilon)
        assert report == reference_audit(mean_mechanism(), inst, 1, space, 2, epsilon)
        assert report.violations
        for v in report.violations:
            assert all(isinstance(r, F) for r in v.risks_before + v.risks_after)
            assert v.gain > epsilon


def test_engine_floats_keep_normalized_arithmetic():
    inst = constant_instance([[0, 1], [2]])
    space = GridLabels((0, 1, 2))
    report = check_strategyproof(mean_mechanism(), inst, 1, space, epsilon=0.1)
    assert report == reference_audit(mean_mechanism(), inst, 1, space, 1, epsilon=0.1)
    # float risks scaled by |S_i| and divided back do not round-trip here
    floats = constant_instance([[0.45, 0.1, 0.56], [2.71, 0.23, 0.48]])
    space = ProjectedConstant((0.78, 0.89, 1.14, 2.77))
    mech = ungrouped(mean_mechanism())
    for size in (1, 2):
        report = check_group_strategyproof(mech, floats, 0, space, size)
        assert report == reference_audit(mech, floats, 0, space, size)
        assert report.violations


def test_mean_float_reports_are_their_own_signature():
    # equal float label sums need not give equal float means: 1.14 three
    # times gains 1.1e-16, which a (sum, len) signature would hide
    floats = constant_instance([[0.45, 0.1, 0.56], [2.71, 0.23, 0.48]])
    space = ProjectedConstant((0.78, 0.89, 1.14, 2.77))
    for size in (1, 2):
        grouped = check_group_strategyproof(mean_mechanism(), floats, 0, space, size)
        assert grouped == check_group_strategyproof(ungrouped(mean_mechanism()), floats, 0, space, size)
    assert len(check_strategyproof(mean_mechanism(), floats, 0, space).violations) == 3


MIXED_BASE = (0, F(1, 2), 1, F(3, 2), 2, 3)


def mixed(rng, value):
    """`value` as a float 40% of the time: 0.5 next to 1/2, 3.0 next to 3."""
    return float(value) if rng.random() < 0.4 else value


def mixed_audit_case(rng):
    """(mechanism, instance, advice, space, epsilon, max_coalition) with
    labels, x, grid levels, advice, epsilon, gamma and domain values drawn
    from float and exact values alike."""
    kind = rng.choice(("pfa-reals", "pfa-finite", "lpfa", "mean"))
    gamma = mixed(rng, rng.choice((F(1, 3), F(1, 2), 1, 2)))
    n = rng.randint(1, 3)

    def label():
        return mixed(rng, rng.choice(MIXED_BASE))

    def labels():
        return [label() for _ in range(rng.randint(1, 3 if n < 3 else 2))]

    space = GridLabels(tuple(label() for _ in range(rng.randint(2, 3))))
    advice = label()
    if kind == "pfa-finite":
        values = sorted(rng.sample(MIXED_BASE, rng.randint(2, 3)))
        domain = ValueDomain.finite([mixed(rng, v) for v in values])
        mech = pfa_mechanism(gamma, domain)
        inst = constant_instance([labels() for _ in range(n)], domain)
        advice = mixed(rng, rng.choice(values))
    elif kind == "lpfa":
        mech = lpfa_mechanism(gamma)
        inst = linear_instance([
            [(mixed(rng, rng.choice((0, F(1, 2), 1, 2))), y) for y in labels()] for _ in range(n)
        ])
    else:
        mech = pfa_mechanism(gamma) if kind == "pfa-reals" else mean_mechanism()
        inst = constant_instance([labels() for _ in range(n)])
    epsilon = rng.choice((0, 0.0, F(1, 10), 0.1))
    return mech, inst, advice, space, epsilon, rng.randint(1, min(2, n))


def test_audits_mixing_float_and_exact_values_match_the_definition():
    # the caches compare by ==, and 0.5 == 1/2: float work must never answer
    # for exact work, within one audit or across the agents of one instance
    rng = random.Random(61)
    for _ in range(2000):
        mech, inst, advice, space, epsilon, size = mixed_audit_case(rng)
        expected = reference_audit(mech, inst, advice, space, size, epsilon)
        grouped = check_group_strategyproof(mech, inst, advice, space, size, epsilon)
        assert grouped == first_per_signature(mech, inst, expected), (inst, advice, space, epsilon)


def report_types(report):
    return [
        type(r) for v in report.violations for r in (*v.risks_before, *v.risks_after, v.gain)
    ] + [type(report.max_gain)]


@pytest.mark.parametrize("strip", [False, True], ids=["projection", "ungrouped"])
def test_a_float_report_is_its_own_signature_class(strip):
    # (1/2, 1/2, 1/2) and (1/2, 0.5, 0.5) project to (1/2, 3) and (0.5, 3),
    # and as reports (xs, labels) they are equal too; pfa fits 1/2 from
    # the first and 0.5 from the second
    mech = ungrouped(pfa_mechanism(1)) if strip else pfa_mechanism(1)
    inst = constant_instance([[1, F(3, 2), 1], [2, 3, 2]])
    space = GridLabels((F(1, 2), 0.5))
    report = check_group_strategyproof(mech, inst, 3.0, space, 2, 0.1)
    expected = first_per_signature(mech, inst, reference_audit(mech, inst, 3.0, space, 2, 0.1))
    assert report == expected
    assert report_types(report) == report_types(expected)
    assert report.max_gain == 0.16666666666666674


def odd_mean_mechanism():
    """The mean, except that an S/N whose label sum S is 1 mod 3 comes out as
    a float: a mechanism whose fit returns a float outcome on exact work."""

    def mean(total, count):
        value = F(total, count)
        return ConstantChoice(float(value) if total % 3 == 1 else value)

    def fn(instance, advice):
        labels = instance.all_labels()
        return mean(sum(labels), len(labels))

    def fit(cls, advice):
        return lambda profile: mean(sum(s for s, _ in profile), sum(m for _, m in profile))

    def signature(xs, labels, cls):
        return sum(labels), len(labels)

    return AuditableMechanism(fn, "odd-mean", signature, fit)


ODD_MEAN_LABELS = (0, F(1, 3), F(1, 2), F(2, 3), 1, F(4, 3), F(3, 2), 2, F(7, 3))


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
def test_a_float_outcome_of_the_fit_never_enters_the_caches(shared):
    # ConstantChoice(0.5) == ConstantChoice(1/2): an outcome holding a float
    # must not be interned, put in a row or scored through a loss table
    rng = random.Random(67)
    space = GridLabels((0, F(1, 2), 1, 2, F(7, 3)))
    mech = odd_mean_mechanism()
    for _ in range(60):
        inst = constant_instance([
            [rng.choice(ODD_MEAN_LABELS) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 3))
        ])
        size = rng.randint(1, min(2, inst.n))
        if not shared:
            mech = odd_mean_mechanism()
        audited(mech, inst, 0, space, size)
        # outside the audits, too, the fit's float outcome is the definition's
        out, ratio = mech.outcome(inst, 0), approximation_ratio(mech, inst, 0)
        best = brute_force_optimal_risk(inst)
        expected = risk_ratio(global_risk(mech.fn(inst, 0), inst), best)
        assert (out, type(out.value)) == (mech.fn(inst, 0), type(mech.fn(inst, 0).value))
        assert (ratio, type(ratio)) == (expected, type(expected)), inst


def audited(mech, inst, advice, space, size, epsilon=0):
    """The engine's report, checked against the definition in value and type."""
    report = check_group_strategyproof(mech, inst, advice, space, size, epsilon)
    expected = first_per_signature(
        mech, inst, reference_audit(mech, inst, advice, space, size, epsilon)
    )
    assert report == expected, (inst, advice, size, epsilon)
    assert report_types(report) == report_types(expected), (inst, advice, size, epsilon)
    return report


def test_a_drop_equal_to_epsilon_is_weak_not_strict():
    # every drop here is 1/7 or 2/7; at epsilon 1/7 a drop of exactly 1/7
    # is no violation, alone or next to a partner's equal drop
    mech, inst = mean_mechanism(), constant_instance([[0], [0], [F(6, 7)]])
    space = GridLabels((-F(3, 7), 0, F(3, 7)))
    for size in (1, 2):
        free = audited(mech, inst, 0, space, size)
        barred = audited(mech, inst, 0, space, size, F(1, 7))
        assert F(1, 7) in {v.gain for v in free.violations}
        assert barred.violations == tuple(v for v in free.violations if v.gain > F(1, 7))
        assert free.max_gain == barred.max_gain == (F(1, 7) if size == 1 else F(2, 7))
    assert len(barred.violations) == 1  # both members drop 2/7


def test_gains_over_coprime_denominators():
    rng = random.Random(71)
    levels = (0, F(1, 7), F(2, 11), F(3, 13), 1)
    space = GridLabels((-2, F(1, 7), F(2, 11), F(3, 13), 3))
    caught = 0
    for _ in range(8):
        inst = constant_instance([
            [rng.choice(levels) for _ in range(rng.randint(1, 2))]
            for _ in range(rng.randint(1, 3))
        ])
        size = rng.randint(1, min(2, inst.n))
        for epsilon in (0, F(1, 7), F(1, 6)):
            for mech in (mean_mechanism(), pfa_mechanism(F(1, 2))):
                report = audited(mech, inst, rng.choice(levels), space, size, epsilon)
                caught += epsilon > 0 and not report.ok
    assert caught


def test_max_gain_moves_to_an_agent_of_another_size():
    # best risk drops 1/6 (|S_0| = 1), 1/9 (|S_1| = 3) and 1/3 (|S_2| = 2):
    # agent 1's loss-sum drop 1/3 exceeds agent 0's 1/6, its risk drop does not
    mech = mean_mechanism()
    inst = constant_instance([[1], [0, 0, 2], [2, 2]])
    space = GridLabels((0, 1, 2, 3))
    for epsilon in (0, F(1, 9), F(1, 6)):
        report = audited(mech, inst, 0, space, 1, epsilon)
        best = {}
        for v in report.violations:
            best[v.agents] = max(best.get(v.agents, 0), v.gain)
        assert report.max_gain == F(1, 3) == best[(2,)]
        assert best.get((0,)) == (F(1, 6) if epsilon < F(1, 6) else None)
        assert best.get((1,)) == (F(1, 9) if epsilon < F(1, 9) else None)


@pytest.mark.parametrize("gamma", [F(1, 4), F(1, 2)])
def test_srda_lottery_gains_match_the_definition(gamma):
    rng = random.Random(73)
    caught = 0
    for literal in (False, True):
        mech = srda_mechanism(gamma, literal)
        for _ in range(12):
            m = rng.randint(1, 3)
            inst = shared_binary_instance(
                [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(rng.randint(2, 3))]
            )
            for advice in (0, 1):
                for size in (1, 2):
                    report = audited(mech, inst, advice, AllBinaryVectors(m), size)
                    assert report.ok or literal or size == 2
                    caught += len(report.violations)
    assert caught


def test_an_exact_audit_after_a_float_audit_equals_a_fresh_one():
    space = GridLabels((0, 1, 2))
    exact = constant_instance([[0, 1], [F(1, 2)], [2]])
    mech = mean_mechanism()
    check_strategyproof(mech, constant_instance([[0, 1], [0.5], [2]]), 0, space)
    warm = check_strategyproof(mech, exact, 0, space)
    fresh = check_strategyproof(mean_mechanism(), exact, 0, space)
    assert warm == fresh
    assert report_types(warm) == report_types(fresh)
    assert fresh.violations[0].risks_before == (F(3, 8),)
    assert set(report_types(fresh)) == {F}


def test_literal_indicator_srda_is_caught_and_plain_srda_is_not():
    # every binary instance with m in {1, 3} and n in {2, 3}, at both advices
    plain, literal = srda_mechanism(1), srda_mechanism(1, literal_indicator=True)
    audited = 0
    for m in (1, 3):
        space = AllBinaryVectors(m)
        for n in (2, 3):
            for vectors in product(product((0, 1), repeat=m), repeat=n):
                inst = shared_binary_instance(vectors)
                for advice in (0, 1):
                    assert check_strategyproof(plain, inst, advice, space).ok
                    assert not check_strategyproof(literal, inst, advice, space).ok
                    audited += 1
    assert audited == 1176


# ---------------------------------------------------------------------------
# contexts shared by the mechanisms of one family across gamma
# ---------------------------------------------------------------------------


def test_mechanisms_sharing_a_context_match_the_definition():
    # pfa over the reals and over a finite domain and srda with and without
    # the literal indicator, three gammas each (no two families share one,
    # so only the key keeps their contexts apart), all alive at once; per
    # instance the gammas interleave: gamma_1 at advice 0, gamma_2 at advice
    # 0, ..., gamma_1 at advice 1, ..., unilaterally and then in coalitions
    rng = random.Random(79)
    finite = ValueDomain.finite((0, 1, 2))
    grid = GridLabels((0, 1, 2))

    def binary():
        m = rng.randint(1, 3)
        vectors = [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(rng.randint(2, 3))]
        return shared_binary_instance(vectors), AllBinaryVectors(m)

    families = [
        ([pfa_mechanism(g) for g in (F(1, 2), 1, 2)], (0, F(1, 2), 2),
         lambda: (seeded_constant(rng, (0, 1, 2)), grid)),
        ([pfa_mechanism(g, finite) for g in (F(1, 3), F(3, 4), F(3, 2))], (0, 1, 2),
         lambda: (seeded_constant(rng, (0, 1, 2), finite), grid)),
        ([srda_mechanism(g) for g in (F(1, 4), F(1, 2), 1)], (0, 1), binary),
        ([srda_mechanism(g, True) for g in (F(1, 3), F(2, 3), F(3, 4))], (0, 1), binary),
    ]
    contexts = [mechs[0].context for mechs, _, _ in families]
    assert len(set(map(id, contexts))) == len(families)
    for (mechs, _, _), context in zip(families, contexts):
        assert all(mech.context is context for mech in mechs)
    recorded = [0] * len(families)
    for _ in range(6):
        for f, (mechs, advices, make) in enumerate(families):
            inst, space = make()
            for size in range(1, min(2, inst.n) + 1):
                for advice in advices:
                    for mech in mechs:
                        recorded[f] += len(audited(mech, inst, advice, space, size).violations)
    assert recorded[0] and recorded[3]  # pfa coalitions, literal srda


def reachable_ints(root):
    """Every int reachable from `root` through containers and the attributes
    of advicemech objects."""
    seen, stack, found = set(), [root], set()
    while stack:
        obj = stack.pop()
        if isinstance(obj, int):
            found.add(obj)
        elif id(obj) not in seen:
            seen.add(id(obj))
            if isinstance(obj, dict):
                stack += [*obj.keys(), *obj.values()]
            elif isinstance(obj, (list, tuple, set, frozenset)):
                stack += obj
            elif type(obj).__module__.startswith("advicemech") and hasattr(obj, "__dict__"):
                stack += vars(obj).values()
    return found


def test_a_new_gamma_on_a_live_context_is_served_its_own_rows():
    # pfa records 4 coalition violations here at gamma 1 and 6 at gamma
    # 1/2; the gamma-2 sibling keeps the context alive after the gamma-1
    # mechanism dies, and the new mechanism may take its memory and so its
    # id, so the context must key nothing by a mechanism's id
    inst = constant_instance([[0, 2], [1], [2, 2, 0]])
    space = GridLabels((0, 1, 2))
    first, sibling = pfa_mechanism(1), pfa_mechanism(2)
    for size in (1, 2):
        audited(first, inst, 1, space, size)
        audited(sibling, inst, 1, space, size)
    assert not {id(first), id(sibling)} & reachable_ints(sibling.context)
    del first
    fresh = pfa_mechanism(F(1, 2))
    assert fresh.context is sibling.context
    assert len(audited(fresh, inst, 1, space, 2).violations) == 6


def test_a_context_lives_as_long_as_its_mechanisms():
    # with the collector off, the context dies by reference counting alone:
    # nothing in it refers back to a mechanism
    domain = ValueDomain.finite((0, F(7, 3), 5))  # a domain no other test uses
    inst = constant_instance([[0, 5], [F(7, 3)], [5, 5]], domain)
    space = GridLabels((0, F(7, 3), 5))

    def registered():
        return [key for key in list(audit._CONTEXTS.keys()) if domain in key]

    gc.disable()
    try:
        mechs = [pfa_mechanism(g, domain) for g in (F(1, 2), 1, 2)]
        for mech in mechs:
            audited(mech, inst, 0, space, 2)
        context = weakref.ref(mech.context)
        assert len(registered()) == 1
        assert context().tables and context().outcomes and context().plan is not None
        del mech, mechs
        assert context() is None
        assert registered() == []
    finally:
        gc.enable()
    fresh = pfa_mechanism(1, domain).context
    assert (fresh.groups, fresh.tables, fresh.outcomes, fresh.slots) == ({}, {}, {}, {})
    assert fresh.plan is None


def test_a_second_mechanism_at_a_live_gamma_starts_a_new_context():
    # a caller that builds its gammas again while it still holds the last
    # set (a tracer that keeps every mechanism it saw) starts cold
    held = [pfa_mechanism(g) for g in (F(1, 2), 1)]
    again = [pfa_mechanism(g) for g in (F(1, 2), 1)]
    assert held[0].context is held[1].context
    assert again[0].context is again[1].context
    assert again[0].context is not held[0].context
    inst = constant_instance([[0, 2], [1], [2, 2, 0]])
    audited(held[0], inst, 1, GridLabels((0, 1, 2)), 2)
    assert not again[0].context.tables


def test_the_fit_checks_each_new_advice_and_class():
    domain = ValueDomain.finite((0, 1, 2))
    mech = pfa_mechanism(1, domain)
    inst = constant_instance([[0, 2], [1]], domain)
    space = GridLabels((0, 1, 2))
    audited(mech, inst, 1, space, 2)
    for advice in (F(1, 2), 3):  # on the same class and plan
        with pytest.raises(ClassMismatchError):
            check_strategyproof(mech, inst, advice, space)
        with pytest.raises(ClassMismatchError):
            mech.outcome(inst, advice, mech.profile(inst))
    with pytest.raises(ClassMismatchError):  # the same advice on another class
        check_strategyproof(mech, constant_instance([[0, 2], [1]]), 1, space)


def test_each_class_and_advice_is_checked_once_per_mechanism(monkeypatch):
    # a fit checks its class and advice, and builds what they fix, when the
    # mechanism makes its entry: once per equal class and advice, however
    # many instances (each with a class object of its own), misses and
    # coalition sizes ask for it
    calls = []
    for name in ("check_pfa_inputs", "check_srda_inputs", "disagreement_points"):
        def counted(*args, name=name, original=getattr(audit, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(audit, name, counted)
    rng = random.Random(83)
    finite = ValueDomain.finite((0, 1, 2))
    grid, binary = GridLabels((0, 1, 2)), AllBinaryVectors(3)
    labelings = ((0, 0, 1), (1, 0, 0))

    def vectors():
        return [tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(rng.randint(2, 3))]

    cases = [  # mechanism, instance, space, advices, the checks of one entry
        (pfa_mechanism(1), lambda: seeded_constant(rng, (0, 1, 2)), grid, (0, F(1, 2), 2),
         ["check_pfa_inputs"]),
        (pfa_mechanism(1, finite), lambda: seeded_constant(rng, (0, 1, 2), finite), grid, (0, 2),
         ["check_pfa_inputs"]),
        (srda_mechanism(F(1, 2)), lambda: shared_binary_instance(vectors()), binary, (0, 1),
         ["check_srda_inputs"]),
        (pfa_two_labeling_mechanism(1), lambda: shared_binary_instance(vectors(), labelings),
         binary, (0, 1), ["disagreement_points"]),
        (srda_two_labeling_mechanism(F(1, 2)), lambda: shared_binary_instance(vectors(), labelings),
         binary, (0, 1), ["check_srda_inputs", "disagreement_points"]),
    ]
    for mech, make, space, advices, checks in cases:
        calls.clear()
        instances = [make() for _ in range(4)]
        assert len({id(inst.function_class) for inst in instances}) == 4
        assert len(set(inst.function_class for inst in instances)) == 1
        for inst in instances:
            for advice in advices:
                check_strategyproof(mech, inst, advice, space)
                check_group_strategyproof(mech, inst, advice, space, 2)
        assert sorted(calls) == sorted(checks * len(advices)), mech.name


# ---------------------------------------------------------------------------
# ratios, sweeps, interpolation
# ---------------------------------------------------------------------------


def test_ratio_one_when_mechanism_hits_optimum():
    inst = constant_instance([[0], [0], [1]])
    assert approximation_ratio(pfa_mechanism(2), inst, 1) == 1


def test_ratio_zero_risk_conventions():
    inst = constant_instance([[3], [3]])
    assert approximation_ratio(pfa_mechanism(1), inst, 0) == 1  # still returns 3

    backwards = AuditableMechanism(
        lambda instance, advice: __import__("advicemech").ConstantChoice(advice),
        "advice-echo",
    )
    assert approximation_ratio(backwards, inst, 0) == float("inf")


def test_an_exact_ratio_after_a_float_query_stays_exact():
    # 1.0 == Fraction(1): compare the type
    mech = pfa_mechanism(F(1, 2))
    inst = constant_instance([[0], [1], [1, 0]])
    approximation_ratio(mech, inst, 0.5)
    ratio = approximation_ratio(mech, inst, F(1, 2))
    assert ratio == 1
    assert type(ratio) is F
    assert type(approximation_ratio(mech, inst, 0.5)) is float


def test_brute_force_optimum_matches_median_risk():
    rng = random.Random(3)
    for _ in range(100):
        inst = constant_instance(
            [
                [F(rng.randint(-8, 8), 2) for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 4))
            ]
        )
        from advicemech import optimal_constant_set

        _, best = optimal_constant_set(inst)
        assert brute_force_optimal_risk(inst) == best


def test_sweep_rows_carry_bounds():
    corpus = [gen_S(3, 1, 3, 4), constant_instance([[0], [0], [1]])]
    rows = consistency_robustness_sweep(pfa_family(), (F(1, 2), 2), corpus)
    assert [r.gamma for r in rows] == [F(1, 2), 2]
    for r in rows:
        assert r.bound_consistency == 1 + r.gamma
        assert r.bound_robustness == 1 + 4 / r.gamma
        assert r.ok
        assert r.consistency <= r.bound_consistency
        assert r.robustness <= r.bound_robustness


def test_srda_sweep_bounds():
    corpus = [
        shared_binary_instance([(1, 1, 0), (0, 0, 0)]),
        shared_binary_instance([(1, 1, 1), (1, 0, 1), (0, 0, 0)]),
    ]
    rows = consistency_robustness_sweep(srda_family(), (F(1, 2), 1), corpus)
    for r in rows:
        assert r.bound_robustness == 1 + 1 / r.gamma
        assert r.ok


def reference_sweep(family, gammas, corpus, grid_points=21):
    """The sweep by its definition, query by query: every ratio is the
    `risk_ratio` of the `global_risk` of the outcome of the mechanism's
    `fn` to `brute_force_optimal_risk`, with the mechanism rebuilt per
    instance: no fit, compiled instance or integer risk pair."""
    rows = []
    for gamma in gammas:
        bc, br = family.bounds(gamma)
        consistency = robustness = 0
        for inst in corpus:
            mech = family.mechanism(gamma, inst.function_class)
            best = brute_force_optimal_risk(inst)
            for advice in optimal_functions(inst):
                ratio = risk_ratio(global_risk(mech.fn(inst, advice), inst), best)
                consistency = max(consistency, ratio)
            for advice in advice_grid(inst, grid_points):
                ratio = risk_ratio(global_risk(mech.fn(inst, advice), inst), best)
                robustness = max(robustness, ratio)
        rows.append((gamma, consistency, robustness, bc, br, consistency <= bc and robustness <= br))
    return rows


def typed(values):
    return [(v, type(v)) for v in values]


TWO_LABELINGS = ((0, 0, 1, 1), (1, 1, 0, 1))
SWEEP_CORPORA = {
    "pfa": [
        gen_S(3, 1, 3, 4),
        constant_instance([[0, 1], [3], [F(5, 2), 4, 4]]),
        constant_instance([[0], [1], [2, 2]], ValueDomain.finite([0, 1, 2])),
        constant_instance([[0, 1], [2]], ValueDomain.finite([0, 2])),
        constant_instance([[3], [3]]),  # zero optimum
        constant_instance([[3], [3]], ValueDomain.finite([0, 3])),
        constant_instance([[0.5, 1.25], [2.0], [0.25]]),  # float labels
    ],
    "lpfa": [
        gen_S_linear(3, 1, 3, 4),
        linear_instance([[(1, 1)], [(2, 1), (-1, 2)]]),
        linear_instance([[(F(1, 2), F(3, 4)), (0, 5)], [(-2, F(7, 4))], [(3, 0), (1, -1)]]),
        linear_instance([[(2, 4)], [(1, 2)]]),  # zero optimum
    ],
    "pfa-two-labeling": [
        shared_binary_instance([(1, 0, 1, 0), (0, 1, 0, 1)], TWO_LABELINGS),
        shared_binary_instance([(1, 1, 0, 1)] * 2 + [(0, 0, 1, 1)], TWO_LABELINGS),
        shared_binary_instance([(1, 0, 1), (0, 1, 0), (1, 1, 1)], ((0, 0, 1), (1, 1, 0))),
    ],
}
SWEEP_CORPORA["srda-two-labeling"] = SWEEP_CORPORA["pfa-two-labeling"]
# 0.5 is a float gamma: a float lam, and float lottery probabilities on exact instances
SWEEP_GAMMAS = (F(1, 4), F(1, 2), 0.5, F(2, 3), 1, F(3, 2), 2)


@pytest.mark.parametrize("name", sorted(SWEEP_CORPORA))
def test_sweep_equals_the_per_query_path(name):
    family = MECHANISMS[name]
    gammas = [g for g in SWEEP_GAMMAS if g <= family.gamma_max]
    corpus = SWEEP_CORPORA[name]
    for grid_points in (21, 4):
        rows = consistency_robustness_sweep(family, gammas, corpus, grid_points)
        expected = reference_sweep(family, gammas, corpus, grid_points)
        assert [
            typed([r.gamma, r.consistency, r.robustness, r.bound_consistency, r.bound_robustness, r.ok])
            for r in rows
        ] == [typed(row) for row in expected]
        assert [family.frontier_row(g, corpus, grid_points) for g in gammas] == rows


def test_advice_grid_needs_two_points():
    inst = gen_S(3, 1, 2, 5)
    for points in (-3, 0, 1):
        with pytest.raises(ValueError, match="at least 2 points"):
            advice_grid(inst, points)
    labels = inst.all_labels()
    assert advice_grid(inst, 2) == (min(labels), max(labels))
    assert len(advice_grid(inst, 21)) == 21


def test_advice_grid_values_on_float_mixed_and_exact_labels():
    def linspace(lo, hi, points):
        return tuple(lo + (hi - lo) * j / (points - 1) for j in range(points))

    assert advice_grid(constant_instance([[0.1, 0.7], [0.35]]), 7) == linspace(0.1, 0.7, 7)
    mixed = constant_instance([[F(1, 3), 0.7], [F(1, 2)]])
    assert advice_grid(mixed, 7) == linspace(F(1, 3), 0.7, 7)
    assert all(type(v) is float for v in advice_grid(mixed, 7))
    grid = advice_grid(constant_instance([[0, 3], [F(1, 2)]]), 5)
    assert grid == tuple(F(3 * j, 4) for j in range(5))
    assert all(type(v) is F for v in grid)


@pytest.mark.parametrize(
    "name, corpus, error",
    [
        ("pfa", [], ValueError),
        ("mean", [constant_instance([[0], [1]])], ClassMismatchError),
        # preparing this instance would raise DegenerateLinearInstance
        ("pfa", [constant_instance([[0]]), linear_instance([[(0, 1)], [(0, 5)]])], ClassMismatchError),
        ("lpfa", [shared_binary_instance([(1, 0)])], ClassMismatchError),
    ],
)
def test_sweep_refusals_come_before_instance_work(name, corpus, error):
    with pytest.raises(error):
        consistency_robustness_sweep(MECHANISMS[name], [1], corpus)


def test_error_interpolation_mid_eta_example():
    inst = constant_instance([[0, 0, 2]])
    gamma = F(2, 3)
    rows = error_interpolation_check(gamma, inst, (0, 1, 100))
    by_advice = {r.advice: r for r in rows}
    assert by_advice[0].advice_error == 0
    assert by_advice[0].bound == 1 + gamma
    assert by_advice[1].advice_error == F(3, 2)
    assert by_advice[1].bound == min(1 + 4 / gamma, 1 + gamma + F(3, 2))
    assert by_advice[100].bound == 1 + 4 / gamma  # min saturates at the cap
    assert all(r.ok for r in rows)
