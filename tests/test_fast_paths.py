"""The fast paths against the plain ones they replace in the ratio loop and
the audits: `CompiledInstance.risk` against `global_risk`, and the
fit-from-profile outcome of every registered mechanism (pfa, lpfa, mean,
srda and the two-labeling wrappers) against the plain mechanism run on the
reported instance."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advicemech import (
    REALS,
    AllBinaryVectors,
    ClassMismatchError,
    ConstantChoice,
    GridLabels,
    LabelingChoice,
    LabelingLottery,
    LabelingsClass,
    LinearChoice,
    LinearClass,
    PfaConfig,
    ValueDomain,
    advice_grid,
    approximation_ratio,
    brute_force_optimal_risk,
    check_group_strategyproof,
    check_strategyproof,
    confidence_weight,
    constant_instance,
    erm_constant,
    error_interpolation_check,
    gen_S,
    gen_S_final,
    gen_S_linear,
    WeightedSample,
    global_risk,
    linear_instance,
    lpfa,
    lpfa_family,
    lpfa_mechanism,
    mean_mechanism,
    pfa,
    pfa_family,
    pfa_mechanism,
    pfa_two_labeling,
    pfa_two_labeling_mechanism,
    personal_risk,
    shared_binary_instance,
    srda,
    srda_mechanism,
    srda_two_labeling,
    srda_two_labeling_mechanism,
    weighted_median_bounds,
)
from advicemech.audit import risk_ratio
from advicemech.model import CompiledInstance, ConstantClass, _common, _optima, exact_div
from advicemech.regression import SLOPE_INVISIBLE, lpfa_fit, pfa_ends, pfa_fit, projection

EXAMPLES = settings(max_examples=120, deadline=None, derandomize=True, database=None)

rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 4))
xs_with_zero = st.builds(F, st.integers(-8, 8), st.integers(1, 3))


def label_lists(values, max_agents=5, max_points=5):
    return st.lists(
        st.lists(values, min_size=1, max_size=max_points), min_size=1, max_size=max_agents
    )


def assert_compiled_matches(instance, queries):
    compiled = CompiledInstance(instance)
    for f in queries:
        assert compiled.risk(f) == global_risk(f, instance), f


def constant_queries(instance, extra=()):
    labels = instance.all_labels()
    lo, hi = min(labels), max(labels)
    out = list(labels) + [lo - 1, hi + 1, F(lo + hi) / 2, F(1, 3), *extra]
    return out + [ConstantChoice(v) for v in out[:3]]


# ---------------------------------------------------------------------------
# compiled risk == global_risk, exactly
# ---------------------------------------------------------------------------


@EXAMPLES
@given(label_lists(rationals), st.lists(rationals, max_size=4))
def test_compiled_constant_reals(label_lists_, probes):
    inst = constant_instance(label_lists_)
    assert_compiled_matches(inst, constant_queries(inst, probes))


@EXAMPLES
@given(
    label_lists(st.integers(-6, 6)),
    st.sets(st.integers(-8, 8), min_size=1, max_size=5),
)
def test_compiled_constant_finite_domain(label_lists_, domain_values):
    domain = ValueDomain.finite(domain_values)
    inst = constant_instance(label_lists_, domain)
    assert_compiled_matches(inst, constant_queries(inst, domain.values))


@EXAMPLES
@given(
    label_lists(st.tuples(xs_with_zero, rationals)),
    st.lists(rationals, max_size=4),
)
def test_compiled_linear_with_negative_and_zero_x(pair_lists, probes):
    inst = linear_instance(pair_lists)
    slopes = [y / x for a in inst.agents for x, y in zip(a.xs, a.labels) if x != 0]
    queries = slopes + list(probes) + [0, F(-7, 2)]
    assert_compiled_matches(inst, queries + [LinearChoice(s) for s in queries[:3]])


@EXAMPLES
@given(st.data())
def test_compiled_labelings_with_lotteries(data):
    m = data.draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(0, 1)] * m)
    menu = data.draw(st.lists(vector, min_size=2, max_size=4, unique=True))
    vectors = data.draw(st.lists(vector, min_size=1, max_size=5))
    inst = shared_binary_instance(vectors, menu)
    weights = data.draw(
        st.lists(st.integers(0, 6), min_size=len(menu), max_size=len(menu)).filter(any)
    )
    lottery = LabelingLottery(
        tuple((i, F(w, sum(weights))) for i, w in enumerate(weights))
    )
    queries = list(range(len(menu))) + [LabelingChoice(0), lottery]
    assert_compiled_matches(inst, queries)


def test_compiled_seeded_hard_instances():
    for inst in [gen_S(4, 2, 3, 7), gen_S(3, 1, 4, -4), gen_S_final(6, 2, 6, 50)]:
        assert_compiled_matches(inst, constant_queries(inst, advice_grid(inst, 21)))
    lin = gen_S_linear(5, 2, 3, 3)
    assert_compiled_matches(lin, advice_grid(lin, 21))
    rng = random.Random(7)
    for _ in range(50):
        pairs = [
            [(F(rng.randint(-4, 4), 2), F(rng.randint(-9, 9), 3)) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 4))
        ]
        inst = linear_instance(pairs)
        assert_compiled_matches(inst, [F(rng.randint(-20, 20), 6) for _ in range(10)])


def test_compiled_rejects_foreign_outcomes():
    compiled = CompiledInstance(constant_instance([[0, 1]]))
    with pytest.raises(ClassMismatchError):
        compiled.risk(LinearChoice(1))
    labeled = CompiledInstance(shared_binary_instance([(0, 1)]))
    with pytest.raises(ClassMismatchError):
        labeled.risk(LabelingChoice(2))


@EXAMPLES
@given(
    label_lists(st.floats(-1000, 1000, allow_nan=False)),
    st.lists(st.floats(-1000, 1000, allow_nan=False), min_size=1, max_size=4),
)
def test_compiled_float_labels_match_global_risk(label_lists_, probes):
    inst = constant_instance(label_lists_)
    compiled = CompiledInstance(inst)
    for a in list(inst.all_labels()) + probes:
        assert compiled.risk(a) == global_risk(a, inst)
    lin = linear_instance(
        [[(y / 7 + 0.5, -y) for y in labels] for labels in label_lists_]
    )
    compiled = CompiledInstance(lin)
    for a in probes:
        assert compiled.risk(a) == global_risk(a, lin)


def test_float_query_on_exact_instance_matches_global_risk():
    inst = constant_instance([[0, F(1, 3)], [1]])
    lin = linear_instance([[(3, 1), (0, 2)], [(-1, F(1, 3))]])
    for a in (0.1, F(1, 3) + 0.0, 1e-17, -2.5):
        assert CompiledInstance(inst).risk(a) == global_risk(a, inst)
        assert CompiledInstance(lin).risk(a) == global_risk(a, lin)


def test_unanimous_float_labels_keep_ratio_one():
    # ten labels of 0.1: a prefix sum in floats ends at 0.9999999999999999,
    # which would give the optimal constant a risk of about 1e-17 and a
    # zero optimum an infinite ratio
    inst = constant_instance([[0.1] * 5, [0.1] * 5])
    assert CompiledInstance(inst).risk(0.1) == 0
    assert approximation_ratio(pfa_mechanism(1), inst, 0.1) == 1
    row = pfa_family().frontier_row(1, [inst])
    assert row.consistency == 1 and row.ok
    rows = error_interpolation_check(1, inst, [0.1, 0.5, 1000.0])
    assert [(r.ratio, r.ok) for r in rows] == [(1, True)] * 3
    lin = linear_instance([[(2.0, 0.2)] * 5, [(1.0, 0.1)] * 5])
    row = lpfa_family().frontier_row(1, [lin])
    assert row.consistency == 1 and row.ok


# ---------------------------------------------------------------------------
# the integer kernel against plain per-point sums written here
# ---------------------------------------------------------------------------


def plain_risk(f, agents, cls):
    """The average loss of f over the points (x, y) of `agents`, summed point by
    point in plain Fraction arithmetic (float arithmetic when a float is
    involved), lotteries as the probability-weighted sum of their branches."""
    if isinstance(f, LabelingLottery):
        return sum(p * plain_risk(i, agents, cls) for i, p in f.branches if p != 0)
    g = f.value if isinstance(f, ConstantChoice) else f.slope if isinstance(f, LinearChoice) else f
    g = f.index if isinstance(f, LabelingChoice) else g
    exact = lambda v: v if isinstance(v, float) else F(v)  # noqa: E731
    total, count = 0, 0
    for a in agents:
        for j, (x, y) in enumerate(zip(a.xs, a.labels)):
            if isinstance(cls, LabelingsClass):
                total += 0 if cls.labelings[g][j] == y else 1
            elif isinstance(cls, LinearClass):
                total += abs(exact(g) * exact(x) - exact(y))
            else:
                total += abs(exact(g) - exact(y))
            count += 1
    return total / count if isinstance(total, float) else F(total) / count


def assert_kernel_matches(instance, queries):
    """global_risk, CompiledInstance.risk and every agent's personal_risk
    against `plain_risk`: equal exactly, and a float exactly when the
    plain sum is one."""
    cls = instance.function_class
    compiled = CompiledInstance(instance)
    for f in queries:
        expected = plain_risk(f, instance.agents, cls)
        for got in (global_risk(f, instance), compiled.risk(f)):
            assert got == expected and type(got) is type(expected), (f, got, expected)
        for agent in instance.agents:
            expected = plain_risk(f, [agent], cls)
            got = personal_risk(f, agent, cls)
            assert got == expected and type(got) is type(expected), (f, got, expected)


exact_values = st.one_of(
    st.integers(-12, 12), st.builds(F, st.integers(-60, 60), st.integers(1, 12))
)
wide_queries = st.builds(F, st.integers(-10**9, 10**9), st.integers(1, 10**9))


@EXAMPLES
@given(label_lists(exact_values), st.lists(st.one_of(exact_values, wide_queries), max_size=4))
def test_kernel_constant_against_plain_sums(label_lists_, probes):
    inst = constant_instance(label_lists_)
    grid = advice_grid(inst, 21) if len(set(inst.all_labels())) > 1 else ()
    queries = [*probes, *grid, *inst.all_labels()[:3], ConstantChoice(F(-7, 3))]
    assert_kernel_matches(inst, queries)


@EXAMPLES
@given(
    label_lists(st.tuples(st.one_of(st.just(0), xs_with_zero), exact_values)),
    st.lists(st.one_of(exact_values, wide_queries), max_size=4),
)
def test_kernel_linear_against_plain_sums(pair_lists, probes):
    inst = linear_instance(pair_lists)
    queries = [*probes, *advice_grid(inst, 21), 0, LinearChoice(F(5, 2))]
    assert_kernel_matches(inst, queries)


@EXAMPLES
@given(st.data())
def test_kernel_lotteries_against_plain_sums(data):
    m = data.draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(0, 1)] * m)
    menu = data.draw(st.lists(vector, min_size=2, max_size=4, unique=True))
    inst = shared_binary_instance(data.draw(st.lists(vector, min_size=1, max_size=5)), menu)
    weights = data.draw(
        st.lists(st.integers(0, 10**6), min_size=len(menu), max_size=len(menu)).filter(any)
    )
    lottery = LabelingLottery(tuple((i, F(w, sum(weights))) for i, w in enumerate(weights)))
    floats = LabelingLottery(((0, 0.25), (1, 0.75)))
    assert_kernel_matches(inst, [*range(len(menu)), LabelingChoice(1), lottery, floats])


finite_floats = st.floats(-1000, 1000, allow_nan=False)


@EXAMPLES
@given(
    label_lists(st.one_of(exact_values, finite_floats)),
    st.lists(st.one_of(exact_values, finite_floats), min_size=1, max_size=4),
)
def test_kernel_float_inputs_keep_the_float_path(label_lists_, probes):
    inst = constant_instance(label_lists_)
    assert_kernel_matches(inst, probes + [0.5])
    lin = linear_instance(
        [[(0.5 if isinstance(y, float) else F(1, 3), y) for y in labels] for labels in label_lists_]
    )
    assert_kernel_matches(lin, probes + [0.5])


@EXAMPLES
@given(
    st.one_of(exact_values, wide_queries, finite_floats),
    st.one_of(exact_values, wide_queries, finite_floats).filter(lambda d: d != 0),
)
def test_exact_div_against_plain_division(num, den):
    got = exact_div(num, den)
    if isinstance(num, float) or isinstance(den, float):
        assert type(got) is float and got == num / den
    else:
        assert type(got) is F and got == F(num) / F(den)


sample_weights = st.one_of(
    st.just(0), st.integers(1, 5), st.builds(F, st.integers(0, 9), st.integers(1, 6))
)


@EXAMPLES
@given(
    st.lists(
        st.tuples(exact_values, sample_weights), min_size=1, max_size=8
    ).filter(lambda entries: sum(w for _, w in entries) > 0),
    st.one_of(exact_values, wide_queries),
)
def test_median_oracle_and_sample_risk_against_plain_fractions(entries, a):
    sample = WeightedSample(tuple(entries))
    total = sum(F(w) for _, w in entries)
    assert sample.risk(a) == sum(F(w) * abs(F(a) - F(v)) for v, w in entries) / total
    # the plain oracle: sort the (value, weight) pairs, drop zero weights,
    # and walk up (lo) and down (hi) until half the weight is passed
    items = sorted((v, w) for v, w in entries if w > 0)
    acc, lo = 0, None
    for v, w in items:
        acc += w
        if 2 * acc >= total:
            lo = v
            break
    acc, hi = 0, None
    for v, w in reversed(items):
        acc += w
        if 2 * acc >= total:
            hi = v
            break
    got = weighted_median_bounds(sample)
    assert got == (lo, hi) and tuple(map(type, got)) == (type(lo), type(hi))


def plain_optimum(domain, entries):
    """The largest minimizer of the weighted absolute loss of the (value,
    weight) pairs, in plain Fractions.  On the real line: sort the pairs
    with positive weight, and walk down from the top until half the weight
    is passed.  On a finite domain: the largest domain value of least
    loss, scanned."""
    entries = [(F(v), F(w)) for v, w in entries]
    if domain.is_reals:
        items = sorted((v, w) for v, w in entries if w > 0)
        total = sum(w for _, w in items)
        acc = 0
        for v, w in reversed(items):
            acc += w
            if 2 * acc >= total:
                return v
    losses = {c: sum(w * abs(c - v) for v, w in entries) for c in domain.values}
    return max(c for c, loss in losses.items() if loss == min(losses.values()))


# int and Fraction values of equal value (2 and 4/2), and finite domains of them
median_values = st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-6, 6), st.integers(1, 2)))
median_domains = st.one_of(st.just(REALS), st.sets(median_values, min_size=1, max_size=4).map(ValueDomain.finite))


@EXAMPLES
@given(st.lists(median_values, min_size=1, max_size=6), median_domains)
def test_constant_projection_against_a_plain_walk(labels, domain):
    got = projection(domain, ConstantClass(domain), (0,) * len(labels), labels)
    assert got == (plain_optimum(domain, [(y, 1) for y in labels]), len(labels))


@EXAMPLES
@given(st.lists(st.tuples(xs_with_zero, rationals), min_size=1, max_size=6))
def test_linear_projection_against_a_plain_walk(points):
    xs, labels = zip(*points)
    entries = [(F(y) / x, abs(x)) for x, y in points if x != 0]
    got = projection(REALS, LinearClass(), xs, labels)
    if not entries:
        assert got == SLOPE_INVISIBLE
    else:
        assert got == (plain_optimum(REALS, entries), sum(w for _, w in entries))


# lam = 1/2, 1/4 and 0 (gamma 2): with sizes in quarters no float sum rounds
DYADIC_GAMMAS = (F(2, 3), F(6, 5), 2)


@EXAMPLES
@given(st.data())
def test_pfa_fit_against_a_plain_walk(data):
    floats = data.draw(st.booleans(), "float sizes")
    sizes = (
        st.one_of(st.integers(1, 4), st.sampled_from((0.25, 0.5, 1.5, 2.75)))
        if floats
        else st.one_of(st.integers(1, 4), st.builds(F, st.integers(1, 8), st.integers(1, 3)))
    )
    gamma = data.draw(st.sampled_from(DYADIC_GAMMAS if floats else DYADIC_GAMMAS + (F(1, 4), 1)), "gamma")
    domain = data.draw(median_domains, "domain")
    projections = data.draw(st.lists(st.tuples(median_values, sizes), min_size=1, max_size=5), "projections")
    advice = data.draw(median_values if domain.is_reals else st.sampled_from(domain.values), "advice")
    got = pfa_fit(PfaConfig(gamma, domain), projections, advice)
    advice_weight = confidence_weight(gamma) * sum(w for _, w in projections)
    expected = ConstantChoice(plain_optimum(domain, [*projections, (advice, advice_weight)]))
    assert got == expected and kinds(got) == kinds(expected)


# ---------------------------------------------------------------------------
# pfa_ends: on the real line the fit is the advice clamped between two ends
# ---------------------------------------------------------------------------

# lam 7/9, 1/2, 1/3, 1/4 and 0 (gamma 2, where the advice weighs nothing)
CLAMP_GAMMAS = (F(1, 4), F(2, 3), 1, F(6, 5), 2)
exact_sizes = st.one_of(st.integers(1, 4), st.builds(F, st.integers(1, 8), st.integers(1, 3)))
clamp_profiles = st.lists(st.tuples(median_values, exact_sizes), min_size=1, max_size=5)


def other_types(profile):
    """The profile with each int as a Fraction and each integral Fraction
    as an int: equal to it, and to a dict the same key."""
    def swap(v):
        if isinstance(v, int):
            return F(v)
        return v.numerator if v.denominator == 1 else v

    return tuple(proj if proj == SLOPE_INVISIBLE else tuple(map(swap, proj)) for proj in profile)


def clamp_advices(values, extra):
    """Every projection value, one value below them all and one above, and
    `extra`."""
    return [*values, min(values) - 1, max(values) + 1, *extra] if values else list(extra)


@EXAMPLES
@given(st.sampled_from(CLAMP_GAMMAS), clamp_profiles, st.lists(median_values, min_size=1, max_size=3))
def test_pfa_ends_clamp_is_pfa_fit(gamma, projections, extra):
    # small int weights put many medians at exactly half the total weight
    cfg = PfaConfig(gamma)
    lo, hi = pfa_ends(cfg, projections)
    mech = pfa_mechanism(gamma)
    profile = tuple(projections)
    for advice in clamp_advices([b for b, _ in projections], extra):
        expected = pfa_fit(cfg, projections, advice)
        clamped = ConstantChoice(min(max(advice, lo), hi))
        assert clamped == expected and kinds(clamped) == kinds(expected), advice
        # the mechanism's fit, whose memo the second, equal profile reads
        for asked in (profile, other_types(profile)):
            got = mech.fit(ConstantClass(), advice)(asked)
            assert got == expected and kinds(got) == kinds(expected), (asked, advice)
        # float advice equal to an end: the fit, not the clamp, picks the type
        expected = pfa_fit(cfg, projections, float(advice))
        got = mech.fit(ConstantClass(), float(advice))(profile)
        assert got == expected and kinds(got) == kinds(expected), float(advice)


@EXAMPLES
@given(st.sampled_from(CLAMP_GAMMAS), st.sets(median_values, min_size=1, max_size=4), st.data())
def test_pfa_fit_clamps_on_a_finite_exact_domain(gamma, values, data):
    # projections and advice are domain values; each integral one also as the other exact type
    domain = ValueDomain.finite(values)
    members = st.tuples(st.sampled_from(domain.values), exact_sizes)
    profile = tuple(data.draw(st.lists(members, min_size=1, max_size=5), "profile"))
    cfg = PfaConfig(gamma, domain)
    mech = pfa_mechanism(gamma, domain)
    for advice in [F(v) for v in domain.values] + [int(v) for v in domain.values if v == int(v)]:
        expected = pfa_fit(cfg, profile, advice)
        for asked in (profile, other_types(profile)):
            got = mech.fit(ConstantClass(domain), advice)(asked)
            assert got == expected and kinds(got) == kinds(expected), (asked, advice)


def test_pfa_fit_on_a_float_domain_keeps_the_domain_value():
    # 1/2 == 0.5: a clamp would return the exact advice, the fit the domain's float
    domain = ValueDomain.finite([0.5, 1.0, 2])
    profile = ((0.5, 2), (2, 1))
    got = pfa_mechanism(1, domain).fit(ConstantClass(domain), F(1, 2))(profile)
    expected = pfa_fit(PfaConfig(1, domain), profile, F(1, 2))
    assert got == expected == ConstantChoice(0.5)
    assert kinds(got) == kinds(expected) == (ConstantChoice, (float,))


@EXAMPLES
@given(
    st.sampled_from(CLAMP_GAMMAS),
    st.lists(st.one_of(st.just(SLOPE_INVISIBLE), st.tuples(median_values, exact_sizes)), min_size=1, max_size=5),
    st.lists(median_values, min_size=1, max_size=3),
)
def test_lpfa_fit_clamps_the_visible_projections(gamma, profile, extra):
    # some profiles are partly slope-invisible, some fully, where the fit is the advice
    cfg = PfaConfig(gamma)
    mech = lpfa_mechanism(gamma)
    profile = tuple(profile)
    for advice in clamp_advices([proj[0] for proj in profile if proj != SLOPE_INVISIBLE], extra):
        expected = lpfa_fit(cfg, profile, advice)
        for asked in (profile, other_types(profile)):
            got = mech.fit(LinearClass(), advice)(asked)
            assert got == expected and kinds(got) == kinds(expected), (asked, advice)


def reference_pfa_ends(cfg, projections):
    """`pfa_ends` by its definition: `pfa_fit` on the real line with the
    advice at the least projection and at the greatest, each one call to
    the median kernel with the advice as a phantom projection, on the
    values and sizes scaled to ints over one common denominator and, for
    lam = p/q, the scaled sizes times q and the advice's weight p times
    their sum, as `pfa_fit` scales them."""
    values, sizes = [b for b, _ in projections], [w for _, w in projections]
    p, q = cfg.lam.numerator, cfg.lam.denominator
    _, keys = _common(values + sizes)
    keys, sizes = keys[: len(values)], keys[len(values) :]
    weights = [w * q for w in sizes] + [p * sum(sizes)]
    phantoms = min(zip(keys, values)), max(zip(keys, values))
    return tuple(_optima(REALS, [*values, b], weights, [*keys, k])[-1] for k, b in phantoms)


@EXAMPLES
@given(
    st.sampled_from(CLAMP_GAMMAS),
    st.lists(st.tuples(median_values, exact_sizes), min_size=1, max_size=6),
)
def test_pfa_ends_is_the_two_phantom_fits(gamma, projections):
    # Fraction sizes are lpfa's |x| weights; small ints put many scans at exactly half
    cfg = PfaConfig(gamma)
    got, expected = pfa_ends(cfg, projections), reference_pfa_ends(cfg, projections)
    assert got == expected
    # 4 and Fraction(4) may tie, and either is an end: the outcomes agree in type
    for choice in (ConstantChoice, LinearChoice):
        for end, reference in zip(got, expected):
            assert kinds(choice(end)) == kinds(choice(reference)), (choice, end, reference)


def test_pfa_ends_meets_half_the_weight_exactly():
    # lam 1/2: projection weights of total Q = 4 and the advice's A = 2, so
    # T/2 = 3.  Weights 1, 1, 2 at 3, 1, 0: at 3, G + A = 1 + 2 is exactly
    # T/2, so R is 3; L is 0, where G first reaches 3.  Weights 2, 1, 1 at
    # 3, 1, 0: R is 3 again, and at 1, G = 3 is exactly T/2, so L is 1.
    cfg = PfaConfig(F(2, 3))
    cases = [
        ([(3, 1), (1, 1), (0, 2)], (0, 3)),
        ([(F(3), F(2, 2)), (1, F(1)), (0, 2)], (0, 3)),
        ([(0, 1), (1, 1), (3, 2)], (1, 3)),
        ([(F(3), F(4, 2)), (1, F(1)), (0, 1)], (1, 3)),
    ]
    for projections, ends in cases:
        assert pfa_ends(cfg, projections) == reference_pfa_ends(cfg, projections) == ends
    # gamma 2, lam 0: both ends are the upper weighted median, here at exactly half
    assert pfa_ends(PfaConfig(2), [(0, 1), (2, 1)]) == reference_pfa_ends(PfaConfig(2), [(0, 1), (2, 1)]) == (2, 2)


def test_pfa_ends_single_agent_and_exact_half_ties():
    # one agent: both ends are its projection, whatever the gamma
    for gamma in CLAMP_GAMMAS:
        assert pfa_ends(PfaConfig(gamma), [(F(1, 2), 3)]) == (F(1, 2), F(1, 2))
    # lam 1/2: projections 0, 1 and 3 of weights 1, 1 and 2 and the advice of
    # weight 2 put exactly half the total at or above 1 with the advice at 0
    cfg = PfaConfig(F(2, 3))
    projections = [(0, 1), (1, 1), (3, 2)]
    assert pfa_ends(cfg, projections) == (1, 3)
    for advice in (-1, 0, 1, 2, 3, 4):
        assert pfa_fit(cfg, projections, advice) == ConstantChoice(min(max(advice, 1), 3))
    # gamma 2: the advice weighs nothing, and the fit is the upper median
    assert pfa_ends(PfaConfig(2), [(0, 1), (2, 1)]) == (2, 2)


def test_lpfa_fit_keeps_float_profiles_off_the_memo():
    # (0.5, 1) == (1/2, 1): a float profile must not read the ends of an
    # equal exact one, whose outcome would be exact
    mech = lpfa_mechanism(1)
    for profile in (((F(1, 2), 1), (2, 1)), ((0.5, 1), (2.0, 1))):
        got = mech.fit(LinearClass(), 3)(profile)
        expected = lpfa_fit(PfaConfig(1), profile, 3)
        assert got == expected and kinds(got) == kinds(expected), profile


# ---------------------------------------------------------------------------
# fit from the signature profile == the plain mechanism on the reported data
# ---------------------------------------------------------------------------


def every_misreport(instance, space):
    """Each instance reachable by one agent relabeling its points within the
    misreport space, the truthful one included."""
    yield instance
    for i, agent in enumerate(instance.agents):
        for labels in space.reports(agent):
            yield instance.with_agent_labels(i, labels)


def kinds(outcome):
    """An outcome's type and the types of the values it holds."""
    if isinstance(outcome, LabelingLottery):
        return type(outcome), tuple(type(v) for branch in outcome.branches for v in branch)
    return type(outcome), tuple(type(getattr(outcome, name)) for name in outcome._fields)


def assert_fit_matches(mech, plain, instance, advices, space):
    """On every misreport the fit and `outcome()` equal `plain` in value
    and the definition `fn` in value and type."""
    cls = instance.function_class
    for reported in every_misreport(instance, space):
        profile = mech.profile(reported)
        for advice in advices:
            expected, definition = plain(reported, advice), mech.fn(reported, advice)
            got = mech.fit(cls, advice)(profile)
            assert got == expected == definition, (reported, advice)
            assert kinds(got) == kinds(definition), (reported, advice)
            outcome = mech.outcome(reported, advice)
            assert outcome == expected and kinds(outcome) == kinds(definition), (reported, advice)


def test_outcome_matches_fn_in_type_after_an_equal_outcome_of_another_type():
    # both outcomes equal 1: the second instance's profile holds the label 1/1
    mech = pfa_mechanism(1)
    for inst in (constant_instance([[1], [1]]), constant_instance([[F(1)], [2], [0]])):
        got, definition = mech.outcome(inst, 1), mech.fn(inst, 1)
        assert got == definition and kinds(got) == kinds(definition), inst


@pytest.mark.parametrize("gamma", [F(1, 4), F(2, 3), 1, 2])
def test_pfa_fit_matches_pfa_on_every_misreport(gamma):
    rng = random.Random(11)
    levels = (-1, 0, F(1, 2), 2)
    for domain in (REALS, ValueDomain.finite((-1, 0, 2))):
        mech = pfa_mechanism(gamma, domain)
        cfg = PfaConfig(gamma, domain)
        advices = (-1, 0, 2) if domain.values else (-1, F(1, 3), 2)
        for _ in range(6):
            inst = constant_instance(
                [[rng.choice((-1, 0, 2)) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 3))],
                domain,
            )
            assert_fit_matches(
                mech, lambda reported, advice: pfa(cfg, reported, advice),
                inst, advices, GridLabels(levels),
            )


def median_oracle_lpfa(gamma, instance, advice):
    """lpfa through the weighted-median oracle alone: each agent's upper
    weighted median of y/x by |x|, then the upper weighted median of those
    by the agents' total |x| and of the advice at lam times their sum."""
    entries = []
    for a in instance.agents:
        own = [(exact_div(y, x), abs(x)) for x, y in zip(a.xs, a.labels) if x != 0]
        if own:
            sample = WeightedSample(tuple(own))
            entries.append((erm_constant(REALS, sample), sample.total_weight))
    if not entries:
        return LinearChoice(advice)
    advice_weight = confidence_weight(gamma) * sum(w for _, w in entries)
    if advice_weight > 0:
        entries.append((advice, advice_weight))
    return LinearChoice(erm_constant(REALS, WeightedSample(tuple(entries))))


@pytest.mark.parametrize("gamma", [F(1, 4), 1, 2])
def test_lpfa_fit_matches_lpfa_on_every_misreport(gamma):
    rng = random.Random(12)
    levels = (-2, 0, F(1, 2), 3)
    mech = lpfa_mechanism(gamma)
    corpus = [
        linear_instance([[(0, 1), (0, -2)], [(0, 5)]]),  # every agent slope-invisible
        linear_instance([[(0, 1), (0, 3)], [(2, 1)], [(-1, 2), (0, 1)]]),
        # float x: float values and weights, which pfa_fit leaves unscaled
        linear_instance([[(0.5, 1), (1.5, -2)], [(2.0, 3), (0, 1)], [(-0.25, 0)]]),
        linear_instance([[(0.1, 1), (0.2, 1)], [(0.3, 3)], [(1, 2)]]),
        # at gamma 1 and advice 0, float sums of sizes scaled by lam's
        # denominator round differently from the oracle's lam * sum(w_i)
        linear_instance([[(0.25, 0)], [(0.3, 1)], [(1.1, -2)]]),
        linear_instance([[(0.7, 1)], [(0.3, 3)], [(0.5, -2)]]),
        # float projections that tie: equal weights on both sides of the median
        linear_instance([[(0.5, F(1, 2))], [(0.5, 3)], [(0.5, 0)], [(0.5, -2)]]),
        linear_instance([[(0.25, 3)], [(0.25, 3)], [(0.25, 0), (0.25, 0)]]),
    ]
    for _ in range(5):
        corpus.append(
            linear_instance(
                [
                    [(rng.choice((-2, -1, 0, 1, 3)), rng.choice(levels)) for _ in range(rng.randint(1, 3))]
                    for _ in range(rng.randint(1, 3))
                ]
            )
        )
    for inst in corpus:
        for plain in (lpfa, median_oracle_lpfa):
            assert_fit_matches(
                mech, lambda reported, advice: plain(gamma, reported, advice),
                inst, (F(-3, 2), 0, 2), GridLabels(levels),
            )


def test_mean_fit_matches_the_plain_average_on_every_misreport():
    rng = random.Random(13)
    mech = mean_mechanism()

    def plain(reported, advice):
        labels = reported.all_labels()
        return ConstantChoice(F(sum(labels), len(labels)))

    for _ in range(8):
        inst = constant_instance(
            [[rng.choice((-1, 0, F(1, 2), 2)) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 3))]
        )
        assert_fit_matches(mech, plain, inst, (0,), GridLabels((-1, 0, F(1, 3), 2)))


def test_mean_fit_leaves_float_totals_to_the_mechanism():
    # 0.1 + 0.2 + 0.7 sums to 1.0 in one order and 0.9999999999999999 in another
    mech = mean_mechanism()
    inst = constant_instance([[0.1, 0.2], [0.7]])
    expected = mech.fn(inst, 0)
    got = mech.outcome(inst, 0)
    assert got == expected and type(got.value) is type(expected.value)
    ratio = approximation_ratio(mech, inst, 0)
    expected_ratio = risk_ratio(global_risk(expected, inst), brute_force_optimal_risk(inst))
    assert ratio == expected_ratio and type(ratio) is type(expected_ratio)


@pytest.mark.parametrize("gamma", [F(1, 4), F(1, 2), 1])
def test_srda_fits_match_srda_on_every_binary_misreport(gamma):
    rng = random.Random(14)
    for _ in range(6):
        m = rng.randint(1, 4)
        vectors = [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(rng.randint(1, 4))]
        space = AllBinaryVectors(m)
        for literal in (False, True):
            assert_fit_matches(
                srda_mechanism(gamma, literal),
                lambda reported, advice: srda(gamma, reported, advice, literal),
                shared_binary_instance(vectors), (0, 1), space,
            )
        if m < 2:
            continue
        first = tuple(rng.randint(0, 1) for _ in range(m))
        second = tuple(rng.randint(0, 1) for _ in range(m - 1)) + (1 - first[-1],)
        two = shared_binary_instance(vectors, (first, second))
        for literal in (False, True):
            assert_fit_matches(
                srda_two_labeling_mechanism(gamma, literal),
                lambda reported, advice: srda_two_labeling(gamma, reported, advice, literal),
                two, (0, 1), space,
            )
        assert_fit_matches(
            pfa_two_labeling_mechanism(gamma),
            lambda reported, advice: pfa_two_labeling(gamma, reported, advice),
            two, (0, 1), space,
        )


def test_lpfa_fit_on_all_zero_x_returns_advice():
    inst = linear_instance([[(0, 1)], [(0, 4)]])
    mech = lpfa_mechanism(1)
    assert mech.outcome(inst, F(7, 3)) == LinearChoice(F(7, 3)) == lpfa(1, inst, F(7, 3))


# ---------------------------------------------------------------------------
# the fit path keeps every ClassMismatchError of the plain path
# ---------------------------------------------------------------------------

BINARY = ValueDomain.finite((0, 1))


@pytest.mark.parametrize(
    "mech, instance, advice",
    [
        (pfa_mechanism(1), linear_instance([[(1, 2)], [(2, 1)]]), 1),
        (pfa_mechanism(1), constant_instance([[0], [1]], BINARY), 1),
        (pfa_mechanism(1, BINARY), constant_instance([[0], [1]]), 1),
        (pfa_mechanism(1, BINARY), constant_instance([[0], [1]], BINARY), F(1, 2)),
        (pfa_mechanism(1), shared_binary_instance([(0, 1), (1, 1)]), 1),
        (lpfa_mechanism(1), constant_instance([[0], [1]]), 1),
        (srda_mechanism(1), shared_binary_instance([(0, 1), (1, 1)], ((0, 1), (1, 0))), 1),
        (srda_mechanism(1), shared_binary_instance([(0, 1), (1, 1)]), 2),
        (srda_mechanism(1), constant_instance([[0], [1]]), 1),
        (pfa_two_labeling_mechanism(1), shared_binary_instance([(0, 1)], ((0, 1), (1, 0), (1, 1))), 1),
        (pfa_two_labeling_mechanism(1), shared_binary_instance([(0, 1)], ((0, 1), (1, 0))), 2),
        (srda_two_labeling_mechanism(1), shared_binary_instance([(0, 1)], ((0, 1), (1, 0))), 2),
    ],
    ids=["pfa-linear", "pfa-reals-on-binary", "pfa-binary-on-reals", "pfa-advice-outside",
         "pfa-labelings", "lpfa-constant", "srda-not-c0c1", "srda-advice-outside",
         "srda-constant", "pfa-two-labeling-three-labelings", "pfa-two-labeling-advice-outside",
         "srda-two-labeling-advice-outside"],
)
def test_fit_path_keeps_class_checks(mech, instance, advice):
    with pytest.raises(ClassMismatchError):
        mech.fn(instance, advice)
    for _ in range(2):  # a second call must not be answered from the cache
        with pytest.raises(ClassMismatchError):
            mech.outcome(instance, advice)
    space = GridLabels((0, 1))
    with pytest.raises(ClassMismatchError):
        check_strategyproof(mech, instance, advice, space)
    with pytest.raises(ClassMismatchError):
        check_group_strategyproof(mech, instance, advice, space, 2)


@pytest.mark.parametrize(
    "mech", [srda_mechanism(F(3, 2)), srda_two_labeling_mechanism(F(3, 2))], ids=["srda", "srda-two-labeling"]
)
def test_srda_fit_path_keeps_the_gamma_check(mech):
    instance = shared_binary_instance([(0, 1), (1, 1)])
    for _ in range(2):
        with pytest.raises(ValueError, match="gamma"):
            mech.outcome(instance, 1)
    with pytest.raises(ValueError, match="gamma"):
        check_strategyproof(mech, instance, 1, AllBinaryVectors(2))
