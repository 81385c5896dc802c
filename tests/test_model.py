"""Core model tests: risks, the weighted-median oracle, and advice errors.

Derived expectations are frozen from independent brute-force oracles that
never touch the median logic under test.
"""

import random
from decimal import Decimal
from fractions import Fraction as F

import pytest

from advicemech import (
    REALS,
    AgentDataset,
    Instance,
    InvalidInstanceError,
    LabelingLottery,
    LabelingsClass,
    ValueDomain,
    WeightedSample,
    advice_error_constant,
    augmented_risk,
    constant_instance,
    erm_constant,
    global_risk,
    linear_instance,
    personal_risk,
    shared_binary_instance,
    weighted_median_bounds,
)
from advicemech import audit, classification, hardness, learning, regression
from advicemech.audit import GridLabels
from advicemech.formats import InstanceParseError, parse_instance
from advicemech.hardness import gen_randomized_lb, lb_parameters
from advicemech.learning import AgentModel, required_sample_size, sup_global_gap
from advicemech.model import (
    ClassMismatchError,
    ConstantChoice,
    ConstantClass,
    FunctionClass,
    LabelingChoice,
    LinearChoice,
    LinearClass,
    Value,
    _bare_function,
    c0c1_class,
    class_entries,
    optimal_constant_set,
)
from advicemech.regression import map_to_constant_instance, mapped_optimal_set, optimal_slope_set


def brute_force_erm(domain_values, sample: WeightedSample):
    """Independent oracle: scan a candidate grid for the largest minimizer
    of the weighted absolute loss."""
    best, best_risk = None, None
    for c in sorted(domain_values):
        r = sample.risk(c)
        if best_risk is None or r <= best_risk:
            best, best_risk = c, r
    return best


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------


def test_rejects_empty_agent():
    with pytest.raises(InvalidInstanceError):
        AgentDataset(())


def test_rejects_nan_label():
    with pytest.raises(InvalidInstanceError):
        AgentDataset.from_labels([float("nan")])


def test_rejects_nonbinary_labels_in_labeling_instance():
    with pytest.raises(InvalidInstanceError):
        shared_binary_instance([(0, 2, 1)])


def test_rejects_mismatched_shared_inputs():
    cls = LabelingsClass(((0, 0), (1, 1)))
    good = AgentDataset(((0, 1), (1, 0)))
    bad = AgentDataset(((5, 1), (6, 0)))
    with pytest.raises(InvalidInstanceError):
        Instance((good, bad), cls)


def test_rejects_single_distinct_labeling():
    with pytest.raises(InvalidInstanceError):
        LabelingsClass(((0, 1), (0, 1)))


def test_domain_must_increase():
    with pytest.raises(InvalidInstanceError):
        ValueDomain.finite([1, 1, 2])
    with pytest.raises(InvalidInstanceError):
        ValueDomain((2, 1))


def refusals():
    """(id, call) for every check the datasets keep, through each entry
    point that can take the input: a non-finite x or label, an empty
    dataset and a misreport of the wrong length."""
    agent = AgentDataset(((1, 2), (F(1, 2), 3)))
    inst = linear_instance([[(1, 2), (F(1, 2), 3)], [(2, 0)]])
    for bad in (float("nan"), float("inf"), float("-inf")):
        yield f"x={bad}-pairs", lambda b=bad: AgentDataset(((1, 2), (b, 3)))
        yield f"x={bad}-linear_instance", lambda b=bad: linear_instance([[(1, 2)], [(b, 3)]])
        yield f"label={bad}-pairs", lambda b=bad: AgentDataset(((1, 2), (1, b)))
        yield f"label={bad}-from_labels", lambda b=bad: AgentDataset.from_labels([0, b])
        yield f"label={bad}-with_labels", lambda b=bad: agent.with_labels((2, b))
        yield f"label={bad}-with_agent_labels", lambda b=bad: inst.with_agent_labels(1, [b])
        yield f"label={bad}-linear_instance", lambda b=bad: linear_instance([[(1, b)], [(2, 3)]])
    yield "empty-pairs", lambda: AgentDataset(())
    yield "empty-from_labels", lambda: AgentDataset.from_labels([])
    yield "empty-Instance", lambda: Instance(((),), LinearClass())
    yield "empty-linear_instance", lambda: linear_instance([[(1, 2)], []])
    for labels in ((), (2,), (2, 3, 4)):
        yield f"length={len(labels)}-with_labels", lambda v=labels: agent.with_labels(v)
        yield f"length={len(labels)}-with_agent_labels", lambda v=labels: inst.with_agent_labels(0, v)


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in refusals()])
def test_every_dataset_entry_point_refuses_what_a_dataset_cannot_hold(call):
    with pytest.raises(InvalidInstanceError):
        call()


def non_numbers():
    """(id, call, field) for a non-number through every entry point that
    takes an x, a label, a domain value, a sample value or a weight."""
    agent = AgentDataset(((1, 2), (F(1, 2), 3)))
    inst = constant_instance([[0, 1], [2]])
    for bad in ("3", None, Decimal("3"), 1j, [1]):
        name = type(bad).__name__
        yield f"{name}-x-pairs", lambda b=bad: AgentDataset(((1, 2), (b, 3))), "point x"
        yield f"{name}-x-linear_instance", lambda b=bad: linear_instance([[(b, 1)]]), "point x"
        yield f"{name}-label-pairs", lambda b=bad: AgentDataset(((1, b),)), "label y"
        yield f"{name}-label-from_labels", lambda b=bad: AgentDataset.from_labels([0, b]), "label y"
        yield f"{name}-label-with_labels", lambda b=bad: agent.with_labels((2, b)), "label y"
        yield f"{name}-label-with_agent_labels", lambda b=bad: inst.with_agent_labels(1, [b]), "label y"
        yield f"{name}-label-constant_instance", lambda b=bad: constant_instance([[0], [b]]), "label y"
        yield f"{name}-domain-ValueDomain", lambda b=bad: ValueDomain((0, b)), "domain value"
        yield f"{name}-value-WeightedSample", lambda b=bad: WeightedSample(((b, 1),)), "sample value"
        yield f"{name}-weight-WeightedSample", lambda b=bad: WeightedSample(((0, 1), (1, b))), "sample weight"


@pytest.mark.parametrize("call, field", [pytest.param(c, f, id=name) for name, c, f in non_numbers()])
def test_every_entry_point_refuses_a_non_number_by_name(call, field):
    with pytest.raises(InvalidInstanceError, match=field):
        call()


def test_a_dataset_holds_ints_bools_fractions_and_finite_floats():
    agent = AgentDataset(((True, 1), (F(1, 2), False), (0.5, F(7, 3)), (-2, 2.5)))
    assert agent.labels == (1, False, F(7, 3), 2.5)
    assert WeightedSample(((True, F(1, 2)), (0.5, 1))).total_weight == F(3, 2)


@pytest.mark.parametrize("cls", [FunctionClass(), Value(), "constant", None], ids=["FunctionClass", "Value", "str", "None"])
def test_an_instance_refuses_a_class_it_cannot_score(cls):
    with pytest.raises(InvalidInstanceError, match="function class"):
        Instance((AgentDataset.from_labels([1]),), cls)


def documented_refusals():
    """(entry point, call, the type its docstring or message documents) for
    each refusal that no other test reaches."""
    constant = constant_instance([[0, 1], [2]])
    linear = linear_instance([[(1, 2)], [(2, 0)]])
    binary = shared_binary_instance([(0, 1), (1, 1)])
    model = AgentModel(((0, F(1, 2)), (1, F(1, 2))), ((0, 0), (1, 1)))
    yield "ValueDomain-empty", lambda: ValueDomain(()), InvalidInstanceError
    yield "LabelingsClass-one-labeling", lambda: LabelingsClass(((0, 1),)), InvalidInstanceError
    yield "LabelingsClass-non-binary", lambda: LabelingsClass(((0, 1), (2, 1))), InvalidInstanceError
    yield "Instance-no-agents", lambda: Instance((), ConstantClass()), InvalidInstanceError
    yield "Instance-labeling-length", lambda: Instance(binary.agents, c0c1_class(3)), InvalidInstanceError
    yield "shared_binary_instance-empty", lambda: shared_binary_instance([]), InvalidInstanceError
    yield "LabelingLottery-negative", lambda: LabelingLottery(((0, F(3, 2)), (1, F(-1, 2)))), InvalidInstanceError
    yield "augmented_risk-linear", lambda: augmented_risk(0, linear, 0, F(1, 2)), ClassMismatchError
    yield "augmented_risk-lambda-below", lambda: augmented_risk(0, constant, 0, -1), ValueError
    yield "augmented_risk-lambda-above", lambda: augmented_risk(0, constant, 0, F(3, 2)), ValueError
    yield "optimal_constant_set-linear", lambda: optimal_constant_set(linear), ClassMismatchError
    yield "class_entries-labelings", lambda: class_entries(binary.function_class, (0, 1), (0, 1)), ClassMismatchError
    yield "_bare_function-ConstantChoice", lambda: _bare_function(ConstantChoice(0), LinearClass()), ClassMismatchError
    yield "_bare_function-LabelingChoice", lambda: _bare_function(LabelingChoice(0), ConstantClass()), ClassMismatchError
    yield "_bare_function-non-index", lambda: _bare_function(F(1, 2), binary.function_class), ClassMismatchError
    yield "map_to_constant_instance-constant", lambda: map_to_constant_instance(constant), ClassMismatchError
    yield "optimal_slope_set-constant", lambda: optimal_slope_set(constant), ClassMismatchError
    yield "mapped_optimal_set-constant", lambda: mapped_optimal_set(constant), ClassMismatchError
    yield "AgentModel-empty-support", lambda: AgentModel((), ()), InvalidInstanceError
    yield "AgentModel-zero-probability", lambda: AgentModel(((0, 1), (1, 0)), ((0, 0), (1, 1))), InvalidInstanceError
    yield "required_sample_size-n", lambda: required_sample_size(0, F(1, 2), F(1, 2)), ValueError
    yield "required_sample_size-epsilon", lambda: required_sample_size(2, 0, F(1, 2)), ValueError
    yield "required_sample_size-delta", lambda: required_sample_size(2, F(1, 2), 1), ValueError
    yield "sup_global_gap-unequal-sizes", lambda: sup_global_gap([model, model], constant), InvalidInstanceError
    yield "lb_parameters-gamma", lambda: lb_parameters(3), ValueError
    yield "lb_parameters-scale", lambda: lb_parameters(2, 0), ValueError
    yield "gen_randomized_lb-variant", lambda: gen_randomized_lb(2, "triple"), InvalidInstanceError
    yield "parse_instance-domain", lambda: parse_instance('{"class": "constant", "domain": 3, "agents": [[1]]}'), InstanceParseError


@pytest.mark.parametrize("call, kind", [pytest.param(c, k, id=name) for name, c, k in documented_refusals()])
def test_each_documented_refusal_raises_its_type(call, kind):
    with pytest.raises(ValueError) as raised:
        call()
    assert raised.type is kind


@pytest.mark.parametrize(
    "entries",
    [((float("nan"), 1),), ((0, 1), (float("inf"), 1)), ((1, float("nan")),), ((0, 1), (1, float("inf")))],
    ids=["nan value", "inf value", "nan weight", "inf weight"],
)
def test_a_weighted_sample_refuses_a_non_finite_value_or_weight(entries):
    with pytest.raises(InvalidInstanceError):
        WeightedSample(entries)


@pytest.mark.parametrize(
    "weights, total",
    [((1, 2, 0), 3), ((F(1, 2), F(1, 3)), F(5, 6)), ((F(2), F(4), F(0)), 6), ((0.5, 0.25, 2.0), 2.75)],
    ids=["int", "Fraction", "integral Fraction", "float"],
)
def test_total_weight_is_the_sum_of_the_weights(weights, total):
    assert WeightedSample(tuple(zip(range(len(weights)), weights))).total_weight == total


def test_weights_must_be_nonnegative_with_positive_total():
    with pytest.raises(InvalidInstanceError):
        WeightedSample(((1, -1),))
    with pytest.raises(InvalidInstanceError):
        WeightedSample(((1, 0),))


def test_lottery_probabilities_sum_to_one():
    LabelingLottery(((0, F(1, 3)), (1, F(2, 3))))
    with pytest.raises(InvalidInstanceError):
        LabelingLottery(((0, F(1, 3)), (1, F(1, 3))))


def test_an_instance_is_exact_without_a_float_x_label_or_domain_value():
    finite = ValueDomain.finite((0, F(1, 2), 2))
    assert constant_instance([[0, F(1, 2)], [2]], finite).exact
    assert linear_instance([[(F(1, 3), 2)], [(-1, 0)]]).exact
    assert shared_binary_instance([(0, 1), (1, 1)]).exact
    assert not constant_instance([[0, 0.5], [2]]).exact  # a label
    assert not linear_instance([[(0.5, 2)], [(-1, 0)]]).exact  # an x
    assert not constant_instance([[0], [2]], ValueDomain.finite((0, 0.5, 2))).exact  # a domain value


def test_an_instance_computes_exact_once():
    inst = constant_instance([[0, 1], [2]])
    assert inst.exact
    # a second read does not scan the data again
    object.__setattr__(inst, "agents", constant_instance([[0.5]]).agents)
    assert inst.exact


# ---------------------------------------------------------------------------
# risks
# ---------------------------------------------------------------------------


def test_global_risk_constant_direct():
    assert global_risk(0, constant_instance([[0, 2]])) == 1


def test_global_risk_linear_zero_loss_fit():
    assert global_risk(1, linear_instance([[(2, 2), (1, 1)]])) == 0


def test_global_risk_labeling_zero_errors():
    # unanimous all-ones labels fit the all-ones labeling exactly
    inst = shared_binary_instance([(1, 1, 1)] * 2)
    assert global_risk(1, inst) == 0


def test_personal_risk_examples():
    assert personal_risk(1, AgentDataset.from_labels([1, 1, 1]), ConstantClass()) == 0
    agent = AgentDataset.from_labels([F(0), F(1)])
    assert personal_risk(F(1, 2), agent, ConstantClass()) == F(1, 2)


def test_lottery_risk_is_probability_weighted():
    inst = shared_binary_instance([(1, 0)])
    lottery = LabelingLottery(((0, F(1, 4)), (1, F(3, 4))))
    # both labelings err on exactly one of the two points
    assert global_risk(lottery, inst) == F(1, 2)


def test_risk_zero_iff_exact_fit():
    rng = random.Random(7)
    for _ in range(50):
        labels = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
        inst = constant_instance([labels])
        for a in range(-3, 4):
            r = global_risk(a, inst)
            assert r >= 0
            assert (r == 0) == all(y == a for y in labels)


# ---------------------------------------------------------------------------
# the weighted-median oracle
# ---------------------------------------------------------------------------


def test_erm_odd_median():
    assert erm_constant(REALS, WeightedSample.from_values([1, 2, 3])) == 2


def test_erm_tie_breaks_largest():
    assert erm_constant(REALS, WeightedSample.from_values([0, 1])) == 1


def test_erm_weighted_brute_force_frozen():
    sample = WeightedSample(((0, 2), (10, 1)))
    assert erm_constant(REALS, sample) == 0
    grid = [F(j, 2) for j in range(-2, 25)]
    assert brute_force_erm(grid + [0, 10], sample) == 0


def test_weighted_sample_risk_on_a_float_query_or_weight():
    # a float has no denominator: the plain weighted average of the losses
    sample = WeightedSample(((1, 2), (F(3, 2), 1)))
    assert sample.risk(0.1) == (2 * abs(0.1 - 1) + 1 * abs(0.1 - F(3, 2))) / 3
    floats = WeightedSample(((1, 0.3), (F(5, 2), 1.1)))
    a = F(2)
    assert floats.risk(a) == (0.3 * abs(a - 1) + 1.1 * abs(a - F(5, 2))) / (0.3 + 1.1)


def test_erm_finite_domain_nearest():
    sample = WeightedSample(((F("0.4"), 1),))
    assert erm_constant(ValueDomain.finite([0, 1]), sample) == 0


def test_erm_finite_domain_tie_prefers_largest():
    # candidates 0 and 1 both at distance 1/2
    sample = WeightedSample(((F(1, 2), 1),))
    assert erm_constant(ValueDomain.finite([0, 1]), sample) == 1


def test_weighted_median_characterization_random():
    rng = random.Random(123)
    for _ in range(300):
        entries = tuple(
            (rng.randint(-5, 5), F(rng.randint(1, 8), rng.randint(1, 4)))
            for _ in range(rng.randint(1, 7))
        )
        sample = WeightedSample(entries)
        v = erm_constant(REALS, sample)
        total = sample.total_weight
        at_most = sum(w for x, w in entries if x <= v)
        at_least = sum(w for x, w in entries if x >= v)
        assert 2 * at_most >= total and 2 * at_least >= total
        # maximality: nothing above v satisfies both sides
        above = sorted(x for x, _ in entries if x > v)
        if above:
            w_above = sum(w for x, w in entries if x >= above[0])
            assert 2 * w_above < total


def test_erm_matches_grid_brute_force():
    # instances of <= 12 points over a grid of <= 21 levels
    rng = random.Random(99)
    levels = [F(j, 2) for j in range(-10, 11)]
    for _ in range(300):
        values = [rng.choice(levels) for _ in range(rng.randint(1, 12))]
        sample = WeightedSample.from_values(values)
        assert erm_constant(REALS, sample) == brute_force_erm(set(values), sample)
        domain = ValueDomain.finite(levels)
        assert erm_constant(domain, sample) == brute_force_erm(levels, sample)


def test_finite_domain_optimum_matches_brute_force():
    # sparse integer domains against labels on a finer grid: the median
    # interval often holds no domain value, and its two neighbours can tie
    rng = random.Random(71)
    cases = [([F(1, 2)], (0, 1)), ([-1, 3], (-2, 1, 5)), ([F(5, 2), F(5, 2), 7], (2, 3, 9))]
    for _ in range(400):
        labels = [F(rng.randint(-16, 16), rng.choice((1, 2, 4))) for _ in range(rng.randint(1, 6))]
        cases.append((labels, rng.sample(range(-5, 6), rng.randint(1, 4))))
    outside = ties = 0
    for labels, values in cases:
        domain = ValueDomain.finite(values)
        sample = WeightedSample.from_values(labels)
        risks = [sample.risk(c) for c in domain.values]
        minimizers = tuple(c for c, r in zip(domain.values, risks) if r == min(risks))
        assert erm_constant(domain, sample) == brute_force_erm(domain.values, sample)
        assert brute_force_erm(domain.values, sample) == minimizers[-1]
        inst = constant_instance([labels], domain)
        assert optimal_constant_set(inst) == (minimizers, min(risks))
        lo, hi = weighted_median_bounds(sample)
        if not any(lo <= c <= hi for c in domain.values):
            outside += 1
            ties += len(minimizers) == 2
    assert outside > 100 and ties > 5, (outside, ties)


def test_single_peak_ordering():
    rng = random.Random(5)
    for _ in range(200):
        labels = [rng.randint(-6, 6) for _ in range(rng.randint(1, 9))]
        inst = constant_instance([labels])
        lo, hi = weighted_median_bounds(WeightedSample.from_values(labels))
        picks = sorted(rng.uniform(-8, 8) for _ in range(3))
        a, b, c = (F(x).limit_denominator(64) for x in picks)
        if hi < a < b < c:
            assert global_risk(a, inst) <= global_risk(b, inst) <= global_risk(c, inst)
        if a < b < c < lo:
            assert global_risk(a, inst) >= global_risk(b, inst) >= global_risk(c, inst)
        mid = global_risk(b, inst)
        assert mid <= max(global_risk(a, inst), global_risk(c, inst))


# ---------------------------------------------------------------------------
# augmented risk
# ---------------------------------------------------------------------------


def test_augmented_risk_lambda_zero_collapses():
    inst = constant_instance([[1, 4], [2]])
    for a in (-1, 0, F(3, 2), 5):
        assert augmented_risk(a, inst, 100, 0) == global_risk(a, inst)


def test_augmented_risk_direct_value():
    inst = constant_instance([[0, 2]])
    assert augmented_risk(0, inst, 2, F(1, 2)) == F(4, 3)


def test_augmented_risk_zero_at_unanimous_advice():
    inst = constant_instance([[3, 3], [3]])
    assert augmented_risk(3, inst, 3, F(1, 3)) == 0


def test_augmented_risk_equals_risk_on_augmented_multiset():
    # whenever lam*|S| is an integer, augmentation = literal advice copies
    rng = random.Random(11)
    for _ in range(100):
        labels = [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        inst = constant_instance([labels])
        size = len(labels)
        copies = rng.randint(0, size)
        lam = F(copies, size)
        advice = rng.randint(-4, 4)
        a = F(rng.randint(-8, 8), 2)
        augmented = constant_instance([labels + [advice] * copies])
        assert augmented_risk(a, inst, advice, lam) == global_risk(a, augmented)


# ---------------------------------------------------------------------------
# advice error
# ---------------------------------------------------------------------------


def test_advice_error_zero_for_optimal_advice():
    inst = constant_instance([[0, 0, 2]])
    assert advice_error_constant(inst, 0) == 0


def test_advice_error_frozen_value():
    inst = constant_instance([[0, 0, 2]])
    # brute force: optimum 0 with risk 2/3, distance 1
    assert advice_error_constant(inst, 1) == F(3, 2)


def test_advice_error_infinite_on_zero_risk_wrong_advice():
    inst = constant_instance([[0, 0]])
    assert advice_error_constant(inst, 1) == float("inf")
    assert advice_error_constant(inst, 0) == 0


def test_advice_error_uses_nearest_optimum_of_interval():
    # even instance: optimum interval [0, 2], advice inside costs nothing
    inst = constant_instance([[0, 2]])
    assert advice_error_constant(inst, 1) == 0
    assert advice_error_constant(inst, 4) == F(2, 1) / global_risk(2, inst)


def test_advice_error_on_a_finite_domain_uses_the_nearest_optimal_value():
    # 2 and 6 are the optimal domain values, each at risk 5/2; the advice 4
    # lies between them, where an interval of optima would cost nothing
    inst = constant_instance([[0, 6], [2, 6]], ValueDomain.finite([0, 2, 6]))
    assert advice_error_constant(inst, 4) == F(2) / F(5, 2)
    assert advice_error_constant(inst, 10) == F(4) / F(5, 2)
    assert advice_error_constant(inst, 6) == 0


def test_optimal_constant_set_finite_domain():
    inst = constant_instance([[F(2, 5)]], ValueDomain.finite([0, 1]))
    opt, best = optimal_constant_set(inst)
    assert opt == (0,) and best == F(2, 5)


# ---------------------------------------------------------------------------
# the Value contract of every value type
# ---------------------------------------------------------------------------


def value_examples():
    """One value of every `Value` type of the library."""
    two = shared_binary_instance([(0, 1, 1), (1, 0, 1)], [(0, 0, 1), (1, 1, 0)])
    return [
        ValueDomain((0, 1)),
        ConstantClass(),
        LinearClass(),
        LabelingsClass(((0, 1), (1, 0))),
        AgentDataset(((0, 1), (2, 3))),
        constant_instance([[0, 1], [2]]),
        WeightedSample(((1, 1), (2, F(1, 2)))),
        ConstantChoice(F(1, 2)),
        LinearChoice(1),
        LabelingChoice(1),
        LabelingLottery(((0, F(1, 3)), (1, F(2, 3)))),
        audit.GridLabels((0, 1)),
        audit.ProjectedConstant((0, 2)),
        audit.AllBinaryVectors(2),
        audit.Violation((0,), ((1,),), (F(1, 2),), (0,), F(1, 2)),
        audit.AuditReport((), 0, 5),
        audit.FrontierRow(1, F(3, 2), 2, 2, 5, True),
        audit.MECHANISMS["pfa"],
        audit.InterpolationRow(0, 0, 1, 2, True),
        regression.PfaConfig(1),
        regression.map_to_constant_instance(linear_instance([[(1, 2), (0, 1)], [(2, 2)]])),
        learning.AgentModel(((0, F(1, 2)), (1, F(1, 2))), ((0, 0), (1, 1))),
        learning.GapTrialRow(0, F(1, 4), 0),
        learning.CompositionTrial(0, 3, True, 1, 2, True),
        classification.two_labeling_reduce(two, 0),
        hardness.ZBlock(1, 0, 2),
    ]


def fields_of(value) -> tuple:
    return tuple(getattr(value, name) for name in value._fields)


def test_every_value_type_has_an_example():
    def subclasses(cls):
        return {cls, *(s for sub in cls.__subclasses__() for s in subclasses(sub))}

    library = {cls for cls in subclasses(Value) if cls.__module__.startswith("advicemech.")}
    examples = value_examples()
    assert {type(v) for v in examples} == library - {Value, FunctionClass}
    assert len(examples) == 26


@pytest.mark.parametrize("value", value_examples(), ids=lambda v: type(v).__name__)
def test_a_value_equals_by_type_and_fields(value):
    twin = object.__new__(type(value))
    twin.__dict__.update(value.__dict__)
    assert twin == value and not twin != value and hash(twin) == hash(value)
    other = type("Other", (Value,), {"_fields": value._fields})(*fields_of(value))
    assert other != value and value != other
    assert repr(other) == "Other" + repr(value)[len(type(value).__name__):]


@pytest.mark.parametrize("value", value_examples(), ids=lambda v: type(v).__name__)
def test_a_value_hashes_its_field_tuple(value):
    if isinstance(value, ConstantChoice):
        assert hash(value) == hash(value.value)
    elif isinstance(value, LabelingLottery):
        assert hash(value) == hash(value.branches)
    else:
        assert hash(value) == hash(fields_of(value))


@pytest.mark.parametrize("value", value_examples(), ids=lambda v: type(v).__name__)
def test_a_value_refuses_assignment_and_deletion(value):
    for name in (*value._fields, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_value_reprs_are_the_dataclass_forms():
    assert repr(ConstantClass()) == "ConstantClass(domain=ValueDomain(values=None))"
    assert repr(LinearClass()) == "LinearClass()"
    assert repr(GridLabels((0, 1))) == "GridLabels(levels=(0, 1), exact=True)"
    assert repr(WeightedSample(((1, 1),))) == "WeightedSample(entries=((1, 1),))"
    assert LinearChoice(1) != LabelingChoice(1)
    # `WeightedSample`'s scaled weights are no field: equal entries are equal
    assert WeightedSample(((1, F(1, 2)),)) == WeightedSample(((1, F(1, 2)),))
    with pytest.raises(TypeError):
        LinearClass(1)
