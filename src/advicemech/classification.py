"""Classification mechanisms for shared-input binary labeling problems.

`srda` runs a squared, advice-scaled lottery between the all-zeros and
all-ones labelings.  Any menu of two labelings reduces to that case by
restricting attention to the points where the pair disagrees; the
reduction and mechanism wrappers built on it live here too.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .model import (
    AgentDataset,
    BINARY_DOMAIN,
    ClassMismatchError,
    Instance,
    LabelingChoice,
    LabelingLottery,
    LabelingsClass,
    Real,
    Value,
    c0c1_class,
    constant_instance,
    personal_risk,
)
from .regression import PfaConfig, pfa


def two_labeling_pair(cls) -> tuple:
    """The two labelings of a two-labeling class."""
    if not isinstance(cls, LabelingsClass) or len(cls.labelings) != 2:
        raise ClassMismatchError("a two-labeling instance is required")
    return cls.labelings


def disagreement_points(cls, advice: int) -> tuple:
    """The points where the two labelings of `cls` disagree, once the class
    and the advice are checked as the two-labeling mechanisms check them."""
    first, second = two_labeling_pair(cls)
    if advice not in (0, 1):
        raise ClassMismatchError("advice must be one of the two labeling indices")
    return tuple(j for j in range(len(first)) if first[j] != second[j])


def _require_c0c1(cls) -> None:
    pair = two_labeling_pair(cls)
    if pair != ((0,) * len(pair[0]), (1,) * len(pair[0])):  # c0c1_class's labelings, with no class built
        raise ClassMismatchError("instance must be over the all-0s/all-1s pair")


def preference_summary(instance: Instance, literal_indicator: bool = False) -> Fraction:
    """P, the exact fraction of agents siding with the all-ones labeling;
    srda's N is 1 - P.

    The default counts an agent into P when its personal risk under c1 is at
    most its risk under c0 (ties included, so indifferent agents support c1).
    `literal_indicator=True` flips the comparison to >=, counting agents
    that weakly prefer c0 instead; it exists purely for comparison
    experiments and breaks the mechanism's incentive guarantees.
    """
    cls = instance.function_class
    _require_c0c1(cls)
    count = 0
    for agent in instance.agents:
        r1 = personal_risk(1, agent, cls)
        r0 = personal_risk(0, agent, cls)
        if (r1 >= r0) if literal_indicator else (r1 <= r0):
            count += 1
    return Fraction(count, instance.n)


# The gamma range (0, SRDA_GAMMA_MAX] of srda and the two-labeling srda.
SRDA_GAMMA_MAX = 1


def check_srda_inputs(gamma: Real, cls, advice: int) -> Real:
    """gamma as srda computes with it; raises ValueError for a gamma outside
    (0, SRDA_GAMMA_MAX] and ClassMismatchError unless srda accepts the class
    and advice."""
    gamma = Fraction(gamma) if not isinstance(gamma, float) else gamma
    if not 0 < gamma <= SRDA_GAMMA_MAX:
        raise ValueError(f"gamma must lie in (0, {SRDA_GAMMA_MAX}]")
    _require_c0c1(cls)
    disagreement_points(cls, advice)  # checks the advice
    return gamma


def srda_fit(gamma: Real, P: Fraction, advice: int) -> LabelingLottery:
    """The lottery of srda from the c1-support P, for inputs already
    checked by `check_srda_inputs`."""
    N = 1 - P
    if advice == 1:
        favored, other = (P / gamma) ** 2, N**2
        p1 = favored / (favored + other)
    else:
        favored, other = (N / gamma) ** 2, P**2
        p1 = other / (other + favored)
    return LabelingLottery(((1, p1), (0, 1 - p1)))


def srda(
    gamma: Real,
    instance: Instance,
    advice: int,
    literal_indicator: bool = False,
) -> LabelingLottery:
    """Square-random-dictator with advice over the {c0, c1} pair.

    With support P for c1 and N = 1 - P, the squared weights are scaled in
    favor of the advised labeling by 1/gamma before normalizing, so the
    lottery concentrates on the advice without ever silencing the data.
    Probabilities are exact rationals when gamma is rational.
    """
    gamma = check_srda_inputs(gamma, instance.function_class, advice)
    return srda_fit(gamma, preference_summary(instance, literal_indicator), advice)


def sample_outcome(lottery: LabelingLottery, seed: int) -> int:
    """Draw one labeling index from the lottery; simulation only, audits
    always use the analytic expected risks."""
    rng = random.Random(seed)
    u = rng.random()
    acc = 0.0
    for index, p in lottery.branches:
        acc += float(p)
        if u < acc:
            return index
    return lottery.branches[-1][0]


# ---------------------------------------------------------------------------
# Two arbitrary labelings -> {c0, c1} reduction
# ---------------------------------------------------------------------------


class TwoLabelingReduction(Value):
    """Restriction of a two-labeling instance to the disagreement points.

    Index 0 of the reduced instance stands for the first original labeling
    and index 1 for the second, so lotteries lift back unchanged.  The
    errors both labelings share outside the disagreement set are recorded
    as the labeling-independent `off_errors` count.
    """

    _fields = ("instance", "indices", "off_errors")


def two_labeling_reduce(instance: Instance, advice: int) -> TwoLabelingReduction:
    """Restrict to the points where the two labelings disagree and recode
    each agent's labels as agreement with the first (0) or second (1)."""
    cls = instance.function_class
    J = disagreement_points(cls, advice)
    first = cls.labelings[0]
    disagree = set(J)
    off_errors = 0
    agents = []
    for agent in instance.agents:
        labels = agent.labels
        off_errors += sum(
            1 for j, y in enumerate(labels) if j not in disagree and first[j] != y
        )
        transformed = tuple(0 if labels[j] == first[j] else 1 for j in J)
        agents.append(AgentDataset(enumerate(transformed)))
    reduced = Instance(tuple(agents), c0c1_class(len(J)))
    return TwoLabelingReduction(reduced, J, off_errors)


def pfa_two_labeling(gamma: Real, instance: Instance, advice: int) -> LabelingChoice:
    """Deterministic two-labeling mechanism: reduce to {c0, c1}, treat each
    agent's reduced labels as a constant dataset over the {0, 1} domain, and
    run the constant project-and-fit mechanism."""
    reduction = two_labeling_reduce(instance, advice)
    constant = constant_instance([a.labels for a in reduction.instance.agents], BINARY_DOMAIN)
    choice = pfa(PfaConfig(gamma, BINARY_DOMAIN), constant, advice)
    return LabelingChoice(int(choice.value))


def srda_two_labeling(
    gamma: Real, instance: Instance, advice: int, literal_indicator: bool = False
) -> LabelingLottery:
    """Randomized two-labeling mechanism: reduce and run the lottery, whose
    index i already names original labeling i."""
    reduction = two_labeling_reduce(instance, advice)
    return srda(gamma, reduction.instance, advice, literal_indicator)
