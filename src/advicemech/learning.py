"""Distribution-level setting: agents hold finite-support input
distributions and private labeling functions; sampled datasets feed the
decision-level mechanisms and exact statistical risks measure what those
mechanisms achieve at the population level.

Finite supports keep every statistical risk an exact expectation, so the
sample-size composition guarantees can be checked per trial instead of
only in probability.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .model import (
    AgentDataset,
    CompiledInstance,
    ConstantClass,
    Instance,
    InvalidInstanceError,
    LossKernel,
    Real,
    REALS,
    Value,
    _point_loss,
    exact_div,
    global_risk,
    personal_risk,
)
from .regression import PfaConfig, pfa


class AgentModel(Value):
    """A discrete input distribution plus the agent's private labeling.

    `support` holds (x, probability) pairs with positive probabilities that
    sum to one exactly; `labeler` maps every support point to its label,
    as ((x, y), ...) pairs, total on the support.
    """

    _fields = ("support", "labeler")

    def __init__(self, support: tuple, labeler: tuple):
        support = tuple((x, p) for x, p in support)
        labeler = dict(labeler)
        if not support:
            raise InvalidInstanceError("support must be nonempty")
        total = 0
        for x, p in support:
            if p <= 0:
                raise InvalidInstanceError("support probabilities must be positive")
            if x not in labeler:
                raise InvalidInstanceError(f"labeler undefined at support point {x!r}")
            total += p
        if total != 1:
            raise InvalidInstanceError("support probabilities must sum to one")
        Value.__init__(self, support, tuple(sorted(labeler.items())))

    def label_of(self, x):
        for key, y in self.labeler:
            if key == x:
                return y
        raise KeyError(x)

    def label_values(self) -> tuple:
        return tuple(y for _, y in self.labeler)


def statistical_personal_risk(f, agent: AgentModel, cls=ConstantClass(REALS)) -> Real:
    """Exact expected loss of f under the agent's input distribution, for a
    constant or linear class (any other raises ClassMismatchError)."""
    return sum(p * _point_loss(f, cls, x, agent.label_of(x)) for x, p in agent.support)


def statistical_global_risk(f, agents, cls=ConstantClass(REALS)) -> Real:
    """Risk of an agent drawn uniformly at random: the mean personal risk."""
    agents = list(agents)
    return exact_div(sum(statistical_personal_risk(f, a, cls) for a in agents), len(agents))


def statistical_optimal_constant(agents) -> tuple:
    """Brute-force optimal constant and risk at the population level.

    The pooled objective is piecewise linear with breakpoints at the label
    values, so scanning those is exact.  Ties break toward the largest.
    """
    candidates = sorted({y for a in agents for y in a.label_values()})
    best_value, best_risk = None, None
    for c in candidates:
        r = statistical_global_risk(c, agents)
        if best_risk is None or r <= best_risk:
            best_value, best_risk = c, r
    return best_value, best_risk


def sample_instance(
    agents, m: int, seed: int, function_class=ConstantClass(REALS)
) -> Instance:
    """m iid draws per agent from its distribution, labeled truthfully.
    Deterministic for a given seed."""
    rng = random.Random(seed)
    sampled = []
    for agent in agents:
        xs = [x for x, _ in agent.support]
        weights = [float(p) for _, p in agent.support]
        draws = rng.choices(xs, weights=weights, k=m)
        sampled.append(AgentDataset((x, agent.label_of(x)) for x in draws))
    return Instance(tuple(sampled), function_class)


def required_sample_size(n: int, epsilon, delta, constant=8) -> int:
    """ceil(constant * ln(n/delta) / epsilon^2), bumped to the next odd
    number so the per-agent sample sizes support the group guarantees."""
    if n < 1 or not 0 < float(delta) < 1 or float(epsilon) <= 0:
        raise ValueError("need n >= 1, epsilon > 0 and delta in (0, 1)")
    m = math.ceil(float(constant) * math.log(n / float(delta)) / float(epsilon) ** 2)
    m = max(m, 1)
    return m if m % 2 == 1 else m + 1


# ---------------------------------------------------------------------------
# Empirical-vs-statistical risk gaps
# ---------------------------------------------------------------------------


def sup_personal_gap(agent: AgentModel, dataset: AgentDataset) -> Real:
    """Exact sup over all constants of |statistical - empirical| risk."""
    return _global_gap([agent], CompiledInstance(Instance((dataset,), ConstantClass(REALS))))


def sup_global_gap(agents, instance: Instance) -> Real:
    """Exact sup over all constants of the global risk gap; requires the
    equal per-agent sample sizes that `sample_instance` produces."""
    return _global_gap(list(agents), CompiledInstance(instance))


def _global_gap(agents, compiled: CompiledInstance) -> Real:
    """`sup_global_gap` on a compiled constant-class instance.  Both risks
    are piecewise linear in the constant with breakpoints at the label
    values, and their difference is constant beyond the extremes, where it
    is the difference of means, so the sup is attained at a breakpoint or
    equals that difference.

    On exact data both risks come from `LossKernel`s: the empirical one is
    the compiled instance's `sums`, whose values are the sampled labels,
    and the statistical one is compiled here over every agent's (label,
    probability) support entries.  The breakpoints are the two kernels'
    distinct values, each queried as p/q over q, the lcm of the two
    kernels' value denominators, so every loss sum of one kernel has one
    denominator, and the gaps compare as ints; one Fraction is built.
    Beyond the extremes both risks grow with slope 1 (each agent's
    probabilities sum to one), so the gap there, the difference of means,
    is the gap at the extreme breakpoints.  A float label or probability
    takes the sums in the arithmetic of the values, label by label.
    """
    if len({len(a) for a in compiled.instance.agents}) != 1:
        raise InvalidInstanceError("global gap needs equal per-agent sample sizes")
    entries = [(a.label_of(x), p) for a in agents for x, p in a.support]
    try:
        stat, emp = LossKernel(*zip(*entries)), compiled.sums
    except AttributeError:  # a float
        labels = compiled.instance.all_labels()
        breaks = sorted({y for a in agents for y in a.label_values()} | set(labels))
        gap = max(abs(statistical_global_risk(b, agents) - compiled.risk(b)) for b in breaks)
        stat_mean = exact_div(sum(p * y for y, p in entries), len(agents))
        return max(gap, abs(stat_mean - sum(labels, start=Fraction(0)) / len(labels)))
    n, size, q = len(agents), compiled.size, math.lcm(stat.scale[0], emp.scale[0])
    sd, ed = (q * d * e for d, e in (stat.scale, emp.scale))  # the denominators of their sums at p/q
    points = {v * (q // k.scale[0]) for k in (stat, emp) for v in k.values}  # every breakpoint, times q
    top = max(abs(stat(p, q)[0] * ed * size - emp(p, q)[0] * sd * n) for p in points)
    return Fraction(top, sd * ed * n * size)


class GapTrialRow(Value):
    _fields = ("trial", "max_personal_gap", "global_gap")


def risk_gap_experiment(agents, m: int, trials: int, seed: int, epsilon=None,
                        f_grid=None):
    """Per-trial maximal risk gaps and, when epsilon is given, the fraction
    of trials whose maximal gap exceeds it.

    With `f_grid` the gaps are maximized over those constants only;
    otherwise the exact supremum over every constant is used (the gap is
    piecewise linear, so it is computable in closed form).
    """
    agents = list(agents)
    rows = []
    for t in range(trials):
        inst = sample_instance(agents, m, seed + t)
        if f_grid is None:
            personal = max(
                sup_personal_gap(a, d) for a, d in zip(agents, inst.agents)
            )
            global_gap = sup_global_gap(agents, inst)
        else:
            personal = max(
                abs(statistical_personal_risk(f, a) - personal_risk(f, d, ConstantClass(REALS)))
                for a, d in zip(agents, inst.agents)
                for f in f_grid
            )
            global_gap = max(
                abs(statistical_global_risk(f, agents) - global_risk(f, inst))
                for f in f_grid
            )
        rows.append(GapTrialRow(t, personal, global_gap))
    if epsilon is None:
        return rows, None
    exceed = sum(1 for r in rows if max(r.max_personal_gap, r.global_gap) > epsilon)
    return rows, Fraction(exceed, trials)


class CompositionTrial(Value):
    _fields = ("trial", "seed", "gaps_ok", "achieved", "bound", "ok")


def composition_experiment(
    agents, gamma, epsilon, delta, constant=8, trials=50, seed=0
):
    """Sample, run the constant mechanism with empirically correct advice,
    and compare its statistical risk against the consistency bound plus the
    concentration slack, trial by trial.

    The inequality is only claimed on trials where every measured gap is at
    most epsilon/2; the flag for that precondition is recorded per trial.

    The advice is the largest sampled label of least empirical risk.  On
    exact labels it is read off the trial's compiled instance: its `sums`
    kernel queried at each distinct value v over the values' denominator
    d, where every loss sum has the one denominator d*d*E, so numerators
    compare as they are.  The same compiled instance serves the global gap.
    """
    agents = list(agents)
    m = required_sample_size(len(agents), epsilon, delta, constant)
    _, best_stat = statistical_optimal_constant(agents)
    alpha = 1 + Fraction(gamma)
    rows = []
    for t in range(trials):
        trial_seed = seed + t
        inst = sample_instance(agents, m, trial_seed)
        compiled = CompiledInstance(inst)
        try:  # the distinct labels v/d, and the numerators of their loss sums
            sums, d = compiled.sums, compiled.sums.scale[0]
            emp_best = Fraction(min(dict.fromkeys(sums.values), key=lambda v: (sums(v, d)[0], -v)), d)
        except AttributeError:  # a float label
            emp_best = min(set(inst.all_labels()), key=lambda c: (compiled.risk(c), -c))
        choice = pfa(PfaConfig(Fraction(gamma)), inst, emp_best).value
        personal_ok = all(
            sup_personal_gap(a, d) <= Fraction(epsilon) / 2
            for a, d in zip(agents, inst.agents)
        )
        global_ok = _global_gap(agents, compiled) <= Fraction(epsilon) / 2
        achieved = statistical_global_risk(choice, agents)
        bound = alpha * best_stat + (alpha + 1) / 2 * Fraction(epsilon)
        rows.append(
            CompositionTrial(
                t,
                trial_seed,
                personal_ok and global_ok,
                achieved,
                bound,
                achieved <= bound,
            )
        )
    return rows, m
