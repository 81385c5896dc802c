"""Empirical verification engine: exhaustive misreport search, coalition
search, approximation ratios, and consistency/robustness frontier sweeps.

The searches are refutation-complete over the enumerated space: an empty
violation list certifies nothing beyond that space, while every recorded
violation carries enough data to replay it independently.

Misreport spaces enumerate label vectors up to point order, and mechanisms
may declare a `signature` describing exactly which statistic of a reported
dataset their output depends on; reports sharing a signature share an
outcome and therefore a gain, so only one representative per signature is
evaluated.  Every mechanism here is symmetric in a dataset's points and
its signature claim is property-tested against raw enumeration.  pfa and
lpfa use their per-agent projections as signatures, so an outcome-cache
miss is one fit over the signature profile, with no reported instance
built.

Ratio loops (`MechanismFamily.frontier_row`, `error_interpolation_check`)
compile each instance once per frontier row (`CompiledInstance`) and
compute its signature profile and `brute_force_optimal_risk` once as
well; `brute_force_optimal_risk` stays the independent check of the
optimum.  A ratio query then costs one mechanism outcome (a cache lookup
or one fit) plus one bisect.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb

from .classification import pfa_two_labeling, srda, srda_two_labeling
from .model import (
    INF,
    REALS,
    AgentDataset,
    ClassMismatchError,
    CompiledInstance,
    ConstantChoice,
    ConstantClass,
    Instance,
    LabelingsClass,
    LinearClass,
    Real,
    ValueDomain,
    WeightedSample,
    erm_constant,
    exact_div,
    expected_personal_risk,
    global_risk,
)
from .regression import (
    PfaConfig,
    check_pfa_inputs,
    confidence_weight,
    linear_projection,
    lpfa,
    lpfa_fit,
    pfa,
    pfa_fit,
)


class SpaceTooLargeError(RuntimeError):
    """Raised when an exhaustive search would exceed the evaluation budget."""


EVALUATION_BUDGET = 10**7


# ---------------------------------------------------------------------------
# Misreport spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridLabels:
    """Every relabeling of an agent's points with values from a fixed grid,
    enumerated up to point order."""

    levels: tuple

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(sorted(self.levels)))

    def reports(self, agent: AgentDataset):
        return combinations_with_replacement(self.levels, len(agent))

    def count(self, agent: AgentDataset) -> int:
        return comb(len(self.levels) + len(agent) - 1, len(agent))


@dataclass(frozen=True)
class ProjectedConstant:
    """Reports of |S_i| copies of a single candidate value.  For projection
    mechanisms every misreport is outcome-equivalent to one of these, so
    this tiny space is exhaustive for them."""

    candidates: tuple

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(sorted(set(self.candidates))))

    @classmethod
    def for_instance(cls, instance: Instance, advice: Real) -> "ProjectedConstant":
        values = set(instance.all_labels())
        values.add(advice)
        return cls(tuple(values))

    def reports(self, agent: AgentDataset):
        size = len(agent)
        return ((c,) * size for c in self.candidates)

    def count(self, agent: AgentDataset) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class AllBinaryVectors:
    """All 0/1 labelings of the m shared points."""

    m: int

    def reports(self, agent: AgentDataset):
        if len(agent) != self.m:
            raise ValueError("agent size does not match the shared input")
        return product((0, 1), repeat=self.m)

    def count(self, agent: AgentDataset) -> int:
        return 2**self.m


# ---------------------------------------------------------------------------
# Auditable mechanisms
# ---------------------------------------------------------------------------


class AuditableMechanism:
    """A mechanism closure plus the metadata the audit engine exploits.

    `signature(xs, labels, cls)` must return a hashable statistic such that
    two reported datasets with equal signatures always produce the same
    mechanism outcome (holding everything else fixed).  Outcomes are cached
    keyed by the full signature profile.

    `fit(cls, profile, advice)`, when given, computes the outcome from the
    signature profile alone and must equal `fn` on any reported instance of
    class `cls` with that profile, raising the same ClassMismatchError `fn`
    raises; cache misses then skip building the reported instance.
    """

    def __init__(self, fn, name: str, signature=None, fit=None):
        self.fn = fn
        self.name = name
        self._signature = signature
        self._fit = fit
        self._cache = {}  # function class -> {(profile, advice) -> outcome}
        self._risk_cache = {}
        self._group_cache = {}

    def true_personal_risk(self, outcome, agent, cls):
        """Expected personal risk of an outcome against an agent's true
        data, cached across audit calls."""
        key = (outcome, agent.points, cls)
        cache = self._risk_cache
        r = cache.get(key)
        if r is None:
            r = expected_personal_risk(outcome, agent, cls)
            cache[key] = r
        return r

    def __call__(self, instance: Instance, advice):
        return self.fn(instance, advice)

    def signature(self, xs, labels, cls):
        if self._signature is None:
            return None
        return self._signature(xs, labels, cls)

    def profile(self, instance: Instance) -> tuple:
        """The signature of every agent's dataset (all None without a
        signature)."""
        cls = instance.function_class
        return tuple(self.signature(a.xs, a.labels, cls) for a in instance.agents)

    def cache_view(self, cls) -> dict:
        view = self._cache.get(cls)
        if view is None:
            view = self._cache[cls] = {}
        return view

    def outcome(self, instance: Instance, advice, profile=None):
        if self._signature is None:
            return self.fn(instance, advice)
        cls = instance.function_class
        if profile is None:
            profile = self.profile(instance)
        return self.outcome_for(
            cls, self.cache_view(cls), profile, advice, lambda: instance
        )

    def outcome_for(self, cls, view, profile, advice, build):
        """Cached outcome lookup in the cache view of class `cls`; a miss is
        filled by `fit` when the mechanism has one, otherwise by `fn` on the
        instance `build` materializes."""
        if profile is None or self._signature is None:
            return self.fn(build(), advice)
        key = (profile, advice)
        try:
            return view[key]
        except KeyError:
            out = self.fill(cls, profile, advice, build)
            view[key] = out
            return out

    def fill(self, cls, profile, advice, build):
        """The uncached outcome for a signature profile."""
        if self._fit is not None:
            return self._fit(cls, profile, advice)
        return self.fn(build(), advice)

    def grouped_reports(self, space, agent, cls):
        """One representative report per signature class, or None when the
        mechanism declares no signature.

        Every misreport space enumerates reports from an agent's public x
        values and size alone, so the grouping is cached per (space, xs).
        """
        if self._signature is None:
            return None
        key = (space, agent.xs, cls)
        groups = self._group_cache.get(key)
        if groups is None:
            seen = {}
            for labels in space.reports(agent):
                sig = self._signature(agent.xs, labels, cls)
                if sig not in seen:
                    seen[sig] = tuple(labels)
            groups = tuple(seen.items())
            self._group_cache[key] = groups
        return groups


def pfa_mechanism(gamma, domain: ValueDomain = REALS) -> AuditableMechanism:
    """pfa whose signature is the agent's projection (b_i, |S_i|), so a
    cache miss is one fit over the profile."""
    cfg = PfaConfig(gamma, domain)
    memo = {}

    def fn(instance, advice):
        return pfa(cfg, instance, advice)

    def fit(cls, profile, advice):
        check_pfa_inputs(cfg, cls, advice)
        return pfa_fit(cfg, profile, advice)

    def signature(xs, labels, cls):
        key = tuple(sorted(labels))
        sig = memo.get(key)
        if sig is None:
            b = erm_constant(cfg.domain, WeightedSample.from_values(labels))
            sig = (b, len(labels))
            memo[key] = sig
        return sig

    return AuditableMechanism(fn, f"pfa(gamma={gamma})", signature, fit)


def lpfa_mechanism(gamma) -> AuditableMechanism:
    """lpfa whose signature is the agent's `linear_projection`, so a cache
    miss is one fit over the profile."""
    lam = confidence_weight(gamma)

    def fn(instance, advice):
        return lpfa(gamma, instance, advice)

    def signature(xs, labels, cls):
        return linear_projection(xs, labels)

    def fit(cls, profile, advice):
        if not isinstance(cls, LinearClass):
            raise ClassMismatchError("linear-class instance required")
        return lpfa_fit(lam, profile, advice)

    return AuditableMechanism(fn, f"lpfa(gamma={gamma})", signature, fit)


def mean_mechanism() -> AuditableMechanism:
    """Non-strategyproof baseline: the plain average of all reported labels."""

    def fn(instance, advice):
        labels = instance.all_labels()
        return ConstantChoice(exact_div(sum(labels), len(labels)))

    def signature(xs, labels, cls):
        return (sum(labels), len(labels))

    return AuditableMechanism(fn, "mean-baseline", signature)


def srda_mechanism(gamma, literal_indicator: bool = False) -> AuditableMechanism:
    def fn(instance, advice):
        return srda(gamma, instance, advice, literal_indicator)

    def signature(xs, labels, cls):
        ones2 = 2 * sum(labels)
        m = len(labels)
        return (ones2 <= m,) if literal_indicator else (ones2 >= m,)

    return AuditableMechanism(fn, f"srda(gamma={gamma})", signature)


def _two_labeling_pair(cls):
    if not isinstance(cls, LabelingsClass) or len(cls.labelings) != 2:
        raise ClassMismatchError("a two-labeling instance is required")
    return cls.labelings


def pfa_two_labeling_mechanism(gamma) -> AuditableMechanism:
    def fn(instance, advice):
        return pfa_two_labeling(gamma, instance, advice)

    def signature(xs, labels, cls):
        first, second = _two_labeling_pair(cls)
        agree2 = 2 * sum(
            1 for j, y in enumerate(labels) if first[j] != second[j] and y == second[j]
        )
        disagreements = sum(1 for a, b in zip(first, second) if a != b)
        return (agree2 >= disagreements,)

    return AuditableMechanism(fn, f"pfa-two-labeling(gamma={gamma})", signature)


def srda_two_labeling_mechanism(gamma, literal_indicator: bool = False) -> AuditableMechanism:
    def fn(instance, advice):
        return srda_two_labeling(gamma, instance, advice, literal_indicator)

    def signature(xs, labels, cls):
        first, second = _two_labeling_pair(cls)
        agree2 = 2 * sum(
            1 for j, y in enumerate(labels) if first[j] != second[j] and y == second[j]
        )
        disagreements = sum(1 for a, b in zip(first, second) if a != b)
        if literal_indicator:
            return (agree2 <= disagreements,)
        return (agree2 >= disagreements,)

    return AuditableMechanism(fn, f"srda-two-labeling(gamma={gamma})", signature)


# ---------------------------------------------------------------------------
# Strategyproofness audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    agents: tuple
    misreports: tuple
    risks_before: tuple
    risks_after: tuple
    gain: Real


@dataclass(frozen=True)
class AuditReport:
    violations: tuple
    max_gain: Real
    candidates_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def _space_budget(space, instance: Instance, max_coalition: int = 1) -> int:
    counts = [space.count(a) for a in instance.agents]
    total = 0
    for size in range(1, max_coalition + 1):
        for coalition in combinations(range(instance.n), size):
            prod = 1
            for i in coalition:
                prod *= counts[i]
            total += prod
    return total


def check_strategyproof(
    mechanism: AuditableMechanism,
    instance: Instance,
    advice,
    space,
    epsilon: Real = 0,
    force: bool = False,
) -> AuditReport:
    """Enumerate unilateral misreports and record every strict gain above
    epsilon.  An empty report means epsilon-strategyproof over the space."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    budget = _space_budget(space, instance)
    if budget > EVALUATION_BUDGET and not force:
        raise SpaceTooLargeError(f"{budget} candidate evaluations exceed the budget")
    cls = instance.function_class
    base_profile = mechanism.profile(instance)
    base = mechanism.outcome(instance, advice, profile=base_profile)
    local_risks = {}
    alive = [base]  # id-keyed memo below: outcomes must stay alive

    def true_risk(outcome, i):
        key = (id(outcome), i)
        r = local_risks.get(key)
        if r is None:
            r = mechanism.true_personal_risk(outcome, instance.agents[i], cls)
            local_risks[key] = r
        return r

    view = mechanism.cache_view(cls)
    violations = []
    max_gain = 0
    checked = 0
    for i, agent in enumerate(instance.agents):
        before = true_risk(base, i)
        groups = mechanism.grouped_reports(space, agent, cls)
        if groups is None:
            checked += space.count(agent)
            candidates = ((None, tuple(labels)) for labels in space.reports(agent))
        else:
            checked += space.count(agent)
            candidates = groups
        prefix, suffix = base_profile[:i], base_profile[i + 1 :]
        for sig, labels in candidates:
            profile = None if sig is None else prefix + (sig,) + suffix
            out = mechanism.outcome_for(
                cls, view, profile, advice,
                lambda: instance.with_agent_labels(i, labels),
            )
            if out is base or out == base:
                continue  # unchanged outcome, gain exactly zero
            alive.append(out)
            after = true_risk(out, i)
            gain = before - after
            if gain > max_gain:
                max_gain = gain
            if gain > epsilon:
                violations.append(
                    Violation((i,), (labels,), (before,), (after,), gain)
                )
    return AuditReport(tuple(violations), max_gain, checked)


def _joint_report(instance: Instance, coalition, joint) -> Instance:
    for i, (_, labels) in zip(coalition, joint):
        instance = instance.with_agent_labels(i, labels)
    return instance


def check_group_strategyproof(
    mechanism: AuditableMechanism,
    instance: Instance,
    advice,
    space,
    max_coalition: int,
    epsilon: Real = 0,
    force: bool = False,
) -> AuditReport:
    """Enumerate joint misreports of coalitions up to `max_coalition`.

    A violation is a joint report after which every member's true risk drops
    by at least epsilon and some member's by strictly more.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    budget = _space_budget(space, instance, max_coalition)
    if budget > EVALUATION_BUDGET and not force:
        raise SpaceTooLargeError(f"{budget} candidate evaluations exceed the budget")
    cls = instance.function_class
    base_profile = mechanism.profile(instance)
    base = mechanism.outcome(instance, advice, profile=base_profile)
    local_risks = {}
    alive = [base]  # id-keyed memo below: outcomes must stay alive

    def true_risk(outcome, i):
        key = (id(outcome), i)
        r = local_risks.get(key)
        if r is None:
            r = mechanism.true_personal_risk(outcome, instance.agents[i], cls)
            local_risks[key] = r
        return r

    grouped = []
    for agent in instance.agents:
        groups = mechanism.grouped_reports(space, agent, cls)
        if groups is None:
            groups = tuple((None, tuple(labels)) for labels in space.reports(agent))
        grouped.append(groups)

    view = mechanism.cache_view(cls)
    have_sigs = mechanism._signature is not None
    view_get = view.get
    violations = []
    max_gain = 0
    checked = 0
    n = instance.n
    counts = [space.count(a) for a in instance.agents]
    for size in range(1, max_coalition + 1):
        for coalition in combinations(range(n), size):
            before = [true_risk(base, i) for i in coalition]
            joint_count = 1
            for i in coalition:
                joint_count *= counts[i]
            checked += joint_count
            for joint in product(*(grouped[i] for i in coalition)):
                if have_sigs:
                    profile = list(base_profile)
                    for i, (sig, _) in zip(coalition, joint):
                        profile[i] = sig
                    profile = tuple(profile)
                    key = (profile, advice)
                    out = view_get(key)
                    if out is None:
                        out = view[key] = mechanism.fill(
                            cls, profile, advice,
                            lambda: _joint_report(instance, coalition, joint),
                        )
                else:
                    out = mechanism.fn(_joint_report(instance, coalition, joint), advice)
                if out is base or out == base:
                    continue  # unchanged outcome, all gains exactly zero
                alive.append(out)
                after = [true_risk(out, i) for i in coalition]
                gains = [b - a for b, a in zip(before, after)]
                best = max(gains)
                if best > max_gain:
                    max_gain = best
                if all(g >= epsilon for g in gains) and any(g > epsilon for g in gains):
                    violations.append(
                        Violation(
                            coalition,
                            tuple(labels for _, labels in joint),
                            tuple(before),
                            tuple(after),
                            best,
                        )
                    )
    return AuditReport(tuple(violations), max_gain, checked)


# ---------------------------------------------------------------------------
# Approximation ratios and frontier sweeps
# ---------------------------------------------------------------------------


def brute_force_optimal_risk(instance: Instance) -> Real:
    """Exact optimal risk found by enumerating a finite candidate set that
    provably contains a minimizer; independent of the median oracle."""
    cls = instance.function_class
    if isinstance(cls, ConstantClass):
        if cls.domain.is_reals:
            candidates = set(instance.all_labels())
        else:
            candidates = cls.domain.values
        return min(global_risk(c, instance) for c in candidates)
    if isinstance(cls, LinearClass):
        candidates = {
            exact_div(p.y, p.x)
            for a in instance.agents
            for p in a.points
            if p.x != 0
        }
        if not candidates:
            candidates = {0}
        return min(global_risk(c, instance) for c in candidates)
    if isinstance(cls, LabelingsClass):
        return min(global_risk(i, instance) for i in range(len(cls.labelings)))
    raise TypeError(f"unknown function class {cls!r}")


def optimal_functions(instance: Instance) -> tuple:
    """A finite set of exactly-optimal functions, used as 'correct advice'.

    For interval-valued optima this is the pair of interval endpoints.
    """
    cls = instance.function_class
    if isinstance(cls, ConstantClass):
        from .model import optimal_constant_set

        opt, _ = optimal_constant_set(instance)
        if cls.domain.is_reals:
            lo, hi = opt
            return (lo,) if lo == hi else (lo, hi)
        return opt
    if isinstance(cls, LinearClass):
        from .regression import optimal_slope_set

        (lo, hi), _ = optimal_slope_set(instance)
        return (lo,) if lo == hi else (lo, hi)
    if isinstance(cls, LabelingsClass):
        risks = [global_risk(i, instance) for i in range(len(cls.labelings))]
        best = min(risks)
        return tuple(i for i, r in enumerate(risks) if r == best)
    raise TypeError(f"unknown function class {cls!r}")


def risk_ratio(achieved: Real, best: Real) -> Real:
    """achieved/best.  Both zero gives 1; a zero optimum with positive
    achieved risk gives inf."""
    if best == 0:
        return 1 if achieved == 0 else INF
    return exact_div(achieved, best)


def ratio_queries(mechanism, instance: Instance):
    """advice -> approximation ratio of `mechanism` on `instance`.

    The instance is compiled, the mechanism's signature profile computed
    and `brute_force_optimal_risk` run once, here; each query is then one
    mechanism outcome (a cache lookup or one fit) and one O(log N) risk.
    Nothing outlives the returned function.
    """
    compiled = CompiledInstance(instance)
    best = brute_force_optimal_risk(instance)
    if isinstance(mechanism, AuditableMechanism):
        profile = mechanism.profile(instance)

        def outcome(advice):
            return mechanism.outcome(instance, advice, profile)
    else:

        def outcome(advice):
            return mechanism(instance, advice)

    def ratio(advice):
        return risk_ratio(compiled.risk(outcome(advice)), best)

    return ratio


def approximation_ratio(mechanism, instance: Instance, advice) -> Real:
    """Mechanism risk (expected, for lotteries) over the brute-force optimum,
    by the `risk_ratio` conventions."""
    return ratio_queries(mechanism, instance)(advice)


def advice_grid(instance: Instance, points: int = 21) -> tuple:
    """Evenly spaced advice values spanning the instance's label range
    (mapped y/x range for linear instances), exact when labels are exact."""
    cls = instance.function_class
    if isinstance(cls, LabelingsClass):
        return tuple(range(len(cls.labelings)))
    if isinstance(cls, LinearClass):
        values = [
            exact_div(p.y, p.x) for a in instance.agents for p in a.points if p.x != 0
        ]
        if not values:
            values = [0]
    else:
        values = instance.all_labels()
        if not cls.domain.is_reals:
            return cls.domain.values
    lo, hi = min(values), max(values)
    if lo == hi or points < 2:
        return (lo,)
    if not isinstance(lo, float) and not isinstance(hi, float):
        lo, hi = Fraction(lo), Fraction(hi)
        return tuple(lo + (hi - lo) * Fraction(j, points - 1) for j in range(points))
    return tuple(lo + (hi - lo) * j / (points - 1) for j in range(points))


@dataclass(frozen=True)
class FrontierRow:
    gamma: Real
    consistency: Real
    robustness: Real
    bound_consistency: Real
    bound_robustness: Real
    ok: bool


@dataclass(frozen=True)
class MechanismFamily:
    """A gamma-indexed mechanism family with its theoretical tradeoff curve."""

    name: str
    make: callable
    consistency_bound: callable
    robustness_bound: callable

    def frontier_row(self, gamma, corpus, grid_points=21, tolerance=0) -> FrontierRow:
        mech = self.make(gamma)
        consistency = 0
        robustness = 0
        for instance in corpus:
            ratio = ratio_queries(mech, instance)
            for advice in optimal_functions(instance):
                consistency = max(consistency, ratio(advice))
            for advice in advice_grid(instance, grid_points):
                robustness = max(robustness, ratio(advice))
        bc = self.consistency_bound(gamma)
        br = self.robustness_bound(gamma)
        ok = consistency <= bc + tolerance and robustness <= br + tolerance
        return FrontierRow(gamma, consistency, robustness, bc, br, ok)


def consistency_robustness_sweep(
    family: MechanismFamily, gammas, corpus, grid_points=21, tolerance=0
):
    """Worst measured ratios per gamma next to the theoretical bounds."""
    corpus = list(corpus)
    return [
        family.frontier_row(g, corpus, grid_points, tolerance) for g in gammas
    ]


def pfa_family(domain: ValueDomain = REALS) -> MechanismFamily:
    return MechanismFamily(
        "pfa",
        lambda g: pfa_mechanism(g, domain),
        lambda g: 1 + g,
        lambda g: 1 + exact_div(4, g),
    )


def lpfa_family() -> MechanismFamily:
    return MechanismFamily(
        "lpfa",
        lpfa_mechanism,
        lambda g: 1 + g,
        lambda g: 1 + exact_div(4, g),
    )


def srda_family() -> MechanismFamily:
    return MechanismFamily(
        "srda",
        srda_mechanism,
        lambda g: 1 + g,
        lambda g: 1 + exact_div(1, g),
    )


def pfa_two_labeling_family() -> MechanismFamily:
    return MechanismFamily(
        "pfa-two-labeling",
        pfa_two_labeling_mechanism,
        lambda g: 1 + g,
        lambda g: 1 + exact_div(4, g),
    )


def srda_two_labeling_family() -> MechanismFamily:
    return MechanismFamily(
        "srda-two-labeling",
        srda_two_labeling_mechanism,
        lambda g: 1 + g,
        lambda g: 1 + exact_div(1, g),
    )


@dataclass(frozen=True)
class InterpolationRow:
    advice: Real
    advice_error: Real
    ratio: Real
    bound: Real
    ok: bool


def error_interpolation_check(
    gamma, instance: Instance, advice_values, tolerance=0, linear=False,
    mechanism=None,
):
    """Measured ratio against min(1 + 4/gamma, 1 + gamma + eta) per advice.

    For linear instances eta is the advice error of the mapped weighted
    data, which is what the constant mechanism actually faces.
    """
    rows = []
    robust_cap = 1 + exact_div(4, gamma)
    if linear:
        from .model import weighted_median_bounds
        from .regression import map_to_constant_instance

        mech = mechanism if mechanism is not None else lpfa_mechanism(gamma)
        pooled = map_to_constant_instance(instance).pooled_sample()
        lo, hi = weighted_median_bounds(pooled)
        interval, finite_opt = (lo, hi), None
        opt_risk = pooled.risk(hi)
    else:
        from .model import optimal_constant_set

        mech = mechanism if mechanism is not None else pfa_mechanism(
            gamma, instance.function_class.domain
        )
        opt, opt_risk = optimal_constant_set(instance)
        if instance.function_class.domain.is_reals:
            interval, finite_opt = opt, None
        else:
            interval, finite_opt = None, opt
    ratio = ratio_queries(mech, instance)
    for advice in advice_values:
        if interval is not None:
            lo, hi = interval
            dist = max(lo - advice, advice - hi, 0)
        else:
            dist = min(abs(advice - c) for c in finite_opt)
        if opt_risk == 0:
            eta = 0 if dist == 0 else INF
        else:
            eta = exact_div(dist, opt_risk)
        r = ratio(advice)
        bound = min(robust_cap, 1 + gamma + eta) if eta != INF else robust_cap
        rows.append(InterpolationRow(advice, eta, r, bound, r <= bound + tolerance))
    return rows
