"""Advice-guided regression mechanisms.

`pfa` fits a constant by projecting every agent onto their personal
weighted-median value and then taking a weighted median of those
projections augmented with fractional copies of the advice.  `lpfa`
lifts the same pipeline to homogeneous linear functions through the
|x|-weighted y/x mapping (`model.class_entries`): it is `pfa_fit` on the
agents' mapped projections, each weighted by the agent's total |x|.
Both medians, the projection's and the fit's, are one call each to the
median kernel of `model`, `_optima`.

On the real line the fit is a generalized median (Moulin, "On
Strategy-Proofness and Single Peakedness", Public Choice 1980): the advice
is one phantom voter of weight lam * sum(w_i), so for a fixed gamma and
profile of projections the fit is the advice clamped between two ends
that do not depend on it, `pfa_ends`.  Audits and sweeps that ask one
profile at many advice values compute the ends once and clamp.
"""

from __future__ import annotations

from .model import (
    REALS,
    ClassMismatchError,
    ConstantChoice,
    ConstantClass,
    DegenerateLinearInstance,
    Instance,
    LinearChoice,
    LinearClass,
    Real,
    Value,
    ValueDomain,
    WeightedSample,
    _common,
    _optima,
    advice_error,
    check_nondegenerate,
    class_entries,
    exact_div,
    optimal_set,
    pooled_entries,
    weighted_median_bounds,
)


# The gamma range (0, PFA_GAMMA_MAX] of `confidence_weight`, so of pfa, lpfa
# and the two-labeling pfa.
PFA_GAMMA_MAX = 2


def confidence_weight(gamma: Real) -> Real:
    """The advice copy factor lambda = (2 - gamma) / (2 + gamma)."""
    if not 0 < gamma <= PFA_GAMMA_MAX:
        raise ValueError(f"gamma must lie in (0, {PFA_GAMMA_MAX}]")
    return exact_div(2 - gamma, 2 + gamma)


class PfaConfig(Value):
    """Confidence parameter and output domain for the constant mechanism,
    and `lam`, the gamma's `confidence_weight`.

    gamma near 0 leans on the advice; gamma = 2 ignores it entirely.
    """

    _fields = ("gamma", "domain")

    def __init__(self, gamma: Real, domain: ValueDomain = REALS):
        object.__setattr__(self, "lam", confidence_weight(gamma))  # validates the range
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "domain", domain)


# The empty projection: it sorts before every (value, weight) pair, so a
# profile of projections sorts.
SLOPE_INVISIBLE = ()


def projection(domain: ValueDomain, cls, xs, labels):
    """An agent's projection under class `cls`: the largest minimizer over
    `domain` of its `class_entries`' weighted loss, and their total weight,
    |S_i| for a constant agent and the total |x| for a linear one.
    SLOPE_INVISIBLE for a linear agent whose x are all zero: it cannot
    move the slope."""
    values, weights, _ = class_entries(cls, xs, labels)
    if not values:
        return SLOPE_INVISIBLE
    return _optima(domain, values, weights)[-1], sum(weights)


def check_pfa_inputs(cfg: PfaConfig, cls, advice: Real) -> None:
    """Raise ClassMismatchError unless pfa with `cfg` accepts an instance of
    class `cls` and the advice."""
    if not isinstance(cls, ConstantClass) or cls.domain != cfg.domain:
        raise ClassMismatchError("instance domain does not match the mechanism")
    if advice not in cfg.domain:
        raise ClassMismatchError(f"advice {advice!r} lies outside the value domain")


def pfa_fit(cfg: PfaConfig, projections, advice: Real) -> ConstantChoice:
    """The fit step of pfa: the largest minimizer over the domain of the
    weighted loss of the per-agent projections (b_i, w_i), w_i = |S_i| for
    constant agents, plus the advice with weight lam * sum(w_i): one call
    to the median kernel, which scales exact inputs to ints itself.
    Inputs are assumed checked by `check_pfa_inputs`."""
    values, sizes = zip(*projections)
    return ConstantChoice(_optima(cfg.domain, [*values, advice], [*sizes, cfg.lam * sum(sizes)])[-1])


def pfa_ends(cfg: PfaConfig, projections) -> tuple:
    """(L, R): the `pfa_fit` of the projections on the real line with the
    advice at the least projection and at the greatest, by one scan down
    the projections sorted by value, on their weights as ints.  For every
    advice a, pfa_fit(cfg, projections, a) is min(max(a, L), R).  Exact
    inputs only.

    Proof.  Write G(x) for the weight of the projections at or above x, Q
    for their total and A = lam * Q for the advice's, so the total is
    T = Q + A, and A < T/2, as lam < 1 for gamma > 0.  The fit is the
    largest value v among the projections and a with G(v) + A*[a >= v] >=
    T/2 (the kernel's scan down stops at the first entry carrying half the
    weight, and a zero weight is never an end).  Let R be the largest
    projection with G(R) + A >= T/2 and L the largest with G(L) >= T/2;
    both exist, as G(least projection) = Q >= T/2, and L <= R.  If a >= R,
    R qualifies, and a value v > R, a or a projection, does not: G(v) + A
    < T/2.  If a <= L, L qualifies, and a projection v > L does not, since
    it counts only G(v) < T/2.  If L < a < R, a qualifies, as G(a) >=
    G(R), and a projection v > a does not, since v > L.  So the fit is R,
    L or a: the clamp.  With lam = p/q, G + A >= T/2 reads 2qG >= (q - p)Q
    and G >= T/2 reads 2qG >= (q + p)Q, so the scan down meets R first and
    stops at L."""
    order = sorted(projections, reverse=True)
    _, weights = _common([w for _, w in order])
    p, q = cfg.lam.numerator, cfg.lam.denominator
    total, acc, hi = sum(weights), 0, None
    for (b, _), w in zip(order, weights):
        acc += 2 * q * w
        if hi is None and acc >= (q - p) * total:
            hi = b
        if acc >= (q + p) * total:
            return b, hi


def pfa(cfg: PfaConfig, instance: Instance, advice: Real) -> ConstantChoice:
    """Project-and-fit with advice over constant functions.

    Each agent is replaced by |S_i| copies of their personal optimum b_i;
    the advice enters with weight lam * |S| and the weighted median of the
    result (largest tie-break) is returned.
    """
    cls = instance.function_class
    check_pfa_inputs(cfg, cls, advice)
    return pfa_fit(cfg, [projection(cfg.domain, cls, a.xs, a.labels) for a in instance.agents], advice)


# ---------------------------------------------------------------------------
# Homogeneous linear functions via the weighted constant mapping
# ---------------------------------------------------------------------------


class MappedLinearInstance(Value):
    """Per-agent weighted samples of y/x values with |x| weights, in
    `agent_samples`: one WeightedSample or None per agent.

    Points with x = 0 cannot influence the slope; they are dropped from the
    samples and their |y| losses accumulate into `risk_offset` (already
    normalized by the original point count).  `total_mapped_weight` is the
    mapped multiset's size, i.e. the sum of all |x|.
    """

    _fields = ("agent_samples", "risk_offset", "total_mapped_weight")

    def pooled_sample(self) -> WeightedSample:
        entries = []
        for s in self.agent_samples:
            if s is not None:
                entries.extend(s.entries)
        return WeightedSample(tuple(entries))


def map_to_constant_instance(instance: Instance) -> MappedLinearInstance:
    """Turn a homogeneous-linear instance into weighted constant-fitting data:
    each agent's `class_entries`.  Raises DegenerateLinearInstance when all
    x are zero."""
    cls = instance.function_class
    if not isinstance(cls, LinearClass):
        raise ClassMismatchError("linear-class instance required")
    check_nondegenerate(instance)
    samples = []
    offset_sum = 0
    total_weight = 0
    for agent in instance.agents:
        values, weights, offset = class_entries(cls, agent.xs, agent.labels)
        offset_sum += offset
        total_weight += sum(weights)
        samples.append(WeightedSample(tuple(zip(values, weights))) if values else None)
    return MappedLinearInstance(
        tuple(samples), exact_div(offset_sum, instance.total_points), total_weight
    )


def lpfa_fit(cfg: PfaConfig, projections, advice_slope: Real) -> LinearChoice:
    """The fit step of lpfa: `pfa_fit` on the agents' slope-visible
    `projection`s.  With every agent slope-invisible all x are zero, every
    slope is optimal, and the advice slope is returned."""
    visible = [proj for proj in projections if proj != SLOPE_INVISIBLE]
    return LinearChoice(pfa_fit(cfg, visible, advice_slope).value if visible else advice_slope)


def lpfa(gamma: Real, instance: Instance, advice_slope: Real) -> LinearChoice:
    """Project-and-fit with advice lifted to homogeneous linear functions.

    Runs the constant pipeline on the mapped weighted data: each agent is
    projected to the weighted median of its y/x values, projections carry
    the agent's total |x| weight, and the advice enters with weight
    lam * (total mapped weight) since the mapped multiset is what the
    constant mechanism actually sees.  A fully degenerate instance (all
    x = 0) returns the advice slope: every slope is optimal there.
    """
    cfg = PfaConfig(gamma)
    cls = instance.function_class
    if not isinstance(cls, LinearClass):
        raise ClassMismatchError("linear-class instance required")
    return lpfa_fit(cfg, [projection(REALS, cls, a.xs, a.labels) for a in instance.agents], advice_slope)


def optimal_slope_set(instance: Instance):
    """Minimizing slopes as an interval, plus the optimal linear risk: the
    `optimal_set` of a linear-class instance."""
    if not isinstance(instance.function_class, LinearClass):
        raise ClassMismatchError("linear-class instance required")
    return optimal_set(instance)


def mapped_optimal_set(instance: Instance):
    """Minimizing slopes of the mapped weighted data as an interval, plus
    their risk on that data: the optimum the constant mechanism inside
    `lpfa` faces."""
    if not isinstance(instance.function_class, LinearClass):
        raise ClassMismatchError("linear-class instance required")
    values, weights, _ = pooled_entries(instance)
    pooled = WeightedSample(tuple(zip(values, weights)))
    lo, hi = weighted_median_bounds(pooled)
    return (lo, hi), pooled.risk(hi)


def advice_error_linear(instance: Instance, advice_slope: Real) -> Real:
    """Advice error for the linear class: distance from the advice slope to
    the optimal slope set, normalized by the optimal linear risk."""
    try:
        interval, best = optimal_slope_set(instance)
    except DegenerateLinearInstance:
        return 0
    return advice_error(interval, best, advice_slope, True)


def advice_error_mapped(instance: Instance, advice_slope: Real) -> Real:
    """Advice error of the slope measured on the mapped weighted data, i.e.
    what the constant mechanism inside `lpfa` actually faces.  On instances
    without x = 0 points this equals advice_error_linear scaled by the ratio
    of the mapped weight to the point count."""
    try:
        interval, best = mapped_optimal_set(instance)
    except DegenerateLinearInstance:
        return 0
    return advice_error(interval, best, advice_slope, True)
