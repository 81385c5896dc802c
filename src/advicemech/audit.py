"""Empirical verification engine: exhaustive misreport search, coalition
search, approximation ratios, and consistency/robustness frontier sweeps.

The searches are refutation-complete over the enumerated space: an empty
violation list certifies nothing beyond that space, while every recorded
violation carries enough data to replay it independently.

A mechanism's `fn` is its definition.  Misreport spaces enumerate label
vectors up to point order, and mechanisms may declare a `signature`
describing exactly which statistic of a reported dataset their output
depends on; reports sharing a signature share an outcome and therefore a
gain, so only one representative per signature is evaluated.  Every
mechanism here is symmetric in a dataset's points and its signature claim
is property-tested against raw enumeration.  Every registered mechanism
also has a fit, which computes its outcome from a profile of exact
signatures alone (pfa and lpfa from the per-agent projections, mean from
the label sums, srda and the two-labeling wrappers from the count of
agents siding with the second labeling), so an outcome-cache miss builds
no instance.  A fit is `fn` with the profile left open: `fit(cls, advice)`
raises what `fn` raises for that class and advice, and otherwise returns
`profile -> outcome`.  A mechanism keeps one entry (`_Entry`) per (class,
advice) it meets, the advice keyed by its (numerator, denominator): that
function, made and checked once, the outcome cache keyed by the profile
alone, and the rows.  The fit serves the caches only.  Each registered
fit hands back the context's interned object, one per value of what it
reads: pfa's and lpfa's the outcomes of a profile's two ends or of the
advice (`_clamped`), mean's one per (sum of labels, sum of sizes), srda's
one per (gamma, count, number of agents, advice) and the two-labeling
pfa's one per (disagreement points, count, number of agents, advice),
each kept in a `functools.cache` that every class the mechanism serves
shares, as it shares what a fit builds from gamma alone (the two-labeling
pfa's `PfaConfig`, the two-labeling srda's reduced class per number of
disagreement points).

`check_strategyproof` and `check_group_strategyproof` are one engine,
`_audit`, at coalition size 1 and up to `max_coalition`, built from three
pieces:

- A plan (`_Plan`) prepares an instance and a space once for audits at
  every advice: the signature profile, the elementary symmetric sums of
  the report counts that every budget is summed from, loss tables, pools,
  and per coalition its member pools, its row slot and the slot's
  profiles.
- An outcome row holds the outcome of each joint report of a coalition,
  in product order of its members' pools, and nothing else.  Registered
  mechanisms are anonymous (the outcome depends on the multiset of
  signatures), so a row is shared by every instance with the same
  signatures outside the coalition ("others") and member pool signatures,
  the key of its slot, within the entry of one class and advice, and its
  outcomes are cached by the sorted full profile.  Those profiles depend
  on neither gamma, advice nor class: they are sorted once per slot, when
  the context numbers it.
- Gains (`_gains`) are computed once per distinct outcome of a row, not
  per joint report, and on integers for every exact outcome, rational
  ones included: each agent's loss table maps an outcome to the ints
  (num, den) of its unnormalized loss sum (risk times |S_i|), and every
  drop, epsilon bar and max_gain is compared by cross-multiplication, so
  a Fraction is built only for a violation's fields and the returned
  max_gain.  Joints are enumerated again only for a row with a violating
  outcome, so violations keep coalition order and product order.

The caches split by what gamma changes.  A mechanism keeps its entries,
with their outcome caches and rows, and its fit's memos.  Everything else
(the signature and its memo, pools, loss tables, the outcome intern, row
slot numbers with their profiles and the last plan) lives in a context
(`_Context`).  `pfa_mechanism` and `srda_mechanism` take the context of
their family and the parameters their signature depends on (pfa's domain,
srda's `literal_indicator`) from a registry of weak values, so the
gamma-mechanisms alive together, one per gamma, share one, and it dies
with the last of them: a caller that drops its mechanisms starts cold, and
so does one that builds a gamma again while it holds the last, which the
context sees in `live`, its weak map from name to live mechanism.  Every
other mechanism has a context of its own.  The intern keeps one
object per distinct outcome alive as long as its context, so loss tables
and rows key an outcome by `id()`, not by its hash, and rows are keyed by
slot number, never by a mechanism's id, which a new mechanism may reuse.

So a cold audit pays per distinct outcome, not per (gamma, advice,
profile).  An outcome-cache miss is one fit call that returns an object
its memo already holds, or builds and interns one per new statistic
value, and one check of the object's id against the intern's (`_Entry`),
which passes every registered fit's object; only an object the intern
does not hold (a fit from outside the registry) is interned there.
Filling a row is one cache lookup per joint report of the slot's
profiles, with no sort, and one pass by identity for its distinct
outcomes (`_row`).

These caches compare keys by ==, and 0.5 == 1/2, so they hold exact work
only: a report holding a float is a signature class of its own, and no
outcome holding a float is cached, interned, put in a row or scored in a
loss table.  `outcome()` is the one gate between the fit and `fn`: a
mechanism with a fit, on exact advice and an instance with no float
(`Instance.exact`, computed once per instance), is answered by its entry,
and everything else, and a fit's outcome holding a float, by `fn` on the
instance.  An audit takes the same path on the same terms, with an exact
space and epsilon: `_gains` reads the entry, and `_definition` runs `fn`
on every reported instance otherwise, or when an outcome holds a float.

`MECHANISMS` is the one table of mechanisms: per CLI name, the function
class it accepts, its gamma range, its constructor and its guarantee.  The
CLI, the sweeps and `error_interpolation_check` read it.

Ratio loops compile an instance (`CompiledInstance`) and run
`brute_force_optimal_risk`, the independent check of the optimum, once:
per sweep in `consistency_robustness_sweep` (with the optimal functions
and advice grid; `frontier_row` is the sweep at one gamma), per call in
`approximation_ratio` and `error_interpolation_check`.  A sweep, like the
CLI's `audit`, keeps one mechanism per (gamma, `MechanismFamily.key`):
one per domain for pfa and one for every class of the other families, so
a corpus of two-labeling instances, each of its own class, shares one
mechanism, its context and its fit's memos per gamma.  A ratio query then
costs one mechanism outcome (a cache lookup or one fit) plus one bisect,
and its risk is the int pair of `CompiledInstance.risk_pair`.  A cold
query, one that makes a new (class, advice) entry, hashes the advice as
an int pair, not as a Fraction.  pfa's and lpfa's fits on the real line
clamp the advice between two ends of the profile (`regression.pfa_ends`,
one scan), computed once per (gamma, profile) and kept as int pairs, so a
sweep's ~22 advice values per instance share one scan and each compares
with the ends by cross-multiplication.  A sweep keeps the worst risk per
(gamma, instance), over the optimal functions and over the grid, as an
int pair compared by cross-multiplication, and builds one Fraction and
one ratio for each (`_worst_ratio`); a float risk gets its own ratio, as
every risk did.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, combinations, combinations_with_replacement, product, repeat
from math import comb

from .classification import (
    SRDA_GAMMA_MAX,
    check_srda_inputs,
    disagreement_points,
    pfa_two_labeling,
    srda,
    srda_fit,
    srda_two_labeling,
    two_labeling_pair,
)
from .model import (
    BINARY_DOMAIN,
    INF,
    REALS,
    AgentDataset,
    ClassMismatchError,
    CompiledInstance,
    ConstantChoice,
    ConstantClass,
    Instance,
    LabelingChoice,
    LabelingLottery,
    LabelingsClass,
    LinearChoice,
    LinearClass,
    Real,
    Value,
    ValueDomain,
    _risk_sum,
    advice_error,
    c0c1_class,
    class_entries,
    exact_div,
    global_risk,
    optimal_constant_set,
    optimal_set,
    personal_risk,
)
from .regression import (
    PFA_GAMMA_MAX,
    PfaConfig,
    check_pfa_inputs,
    lpfa,
    lpfa_fit,
    mapped_optimal_set,
    pfa,
    pfa_ends,
    pfa_fit,
    projection,
)


class SpaceTooLargeError(RuntimeError):
    """Raised when an exhaustive search would exceed the evaluation budget."""


EVALUATION_BUDGET = 10**7


# ---------------------------------------------------------------------------
# Misreport spaces
# ---------------------------------------------------------------------------


def _distinct(values) -> tuple:
    """`values` sorted, each one dropped that equals an earlier value of the
    same kind, float or exact: 1 and 1/1 merge, 0.5 and 1/2 both stay."""
    kept = dict.fromkeys((v, isinstance(v, float)) for v in values)
    return tuple(sorted(v for v, _ in kept))


class GridLabels(Value):
    """Every relabeling of an agent's points with values from a fixed grid,
    enumerated up to point order.  `exact`: no level is a float, so a float
    grid never equals an exact one."""

    _fields = ("levels", "exact")

    def __init__(self, levels: tuple):
        levels = _distinct(levels)
        Value.__init__(self, levels, _exact(levels))

    def reports(self, agent: AgentDataset):
        return combinations_with_replacement(self.levels, len(agent))

    def count(self, agent: AgentDataset) -> int:
        return comb(len(self.levels) + len(agent) - 1, len(agent))


class ProjectedConstant(Value):
    """Reports of |S_i| copies of a single candidate value.  For projection
    mechanisms every misreport is outcome-equivalent to one of these, so
    this tiny space is exhaustive for them.  `exact` as for GridLabels."""

    _fields = ("candidates", "exact")

    def __init__(self, candidates: tuple):
        candidates = _distinct(candidates)
        Value.__init__(self, candidates, _exact(candidates))

    @classmethod
    def for_instance(cls, instance: Instance, advice: Real) -> "ProjectedConstant":
        return cls((*instance.all_labels(), advice))

    def reports(self, agent: AgentDataset):
        size = len(agent)
        return ((c,) * size for c in self.candidates)

    def count(self, agent: AgentDataset) -> int:
        return len(self.candidates)


class AllBinaryVectors(Value):
    """All 0/1 labelings of the m shared points."""

    _fields = ("m",)
    exact = True

    def reports(self, agent: AgentDataset):
        if len(agent) != self.m:
            raise ValueError("agent size does not match the shared input")
        return product((0, 1), repeat=self.m)

    def count(self, agent: AgentDataset) -> int:
        return 2**self.m


# ---------------------------------------------------------------------------
# Auditable mechanisms
# ---------------------------------------------------------------------------


class _Context:
    """What every mechanism of one signature family and its parameters
    shares, since none of it depends on gamma: the signature (with any memo
    it keeps), the pools (`grouped_reports`), each agent's loss table, the
    outcome intern, the row slots with their profiles and the plan of the
    instance audited last.  The intern (`outcomes`, and `held`, the ids of
    its objects) holds one object per distinct cached outcome for as long
    as the context lives, so loss tables and rows key an outcome by its
    `id()`, and an id in `held` is never reused while the context lives.
    Nothing here refers to a mechanism strongly: mechanisms hold their
    context, so it lives exactly as long as one of them does, and `live`
    maps each name `_sharing` gave to its mechanism by weak reference, so
    a name leaves it when its mechanism dies.  Row slots are keyed by
    (others, pool signatures), what a row depends on (`_Plan`)."""

    def __init__(self, signature=None):
        exact = signature or (lambda xs, labels, cls: (xs, tuple(labels)))

        def faithful(xs, labels, cls):
            if _exact(labels):
                return exact(xs, labels, cls)
            return float, tuple(labels), tuple(map(type, labels))

        self.signature = faithful
        self.groups = {}  # (space, xs, class) -> the agent's pools
        self.tables = {}  # (xs, labels, class) -> the agent's loss table: id(outcome) -> (num, den)
        self.outcomes = {}  # one object per distinct cached outcome
        self.held = set()  # the ids of those objects
        # (others, pool signatures) -> (a row slot's number, the sorted
        # full profile of each joint report, in product order)
        self.slots = {}
        self.plan = None  # the _Plan of the instance audited last; `_audit` keeps it
        self.live = weakref.WeakValueDictionary()  # name -> the live mechanism `_sharing` gave it

    def intern(self, out):
        """The intern's object equal to `out`, which becomes it if there is
        none.  An outcome holding a float raises AttributeError before the
        lookup, since 0.5 == 1/2, and is not interned."""
        if not _exact_outcome(out):
            raise AttributeError(f"{out!r} holds a float")
        out = self.outcomes.setdefault(out, out)
        self.held.add(id(out))
        return out


# (family, the parameters its signature depends on) -> the context of the
# mechanisms alive with them; it holds no context that no mechanism holds
_CONTEXTS = weakref.WeakValueDictionary()


class _Entry(dict):
    """A mechanism's state at one (class, advice): the function its
    `fit(cls, advice)` returned, `rows` (row slot -> row), and the entry
    itself, the outcome cache: profile -> outcome.  A miss runs the fit on
    the profile.  The registered fits hand back the intern's own object,
    interned by their memos when made, so a miss checks the object's id
    against the context's `held` and passes it through `_Context.intern`
    only when it is not there, as for a fit from outside the registry:
    one float scan and one intern lookup per distinct object a fit makes,
    not per miss.  An outcome holding a float raises AttributeError, in
    the memo or here, as `_risk_sum` does on one, and is not stored."""

    __slots__ = ("fit", "rows", "held", "intern")

    def __init__(self, fit, context):
        self.fit, self.rows, self.held, self.intern = fit, {}, context.held, context.intern

    def __missing__(self, profile):
        out = self.fit(profile)
        if id(out) not in self.held:
            out = self.intern(out)
        self[profile] = out
        return out


class AuditableMechanism:
    """A mechanism closure plus the metadata the audit engine exploits.

    `fn(instance, advice)` is the mechanism's definition: every outcome the
    caches do not hold comes from it.

    `signature(xs, labels, cls)` must return a hashable statistic such that
    two reported datasets with equal signatures always produce the same
    mechanism outcome (holding everything else fixed).  Without one, the
    report itself, `(xs, labels)`, is the signature.  Either way it speaks
    for exact reports only: a report holding a float is its own class,
    keyed by its labels and their types, since 0.5 == 1/2 and the outcomes
    of the two may differ in type.

    `fit(cls, advice)`, when given, is `fn` with the profile left open: it
    raises what `fn` raises for class `cls` and that advice, and otherwise
    returns a function `profile -> outcome` that equals `fn` on every
    reported instance of class `cls` whose signature profile is `profile`.
    It answers the caches' misses, which build no instance.  Having a fit
    also declares the mechanism anonymous: on exact inputs its outcome
    depends on the multiset of signatures only, not on which agent reports
    which, and signatures sort, so audits share outcome rows across
    instances and key outcomes by the sorted profile.

    The signature and every cache that does not depend on the outcome
    function live in the mechanism's `context` (`_Context`), its own unless
    `pfa_mechanism` or `srda_mechanism` hands it the one its gamma-siblings
    alive share.  The mechanism keeps what depends on its outcomes: one
    `_Entry` per (class, advice) it was asked for, made by one call of the
    fit, with the outcome cache and the rows of that class and advice.
    """

    def __init__(self, fn, name: str, signature=None, fit=None):
        self.fn = fn
        self.name = name
        self.fit = fit
        self.context = _Context(signature)
        self._cache = {}  # function class -> {advice -> _Entry}
        self._view = (None, None)  # the class last asked for and its entry of _cache

    @property
    def signature(self):
        return self.context.signature

    def true_personal_risk(self, table, outcome, agent, cls) -> tuple:
        """A miss of the agent's loss table `table`: the loss sum of an
        exact, interned outcome against the agent's true data, as the ints
        (num, den) of `_risk_sum` (the personal risk times |S_i| is
        num/den), stored in `table` under the outcome's id for every later
        audit.  The caller holds the table, so its key is not hashed
        again.  An outcome holding a float raises AttributeError and is not
        stored."""
        return table.setdefault(id(outcome), _risk_sum(outcome, cls, (agent,)))

    def __call__(self, instance: Instance, advice):
        return self.fn(instance, advice)

    def profile(self, instance: Instance) -> tuple:
        """The signature of every agent's dataset."""
        cls = instance.function_class
        return tuple(self.signature(a.xs, a.labels, cls) for a in instance.agents)

    def _entry(self, cls, advice) -> _Entry:
        """The entry of (cls, advice), made by `fit(cls, advice)` when first
        asked for: a class or advice the fit refuses raises, every time,
        and stores no entry.  Classes are keyed by equality, and the advice
        by its (numerator, denominator), a pair of ints that hashes fast
        and is equal exactly when two exact advice values are; float advice
        must not reach here, since 0.0 == 0."""
        if cls is not self._view[0]:  # a class hashes slowly, and audits ask for one often
            self._view = (cls, self._cache.setdefault(cls, {}))
        key = advice.numerator, advice.denominator
        entry = self._view[1].get(key)
        if entry is None:
            entry = self._view[1][key] = _Entry(self.fit(cls, advice), self.context)
        return entry

    def outcome(self, instance: Instance, advice, profile=None):
        """The outcome on `instance`, and the one place that chooses between
        the fit and `fn`.  A mechanism with a fit, on exact advice and an
        `Instance.exact` instance, is answered by its entry from the
        signature profile (`profile`, the instance's own, computed in
        advance or here); `fn` on the instance answers everything else,
        and an outcome of the fit that holds a float."""
        if self.fit is None or isinstance(advice, float) or not instance.exact:
            return self.fn(instance, advice)
        entry = self._entry(instance.function_class, advice)
        try:
            return entry[self.profile(instance) if profile is None else profile]
        except AttributeError:  # a float outcome
            return self.fn(instance, advice)

    def grouped_reports(self, space, agent, cls):
        """`_groups`, cached per (space, xs, class) in the context: every
        misreport space enumerates reports from an agent's public x values
        and size alone."""
        key = (space, agent.xs, cls)
        groups = self.context.groups.get(key)
        if groups is None:
            groups = self.context.groups[key] = _groups(self, space, agent, cls)
        return groups


def _sharing(key, signature, fn, name, fit) -> AuditableMechanism:
    """A mechanism on the context of `key` that its live siblings share,
    one per name (gamma).  A new context, with `signature()`, replaces it
    when none of them is alive or one of them has this name in the
    context's `live` map, which holds mechanisms weakly, so a name leaves
    it with its mechanism: a caller that builds the same gammas again,
    while the last set is still held, starts cold too."""
    mechanism = AuditableMechanism(fn, name, fit=fit)
    context = _CONTEXTS.get(key)
    if context is None or name in context.live:
        context = _CONTEXTS[key] = _Context(signature())
    context.live[name] = mechanism
    mechanism.context = context
    return mechanism


def _groups(mechanism, space, agent, cls) -> tuple:
    """One (signature, representative report) per signature class of the
    agent's reports under `space`, the first report of each, in order."""
    groups = {}
    for labels in space.reports(agent):
        groups.setdefault(mechanism.signature(agent.xs, labels, cls), tuple(labels))
    return tuple(groups.items())


def _clamped(cfg: PfaConfig, fit, choice, intern):
    """`advice -> (profile -> outcome)`: `fit` (`pfa_fit` or `lpfa_fit`) at
    `cfg`, by the clamp identity of `pfa_ends`.  The outcome is the
    `choice` of the advice clamped between the ends of the profile's
    slope-visible projections.  A memo, kept for the life of the
    mechanism, holds per profile its ends, as int pairs (num, den), and
    their outcomes; the advice's pair and outcome are made when the fit
    is, once per (class, advice) entry; and each outcome is made once per
    value and passed through `intern` (the context's).  So a miss compares
    the advice with two ends by cross-multiplication, with no Fraction
    arithmetic, and returns one of three interned objects, and the advice
    values asked of one profile share one `pfa_ends` scan.  With no
    visible projection the fit is the advice, between the ends -1/0 and
    1/0, which stand for -inf and inf.  The identity is proved on the real
    line, and it holds on a finite domain too: there every projection and the advice are
    domain values, so the real-line fit, one of them, is a domain value,
    and it is the one the finite fit returns.  `fit` itself answers a float
    lam, advice or domain value, whose outcome types the ends would not
    keep.  Profiles must be exact: one holding a float must not reach the
    memo, since 0.5 == 1/2 and it would read an exact profile's ends."""
    clamps = _exact((cfg.lam, *(cfg.domain.values or ())))
    chosen = cache(lambda value: intern(choice(value)))  # an exact value -> its interned outcome

    def ends_of(profile):
        visible = [proj for proj in profile if proj]  # SLOPE_INVISIBLE is the empty tuple
        if not visible:  # every slope fits: the advice, between no ends
            return -1, 0, 1, 0, None, None
        lo, hi = pfa_ends(cfg, visible)
        return lo.numerator, lo.denominator, hi.numerator, hi.denominator, chosen(lo), chosen(hi)

    ends = {}  # profile -> (L and R as (num, den), the outcome at L, at R)

    def at(advice):
        if not clamps or isinstance(advice, float):
            return lambda profile: fit(cfg, profile, advice)
        inside, p, q = chosen(advice), advice.numerator, advice.denominator

        def clamped(profile):
            ln, ld, hn, hd, at_lo, at_hi = ends.get(profile) or ends.setdefault(profile, ends_of(profile))
            return at_lo if p * ld <= ln * q else at_hi if p * hd >= hn * q else inside

        return clamped

    return at


def pfa_mechanism(gamma, domain: ValueDomain = REALS) -> AuditableMechanism:
    """pfa whose signature is the agent's `projection` (b_i, |S_i|), so a
    cache miss is one fit over the profile: the advice clamped between the
    profile's `pfa_ends`, which the mechanism computes once per profile
    (`_clamped`), or, for a float gamma, advice or domain value,
    `pfa_fit`, the weighted median of the projections and the advice.  The
    pfa mechanisms alive on one domain share a context: the projection
    depends on the domain, not on gamma; the ends depend on gamma and stay
    with the mechanism, their outcomes in the shared intern.  `fit(cls,
    advice)` checks the class and the advice, which the mechanism asks once
    per (class, advice)."""
    cfg = PfaConfig(gamma, domain)

    def fn(instance, advice):
        return pfa(cfg, instance, advice)

    def fit(cls, advice):  # `clamped` is made below, once the context is known
        check_pfa_inputs(cfg, cls, advice)
        # a projection holds no float: a report with a float label is a class of its own
        return clamped(advice)

    def signature():
        constant = ConstantClass(domain)  # the memo is keyed by labels alone, not by cls
        memo = {}

        def project(xs, labels, cls):
            key = tuple(sorted(labels))
            sig = memo.get(key)
            if sig is None:
                sig = memo[key] = projection(domain, constant, xs, labels)
            return sig

        return project

    # the memo is keyed by labels alone, and an equal domain of other value
    # types (0.5 for 1/2) may project to other types
    key = "pfa", domain, tuple(map(type, domain.values or ()))
    mechanism = _sharing(key, signature, fn, f"pfa(gamma={gamma})", fit)
    clamped = _clamped(cfg, pfa_fit, ConstantChoice, mechanism.context.intern)  # on the shared intern
    return mechanism


def lpfa_mechanism(gamma) -> AuditableMechanism:
    """lpfa whose signature is the agent's `projection`, so a cache miss is
    one fit over the profile: the advice slope clamped between the
    `pfa_ends` of the slope-visible projections, computed once per profile
    (`_clamped`), or the advice slope itself when no projection is
    visible."""
    cfg = PfaConfig(gamma)

    def fn(instance, advice):
        return lpfa(gamma, instance, advice)

    def signature(xs, labels, cls):
        return projection(REALS, LinearClass(), xs, labels)

    def fit(cls, advice):  # `clamped` is made below, once the context is known
        if not isinstance(cls, LinearClass):
            raise ClassMismatchError("linear-class instance required")
        exact = clamped(advice)
        # a float x projects to floats, which go to the fit itself
        return lambda prof: exact(prof) if _exact(chain.from_iterable(prof)) else lpfa_fit(cfg, prof, advice)

    mechanism = AuditableMechanism(fn, f"lpfa(gamma={gamma})", signature, fit)
    clamped = _clamped(cfg, lpfa_fit, LinearChoice, mechanism.context.intern)
    return mechanism


def mean_mechanism() -> AuditableMechanism:
    """Non-strategyproof baseline: the plain average of all reported labels.
    Its signature is (sum, |S_i|), and its fit keeps one interned outcome
    per (sum of the sums, sum of the sizes)."""

    def fn(instance, advice):
        labels = instance.all_labels()
        return ConstantChoice(exact_div(sum(labels), len(labels)))

    def signature(xs, labels, cls):
        return sum(labels), len(labels)

    def mean(profile):
        return means(sum(s for s, _ in profile), sum(m for _, m in profile))

    mechanism = AuditableMechanism(fn, "mean-baseline", signature, lambda cls, advice: mean)
    intern = mechanism.context.intern  # not the mechanism, which would make a cycle through its fit
    means = cache(lambda total, size: intern(ConstantChoice(exact_div(total, size))))
    return mechanism


def _side_signature(literal_indicator: bool = False):
    """The signature of the two-labeling mechanisms, srda included: whether
    an agent counts toward the second labeling, i.e. agrees with it on at
    least half the points where the pair disagrees (at most half with
    `literal_indicator`)."""

    def signature(xs, labels, cls):
        first, second = two_labeling_pair(cls)
        agree2 = 2 * sum(
            1 for j, y in enumerate(labels) if first[j] != second[j] and y == second[j]
        )
        disagreements = sum(1 for a, b in zip(first, second) if a != b)
        return (agree2 <= disagreements,) if literal_indicator else (agree2 >= disagreements,)

    return signature


def _srda_fit(gamma, reduced: bool, intern):
    """srda's lottery from the count of True signatures, on the instance's
    class or (`reduced`) on the {c0, c1} class `two_labeling_reduce` maps
    to, built once per number m of disagreement points.  The lottery
    depends on the class only through its checks, so the mechanism keeps
    one per (gamma, count, agents, advice) for every class, passed through
    `intern` (its context's) when made; a lottery holding a float raises
    AttributeError there and is not kept."""
    lottery = cache(lambda g, count, n, advice: intern(srda_fit(g, Fraction(count, n), advice)))
    reduced_class = cache(c0c1_class)

    def fit(cls, advice):
        if reduced:
            cls = reduced_class(len(disagreement_points(cls, advice)))
        g = check_srda_inputs(gamma, cls, advice)
        return lambda profile: lottery(g, sum(s for (s,) in profile), len(profile), advice)

    return fit


def srda_mechanism(gamma, literal_indicator: bool = False) -> AuditableMechanism:
    """srda; the srda mechanisms alive with one `literal_indicator` share a
    context, since the side signature does not depend on gamma."""

    def fn(instance, advice):
        return srda(gamma, instance, advice, literal_indicator)

    mechanism = _sharing(
        ("srda", literal_indicator), lambda: _side_signature(literal_indicator),
        fn, f"srda(gamma={gamma})", None,
    )
    mechanism.fit = _srda_fit(gamma, False, mechanism.context.intern)
    return mechanism


def pfa_two_labeling_mechanism(gamma) -> AuditableMechanism:
    """The two-labeling pfa, whose fit is pfa's on the reduced profile: each
    agent a constant dataset of m copies of its side (0 or 1), m the
    class's disagreement points.  The mechanism builds its `PfaConfig` once
    (on first use, so a gamma out of range raises where `fn` does) and
    keeps one interned choice per (m, count, agents, advice) for every
    class it serves."""

    def fn(instance, advice):
        return pfa_two_labeling(gamma, instance, advice)

    config = cache(lambda: PfaConfig(gamma, BINARY_DOMAIN))
    choice = cache(lambda m, count, n, advice: intern(LabelingChoice(
        int(pfa_fit(config(), [(1, m)] * count + [(0, m)] * (n - count), advice).value)
    )))

    def fit(cls, advice):
        m = len(disagreement_points(cls, advice))
        config()  # checks gamma
        return lambda profile: choice(m, sum(s for (s,) in profile), len(profile), advice)

    mechanism = AuditableMechanism(fn, f"pfa-two-labeling(gamma={gamma})", _side_signature(), fit)
    intern = mechanism.context.intern
    return mechanism


def srda_two_labeling_mechanism(gamma, literal_indicator: bool = False) -> AuditableMechanism:
    def fn(instance, advice):
        return srda_two_labeling(gamma, instance, advice, literal_indicator)

    mechanism = AuditableMechanism(fn, f"srda-two-labeling(gamma={gamma})", _side_signature(literal_indicator))
    mechanism.fit = _srda_fit(gamma, True, mechanism.context.intern)
    return mechanism


# ---------------------------------------------------------------------------
# Strategyproofness audits
# ---------------------------------------------------------------------------


class Violation(Value):
    _fields = ("agents", "misreports", "risks_before", "risks_after", "gain")


class AuditReport(Value):
    _fields = ("violations", "max_gain", "candidates_checked")

    @property
    def ok(self) -> bool:
        return not self.violations


def _exact(values) -> bool:
    """No float among `values`."""
    return not any(map(isinstance, values, repeat(float)))


def _exact_outcome(out) -> bool:
    """No float among an outcome's fields or lottery probabilities."""
    if isinstance(out, LabelingLottery):
        return _exact(chain.from_iterable(out.branches))
    return _exact(map(getattr, repeat(out), out._fields))


def _joint_report(instance: Instance, coalition, joint) -> Instance:
    for i, (_, labels) in zip(coalition, joint):
        instance = instance.with_agent_labels(i, labels)
    return instance


class _Plan:
    """An instance and a misreport space prepared for audits at many advice
    values, by every mechanism of one context: the signature profile, each
    agent's size, `e`, the elementary symmetric sums e_0..e_n of the
    agents' report counts (e_k counts the joint reports of every coalition
    of k agents, so an audit up to `max_coalition` has the budget e_1 + ...
    + e_max_coalition) and, when the plan is `cached`, its loss tables and,
    once a budget has passed, the pools and every coalition's member pools,
    row slot and the slot's profiles.

    A plan is `cached` when the mechanism has a fit and the instance and the
    space are exact; only then do audits read and write the caches.  A slot
    is the number the context gives (the sorted signatures of the agents
    outside the coalition ("others"), the member pools' signatures): what
    a row depends on.  Each mechanism keys its rows by slot in its entry at
    the audit's class and advice, which fixes the class, so every instance
    whose coalition has the same others and pool signatures shares its
    rows.  A plan holds the context's tables and slots, but neither the
    context nor a mechanism."""

    def __init__(self, mechanism, instance, space):
        context = mechanism.context
        agents = instance.agents
        self.instance = instance
        self.space = space
        self.cls = instance.function_class
        self.profile = mechanism.profile(instance)
        self.cached = getattr(space, "exact", False) and mechanism.fit is not None and instance.exact
        self.tables = None
        if self.cached:
            self.tables = [context.tables.setdefault((a.xs, a.labels, self.cls), {}) for a in agents]
        self.slots = context.slots
        self.sizes = [len(a) for a in agents]
        self.e = e = [1] + [0] * len(agents)  # e[k]: the joint reports of all coalitions of k agents
        for count in map(space.count, agents):
            for k in range(len(agents), 0, -1):
                e[k] += e[k - 1] * count
        self.pools = None  # set by the first audit to reach the cached gain loop
        self.coalitions = {}

    def coalition_rows(self, size: int) -> list:
        """(coalition, member pools, row slot, the slot's profiles) of every
        coalition of `size`, in `combinations` order.  The slot is keyed by
        (others, pool signatures) alone: a row lives in the entry of one
        (class, advice).  A slot's profiles, the sorted full profile of
        each joint report in product order of the member pools'
        signatures, are built once, when the context numbers the slot, and
        read by every (gamma, advice) that fills a row there."""
        entries = self.coalitions.get(size)
        if entries is not None:
            return entries
        n = len(self.sizes)
        slots = self.slots
        entries = self.coalitions[size] = []
        for coalition in combinations(range(n), size):
            members = tuple(self.pools[i] for i in coalition)
            others = tuple(sorted(self.profile[j] for j in range(n) if j not in coalition))
            # a row depends on the pools' signatures, not on their reports
            sigs = tuple(tuple(sig for sig, _ in pool) for pool in members)
            # a new slot: its number, and the sorted full profile of each joint report
            slot = slots.get((others, sigs)) or slots.setdefault(
                (others, sigs), (len(slots), tuple(tuple(sorted(others + joint)) for joint in product(*sigs))))
            entries.append((coalition, members, *slot))
        return entries


def _row(entry: _Entry, profiles) -> tuple:
    """The outcome of every joint report of a coalition, as (distinct
    outcomes in order of first appearance, the index of each joint's
    outcome among them), read from the mechanism's `entry` at the audit's
    class and advice by the slot's `profiles` (`_Plan.coalition_rows`),
    the same for every instance that shares the row; the fit runs on a
    miss only, and an outcome holding a float raises AttributeError.
    Outcomes are interned, so they are told apart by identity."""
    distinct, outcomes, index = {}, [], []  # id(outcome) -> its index among `outcomes`
    for profile in profiles:
        out = entry[profile]
        k = distinct.setdefault(id(out), len(outcomes))
        if k == len(outcomes):
            outcomes.append(out)
        index.append(k)
    return tuple(outcomes), tuple(index)


def _audit(mechanism, instance, advice, space, epsilon, max_coalition) -> AuditReport:
    """The audit engine behind both public audits: every joint report of
    every coalition of at most `max_coalition` agents, one representative
    per signature class.  A violation is a joint report after which every
    member's true risk drops by at least epsilon and some member's by
    strictly more (at size one: a gain above epsilon).

    `_audit` sizes the audit, once: `max_coalition` is clamped to the
    agent count, since no coalition is larger, the budget is the plan's
    e_1 + ... + e_max_coalition, and an audit whose budget counts no
    candidate (a `max_coalition` below 1, an empty space) raises
    ValueError, since it would certify nothing.  It keeps the plan of the
    instance audited last on the mechanism's context and reuses it for the
    same instance and space, so the mechanisms sharing a context (one per
    gamma) share it, with its pools, loss tables and row slots.

    A `cached` plan with exact advice and epsilon runs `_gains`; an outcome
    holding a float stops it (AttributeError) before it enters a cache.
    Every other audit, and that one, runs `_definition`.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    context = mechanism.context
    plan = context.plan
    if plan is None or plan.instance is not instance or not (
        plan.space is space or plan.space == space
    ):
        plan = context.plan = _Plan(mechanism, instance, space)
    max_coalition = min(max_coalition, instance.n)
    budget = sum(plan.e[1 : max(max_coalition, 0) + 1])
    if budget == 0:
        raise ValueError("an audit of no candidate certifies nothing")
    if budget > EVALUATION_BUDGET:
        raise SpaceTooLargeError(
            f"{budget} candidate evaluations exceed the budget of {EVALUATION_BUDGET}"
        )
    if plan.cached and _exact((advice, epsilon)):
        try:
            return _gains(mechanism, plan, advice, epsilon, max_coalition, budget)
        except AttributeError:  # an outcome holding a float
            pass
    return _definition(mechanism, plan, advice, epsilon, max_coalition, budget)


def _gains(mechanism, plan: _Plan, advice, epsilon, max_coalition, budget) -> AuditReport:
    """The audit on the caches and on integers.  Agent i's loss sums are
    ints (num, den) from its loss table, so its drop in risk after an
    outcome is the int pair dn/dd = (bn*ad - an*bd) / (bd*ad*|S_i|) of its
    sums bn/bd before and an/ad after.  The epsilon bars (dn*eps_den
    against eps_num*dd) and the max_gain (tn, td) compare by
    cross-multiplication, so a Fraction is built only for a violation's
    fields and the returned max_gain.  Gains are computed once per distinct
    outcome of a coalition's row; the joints are enumerated again only for
    a row holding a violation, so violations come in coalition order and,
    within one, in product order.  Outcomes and rows come from the
    mechanism's entry at (class, advice), so an outcome holding a float
    raises AttributeError before it is scored."""
    cls = plan.cls
    agents = plan.instance.agents
    risk = mechanism.true_personal_risk
    tables = plan.tables
    entry = mechanism._entry(cls, advice)
    base = entry[plan.profile]
    before = [t.get(id(base)) or risk(t, base, a, cls) for t, a in zip(tables, agents)]
    if plan.pools is None:
        plan.pools = [mechanism.grouped_reports(plan.space, a, cls) for a in agents]
    rows = entry.rows
    bn, bd = zip(*before)
    bs = [d * s for d, s in zip(bd, plan.sizes)]  # a risk before is bn/bs
    en, ed = epsilon.numerator, epsilon.denominator
    tn, td = 0, 1  # max_gain is tn/td
    violations = []
    for size in range(1, max_coalition + 1):
        for coalition, members, slot, profiles in plan.coalition_rows(size):
            row = rows.get(slot)
            if row is None:
                row = rows[slot] = _row(entry, profiles)
            outcomes, index = row
            found = {}  # outcome index -> (risks before, risks after, gain)
            for k, out in enumerate(outcomes):
                if out is base:
                    continue  # outcomes are interned; every drop here is 0
                weak, strict = True, False
                for i in coalition:
                    an, ad = tables[i].get(id(out)) or risk(tables[i], out, agents[i], cls)
                    dn, dd = bn[i] * ad - an * bd[i], bs[i] * ad
                    if dn * td > tn * dd:
                        tn, td = dn, dd
                    over = dn * ed - en * dd  # the sign of drop - epsilon
                    weak = weak and over >= 0
                    strict = strict or over > 0
                if weak and strict:
                    after = [(i, *tables[i][id(out)]) for i in coalition]
                    found[k] = (
                        tuple(Fraction(bn[i], bs[i]) for i in coalition),
                        tuple(Fraction(an, ad * plan.sizes[i]) for i, an, ad in after),
                        max(Fraction(bn[i] * ad - an * bd[i], bs[i] * ad) for i, an, ad in after),
                    )
            if found:
                for joint, k in zip(product(*members), index):
                    if k in found:
                        reports = tuple(labels for _, labels in joint)
                        violations.append(Violation(coalition, reports, *found[k]))
    return AuditReport(tuple(violations), Fraction(tn, td) if tn else 0, budget)


def _definition(mechanism, plan: _Plan, advice, epsilon, max_coalition, budget) -> AuditReport:
    """The audit by its definition, on no cache: one representative per
    signature class of every agent's reports (`_groups`), each joint
    report's outcome by `fn` on the reported instance, and gains as
    differences of `personal_risk`, in the arithmetic of the inputs
    themselves."""
    instance, cls = plan.instance, plan.cls
    agents = instance.agents
    base = mechanism.fn(instance, advice)
    before = [personal_risk(base, a, cls) for a in agents]
    pools = [_groups(mechanism, plan.space, a, cls) for a in agents]
    top = 0
    violations = []
    for size in range(1, max_coalition + 1):
        for coalition in combinations(range(len(agents)), size):
            for joint in product(*(pools[i] for i in coalition)):
                out = mechanism.fn(_joint_report(instance, coalition, joint), advice)
                after = tuple(personal_risk(out, agents[i], cls) for i in coalition)
                gains = [before[i] - r for i, r in zip(coalition, after)]
                top = max(top, *gains)
                if all(g >= epsilon for g in gains) and any(g > epsilon for g in gains):
                    reports = tuple(labels for _, labels in joint)
                    risks = tuple(before[i] for i in coalition)
                    violations.append(Violation(coalition, reports, risks, after, max(gains)))
    return AuditReport(tuple(violations), top, budget)


def check_strategyproof(
    mechanism: AuditableMechanism, instance: Instance, advice, space, epsilon: Real = 0
) -> AuditReport:
    """Enumerate unilateral misreports and record every strict gain above
    epsilon.  An empty report means epsilon-strategyproof over the space."""
    return _audit(mechanism, instance, advice, space, epsilon, 1)


def check_group_strategyproof(
    mechanism: AuditableMechanism,
    instance: Instance,
    advice,
    space,
    max_coalition: int,
    epsilon: Real = 0,
) -> AuditReport:
    """Enumerate joint misreports of coalitions up to `max_coalition`.

    A violation is a joint report after which every member's true risk drops
    by at least epsilon and some member's by strictly more.
    """
    return _audit(mechanism, instance, advice, space, epsilon, max_coalition)


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
            exact_div(y, x)
            for a in instance.agents
            for x, y in zip(a.xs, a.labels)
            if x != 0
        }
        if not candidates:
            candidates = {0}
        return min(global_risk(c, instance) for c in candidates)
    return min(global_risk(i, instance) for i in range(len(cls.labelings)))


def optimal_functions(instance: Instance) -> tuple:
    """A finite set of exactly-optimal functions, used as 'correct advice'.

    For interval-valued optima these are the interval's distinct endpoints.
    """
    cls = instance.function_class
    if isinstance(cls, LabelingsClass):
        risks = [global_risk(i, instance) for i in range(len(cls.labelings))]
        best = min(risks)
        return tuple(i for i, r in enumerate(risks) if r == best)
    opt, _ = optimal_set(instance)
    return tuple(dict.fromkeys(opt))


def risk_ratio(achieved: Real, best: Real) -> Real:
    """achieved/best.  Both zero gives 1; a zero optimum with positive
    achieved risk gives inf."""
    if best == 0:
        return 1 if achieved == 0 else INF
    return exact_div(achieved, best)


class _Profile(tuple):
    """A signature profile that hashes once: a ratio loop looks it up once
    per advice, and a Fraction's hash is slow."""

    def __new__(cls, signatures):
        profile = super().__new__(cls, signatures)
        profile.hash = tuple.__hash__(profile)
        return profile

    def __hash__(self):
        return self.hash


def _risk_at(mechanism, instance: Instance, compiled: CompiledInstance):
    """advice -> the mechanism's risk on `instance`, given its compiled
    form: one `outcome()` (a cache lookup, one fit or `fn`) from the
    profile computed once here, and one bisect per query, as the ints
    (num, den) of `CompiledInstance.risk_pair`, or, where a float is
    involved, a Real.  Nothing outlives the returned function."""
    profile = _Profile(mechanism.profile(instance))
    return lambda advice: compiled.risk_pair(mechanism.outcome(instance, advice, profile))


def _worst_ratio(risks, best: Real) -> Real:
    """The largest `risk_ratio` of `risks`, as `_risk_at` gives them, to
    the optimum `best`: the first of equal ones, as `max` of the ratios
    gives it.  For a fixed optimum the ratio grows with the risk (with
    best == 0 it is 1 for a zero risk and inf otherwise), so where every
    risk is an int pair the worst risk is found by cross-multiplication,
    and one Fraction and one ratio are built.  Otherwise each risk gets its
    ratio: a float ratio rounds, and could tie or reorder exact ones."""
    if all(r.__class__ is tuple for r in risks):
        risks = [reduce(lambda w, r: r if r[0] * w[1] > w[0] * r[1] else w, risks)]
    return max(risk_ratio(Fraction(*r) if r.__class__ is tuple else r, best) for r in risks)


def approximation_ratio(mechanism, instance: Instance, advice) -> Real:
    """Mechanism risk (expected, for lotteries) over the brute-force optimum,
    by the `risk_ratio` conventions."""
    best = brute_force_optimal_risk(instance)
    return _worst_ratio([_risk_at(mechanism, instance, CompiledInstance(instance))(advice)], best)


def advice_grid(instance: Instance, points: int = 21) -> tuple:
    """Evenly spaced advice values spanning the instance's label range
    (mapped y/x range for linear instances), exact when labels are exact.
    Fewer than 2 points span no range and raise ValueError."""
    if points < 2:
        raise ValueError(f"an advice grid needs at least 2 points, got {points}")
    cls = instance.function_class
    if isinstance(cls, LabelingsClass):
        return tuple(range(len(cls.labelings)))
    if isinstance(cls, ConstantClass) and not cls.domain.is_reals:
        return cls.domain.values
    xs = [x for a in instance.agents for x in a.xs]
    values = class_entries(cls, xs, instance.all_labels())[0] or [0]
    lo, hi = min(values), max(values)
    if lo == hi:
        return (lo,)
    return tuple(lo + exact_div((hi - lo) * j, points - 1) for j in range(points))


class FrontierRow(Value):
    _fields = ("gamma", "consistency", "robustness", "bound_consistency", "bound_robustness", "ok")


class MechanismFamily(Value):
    """One entry of `MECHANISMS`: a gamma-indexed mechanism under its CLI
    name, with the function class it accepts, its gamma range
    (0, gamma_max], `make(gamma, cls)` and the constant `robust` of its
    guarantee: consistency 1 + gamma and robustness 1 + robust/gamma.
    `robust` is None for a baseline with no tradeoff curve.  `key` is the
    one rule by which the sweep and the CLI's `audit` keep a mechanism per
    gamma for many classes."""

    _fields = ("name", "function_class", "gamma_max", "make", "robust")

    def check_class(self, cls) -> None:
        """Raise ClassMismatchError unless the family accepts class `cls`."""
        if not isinstance(cls, self.function_class):
            raise ClassMismatchError(f"{self.name} needs a {self.function_class.__name__} instance")

    def mechanism(self, gamma, cls) -> AuditableMechanism:
        """The mechanism at gamma for instances of class `cls`."""
        self.check_class(cls)
        return self.make(gamma, cls)

    def key(self, cls):
        """What a caller keeps the family's mechanisms of one gamma by, for
        instances of class `cls`, once `check_class` passes it: `make`
        reads nothing of a class but a ConstantClass's domain, so the
        domain, and None for every other class.  One mechanism per (gamma,
        key) then serves every class of the key, each class with its own
        checked entry (`AuditableMechanism._entry`)."""
        self.check_class(cls)
        return getattr(cls, "domain", None)

    def bounds(self, gamma) -> tuple:
        """(consistency, robustness) guaranteed at gamma."""
        if self.robust is None:
            raise ClassMismatchError(f"{self.name} has no tradeoff curve")
        return 1 + gamma, 1 + exact_div(self.robust, gamma)

    def frontier_row(self, gamma, corpus, grid_points=21, tolerance=0) -> FrontierRow:
        """Worst ratios over the corpus at one gamma: the sweep at [gamma]."""
        (row,) = consistency_robustness_sweep(self, [gamma], corpus, grid_points, tolerance)
        return row


MECHANISMS = {
    family.name: family
    for family in (
        MechanismFamily(
            "pfa", ConstantClass, PFA_GAMMA_MAX, lambda g, cls: pfa_mechanism(g, cls.domain), 4
        ),
        MechanismFamily("lpfa", LinearClass, PFA_GAMMA_MAX, lambda g, cls: lpfa_mechanism(g), 4),
        MechanismFamily(
            "srda", LabelingsClass, SRDA_GAMMA_MAX, lambda g, cls: srda_mechanism(g), 1
        ),
        MechanismFamily(
            "pfa-two-labeling", LabelingsClass, PFA_GAMMA_MAX,
            lambda g, cls: pfa_two_labeling_mechanism(g), 4,
        ),
        MechanismFamily(
            "srda-two-labeling", LabelingsClass, SRDA_GAMMA_MAX,
            lambda g, cls: srda_two_labeling_mechanism(g), 1,
        ),
        # the baseline ignores gamma; the CLI still parses one in pfa's range
        MechanismFamily(
            "mean", ConstantClass, PFA_GAMMA_MAX, lambda g, cls: mean_mechanism(), None
        ),
    )
}


def consistency_robustness_sweep(
    family: MechanismFamily, gammas, corpus, grid_points=21, tolerance=0
):
    """Worst measured ratios per gamma next to the theoretical bounds.  Each
    instance is prepared once per sweep, after the bound and class checks;
    rows are built one gamma at a time, so one gamma's outcome caches are
    held.  At each gamma one mechanism per `MechanismFamily.key` serves
    every instance of that key: one per domain for pfa, one for the whole
    corpus of every other family, two-labeling instances of many classes
    included."""
    corpus = list(corpus)
    if not corpus:
        raise ValueError("an empty corpus certifies nothing")
    gammas = list(gammas)
    bounds = [family.bounds(g) for g in gammas]
    keys = [family.key(instance.function_class) for instance in corpus]
    prepared = [
        (instance, CompiledInstance(instance), brute_force_optimal_risk(instance),
         optimal_functions(instance), advice_grid(instance, grid_points))
        for instance in corpus
    ]
    rows = []
    for gamma, (bc, br) in zip(gammas, bounds):
        mechs = {}
        consistency = robustness = 0
        for key, (instance, compiled, best, optimal, grid) in zip(keys, prepared):
            if key not in mechs:
                mechs[key] = family.make(gamma, instance.function_class)
            risk = _risk_at(mechs[key], instance, compiled)
            consistency = max(consistency, _worst_ratio([risk(a) for a in optimal], best))
            robustness = max(robustness, _worst_ratio([risk(a) for a in grid], best))
        ok = consistency <= bc + tolerance and robustness <= br + tolerance
        rows.append(FrontierRow(gamma, consistency, robustness, bc, br, ok))
    return rows


def pfa_family() -> MechanismFamily:
    return MECHANISMS["pfa"]


def lpfa_family() -> MechanismFamily:
    return MECHANISMS["lpfa"]


def srda_family() -> MechanismFamily:
    return MECHANISMS["srda"]


def pfa_two_labeling_family() -> MechanismFamily:
    return MECHANISMS["pfa-two-labeling"]


def srda_two_labeling_family() -> MechanismFamily:
    return MECHANISMS["srda-two-labeling"]


class InterpolationRow(Value):
    _fields = ("advice", "advice_error", "ratio", "bound", "ok")


def error_interpolation_check(
    gamma, instance: Instance, advice_values, tolerance=0, linear=False,
    mechanism=None,
):
    """Measured ratio against min(1 + 4/gamma, 1 + gamma + eta) per advice.

    For linear instances eta is the advice error of the mapped weighted
    data, which is what the constant mechanism actually faces.
    """
    family = MECHANISMS["lpfa" if linear else "pfa"]
    mech = mechanism if mechanism is not None else family.mechanism(gamma, instance.function_class)
    _, robust_cap = family.bounds(gamma)
    if linear:
        optimum, best = mapped_optimal_set(instance)
        interval = True
    else:
        optimum, best = optimal_constant_set(instance)
        interval = instance.function_class.domain.is_reals
    risk, brute = _risk_at(mech, instance, CompiledInstance(instance)), brute_force_optimal_risk(instance)
    rows = []
    for advice in advice_values:
        eta = advice_error(optimum, best, advice, interval)
        r = _worst_ratio([risk(advice)], brute)
        bound = min(robust_cap, 1 + gamma + eta)
        rows.append(InterpolationRow(advice, eta, r, bound, r <= bound + tolerance))
    return rows
