"""Core data model: strategic datasets, exact risk functionals, and the
weighted-median kernel, `_optima`.  A dataset, `AgentDataset`, is one
agent's public x values and reported labels, stored once as two tuples;
the risk kernels read them as they are.  Every median of the package is
one call to `_optima`, which scales exact inputs itself:
`weighted_median_bounds` and `erm_constant` over a `WeightedSample`'s
values and weights, `optimal_set`, and the projection and fit steps of
`regression`.

Everything here is a pure function of immutable inputs.  Feed `int` or
`fractions.Fraction` values and every risk, median and ratio comes out
exact; feed a `float` anywhere and the same functions run a plain
approximate path.  All acceptance-grade computations in the test suite use
the exact path.

Exact risks are computed on Python ints: a loss sum is accumulated as an
integer numerator over one common denominator (the lcm of the query's and
the data's denominators), and one `Fraction` is built per answer.  A float
has no `denominator`, so meeting one sends a risk to the float path, which
is the plain `Fraction`/`float` arithmetic of the loss formula.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Iterable, Sequence, Union

Real = Union[int, float, Fraction]

INF = math.inf


class InvalidInstanceError(ValueError):
    """Raised when a dataset or instance violates a structural invariant."""


class ClassMismatchError(ValueError):
    """Raised when a function/advice does not belong to the instance's class."""


class DegenerateLinearInstance(InvalidInstanceError):
    """Every slope fits equally well: all input x values are zero."""


def _check_numbers(values, what: str) -> None:
    """Refuse, by name, any of `values` that is not an int (a bool
    included), a Fraction or a finite float: the numbers the risk kernels
    and the median kernel compute with."""
    for x in values:
        if not isinstance(x, (int, Fraction)) and not (isinstance(x, float) and math.isfinite(x)):
            raise InvalidInstanceError(f"{what} must be an int, a Fraction or a finite float, got {x!r}")


def exact_div(num: Real, den: Real) -> Real:
    """num/den staying rational whenever both operands are rational."""
    if isinstance(num, float) or isinstance(den, float):
        return num / den
    return Fraction(num.numerator * den.denominator, num.denominator * den.numerator)


def _common(values) -> tuple:
    """(D, ints): the lcm D of the values' denominators and every value
    times D, an int.  A float has no denominator: AttributeError."""
    dens = [v.denominator for v in values]
    d = lcm(*dens)
    if d == 1:
        return 1, [v.numerator for v in values]
    return d, [v.numerator * (d // b) for v, b in zip(values, dens)]


class Value:
    """An immutable value.  A subclass names its fields in `_fields`, and
    the default `__init__` takes them by position.  A type that checks or
    normalises its input, or that hot loops build, has its own `__init__`,
    which sets the fields by `Value.__init__` or `object.__setattr__`, as
    it does any attribute derived from them that is not a field.  (Not
    through `self.__dict__`: reading it builds the instance's dict, which
    costs memory and slows every later attribute read.)

    Two values are equal when they have the same class and equal fields,
    the hash is the hash of the field tuple and the repr is
    `Name(field=value, ...)`: the forms of a frozen dataclass, with no code
    generated per class.  Types that audits compare or hash often write
    `__eq__` and `__hash__` out, to the same contract.  Assigning or
    deleting an attribute raises AttributeError."""

    _fields = ()

    def __init_subclass__(cls):
        names = cls._fields
        if len(names) == 1:
            get = attrgetter(*names)
            cls._key = staticmethod(lambda value: (get(value),))
        else:  # attrgetter of two or more names returns their tuple
            cls._key = staticmethod(attrgetter(*names) if names else lambda value: ())

    def __init__(self, *values):
        if len(values) != len(self._fields):
            name = self.__class__.__name__
            raise TypeError(f"{name} takes {len(self._fields)} values, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Domains and function classes
# ---------------------------------------------------------------------------


class ValueDomain(Value):
    """The set of permitted constant outputs: all reals, or a finite sorted set.

    ``values is None`` means the whole real line.
    """

    _fields = ("values",)

    def __init__(self, values: tuple | None = None):
        if values is not None:
            values = tuple(values)
            if not values:
                raise InvalidInstanceError("finite domain must be nonempty")
            _check_numbers(values, "domain value")
            if any(a >= b for a, b in zip(values, values[1:])):
                raise InvalidInstanceError("finite domain must be strictly increasing")
        Value.__init__(self, values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash((self.values,))

    @classmethod
    def finite(cls, values: Iterable[Real]) -> "ValueDomain":
        return cls(tuple(sorted(values)))

    @property
    def is_reals(self) -> bool:
        return self.values is None

    def __contains__(self, a) -> bool:
        if self.values is None:
            return not (isinstance(a, float) and not math.isfinite(a))
        return any(a == v for v in self.values)


REALS = ValueDomain()
BINARY_DOMAIN = ValueDomain.finite((0, 1))


class FunctionClass(Value):
    """Marker base for the three supported hypothesis classes."""


class ConstantClass(FunctionClass):
    """All constant functions with values in `domain`."""

    _fields = ("domain",)

    def __init__(self, domain: ValueDomain = REALS):
        object.__setattr__(self, "domain", domain)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.domain == other.domain

    def __hash__(self):
        return hash((self.domain,))


class LinearClass(FunctionClass):
    """Homogeneous linear functions x -> a*x over the real line."""


class LabelingsClass(FunctionClass):
    """A finite menu of binary labelings of a shared input sequence."""

    _fields = ("labelings",)

    def __init__(self, labelings: tuple):
        labs = tuple(tuple(v) for v in labelings)
        if len(labs) < 2:
            raise InvalidInstanceError("need at least two labelings")
        m = len(labs[0])
        if m < 1 or any(len(v) != m for v in labs):
            raise InvalidInstanceError("labelings must share a positive length")
        if any(y not in (0, 1) for v in labs for y in v):
            raise InvalidInstanceError("labelings must be 0/1 valued")
        if len(set(labs)) < 2:
            raise InvalidInstanceError("need at least two distinct labelings")
        Value.__init__(self, labs)

    @property
    def num_points(self) -> int:
        return len(self.labelings[0])


def c0c1_class(m: int) -> LabelingsClass:
    """The two constant labelings (all zeros, all ones) of m shared points."""
    return LabelingsClass(((0,) * m, (1,) * m))


# ---------------------------------------------------------------------------
# Datasets and instances
# ---------------------------------------------------------------------------


class AgentDataset(Value):
    """One agent's data, the unit of strategic misreporting: its public x
    values `xs` and its reported `labels`, two tuples of one positive
    length, every entry an int, a Fraction or a finite float.  Point j is
    (xs[j], labels[j]).  The constructor takes (x, y) pairs; `from_labels`
    puts every point at x = 0, and `with_labels` keeps the x values and
    relabels them."""

    _fields = ("xs", "labels")

    def __init__(self, points: Iterable):
        points = tuple(points)
        xs = tuple([p[0] for p in points])
        _check_numbers(xs, "point x")
        self._fill(xs, tuple([p[1] for p in points]))

    def _fill(self, xs: tuple, labels: tuple) -> "AgentDataset":
        """Set the two tuples, refusing an empty `labels` or one holding a
        non-number (the caller checks `xs`), and return the dataset."""
        if not labels:
            raise InvalidInstanceError("agent dataset must contain at least one point")
        _check_numbers(labels, "label y")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "labels", labels)
        return self

    @classmethod
    def from_labels(cls, labels: Iterable[Real]) -> "AgentDataset":
        labels = tuple(labels)
        return object.__new__(cls)._fill((0,) * len(labels), labels)

    def __len__(self) -> int:
        return len(self.labels)

    def with_labels(self, labels: Sequence[Real]) -> "AgentDataset":
        """Same public x values, different (possibly misreported) labels."""
        labels = tuple(labels)
        if len(labels) != len(self.labels):
            raise InvalidInstanceError("misreport must relabel exactly the same points")
        return object.__new__(AgentDataset)._fill(self.xs, labels)


class Instance(Value):
    """A multiset union of agent datasets plus the hypothesis class, a
    `ConstantClass`, `LinearClass` or `LabelingsClass`.  `exact`: no float
    among the x values, labels and domain values, so the exact path
    answers for the instance."""

    _fields = ("agents", "function_class")

    def __init__(self, agents: tuple, function_class: FunctionClass):
        agents = tuple(a if isinstance(a, AgentDataset) else AgentDataset(a) for a in agents)
        if not agents:
            raise InvalidInstanceError("instance needs at least one agent")
        cls = function_class
        if not isinstance(cls, (ConstantClass, LinearClass, LabelingsClass)):
            raise InvalidInstanceError(f"function class must be constant, linear or labelings, got {cls!r}")
        if isinstance(cls, LabelingsClass):
            m = cls.num_points
            shared = agents[0].xs
            if len(shared) != m:
                raise InvalidInstanceError("agent data must cover all shared points")
            for a in agents:
                if a.xs != shared:
                    raise InvalidInstanceError(
                        "labeling instances require an identical x sequence per agent"
                    )
                if any(y not in (0, 1) for y in a.labels):
                    raise InvalidInstanceError("labels must be 0/1 in a labeling instance")
        domain = getattr(cls, "domain", REALS).values or ()
        lists = (domain, *(values for a in agents for values in (a.xs, a.labels)))
        exact = not any(isinstance(v, float) for values in lists for v in values)
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "function_class", cls)
        object.__setattr__(self, "exact", exact)

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def total_points(self) -> int:
        return sum(len(a) for a in self.agents)

    def all_labels(self) -> list:
        return [y for a in self.agents for y in a.labels]

    def with_agent_labels(self, i: int, labels: Sequence[Real]) -> "Instance":
        agents = list(self.agents)
        agents[i] = agents[i].with_labels(labels)
        return Instance(tuple(agents), self.function_class)


def constant_instance(label_lists, domain: ValueDomain = REALS) -> Instance:
    """Instance over constant functions; agents given as bare label lists."""
    return Instance(
        tuple(AgentDataset.from_labels(labels) for labels in label_lists),
        ConstantClass(domain),
    )


def linear_instance(pair_lists) -> Instance:
    """Instance over homogeneous linear functions; agents as (x, y) pair lists."""
    return Instance(tuple(AgentDataset(pairs) for pairs in pair_lists), LinearClass())


def shared_binary_instance(vectors, labelings=None) -> Instance:
    """Shared-input binary instance; defaults to the {all-0s, all-1s} menu."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise InvalidInstanceError("instance needs at least one agent")
    m = len(vectors[0])
    cls = c0c1_class(m) if labelings is None else LabelingsClass(tuple(labelings))
    return Instance(tuple(AgentDataset(enumerate(v)) for v in vectors), cls)


# ---------------------------------------------------------------------------
# Weighted samples and the median kernel
# ---------------------------------------------------------------------------


class WeightedSample(Value):
    """(value, weight) pairs, checked on construction: what
    `weighted_median_bounds` and `erm_constant` take from outside the
    package.  Every value and weight is an int, a Fraction or a finite
    float, every weight nonnegative, and the weights have a positive sum,
    `total_weight` (no field).  Fractional weights are first-class
    citizens.  The sample keeps no scaled weights: `_optima` scales its
    inputs itself."""

    _fields = ("entries",)

    def __init__(self, entries: tuple):
        entries = tuple(map(tuple, entries))
        _check_numbers([v for v, _ in entries], "sample value")
        weights = [w for _, w in entries]
        _check_numbers(weights, "sample weight")
        if any(w < 0 for w in weights):
            raise InvalidInstanceError("weights must be nonnegative")
        total = sum(weights)
        if total <= 0:
            raise InvalidInstanceError("total weight must be positive")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "total_weight", total)

    @classmethod
    def from_values(cls, values: Iterable[Real]) -> "WeightedSample":
        return cls(tuple((v, 1) for v in values))

    def risk(self, a: Real) -> Real:
        """Average weighted absolute loss of the constant a."""
        return exact_div(sum(w * abs(a - v) for v, w in self.entries), self.total_weight)


def _ints(values) -> list:
    """The values times the lcm of their denominators, ints, or on a float
    the values themselves: either way ordered and compared as the values."""
    try:
        return _common(values)[1]
    except AttributeError:  # a float
        return values


def _optima(domain: ValueDomain, values, weights) -> tuple:
    """The minimizers over `domain` of the weighted absolute loss of
    `values` under `weights`, ascending: the median kernel.  The weights
    are nonnegative with a positive sum.  Exact values and weights are
    scaled here to ints over one common denominator, the keys the entries
    sort by and the weights they carry; one common factor moves no
    minimizer and no tie order.  A float among them leaves them as they
    are.

    On the real line the minimizers are the weighted-median interval
    [lo, hi], returned as its ends: lo is the smallest value carrying at
    least half the total weight at or below it, hi the largest carrying at
    least half at or above it.  Comparisons are done doubled so integer
    weights never hit division.  Entries sort by (key, weight), ties in
    input order, and a zero weight is never an end.  One scan down finds
    hi, and a scan up finds lo only where it may lie below hi.

    On a finite domain, by convexity, the minimizers are the domain values
    inside the interval, or when there are none, whichever of the nearest
    neighbours on either side ties for the least loss sum, compared as
    ints when all is exact.
    """
    keys = _ints([*values, *weights])
    keys, weights = keys[: len(values)], keys[len(values) :]
    order = sorted(zip(keys, weights, range(len(values))))
    total = sum(weights)
    acc = 0
    for _, w, j in reversed(order):
        acc += w
        if 2 * acc >= total:
            lo = hi = values[j]
            break
    # more than half of int weights at or above hi's entry leaves less than
    # half below it, so a scan up stops there too
    if 2 * acc == total or total.__class__ is not int:
        acc = 0
        for _, w, j in order:
            acc += w
            if 2 * acc >= total:
                lo = values[j]
                break
    vals = domain.values
    if vals is None:
        return lo, hi
    left, right = bisect_left(vals, lo), bisect_right(vals, hi)
    if left < right:
        return vals[left:right]
    near = vals[max(left - 1, 0) : left + 1]
    keys = _ints([*values, *near])  # zip(keys, weights) stops at the values
    sums = [sum([w * abs(c - v) for v, w in zip(keys, weights)]) for c in keys[len(values) :]]
    return tuple(c for c, s in zip(near, sums) if s == min(sums))


def weighted_median_bounds(sample: WeightedSample) -> tuple:
    """The closed interval [lo, hi] of minimizers of the sample's weighted
    absolute loss: the `_optima` of its values and weights on the real
    line."""
    return _optima(REALS, *zip(*sample.entries))


def erm_constant(domain: ValueDomain, sample: WeightedSample) -> Real:
    """The largest minimizer over `domain` of the sample's weighted
    absolute loss: the last of its `_optima`."""
    return _optima(domain, *zip(*sample.entries))[-1]


def class_entries(cls: FunctionClass, xs, labels) -> tuple:
    """The weighted values a regression class fits one dataset by, as
    (values, weights, offset).  Constant class: each label with weight 1.
    Linear class: each point (x, y) with x != 0 becomes the value y/x of
    weight |x|, since |a*x - y| = |x| * |a - y/x|, and each x = 0 point
    adds |y| to the offset, the loss no slope can change."""
    if isinstance(cls, ConstantClass):
        return list(labels), [1] * len(labels), 0
    if not isinstance(cls, LinearClass):
        raise ClassMismatchError(f"constant or linear class required, got {cls!r}")
    points = [(x, y) for x, y in zip(xs, labels) if x != 0]
    offset = sum(abs(y) for x, y in zip(xs, labels) if x == 0)
    return [exact_div(y, x) for x, y in points], [abs(x) for x, _ in points], offset


def check_nondegenerate(instance: Instance) -> None:
    """Raise DegenerateLinearInstance for a linear instance whose x are all
    zero: every slope is optimal there, so no ratio or optimum is defined."""
    if isinstance(instance.function_class, LinearClass) and not any(any(a.xs) for a in instance.agents):
        raise DegenerateLinearInstance("all x values are zero; every slope is optimal")


def pooled_entries(instance: Instance) -> tuple:
    """The `class_entries` of the instance's pooled points.  A linear
    instance whose x are all zero raises DegenerateLinearInstance."""
    check_nondegenerate(instance)
    xs = [x for a in instance.agents for x in a.xs]
    return class_entries(instance.function_class, xs, instance.all_labels())


def optimal_set(instance: Instance):
    """(representatives, optimal_risk) of a regression instance, from its
    pooled `class_entries`: the interval ends (lo, hi) of the optimal
    constants on the real line or of the optimal slopes, or the tuple of
    optimal values of a finite domain.  A linear instance whose x are all
    zero raises DegenerateLinearInstance."""
    domain = getattr(instance.function_class, "domain", REALS)
    opt = _optima(domain, *pooled_entries(instance)[:2])
    return opt, global_risk(opt[-1] if domain.is_reals else opt[0], instance)


def optimal_constant_set(instance: Instance):
    """`optimal_set` of a constant-class instance."""
    if not isinstance(instance.function_class, ConstantClass):
        raise ClassMismatchError("constant-class instance required")
    return optimal_set(instance)


# ---------------------------------------------------------------------------
# Mechanism outcomes
# ---------------------------------------------------------------------------


def _hash_once(outcome, key) -> int:
    """hash(key), computed once per outcome, when first asked (the class's
    `_hash` is None): audits key loss tables, rows and the intern by
    outcome, a Fraction's hash is slow, and most outcomes are never
    hashed."""
    if outcome._hash is None:
        object.__setattr__(outcome, "_hash", hash(key))
    return outcome._hash


def _canonical(value: Real) -> Real:
    """An integral Fraction as its int, any other value as it is: equal
    exact outcomes then have equal types, so the caches that key by
    outcome or by profile, both by ==, answer in the type `fn` gives."""
    if value.__class__ is Fraction and value.denominator == 1:
        return value.numerator
    return value


class ConstantChoice(Value):
    """A constant outcome; `value` is `_canonical`."""

    _fields = ("value",)
    _hash = None

    def __init__(self, value: Real):
        object.__setattr__(self, "value", _canonical(value))

    def __eq__(self, other):  # the outcome intern compares outcomes on every fit miss
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return _hash_once(self, self.value)


class LinearChoice(Value):
    """A linear outcome; `slope` is `_canonical`."""

    _fields = ("slope",)

    def __init__(self, slope: Real):
        object.__setattr__(self, "slope", _canonical(slope))


class LabelingChoice(Value):
    _fields = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)


class LabelingLottery(Value):
    """An exact two-or-more point distribution over labeling indices,
    `branches` ((index, probability), ...)."""

    _fields = ("branches",)
    _hash = None

    def __init__(self, branches: tuple):
        branches = tuple((int(i), p) for i, p in branches)
        total = sum(p for _, p in branches)
        exact = all(not isinstance(p, float) for _, p in branches)
        if any(p < 0 for _, p in branches):
            raise InvalidInstanceError("lottery probabilities must be nonnegative")
        if (exact and total != 1) or (not exact and abs(total - 1) > 1e-12):
            raise InvalidInstanceError("lottery probabilities must sum to one")
        object.__setattr__(self, "branches", branches)

    def __hash__(self):
        return _hash_once(self, self.branches)

    def probability(self, index: int) -> Real:
        return sum(p for i, p in self.branches if i == index)


# ---------------------------------------------------------------------------
# Risk functionals
# ---------------------------------------------------------------------------


def _point_loss(f, cls: FunctionClass, x: Real, y: Real) -> Real:
    """The loss of the bare constant or slope f at the labeled point (x, y)."""
    if isinstance(cls, ConstantClass):
        return abs(f - y)
    if isinstance(cls, LinearClass):
        return abs(f * x - y)
    raise ClassMismatchError(f"unknown function class {cls!r}")


def _bare_function(f, cls: FunctionClass):
    """Unwrap an outcome into the bare value the class understands."""
    if isinstance(f, ConstantChoice):
        if not isinstance(cls, ConstantClass):
            raise ClassMismatchError("constant choice on a non-constant instance")
        return f.value
    if isinstance(f, LinearChoice):
        if not isinstance(cls, LinearClass):
            raise ClassMismatchError("linear choice on a non-linear instance")
        return f.slope
    if isinstance(f, LabelingChoice):
        if not isinstance(cls, LabelingsClass):
            raise ClassMismatchError("labeling choice on a non-labeling instance")
        if not 0 <= f.index < len(cls.labelings):
            raise ClassMismatchError("labeling index out of range")
        return f.index
    if isinstance(cls, LabelingsClass):
        if not isinstance(f, int) or not 0 <= f < len(cls.labelings):
            raise ClassMismatchError("labeling functions are referenced by index")
    return f


def _loss_sum(g, cls: FunctionClass, agents) -> tuple:
    """The loss sum of the bare function g over the points of the
    `AgentDataset`s `agents` (a labeling's index restarting in each) as
    ints (num, den): the sum is num/den.  den is the lcm of g's and the
    labels' denominators, for linear points with g's denominator times the
    lcm of the x denominators in place of g's.  A float has no denominator:
    AttributeError."""
    if isinstance(cls, LabelingsClass):
        labeling = cls.labelings[g]
        return sum([z != y for a in agents for z, y in zip(labeling, a.labels)]), 1
    dy, ys = _common([y for a in agents for y in a.labels])
    if isinstance(cls, ConstantClass):
        q = g.denominator
        den = lcm(q, dy)
        a, b = g.numerator * (den // q), den // dy
        return sum([abs(a - b * y) for y in ys]), den
    if isinstance(cls, LinearClass):
        dx, xs = _common([x for a in agents for x in a.xs])
        q = g.denominator * dx
        den = lcm(q, dy)
        a, b = g.numerator * (den // q), den // dy
        return sum([abs(a * x - b * y) for x, y in zip(xs, ys)]), den
    raise ClassMismatchError(f"unknown function class {cls!r}")


def _lottery_sum(f: "LabelingLottery", cls: FunctionClass, branch_sum) -> tuple:
    """sum of p * (the loss sum of branch i) over the lottery's branches, as
    ints (num, den), given `branch_sum(i)` as ints (num, den).  A float
    probability has no denominator: AttributeError."""
    num, den = 0, 1
    for i, p in f.branches:
        if p != 0:
            n, d = branch_sum(_bare_function(i, cls))
            d *= p.denominator
            common = lcm(den, d)
            num = num * (common // den) + p.numerator * n * (common // d)
            den = common
    return num, den


def _risk_sum(f, cls: FunctionClass, agents) -> tuple:
    """`_loss_sum` of f, a bare function or a lottery."""
    if isinstance(f, LabelingLottery):
        return _lottery_sum(f, cls, lambda i: _loss_sum(i, cls, agents))
    return _loss_sum(_bare_function(f, cls), cls, agents)


def _risk(f, cls: FunctionClass, agents) -> Real:
    """Average loss of f over the points of the `AgentDataset`s `agents`:
    one Fraction from the integer loss sum, or on a float the loss formula
    itself."""
    size = sum([len(a.labels) for a in agents])
    try:
        num, den = _risk_sum(f, cls, agents)
    except AttributeError:  # a float
        if isinstance(f, LabelingLottery):
            return sum(p * _risk(i, cls, agents) for i, p in f.branches if p != 0)
        g = _bare_function(f, cls)
        total = sum(_point_loss(g, cls, x, y) for a in agents for x, y in zip(a.xs, a.labels))
        return exact_div(total, size)
    return Fraction(num, den * size)


def personal_risk(f, agent: AgentDataset, cls: FunctionClass) -> Real:
    """Average loss of f on one agent's data; lotteries in closed form."""
    return _risk(f, cls, (agent,))


def global_risk(f, instance: Instance) -> Real:
    """Average loss of f over the full multiset; lotteries in closed form."""
    return _risk(f, instance.function_class, instance.agents)


class LossKernel:
    """The sorted-prefix kernel: the weighted absolute loss sum
    sum_j w_j * |a - v_j| + offset of exact values v_j, nonnegative weights
    w_j and an offset, for many queries a.  It is scaled once to ints:
    values V_j over D, the lcm of their denominators, and weights W_j and
    the offset over E, the lcm of theirs.  Sorted by value, with prefix
    sums W_k of W_j and V_k of W_j*V_j, a query a = p/q (q > 0, not
    necessarily in lowest terms) has k = bisect_right(values, (p*D)//q)
    values at or below it and the loss sum (p*D*(2*W_k - W) + q*(V - 2*V_k
    + offset*D)) / (q*D*E): one bisect and integer arithmetic per query
    instead of a scan of every value.  A float among the values, weights or
    offset has no denominator: AttributeError."""

    def __init__(self, values, weights, offset=0):
        d, values = _common(values)
        e, (offset, *weights) = _common([offset, *weights])
        self.scale = d, e
        self.offset = offset * d
        self.values = []
        self.weight_prefix = weight_sums = [0]
        self.value_prefix = value_sums = [0]
        for v, w in sorted(zip(values, weights)):
            self.values.append(v)
            weight_sums.append(weight_sums[-1] + w)
            value_sums.append(value_sums[-1] + w * v)

    def __call__(self, p: int, q: int) -> tuple:
        """The loss sum at a = p/q as ints (num, den)."""
        d, e = self.scale
        k = bisect_right(self.values, p * d // q)
        w_k, v_k = self.weight_prefix[k], self.value_prefix[k]
        w, v = self.weight_prefix[-1], self.value_prefix[-1]
        return p * d * (2 * w_k - w) + q * (v - 2 * v_k + self.offset), q * d * e


class CompiledInstance:
    """One instance prepared for many exact `global_risk` queries.

    Constant and linear class: `sums`, the `LossKernel` of the instance's
    `class_entries`, so a query is one bisect and integer arithmetic
    instead of a scan of every point; for a constant class its values are
    the labels, each of weight 1.  `risk_pair` returns the risk as an int
    pair, so that callers comparing many risks build no Fraction; `risk`
    builds one.  An instance or a query with a float in it is answered by
    `global_risk` itself.  Labelings class: the loss count of each
    labeling, computed up front; lotteries use the closed form, as in
    `global_risk`.
    """

    def __init__(self, instance: Instance):
        cls = instance.function_class
        self.instance = instance
        self.function_class = cls
        self.size = instance.total_points
        self.labeling_sums = None
        if isinstance(cls, LabelingsClass):
            self.labeling_sums = tuple(
                _loss_sum(i, cls, instance.agents)[0] for i in range(len(cls.labelings))
            )
            return
        xs = [x for agent in instance.agents for x in agent.xs]
        try:
            self.sums = LossKernel(*class_entries(cls, xs, instance.all_labels()))
        except AttributeError:  # a float: with no `sums`, every query raises AttributeError
            pass

    def _query_sum(self, a) -> tuple:
        """The loss sum of the bare function a as ints (num, den)."""
        if self.labeling_sums is not None:
            return self.labeling_sums[a], 1
        return self.sums(a.numerator, a.denominator)

    def risk_pair(self, f):
        """`global_risk(f, instance)` as ints (num, den), den > 0, whose
        quotient is the risk; lotteries in closed form.  With a float in
        the instance or in f, the risk `global_risk` gives, a Real."""
        cls = self.function_class
        try:
            if isinstance(f, LabelingLottery):
                num, den = _lottery_sum(f, cls, self._query_sum)
            else:
                num, den = self._query_sum(_bare_function(f, cls))
        except AttributeError:  # a float, in f or in the instance
            return global_risk(f, self.instance)
        return num, den * self.size

    def risk(self, f) -> Real:
        """Exactly `global_risk(f, instance)`: one Fraction from the pair of
        `risk_pair`."""
        risk = self.risk_pair(f)
        return Fraction(*risk) if risk.__class__ is tuple else risk


def augmented_risk(a: Real, instance: Instance, advice: Real, lam: Real) -> Real:
    """Risk of the constant a on the instance augmented with lam*|S| advice
    copies (a fractional copy count is allowed)."""
    cls = instance.function_class
    if not isinstance(cls, ConstantClass):
        raise ClassMismatchError("augmented risk is defined for constant instances")
    if not 0 <= lam <= 1:
        raise ValueError("lambda must lie in [0, 1]")
    size = instance.total_points
    data_term = sum(abs(a - y) for y in instance.all_labels())
    return exact_div(data_term + lam * size * abs(a - advice), (1 + lam) * size)


def advice_error(optimum, best: Real, advice: Real, interval: bool) -> Real:
    """Distance from the advice to the nearest optimum, normalized by the
    optimal risk `best`.  `optimum` is the interval (lo, hi) of optima when
    `interval`, else the tuple of optimal values.  Zero-risk instances give
    0 for optimal advice and +inf otherwise."""
    if interval:
        lo, hi = optimum
        dist = lo - advice if advice < lo else advice - hi if advice > hi else 0
    else:
        dist = min(abs(advice - c) for c in optimum)
    if best == 0:
        return 0 if dist == 0 else INF
    return exact_div(dist, best)


def advice_error_constant(instance: Instance, advice: Real) -> Real:
    """`advice_error` of a constant advice against `optimal_constant_set`."""
    opt, best = optimal_constant_set(instance)
    return advice_error(opt, best, advice, instance.function_class.domain.is_reals)
