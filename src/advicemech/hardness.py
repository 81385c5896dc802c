"""Generators for the hard-instance families behind the mechanisms' lower
bounds, plus the closed-form frontier arithmetic they are measured against.

Every generator emits agents in a canonical block order so corpora are
reproducible byte for byte.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import (
    Instance,
    InvalidInstanceError,
    LabelingsClass,
    Real,
    Value,
    constant_instance,
    linear_instance,
    shared_binary_instance,
)
from .regression import PFA_GAMMA_MAX


class ZBlock(Value):
    """t copies of z followed by t+1 copies of z_prime; always odd-sized."""

    _fields = ("t", "z", "z_prime")

    def __init__(self, t: int, z: Real, z_prime: Real):
        if t < 1:
            raise InvalidInstanceError("block parameter t must be at least 1")
        Value.__init__(self, t, z, z_prime)

    def expand(self) -> tuple:
        return (self.z,) * self.t + (self.z_prime,) * (self.t + 1)

    def __len__(self) -> int:
        return 2 * self.t + 1


def gen_S(n: int, k: int, t: int, z: Real) -> Instance:
    """k agents of type Z_t(0,0) and n-k of type Z_t(0,z), constant class."""
    if not 0 <= k <= n:
        raise InvalidInstanceError("need 0 <= k <= n")
    blocks = [ZBlock(t, 0, 0)] * k + [ZBlock(t, 0, z)] * (n - k)
    return constant_instance([b.expand() for b in blocks])


def gen_S_chain(n: int, k: int, t: int, z_from: Real, z_to: Real, j: int) -> Instance:
    """One step of the agent-by-agent transition between two z levels:
    k+1 all-zero blocks, then j blocks at z_to, then the rest at z_from."""
    if not 0 <= j <= n - k - 1:
        raise InvalidInstanceError("need 0 <= j <= n-k-1")
    blocks = (
        [ZBlock(t, 0, 0)] * (k + 1)
        + [ZBlock(t, 0, z_to)] * j
        + [ZBlock(t, 0, z_from)] * (n - k - j - 1)
    )
    return constant_instance([b.expand() for b in blocks])


def gen_S_final(n: int, k: int, t: int, d: Real) -> Instance:
    """The endpoint of the misreport chain: k+1 agents of type Z_t(d,0) and
    n-k-1 agents of type Z_t(d,d)."""
    if not 0 <= k <= n - 1:
        raise InvalidInstanceError("need 0 <= k <= n-1")
    blocks = [ZBlock(t, d, 0)] * (k + 1) + [ZBlock(t, d, d)] * (n - k - 1)
    return constant_instance([b.expand() for b in blocks])


def gen_S_linear(n: int, k: int, t: int, z: Real) -> Instance:
    """Homogeneous-linear twin of gen_S: k agents {(t,0),(t+1,0)} and n-k
    agents {(t,0),(t+1,(t+1)z)}.

    The second point's label carries the factor t+1 so that the |x|-weighted
    y/x mapping reproduces gen_S(n,k,t,z) as a weighted multiset exactly:
    (t,0) contributes t zeros and (t+1,(t+1)z) contributes t+1 copies of z.
    """
    if not 0 <= k <= n:
        raise InvalidInstanceError("need 0 <= k <= n")
    if t < 1:
        raise InvalidInstanceError("block parameter t must be at least 1")
    heavy = (t + 1) * z
    flat = [((t, 0), (t + 1, 0))] * k + [((t, 0), (t + 1, heavy))] * (n - k)
    return linear_instance(flat)


def r_bound(n: int, d: Real, gamma: Real) -> Real:
    """Closed-form robustness frontier (d-1)/d * (4+g-9/n)/(g+4/n).

    Strictly below 1 + 4/gamma for all finite n, d and increasing toward it.
    """
    if isinstance(d, float) or isinstance(gamma, float):
        return (d - 1) / d * (4 + gamma - 9 / n) / (gamma + 4 / n)
    d = Fraction(d)
    gamma = Fraction(gamma)
    return (d - 1) / d * (4 + gamma - Fraction(9, n)) / (gamma + Fraction(4, n))


def lb_parameters(gamma, scale: int = 1) -> tuple:
    """Instance sizes (n, k, t) that keep k = n*gamma/(gamma+2) integral.

    Writing gamma/(gamma+2) = p/q in lowest terms, n = 2*scale*q and
    k = 2*scale*p; t = ceil(n*(gamma+2)).  Requires rational gamma.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma <= PFA_GAMMA_MAX:
        raise ValueError(f"gamma must lie in (0, {PFA_GAMMA_MAX}]")
    ratio = gamma / (gamma + 2)
    p, q = ratio.numerator, ratio.denominator
    n = 2 * scale * q
    k = 2 * scale * p
    t = math.ceil(n * (gamma + 2))
    if n <= k + 1:
        raise ValueError("scale too small for a nondegenerate instance")
    return n, k, t


def consistency_ceiling(n: int, gamma) -> Fraction:
    """Largest constant c for which returning c on the unit-z chain base
    instance stays within 1+gamma of optimal, per the explicit ratio bound
    1 + c*(gamma + 3/(2n - gamma - 2)).  One minus this is the usable
    separation margin for chain experiments."""
    gamma = Fraction(gamma)
    return gamma / (gamma + Fraction(3) / (2 * n - gamma - 2))


# ---------------------------------------------------------------------------
# Voting gadget: three labelings of nine shared points
# ---------------------------------------------------------------------------

VOTING_LABELINGS = (
    (1, 1, 1, 1, 1, 1, 1, 1, 1),  # c1
    (0, 0, 0, 0, 0, 0, 1, 1, 1),  # c2
    (0, 0, 0, 0, 0, 0, 0, 0, 0),  # c3
)

# preference order over labelings (by 1-based name) -> the agent labels that
# realize exactly that ranking of personal risks
VOTING_TABLE = {
    (1, 2, 3): (1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 3, 2): (1, 1, 1, 1, 1, 1, 0, 0, 0),
    (2, 1, 3): (0, 0, 0, 0, 1, 1, 1, 1, 1),
    (2, 3, 1): (0, 0, 0, 0, 0, 0, 1, 1, 1),
    (3, 1, 2): (0, 0, 1, 1, 1, 1, 0, 0, 0),
    (3, 2, 1): (0, 0, 0, 0, 0, 0, 0, 0, 0),
}


def gen_voting_table(preference: tuple) -> tuple:
    """The nine-point label vector whose personal risks over the three fixed
    labelings realize the given strict preference order (1-based names)."""
    key = tuple(preference)
    if key not in VOTING_TABLE:
        raise InvalidInstanceError(f"unknown preference order {preference!r}")
    return VOTING_TABLE[key]


def voting_instance(preferences) -> Instance:
    """Shared-input instance over the three voting labelings, one agent per
    preference order."""
    vectors = [gen_voting_table(p) for p in preferences]
    return shared_binary_instance(vectors, VOTING_LABELINGS)


# ---------------------------------------------------------------------------
# Hard instances for randomized mechanisms over three labelings
# ---------------------------------------------------------------------------


def _three_block_labelings(k: int) -> LabelingsClass:
    cx = (1,) * k + (0,) * k + (0,) * k
    cy = (0,) * k + (1,) * k + (0,) * k
    cz = (0,) * k + (0,) * k + (1,) * k
    return LabelingsClass((cx, cy, cz))


def gen_randomized_lb(k: int, variant: str, n: int = 4) -> Instance:
    """Hard instances over the three block labelings of m = 3k shared points.

    variant 'consistency': one agent labels the first block 0,1,...,1 and the
    second block all ones; everyone else labels the first block all ones and
    the second block 1,0,...,0.  The first labeling is then the strict
    optimum for k >= 2 although a dictator drawn from the rest prefers it
    only weakly.

    variant 'duple': every agent labels the first block all ones and the
    second block 1,0,...,0, so a mechanism confined to the second and third
    labelings pays a factor growing linearly in k.
    """
    if k < 2:
        raise InvalidInstanceError("need k >= 2 for the block structure")
    if n < 2:
        raise InvalidInstanceError("need at least two agents")
    majority = (1,) * k + ((1,) + (0,) * (k - 1)) + (0,) * k
    if variant == "duple":
        vectors = [majority] * n
    elif variant == "consistency":
        dictator = ((0,) + (1,) * (k - 1)) + (1,) * k + (0,) * k
        vectors = [dictator] + [majority] * (n - 1)
    else:
        raise InvalidInstanceError(f"unknown variant {variant!r}")
    return shared_binary_instance(vectors, _three_block_labelings(k).labelings)
