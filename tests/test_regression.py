"""Constant and homogeneous-linear mechanism tests.

The independent oracle evaluates the augmented risk at every support value
and picks the largest minimizer directly, with no median shortcut.
"""

import random
from fractions import Fraction as F

import pytest

from advicemech import (
    REALS,
    ClassMismatchError,
    DegenerateLinearInstance,
    PfaConfig,
    ValueDomain,
    advice_error_linear,
    advice_error_mapped,
    confidence_weight,
    constant_instance,
    global_risk,
    linear_instance,
    lpfa,
    lpfa_mechanism,
    map_to_constant_instance,
    pfa,
    pfa_mechanism,
)


def brute_force_pfa(gamma, instance, advice, domain_values=None):
    """Largest minimizer of the advice-augmented risk over the projection
    support, evaluated exhaustively."""
    lam = confidence_weight(gamma)
    projections = []
    for agent in instance.agents:
        values = sorted(agent.labels)
        # median with largest tie-break, computed naively
        cands = domain_values if domain_values is not None else values
        best, best_risk = None, None
        for c in sorted(cands):
            r = sum(abs(c - y) for y in values)
            if best_risk is None or r <= best_risk:
                best, best_risk = c, r
        projections.append((best, len(agent)))
    size = instance.total_points
    entries = projections + [(advice, lam * size)]
    support = sorted({v for v, _ in entries})
    if domain_values is not None:
        support = sorted(domain_values)
    best, best_risk = None, None
    for c in support:
        r = sum(w * abs(c - v) for v, w in entries)
        if best_risk is None or r <= best_risk:
            best, best_risk = c, r
    return best


def random_constant_instance(rng, max_agents=4, max_points=4):
    return constant_instance(
        [
            [F(rng.randint(-12, 12), rng.choice((1, 2, 4))) for _ in range(rng.randint(1, max_points))]
            for _ in range(rng.randint(1, max_agents))
        ]
    )


# ---------------------------------------------------------------------------
# pfa
# ---------------------------------------------------------------------------


def test_pfa_gamma_two_single_agent_ignores_advice():
    out = pfa(PfaConfig(2), constant_instance([[5]]), 123)
    assert out.value == 5


def test_pfa_unanimous_labels_win():
    rng = random.Random(3)
    for _ in range(40):
        y = rng.randint(-5, 5)
        n = rng.randint(1, 4)
        inst = constant_instance([[y] * rng.randint(1, 3) for _ in range(n)])
        gamma = rng.choice((F(1, 4), F(1, 2), 1, F(3, 2), 2))
        advice = rng.randint(-5, 5)
        assert pfa(PfaConfig(gamma), inst, advice).value == y


def test_pfa_weighted_example():
    # gamma = 2/3 -> lam = 1/2; advice weight 1.5 beats the lone dissenter
    inst = constant_instance([[0], [0], [1]])
    assert pfa(PfaConfig(F(2, 3)), inst, 1).value == 1
    assert confidence_weight(F(2, 3)) == F(1, 2)


def test_confidence_weight_on_float_and_exact_gamma():
    assert confidence_weight(0.5) == (2 - 0.5) / (2 + 0.5)
    assert confidence_weight(0.3) == (2 - 0.3) / (2 + 0.3)
    for gamma in (1, F(1, 3), 2):
        lam = confidence_weight(gamma)
        assert type(lam) is F and lam == (2 - F(gamma)) / (2 + F(gamma))


def test_pfa_rejects_advice_outside_domain():
    domain = ValueDomain.finite([0, 1])
    inst = constant_instance([[0], [1]], domain)
    with pytest.raises(ClassMismatchError):
        pfa(PfaConfig(1, domain), inst, F(1, 2))


def test_pfa_rejects_domain_mismatch():
    inst = constant_instance([[0], [1]])
    with pytest.raises(ClassMismatchError):
        pfa(PfaConfig(1, ValueDomain.finite([0, 1])), inst, 0)


def test_pfa_gamma_range_validated():
    with pytest.raises(ValueError):
        PfaConfig(F(5, 2))
    with pytest.raises(ValueError):
        PfaConfig(-1)
    for gamma in (0, 0.0, F(0)):
        with pytest.raises(ValueError):
            confidence_weight(gamma)
        with pytest.raises(ValueError):
            PfaConfig(gamma)
        with pytest.raises(ValueError):
            lpfa(gamma, linear_instance([[(1, 2)]]), 1)
        with pytest.raises(ValueError):
            pfa_mechanism(gamma)
        with pytest.raises(ValueError):
            lpfa_mechanism(gamma)


def test_pfa_matches_brute_force_oracle():
    rng = random.Random(17)
    for _ in range(300):
        inst = random_constant_instance(rng)
        gamma = rng.choice((F(1, 4), F(1, 2), 1, F(3, 2), 2))
        advice = F(rng.randint(-12, 12), rng.choice((1, 2)))
        got = pfa(PfaConfig(gamma), inst, advice).value
        assert got == brute_force_pfa(gamma, inst, advice)


def test_pfa_binary_domain_matches_brute_force():
    rng = random.Random(18)
    domain = ValueDomain.finite([0, 1])
    for _ in range(200):
        inst = constant_instance(
            [
                [rng.randint(0, 1) for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 4))
            ],
            domain,
        )
        gamma = rng.choice((F(1, 2), 1, 2))
        advice = rng.randint(0, 1)
        got = pfa(PfaConfig(gamma, domain), inst, advice).value
        assert got == brute_force_pfa(gamma, inst, advice, domain_values=(0, 1))


def test_pfa_median_sandwich_property():
    # the output a leaves at least (1+lam)|S|/2 projected weight on each side,
    # counting the advice mass on its own side
    rng = random.Random(21)
    for _ in range(300):
        inst = random_constant_instance(rng)
        gamma = rng.choice((F(1, 4), F(1, 2), 1, 2))
        lam = confidence_weight(gamma)
        advice = F(rng.randint(-12, 12), 2)
        a = pfa(PfaConfig(gamma), inst, advice).value
        size = inst.total_points
        from advicemech import projection

        cls = inst.function_class
        entries = [projection(REALS, cls, ag.xs, ag.labels) for ag in inst.agents]
        above = sum(w for v, w in entries if v >= a) + lam * size * (advice >= a)
        below = sum(w for v, w in entries if v <= a) + lam * size * (advice <= a)
        assert 2 * above >= (1 + lam) * size
        assert 2 * below >= (1 + lam) * size


def test_pfa_advice_monotone_shift():
    # moving the advice moves the output by at most as much
    rng = random.Random(29)
    for _ in range(300):
        inst = random_constant_instance(rng)
        gamma = rng.choice((F(1, 4), F(1, 2), 1, F(3, 2), 2))
        a1 = F(rng.randint(-12, 12), 2)
        a2 = F(rng.randint(-12, 12), 2)
        b1 = pfa(PfaConfig(gamma), inst, a1).value
        b2 = pfa(PfaConfig(gamma), inst, a2).value
        assert abs(b2 - b1) <= abs(a2 - a1)


# ---------------------------------------------------------------------------
# the linear mapping
# ---------------------------------------------------------------------------


def test_map_simple_instance():
    mapped = map_to_constant_instance(linear_instance([[(2, 2)], [(1, 1)]]))
    assert mapped.agent_samples[0].entries == ((F(1), 2),)
    assert mapped.agent_samples[1].entries == ((F(1), 1),)
    assert mapped.risk_offset == 0
    assert mapped.total_mapped_weight == 3


def test_map_excludes_x_zero_into_offset():
    mapped = map_to_constant_instance(linear_instance([[(0, 5), (1, 2)]]))
    assert mapped.agent_samples[0].entries == ((F(2), 1),)
    assert mapped.risk_offset == F(5, 2)
    assert mapped.total_mapped_weight == 1


def test_map_sign_handling():
    mapped = map_to_constant_instance(linear_instance([[(-3, 6)]]))
    assert mapped.agent_samples[0].entries == ((F(-2), 3),)


def test_map_degenerate_raises():
    with pytest.raises(DegenerateLinearInstance):
        map_to_constant_instance(linear_instance([[(0, 1)], [(0, 2)]]))


def test_mapped_risk_identity():
    # weighted risk of the mapped data is |S|/|S_C| times the linear risk
    rng = random.Random(41)
    for _ in range(200):
        pairs = [
            [
                (F(rng.choice([x for x in range(-5, 6) if x != 0]), rng.choice((1, 2))),
                 F(rng.randint(-10, 10), rng.choice((1, 2))))
                for _ in range(rng.randint(1, 4))
            ]
            for _ in range(rng.randint(1, 4))
        ]
        inst = linear_instance(pairs)
        mapped = map_to_constant_instance(inst)
        size, weight = inst.total_points, mapped.total_mapped_weight
        for a in (F(-2), F(0), F(1, 2), F(3)):
            lhs = mapped.pooled_sample().risk(a)
            assert lhs == size * global_risk(a, inst) / weight


def test_risk_ratio_identity_zero_offset():
    # ratios agree between the linear instance and its mapped twin
    inst = linear_instance([[(2, 2), (1, 1)], [(3, -3)]])
    mapped = map_to_constant_instance(inst)
    for a, b in ((F(0), F(1)), (F(1), F(2)), (F(-1), F(1, 2))):
        lin = global_risk(a, inst) * mapped.pooled_sample().risk(b)
        con = global_risk(b, inst) * mapped.pooled_sample().risk(a)
        assert lin == con


# ---------------------------------------------------------------------------
# lpfa
# ---------------------------------------------------------------------------


def test_lpfa_single_point():
    for gamma in (F(1, 4), 1, 2):
        for advice in (-5, 0, 7):
            assert lpfa(gamma, linear_instance([[(1, 3)]]), advice).slope == 3


def test_lpfa_median_of_mapped():
    inst = linear_instance([[(2, 2)], [(1, 1)]])
    assert lpfa(2, inst, 100).slope == 1


def test_lpfa_degenerate_returns_advice():
    inst = linear_instance([[(0, 1)], [(0, 2)]])
    assert lpfa(1, inst, F(7, 2)).slope == F(7, 2)


def test_lpfa_equals_pfa_on_mapped_weighted_data():
    # building the weighted instance by integer-copy expansion and running
    # the constant mechanism must agree with lpfa for integer x
    rng = random.Random(55)
    for _ in range(100):
        pairs = [
            [
                (rng.choice([-3, -2, -1, 1, 2, 3]), F(rng.randint(-6, 6)))
                for _ in range(rng.randint(1, 3))
            ]
            for _ in range(rng.randint(1, 3))
        ]
        inst = linear_instance(pairs)
        gamma = rng.choice((F(1, 2), 1, 2))
        advice = F(rng.randint(-6, 6))
        expanded = constant_instance(
            [
                [F(y) / F(x)] * abs(x)
                for agent in pairs
                for _ in [0]
                for x, y in agent
            ]
        )
        # expanded treats every copied block as its own agent, which changes
        # the projection structure; compare against the mapped-median oracle
        mapped = map_to_constant_instance(inst)
        lam = confidence_weight(gamma)
        entries = []
        from advicemech import erm_constant

        for sample in mapped.agent_samples:
            entries.append((erm_constant(REALS, sample), sample.total_weight))
        entries.append((advice, lam * mapped.total_mapped_weight))
        support = sorted({v for v, _ in entries})
        best, best_risk = None, None
        for c in support:
            r = sum(w * abs(c - v) for v, w in entries)
            if best_risk is None or r <= best_risk:
                best, best_risk = c, r
        assert lpfa(gamma, inst, advice).slope == best
        assert expanded.total_points == mapped.total_mapped_weight


def test_advice_error_linear_examples():
    inst = linear_instance([[(1, 0), (1, 0), (1, 2)]])
    # optimal slope 0 with linear risk 2/3 (brute force over slope grid)
    assert advice_error_linear(inst, 1) == F(3, 2)
    assert advice_error_linear(inst, 0) == 0
    assert advice_error_linear(linear_instance([[(1, 1)]]), 0) == float("inf")


def test_advice_error_is_zero_on_an_all_zero_x_instance():
    # every slope is optimal, so every advice slope is
    inst = linear_instance([[(0, 1), (0, -2)], [(0, F(3, 2))]])
    for advice in (0, F(-5, 2), 7):
        assert advice_error_linear(inst, advice) == 0
        assert advice_error_mapped(inst, advice) == 0


def test_advice_error_mapped_scaling_identity():
    # on zero-offset instances: eta_mapped = eta_linear * |S_C| / |S|
    rng = random.Random(60)
    for _ in range(100):
        pairs = [
            [
                (F(rng.choice([x for x in range(-4, 5) if x != 0])),
                 F(rng.randint(-8, 8)))
                for _ in range(rng.randint(1, 3))
            ]
            for _ in range(rng.randint(1, 3))
        ]
        inst = linear_instance(pairs)
        advice = F(rng.randint(-8, 8), 2)
        mapped = map_to_constant_instance(inst)
        eta_l = advice_error_linear(inst, advice)
        eta_m = advice_error_mapped(inst, advice)
        if eta_l == float("inf"):
            assert eta_m == float("inf")
        else:
            assert eta_m * inst.total_points == eta_l * mapped.total_mapped_weight
