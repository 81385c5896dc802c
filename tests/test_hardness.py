"""Hard-instance family tests: expansions, counting identities, the
closed-form frontier, the voting gadget, and the three-labeling instances."""

import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from advicemech import (
    InvalidInstanceError,
    ZBlock,
    consistency_ceiling,
    gen_randomized_lb,
    gen_S,
    gen_S_chain,
    gen_S_final,
    gen_S_linear,
    gen_voting_table,
    global_risk,
    lb_parameters,
    map_to_constant_instance,
    personal_risk,
    r_bound,
    voting_instance,
)
from advicemech.audit import brute_force_optimal_risk, optimal_functions


def counts(instance):
    from collections import Counter

    return Counter(instance.all_labels())


# ---------------------------------------------------------------------------
# Z-block families
# ---------------------------------------------------------------------------


def test_zblock_expansion_is_odd():
    b = ZBlock(2, 0, 5)
    assert b.expand() == (0, 0, 5, 5, 5)
    assert len(b) == 5


def test_gen_S_direct_expansion():
    inst = gen_S(2, 1, 2, 5)
    assert inst.agents[0].labels == (0, 0, 0, 0, 0)
    assert inst.agents[1].labels == (0, 0, 5, 5, 5)


def test_gen_S_zero_count_identity():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        t = rng.randint(1, 5)
        z = rng.randint(1, 9)
        c = counts(gen_S(n, k, t, z))
        zeros = c[0]
        z_entries = c[z] if z != 0 else 0
        if z != 0:
            assert zeros - z_entries == k * (2 * t + 2) - n
        assert all(len(a) == 2 * t + 1 for a in gen_S(n, k, t, z).agents)


def test_gen_S_optimum_is_zero_when_t_dominates():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        t = n + rng.randint(0, 3)  # t >= n
        z = rng.randint(1, 20)
        inst = gen_S(n, k, t, z)
        assert optimal_functions(inst) == (0,)
        assert brute_force_optimal_risk(inst) == global_risk(0, inst)


def test_gen_S_chain_endpoints():
    n, k, t = 5, 1, 2
    assert gen_S_chain(n, k, t, 3, 7, 0) == gen_S(n, k + 1, t, 3)
    assert gen_S_chain(n, k, t, 3, 7, n - k - 1) == gen_S(n, k + 1, t, 7)


def test_gen_S_chain_zero_count_invariant_in_j():
    n, k, t = 6, 2, 3
    reference = counts(gen_S_chain(n, k, t, 2, 9, 0))[0]
    for j in range(n - k):
        assert counts(gen_S_chain(n, k, t, 2, 9, j))[0] == reference


def test_gen_S_final_structure():
    inst = gen_S_final(4, 1, 2, 10)
    assert inst.agents[0].labels == (10, 10, 0, 0, 0)
    assert inst.agents[1].labels == (10, 10, 0, 0, 0)
    assert inst.agents[2].labels == (10, 10, 10, 10, 10)
    assert inst.agents[3].labels == (10, 10, 10, 10, 10)


def test_gen_S_linear_maps_back_to_gen_S():
    lin = gen_S_linear(2, 1, 2, 5)
    mapped = map_to_constant_instance(lin)
    # expand weighted entries into an integer-copy multiset
    expanded = []
    for sample in mapped.agent_samples:
        for v, w in sample.entries:
            assert w == int(w)
            expanded.extend([v] * int(w))
    from collections import Counter

    assert Counter(expanded) == Counter(
        y for a in gen_S(2, 1, 2, 5).agents for y in a.labels
    )
    assert mapped.risk_offset == 0
    assert mapped.total_mapped_weight == gen_S(2, 1, 2, 5).total_points


@pytest.mark.parametrize("t", [0, -1])
def test_gen_S_linear_refuses_t_below_one_as_gen_S_does(t):
    with pytest.raises(InvalidInstanceError):
        gen_S(2, 1, t, 5)
    with pytest.raises(InvalidInstanceError):
        gen_S_linear(2, 1, t, 5)


def test_gen_S_linear_optimal_slope_zero():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        t = n + rng.randint(0, 2)
        z = rng.randint(1, 12)
        inst = gen_S_linear(n, k, t, z)
        assert optimal_functions(inst) == (0,)


def test_single_agent_linear_personal_optimum():
    # brute force over a slope grid: the lone nonzero-type agent's optimum is
    # z itself, since the mapped value z outweighs the mapped zeros t+1 to t
    t, z = 3, 5
    inst = gen_S_linear(1, 0, t, z)
    grid = sorted({F(j, 10) for j in range(-10, 81)} | {F(z)})
    agent_risks = {a: global_risk(a, inst) for a in grid}
    best = min(agent_risks.values())
    assert agent_risks[F(z)] == best
    assert all(agent_risks[a] > best for a in grid if a != z)


# ---------------------------------------------------------------------------
# the frontier formula
# ---------------------------------------------------------------------------


def test_r_bound_direct_value():
    assert r_bound(12, 10, 1) == F(459, 160)
    assert float(r_bound(12, 10, 1)) == 2.86875
    # a float d takes the float formula, in this order of operations
    assert r_bound(12, 10.0, 1) == (10.0 - 1) / 10.0 * (4 + 1 - 9 / 12) / (1 + 4 / 12)
    assert r_bound(12, 7.3, 1) == (7.3 - 1) / 7.3 * (4 + 1 - 9 / 12) / (1 + 4 / 12)


def test_r_bound_below_robustness_cap():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(2, 400)
        d = F(rng.randint(2, 10**4))
        gamma = F(rng.randint(1, 8), 4)
        assert r_bound(n, d, gamma) < 1 + 4 / gamma


def test_r_bound_monotone_in_n_and_d():
    for gamma in (F(1, 2), 1, 2):
        values_n = [r_bound(n, 50, gamma) for n in range(5, 100, 7)]
        assert all(a < b for a, b in zip(values_n, values_n[1:]))
        values_d = [r_bound(50, d, gamma) for d in range(2, 200, 13)]
        assert all(a < b for a, b in zip(values_d, values_d[1:]))


def test_lb_parameters_integrality():
    n, k, t = lb_parameters(1, scale=4)
    assert (n, k, t) == (24, 8, 72)
    for gamma in (F(1, 4), F(1, 2), 1, F(3, 2), 2):
        n, k, t = lb_parameters(gamma, scale=2)
        assert F(k) == F(n) * gamma / (gamma + 2)
        assert n > k + 1
        assert t >= n  # since gamma + 2 > 1


def test_consistency_ceiling_matches_explicit_ratio_bound():
    # the ceiling is where 1 + c*(gamma + 3/(2n-gamma-2)) hits 1 + gamma
    for gamma in (F(1, 2), 1, 2):
        for n in (12, 24, 60):
            c = consistency_ceiling(n, gamma)
            assert 1 + c * (gamma + F(3) / (2 * n - gamma - 2)) == 1 + gamma
            assert 0 < c < 1


def test_pfa_stays_below_ceiling_on_chain_base():
    # on the chain's base instance the optimum is 0 and any output at or
    # above the ceiling would break the 1+gamma consistency the mechanism
    # guarantees, so it must return 0 outright
    from advicemech import PfaConfig, pfa
    from advicemech.model import exact_div

    for gamma, scale in ((F(1, 2), 1), (F(1), 1), (F(2), 2)):
        n, k, t = lb_parameters(gamma, scale=scale)
        inst = gen_S(n, k + 1, t, 1)
        out = pfa(PfaConfig(gamma), inst, 0).value
        assert out == 0
        assert out < consistency_ceiling(n, gamma)
        ratio = exact_div(global_risk(out, inst), global_risk(0, inst))
        assert ratio <= 1 + gamma


def test_frontier_family_dominates_bound_across_gammas():
    # on the integral-k final family, every sub-1 constant pays at least
    # r_bound; by single-peakedness checking the constant 1 covers them all
    d = 60
    for gamma, scale in ((F(1, 4), 1), (F(1, 2), 1), (F(1), 2), (F(3, 2), 1), (F(2), 2)):
        n, k, t = lb_parameters(gamma, scale=scale)
        inst = gen_S_final(n, k, t, d)
        base = global_risk(d, inst)
        assert brute_force_optimal_risk(inst) == base
        rb = r_bound(n, d, gamma)
        assert F(global_risk(1, inst)) / F(base) > rb
        assert rb < 1 + 4 / gamma


# ---------------------------------------------------------------------------
# voting gadget
# ---------------------------------------------------------------------------

TABLE_ERRORS = {
    (1, 2, 3): (0, 6, 9),
    (1, 3, 2): (3, 9, 6),
    (2, 1, 3): (4, 2, 5),
    (2, 3, 1): (6, 0, 3),
    (3, 1, 2): (5, 7, 4),
    (3, 2, 1): (9, 3, 0),
}


def test_voting_table_error_counts():
    for pref, expected in TABLE_ERRORS.items():
        inst = voting_instance([pref])
        agent = inst.agents[0]
        cls = inst.function_class
        errors = tuple(
            int(personal_risk(c, agent, cls) * 9) for c in range(3)
        )
        assert errors == expected, pref


def test_voting_table_order_consistency():
    # stated preference order == strict order of the induced personal risks
    for pref in permutations((1, 2, 3)):
        inst = voting_instance([pref])
        agent = inst.agents[0]
        cls = inst.function_class
        risks = {c: personal_risk(c - 1, agent, cls) for c in (1, 2, 3)}
        for better, worse in zip(pref, pref[1:]):
            assert risks[better] < risks[worse]


def test_voting_table_rejects_unknown_order():
    with pytest.raises(InvalidInstanceError):
        gen_voting_table((1, 1, 2))


def test_voting_instance_unanimous_favorite_is_optimal():
    for c, pref in ((0, (1, 2, 3)), (1, (2, 3, 1)), (2, (3, 2, 1))):
        inst = voting_instance([pref] * 4)
        assert optimal_functions(inst) == (c,)
        assert global_risk(c, inst) == 0


# ---------------------------------------------------------------------------
# three-labeling hard instances
# ---------------------------------------------------------------------------


def test_randomized_lb_membership_pattern():
    # every agent type has one all-0 block, one all-1 block, one mixed block
    for variant in ("consistency", "duple"):
        for k in (2, 3, 6):
            inst = gen_randomized_lb(k, variant, n=4)
            for agent in inst.agents:
                blocks = [
                    agent.labels[i * k : (i + 1) * k] for i in range(3)
                ]
                kinds = {
                    "zero" if set(b) == {0} else "one" if set(b) == {1} else "mixed"
                    for b in blocks
                }
                assert kinds == {"zero", "one", "mixed"}


def test_duple_instance_exact_ratio():
    # the first labeling errs on one point per agent, the second on 2k-1;
    # the punished pair ratio therefore equals 2k-1 and in particular meets
    # the k+1 growth the construction is quoted for
    for k in range(3, 11):
        inst = gen_randomized_lb(k, "duple", n=3)
        rx = global_risk(0, inst)
        ry = global_risk(1, inst)
        rz = global_risk(2, inst)
        assert rx == F(1, 3 * k)
        assert ry / rx == 2 * k - 1
        assert ry / rx >= k + 1
        assert min(ry, rz) == ry  # the duple over {y,z} is punished via y
        assert optimal_functions(inst) == (0,)


def test_consistency_instance_inequality():
    for k in range(3, 11):
        for n in (2, 4, 7):
            inst = gen_randomized_lb(k, "consistency", n=n)
            assert global_risk(0, inst) < global_risk(1, inst)
            assert optimal_functions(inst) == (0,)


def test_consistency_instance_agent_types():
    inst = gen_randomized_lb(3, "consistency", n=2)
    assert inst.agents[0].labels == (0, 1, 1, 1, 1, 1, 0, 0, 0)
    assert inst.agents[1].labels == (1, 1, 1, 1, 0, 0, 0, 0, 0)
