"""Distribution-level harness tests: exact statistical risks, seeded
sampling, the sample-size rule, risk gaps, and the composition experiment."""

import random
from fractions import Fraction as F

import pytest

from advicemech import (
    AgentModel,
    PfaConfig,
    composition_experiment,
    global_risk,
    pfa,
    required_sample_size,
    risk_gap_experiment,
    sample_instance,
    statistical_global_risk,
    statistical_optimal_constant,
    statistical_personal_risk,
    sup_global_gap,
    sup_personal_gap,
)
from advicemech.learning import CompositionTrial
from advicemech.model import (
    REALS, ClassMismatchError, ConstantClass, Instance, InvalidInstanceError, LinearClass, c0c1_class,
)


def point_mass(x, y):
    return AgentModel(((x, F(1)),), ((x, y),))


def two_point():
    return AgentModel(
        ((1, F(1, 2)), (2, F(1, 2))),
        ((1, F(0)), (2, F(2))),
    )


def test_agent_model_validation():
    with pytest.raises(InvalidInstanceError):
        AgentModel(((1, F(1, 2)),), ((1, 0),))  # probabilities sum below one
    with pytest.raises(InvalidInstanceError):
        AgentModel(((1, F(1)),), ((2, 0),))  # labeler misses the support


def test_statistical_risk_point_mass():
    agent = point_mass(5, 3)
    assert statistical_personal_risk(1, agent) == 2
    assert statistical_personal_risk(3, agent) == 0


def test_statistical_risk_uniform_two_point():
    assert statistical_personal_risk(0, two_point()) == 1


def test_statistical_risk_exact_fit_is_zero():
    agent = AgentModel(
        ((1, F(1, 3)), (2, F(2, 3))), ((1, F(7)), (2, F(7)))
    )
    assert statistical_personal_risk(7, agent) == 0


def test_statistical_linear_risk():
    agent = AgentModel(((1, F(1, 2)), (2, F(1, 2))), ((1, 1), (2, 2)))
    assert statistical_personal_risk(1, agent, LinearClass()) == 0
    assert statistical_personal_risk(0, agent, LinearClass()) == F(3, 2)


def test_statistical_risk_refuses_a_labelings_class_by_name():
    with pytest.raises(ClassMismatchError):
        statistical_personal_risk(0, two_point(), c0c1_class(2))


def test_global_statistical_risk_is_mean_of_personal():
    agents = [point_mass(0, 0), two_point(), point_mass(1, 4)]
    for a in (0, 1, F(5, 2)):
        mean = sum(statistical_personal_risk(a, ag) for ag in agents) / F(3)
        assert statistical_global_risk(a, agents) == mean


def test_sample_point_mass_is_constant():
    inst = sample_instance([point_mass(2, 9)], 5, seed=1)
    assert inst.agents[0].labels == (9,) * 5
    assert inst.agents[0].xs == (2,) * 5


def test_sampling_is_seed_deterministic():
    agents = [two_point(), point_mass(0, 1)]
    a = sample_instance(agents, 40, seed=123)
    b = sample_instance(agents, 40, seed=123)
    c = sample_instance(agents, 40, seed=124)
    assert a == b
    assert a != c


def test_required_sample_size_frozen_and_odd():
    # ceil(8 * ln(200) / 0.01) = 4239, already odd
    assert required_sample_size(10, 0.1, 0.05, 8) == 4239
    for n in (2, 5, 20):
        for eps in (F(1, 2), F(1, 4)):
            m = required_sample_size(n, eps, F(1, 10))
            assert m % 2 == 1


def test_required_sample_size_monotone():
    base = required_sample_size(10, F(1, 4), F(1, 10))
    assert required_sample_size(10, F(1, 8), F(1, 10)) > base
    assert required_sample_size(100, F(1, 4), F(1, 10)) >= base
    assert required_sample_size(10, F(1, 4), F(1, 100)) >= base


def test_personal_gap_zero_for_point_mass():
    agent = point_mass(1, 3)
    inst = sample_instance([agent], 7, seed=5)
    assert sup_personal_gap(agent, inst.agents[0]) == 0


def test_sup_personal_gap_dominates_grid():
    # the exact sup really is an upper bound over a dense probe grid
    rng = random.Random(71)
    agent = AgentModel(
        ((0, F(1, 4)), (1, F(1, 4)), (2, F(1, 2))),
        ((0, F(0)), (1, F(3)), (2, F(1))),
    )
    inst = sample_instance([agent], 9, seed=8)
    sup = sup_personal_gap(agent, inst.agents[0])
    emp = inst.agents[0]
    for _ in range(200):
        a = F(rng.randint(-40, 80), 8)
        stat = statistical_personal_risk(a, agent)
        emp_risk = sum(abs(a - y) for y in emp.labels) / F(len(emp))
        assert abs(stat - emp_risk) <= sup


def test_sup_global_gap_dominates_grid():
    agents = [two_point(), point_mass(1, 1)]
    inst = sample_instance(agents, 11, seed=2)
    sup = sup_global_gap(agents, inst)
    for j in range(-20, 40):
        a = F(j, 8)
        assert abs(statistical_global_risk(a, agents) - global_risk(a, inst)) <= sup


def test_gap_frequency_decreases_with_sample_size():
    agents = [two_point(), two_point()]
    eps = F(1, 4)
    _, freq_small = risk_gap_experiment(agents, m=5, trials=60, seed=9, epsilon=eps)
    _, freq_large = risk_gap_experiment(agents, m=301, trials=60, seed=9, epsilon=eps)
    assert freq_large <= freq_small


def test_grid_restricted_gaps_bounded_by_exact_sup():
    agents = [two_point(), point_mass(0, 1)]
    grid = [F(j, 4) for j in range(-4, 13)]
    exact_rows, _ = risk_gap_experiment(agents, m=9, trials=10, seed=3)
    grid_rows, _ = risk_gap_experiment(agents, m=9, trials=10, seed=3, f_grid=grid)
    for e, g in zip(exact_rows, grid_rows):
        assert g.max_personal_gap <= e.max_personal_gap
        assert g.global_gap <= e.global_gap


def test_statistical_optimum_brute_force():
    agents = [point_mass(0, 0), point_mass(0, 0), point_mass(0, 4)]
    value, risk = statistical_optimal_constant(agents)
    assert value == 0 and risk == F(4, 3)


def test_composition_trials_hold_under_gap_precondition():
    agents = [
        AgentModel(((0, F(1, 2)), (1, F(1, 2))), ((0, F(0)), (1, F(2)))),
        AgentModel(((0, F(3, 4)), (1, F(1, 4))), ((0, F(1)), (1, F(3)))),
        point_mass(0, 2),
    ]
    rows, m = composition_experiment(
        agents, gamma=1, epsilon=F(1, 2), delta=F(1, 10), trials=12, seed=42
    )
    assert m % 2 == 1
    held = [r for r in rows if r.gaps_ok]
    assert held, "no trial met the gap precondition; experiment is vacuous"
    assert all(r.ok for r in held)


def seeded_agents(seed, count=4):
    rng = random.Random(seed)
    agents = []
    for _ in range(count):
        xs = rng.sample(range(10), rng.randint(2, 4))
        weights = [rng.randint(1, 5) for _ in xs]
        support = tuple((x, F(w, sum(weights))) for x, w in zip(xs, weights))
        agents.append(AgentModel(support, tuple((x, F(rng.randint(0, 16), 4)) for x in xs)))
    return agents


def reference_global_gap(agents, inst):
    """sup_global_gap with one `global_risk` scan per breakpoint."""
    breaks = {y for a in agents for y in a.label_values()} | set(inst.all_labels())
    gap = max(abs(statistical_global_risk(b, agents) - global_risk(b, inst)) for b in breaks)
    stat_mean = sum(p * a.label_of(x) for a in agents for x, p in a.support) / len(agents)
    labels = inst.all_labels()
    return max(gap, abs(stat_mean - sum(labels, start=F(0)) / len(labels)))


def reference_composition(agents, gamma, epsilon, delta, trials, seed):
    m = required_sample_size(len(agents), epsilon, delta)
    _, best_stat = statistical_optimal_constant(agents)
    alpha = 1 + F(gamma)
    rows = []
    for t in range(trials):
        inst = sample_instance(agents, m, seed + t)
        risks = {c: global_risk(c, inst) for c in set(inst.all_labels())}
        emp_best = max(c for c, r in risks.items() if r == min(risks.values()))
        choice = pfa(PfaConfig(F(gamma)), inst, emp_best).value
        gaps_ok = all(
            sup_personal_gap(a, d) <= epsilon / 2 for a, d in zip(agents, inst.agents)
        ) and reference_global_gap(agents, inst) <= epsilon / 2
        achieved = statistical_global_risk(choice, agents)
        bound = alpha * best_stat + (alpha + 1) / 2 * epsilon
        rows.append(CompositionTrial(t, seed + t, gaps_ok, achieved, bound, achieved <= bound))
    return rows, m


@pytest.mark.parametrize("seed", [0, 7, 20])
def test_compiled_gaps_and_composition_equal_the_global_risk_reference(seed):
    agents = seeded_agents(seed)
    for m in (1, 5, 12):
        inst = sample_instance(agents, m, seed=seed + m)
        got = sup_global_gap(agents, inst)
        expected = reference_global_gap(agents, inst)
        assert (got, type(got)) == (expected, type(expected))
        for agent, data in zip(agents, inst.agents):
            got = sup_personal_gap(agent, data)
            expected = reference_global_gap([agent], Instance((data,), ConstantClass(REALS)))
            assert (got, type(got)) == (expected, type(expected))
    for gamma, epsilon in ((1, F(1, 2)), (F(1, 3), F(3, 4))):
        got = composition_experiment(agents, gamma, epsilon, F(1, 10), trials=6, seed=seed)
        assert got == reference_composition(agents, gamma, epsilon, F(1, 10), 6, seed)


def test_statistical_misreport_gain_bounded_by_epsilon():
    # audit replay at the distribution level: on trials where every risk gap
    # is at most eps/2, no projected misreport lowers an agent's statistical
    # risk by more than eps (the mechanism is exactly strategyproof on the
    # sampled data, so all slack comes from sampling error)
    from fractions import Fraction
    from advicemech import PfaConfig, pfa
    from advicemech.model import ConstantClass

    agents = [
        AgentModel(((0, F(1, 2)), (1, F(1, 2))), ((0, F(0)), (1, F(2)))),
        AgentModel(((0, F(1, 4)), (1, F(3, 4))), ((0, F(3)), (1, F(1)))),
        point_mass(1, 1),
    ]
    eps = F(1, 2)
    m = required_sample_size(len(agents), eps, F(1, 10))
    cfg = PfaConfig(Fraction(1))
    candidates = sorted({y for a in agents for y in a.label_values()} | {F(5)})
    exercised = 0
    for trial in range(8):
        inst = sample_instance(agents, m, seed=1000 + trial)
        gaps_ok = all(
            sup_personal_gap(a, d) <= eps / 2
            for a, d in zip(agents, inst.agents)
        )
        if not gaps_ok:
            continue
        exercised += 1
        advice = F(1)
        base = pfa(cfg, inst, advice).value
        for i, model in enumerate(agents):
            before = statistical_personal_risk(base, model)
            for cand in candidates:
                deviant = inst.with_agent_labels(i, (cand,) * m)
                out = pfa(cfg, deviant, advice).value
                after = statistical_personal_risk(out, model)
                assert before - after <= eps
    assert exercised, "no trial met the gap precondition"
