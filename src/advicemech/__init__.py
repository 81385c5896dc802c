"""Strategyproof fitting mechanisms with advice and the audit machinery
that measures their consistency/robustness tradeoffs empirically.

The package re-exports the public names that the README, the demos, the
tests or the benchmark read through `advicemech`, and no others.  Every
other public name is imported from its own module, for example
`advicemech.audit.AuditReport` or `advicemech.formats.load_instance`."""

from .model import (
    REALS,
    AgentDataset,
    ClassMismatchError,
    ConstantChoice,
    Instance,
    InvalidInstanceError,
    LabelingChoice,
    LabelingLottery,
    LabelingsClass,
    LinearChoice,
    LinearClass,
    ValueDomain,
    WeightedSample,
    advice_error_constant,
    augmented_risk,
    constant_instance,
    erm_constant,
    global_risk,
    linear_instance,
    optimal_constant_set,
    personal_risk,
    shared_binary_instance,
    weighted_median_bounds,
)
from .regression import (
    DegenerateLinearInstance,
    PfaConfig,
    advice_error_linear,
    advice_error_mapped,
    confidence_weight,
    lpfa,
    map_to_constant_instance,
    optimal_slope_set,
    pfa,
    projection,
)
from .classification import (
    pfa_two_labeling,
    preference_summary,
    sample_outcome,
    srda,
    srda_two_labeling,
    two_labeling_reduce,
)
from .audit import (
    AllBinaryVectors,
    AuditableMechanism,
    GridLabels,
    MECHANISMS,
    ProjectedConstant,
    SpaceTooLargeError,
    advice_grid,
    approximation_ratio,
    brute_force_optimal_risk,
    check_group_strategyproof,
    check_strategyproof,
    consistency_robustness_sweep,
    error_interpolation_check,
    lpfa_family,
    lpfa_mechanism,
    mean_mechanism,
    optimal_functions,
    pfa_family,
    pfa_mechanism,
    pfa_two_labeling_family,
    pfa_two_labeling_mechanism,
    srda_family,
    srda_mechanism,
    srda_two_labeling_family,
    srda_two_labeling_mechanism,
)
from .formats import (
    parse_instance,
    serialize_instance,
)

__version__ = "0.1.0"

# The distribution-level names of `learning` and the generators of
# `hardness`, imported on first use (PEP 562): only `gen` needs `hardness`,
# and no CLI command needs `learning`.
_LEARNING = frozenset({
    "AgentModel",
    "composition_experiment",
    "required_sample_size",
    "risk_gap_experiment",
    "sample_instance",
    "statistical_global_risk",
    "statistical_optimal_constant",
    "statistical_personal_risk",
    "sup_global_gap",
    "sup_personal_gap",
})
_HARDNESS = frozenset({
    "ZBlock",
    "consistency_ceiling",
    "gen_randomized_lb",
    "gen_S",
    "gen_S_chain",
    "gen_S_final",
    "gen_S_linear",
    "gen_voting_table",
    "lb_parameters",
    "r_bound",
    "voting_instance",
})


def __getattr__(name):
    if name in _LEARNING:
        from . import learning as module
    elif name in _HARDNESS:
        from . import hardness as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
