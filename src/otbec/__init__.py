"""Simulation laboratory for oblivious transfer over an erasure broadcast channel.

Two protocol variants (single-phase, and two-phase collusion-resistant) run
over a pair of independent binary erasure links driven by one broadcast input.
The package provides seeded protocol execution, adversary audits with
statistical verdicts, an exact small-instance enumeration oracle, an entropy
and hashing toolkit, closed-form rate regions, and a batch CLI.
"""

from .channel import (
    ERASED,
    BroadcastParams,
    broadcast,
    erasure_partition,
    mix64,
    transmit_bec,
    trial_rng,
)
from .entropy import (
    FiniteDistribution,
    JointDistribution,
    min_entropy,
    mutual_information,
    smooth_min_entropy,
    statistical_distance,
)
from .exact_oracle import (
    DEFAULT_BUDGET,
    BudgetError,
    EnumerationBudget,
    ExactJoint,
    TinyParams,
    enumerate_protocol,
    exact_mi,
    exact_mi_given_success,
    oracle_vs_montecarlo,
)
from .hashing import LinearHash, collision_probability, sample_linear_hash
from .protocol_colluding import (
    DEFAULT_VISIBILITY,
    VisibilityModel,
    collusion_mask_accounting,
    run_protocol2,
)
from .protocol_core import (
    AbortSignal,
    DecodeError,
    OtCode,
    OtOutcome,
    ParamError,
    ProtocolParams,
    ProtocolRun,
    snap_params,
    validate_params,
)
from .protocol_noncolluding import (
    abort_probability,
    exact_abort_probability,
    run_protocol1,
)
from .adversary_audit import (
    AttackReport,
    ConditionRow,
    assemble_pooled_view,
    condition_suite,
    generate_runs,
    guess_choice_bit,
    guess_unchosen_message,
)
from .rates import (
    ChannelSpec,
    RateRegion,
    bec_information_terms,
    containment_note,
    general_upper_bounds,
    pt2pt_bounds,
    region_colluding_inner,
    region_colluding_outer,
    region_noncolluding_capacity,
    region_noncolluding_outer,
    region_timesharing,
    vertices,
)

__version__ = "0.1.0"

__all__ = [
    "ERASED",
    "BroadcastParams",
    "broadcast",
    "erasure_partition",
    "mix64",
    "transmit_bec",
    "trial_rng",
    "FiniteDistribution",
    "JointDistribution",
    "min_entropy",
    "mutual_information",
    "smooth_min_entropy",
    "statistical_distance",
    "DEFAULT_BUDGET",
    "BudgetError",
    "EnumerationBudget",
    "ExactJoint",
    "TinyParams",
    "enumerate_protocol",
    "exact_mi",
    "exact_mi_given_success",
    "oracle_vs_montecarlo",
    "LinearHash",
    "collision_probability",
    "sample_linear_hash",
    "DEFAULT_VISIBILITY",
    "VisibilityModel",
    "collusion_mask_accounting",
    "run_protocol2",
    "AbortSignal",
    "DecodeError",
    "OtCode",
    "OtOutcome",
    "ParamError",
    "ProtocolParams",
    "ProtocolRun",
    "snap_params",
    "validate_params",
    "abort_probability",
    "exact_abort_probability",
    "run_protocol1",
    "AttackReport",
    "ConditionRow",
    "assemble_pooled_view",
    "condition_suite",
    "generate_runs",
    "guess_choice_bit",
    "guess_unchosen_message",
    "ChannelSpec",
    "RateRegion",
    "bec_information_terms",
    "containment_note",
    "general_upper_bounds",
    "pt2pt_bounds",
    "region_colluding_inner",
    "region_colluding_outer",
    "region_noncolluding_capacity",
    "region_noncolluding_outer",
    "region_timesharing",
    "vertices",
    "__version__",
]
