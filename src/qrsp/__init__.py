"""Two-qubit correlations and remote state preparation."""

from .qstate import (
    BlochRep,
    NotAState,
    NotHermitian,
    NotPositive,
    NotUnitTrace,
    StateError,
    TwoQubitState,
    apply_local_unitaries,
    concurrence,
    from_bloch,
    load_state_file,
    mutual_information,
    partial_trace,
    purity,
    save_state_file,
    state_fidelity,
    to_bloch,
    von_neumann_entropy,
)
from .states import (
    InvalidWeights,
    bell,
    maximally_mixed,
    mix,
    random_state,
    rho_b,
    werner,
    zero_discord,
)
from .discord import (
    DiscordReport,
    NotInSpecialClass,
    check_special_class,
    discord_special_form,
    geometric_discord,
    geometric_discord_oracle,
)
from .rsp import (
    ProtocolConfig,
    SweepRecord,
    SweepResult,
    ZeroProbabilityBranch,
    average_payoff,
    fibonacci_sphere,
    optimal_alpha,
    rsp_fidelity,
    rsp_fidelity_oracle,
    simulate,
    sweep,
)
from .tomo import (
    CountRecord,
    EmptyCounts,
    MissingSetting,
    linear_inversion,
    measurement_probabilities,
    mixture_by_duration,
    perturb_local_rotation,
    sample_counts,
    sample_tomography,
)

__version__ = "0.1.0"
