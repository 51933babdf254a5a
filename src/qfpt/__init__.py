"""First-passage-time distributions for continuously monitored open
quantum systems.

The package evolves charge-resolved density matrices with absorbing
boundaries, for both counting-type (jump) and diffusive (homodyne-like)
monitoring, and provides a Monte Carlo trajectory oracle plus
kinetic-uncertainty analysis of the resulting hit-time statistics.
"""

from .analysis import (
    FptMoments,
    FptResult,
    integrate_moments,
    ks_distance,
    write_series_csv,
)
from .diffusion import (
    ChargeGrid,
    build_drift_superoperator,
    build_fokker_planck_generator,
    conditioned_charge_distribution,
    mean_charge_path,
    peclet_number,
    solve_diffusion_fpt,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateKernelError,
    ModelError,
    PhysicsError,
    QfptError,
    TailNotConvergedError,
)
from .jumps import (
    ChargeWindow,
    build_block_generator,
    passage_moments,
    preview_window,
    solve_jump_fpt,
)
from .kur import (
    KurReport,
    dynamical_activity,
    kur_point,
    kur_scan,
    quantum_correction,
    qubit_activity,
    qubit_quantum_correction,
)
from .models import (
    builtin_model,
    decay_qubit,
    drifted_charge,
    homodyne_qubit,
    load_model,
    model_payload,
    save_model,
    thermal_qubit,
    wiener_charge,
)
from .operators import (
    JumpChannel,
    LindbladModel,
    build_liouvillian,
    build_split_generators,
    drazin_inverse,
    steady_state,
    validate_density_matrix,
)
from .propagation import BlockGenerator, FptSolution
from .trajectories import (
    TrajectoryConfig,
    TrajectoryEnsemble,
    fpt_histogram,
    merge_ensembles,
    partition_config,
    simulate,
)

__all__ = [
    "BlockGenerator",
    "ChargeGrid",
    "ChargeWindow",
    "ConfigError",
    "ConvergenceError",
    "DegenerateKernelError",
    "FptMoments",
    "FptResult",
    "FptSolution",
    "JumpChannel",
    "KurReport",
    "LindbladModel",
    "ModelError",
    "PhysicsError",
    "QfptError",
    "TailNotConvergedError",
    "TrajectoryConfig",
    "TrajectoryEnsemble",
    "build_block_generator",
    "build_drift_superoperator",
    "build_fokker_planck_generator",
    "build_liouvillian",
    "build_split_generators",
    "builtin_model",
    "conditioned_charge_distribution",
    "decay_qubit",
    "drazin_inverse",
    "drifted_charge",
    "dynamical_activity",
    "fpt_histogram",
    "homodyne_qubit",
    "integrate_moments",
    "ks_distance",
    "kur_point",
    "kur_scan",
    "load_model",
    "mean_charge_path",
    "merge_ensembles",
    "model_payload",
    "partition_config",
    "passage_moments",
    "peclet_number",
    "preview_window",
    "qubit_activity",
    "qubit_quantum_correction",
    "quantum_correction",
    "save_model",
    "simulate",
    "solve_diffusion_fpt",
    "solve_jump_fpt",
    "steady_state",
    "thermal_qubit",
    "validate_density_matrix",
    "wiener_charge",
    "write_series_csv",
]
