"""poisoncert: certified bounds and candidate attacks for data poisoning.

Given a clean training set, a sphere/slab sanitization defense, and a
poisoned-fraction budget eps, the toolkit computes a certified upper bound on
the minimax training loss together with a matching candidate attack (the
lower bound), for both fixed (oracle-centroid) and data-dependent defenses.
"""

__version__ = "0.1.0"

from .attacks import GradientAttackResult, gradient_attack, label_flip_attack
from .certify import (
    Certificate,
    CertificationError,
    StepRecord,
    certify_data_dependent,
    certify_fixed,
    rda_step,
    regret_bound_trace,
)
from .data import (
    ClassStats,
    Dataset,
    GaussianSpec,
    ParseError,
    StatsError,
    class_stats,
    concat,
    gaussian_attack_points,
    generate_gaussian,
    load_dataset,
    save_dataset,
    split_train_test,
)
from .defense import (
    FeasibleSet,
    SphereSlabParams,
    calibrate_thresholds,
    membership_mask,
    recompute_data_dependent,
)
from .maxoracle import (
    OracleResult,
    UnboundedOracleError,
    max_loss_continuous,
    max_loss_integer,
)
from .model import (
    ErmFit,
    LinearModel,
    LossReport,
    evaluate,
    generalization_bound,
    train_erm,
)
from .sdp import (
    GramProgram,
    RecoveryError,
    SdpOracleError,
    SdpOracleResult,
    SdpSolution,
    build_gram_program,
    max_loss_data_dependent,
    recover_vectors,
    solve_sdp,
)
