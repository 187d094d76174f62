"""Trajectory-structured replay for offline RL.

Stores offline data as whole trajectories, emits each active trajectory's
transitions in backward time order, selects new trajectories by rank-based
priority metrics (reward quality or ensemble uncertainty), and supports
recursive / weighted critic targets.  A tabular TD learner and CLI
verify the machinery at desk scale.
"""

from .dataset import (
    OfflineDataset,
    Trajectory,
    Transition,
    flatten_trajectories,
    load_dataset,
    save_dataset,
    split_flat_transitions,
)
from .learner import (
    PRIO_STATE,
    PRIO_TRAJ,
    SAMPLERS,
    UNI_STATE,
    UNI_TRAJ,
    EnsembleQ,
    TrainConfig,
    TrainResult,
    steps_to_threshold,
    train,
    value_iteration_oracle,
)
from .priority import (
    ALL_KINDS,
    QUALITY_KINDS,
    UNCERTAINTY_KINDS,
    UNIFORM_KIND,
    PrioritizedSelector,
    PriorityTable,
    build_priority_table,
    rank_distribution,
    rank_order,
    uncertainty_priorities,
)
from .replay import (
    Batch,
    BatchItem,
    PerTransitionSampler,
    SumTree,
    TrajectoryReplay,
    UniformSelector,
    UniformTransitionSampler,
)
from .scenarios import make_figure1, make_random_chain
from .targets import (
    TargetKind,
    batch_targets,
    compute_target,
)

__version__ = "0.1.0"
