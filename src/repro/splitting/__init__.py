"""Model splitting (Algorithm 1): class partitioning, head scheduling, fusion."""

from .class_assignment import (
    balanced_class_partition,
    unbalanced_class_partition,
    validate_partition,
)
from .fusion import (
    collect_features,
    entire_retrain,
    softmax_average_accuracy,
    softmax_average_predict,
    train_fusion_mlp,
)
from .schedule import (
    HeadSchedule,
    ScheduleInfeasible,
    footprint,
    plan_head_schedule,
    submodel_config,
)

__all__ = [
    "HeadSchedule",
    "ScheduleInfeasible",
    "balanced_class_partition",
    "collect_features",
    "entire_retrain",
    "footprint",
    "plan_head_schedule",
    "softmax_average_accuracy",
    "softmax_average_predict",
    "submodel_config",
    "train_fusion_mlp",
    "unbalanced_class_partition",
    "validate_partition",
]
