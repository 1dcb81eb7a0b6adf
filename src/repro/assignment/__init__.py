"""Sub-model-to-device assignment (Algorithm 3) and optimal reference."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".greedy": ("greedy_assign", "try_greedy_assign"),
    ".optimal": ("optimal_assign",),
    ".problem": ("AssignmentPlan", "InfeasibleAssignment", "PlannedSubModel",
                 "validate_plan"),
})
