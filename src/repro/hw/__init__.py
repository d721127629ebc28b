"""Hardware scheduling substrate (Edge-LLM core component #3)."""

from .accelerator import EDGE_GPU_LIKE, EDGE_TPU_LIKE, AcceleratorSpec
from .workload import (
    FP_BITS,
    GEMMWorkload,
    block_backward_gemms,
    block_costs,
    block_forward_gemms,
    head_gemm,
    total_macs,
    tuning_iteration_workload,
)
from .scheduling import (
    DATAFLOWS,
    Schedule,
    enumerate_schedules,
    heuristic_schedule,
)
from .cost_model import (
    CostReport,
    gemm_cost,
    memoized_gemm_cost,
    objective_value,
)
from .elementwise import (
    ElementwiseWorkload,
    block_elementwise_workloads,
    elementwise_cycles,
    iteration_elementwise_cycles,
)
from .design_space import (
    DesignPoint,
    default_design_space,
    pareto_front,
    sweep_designs,
)
from .inference import (
    decode_step_workload,
    generation_cost,
    prefill_workload,
    voting_overhead_workload,
)
from .search import (
    IterationCost,
    ScheduledGEMM,
    evolutionary_best,
    exhaustive_best,
    random_best,
    schedule_workloads,
)

__all__ = [
    "AcceleratorSpec",
    "EDGE_GPU_LIKE",
    "EDGE_TPU_LIKE",
    "GEMMWorkload",
    "FP_BITS",
    "block_costs",
    "block_forward_gemms",
    "block_backward_gemms",
    "head_gemm",
    "tuning_iteration_workload",
    "total_macs",
    "Schedule",
    "DATAFLOWS",
    "enumerate_schedules",
    "heuristic_schedule",
    "CostReport",
    "gemm_cost",
    "memoized_gemm_cost",
    "objective_value",
    "IterationCost",
    "ScheduledGEMM",
    "schedule_workloads",
    "exhaustive_best",
    "random_best",
    "evolutionary_best",
    "prefill_workload",
    "decode_step_workload",
    "voting_overhead_workload",
    "generation_cost",
    "DesignPoint",
    "default_design_space",
    "sweep_designs",
    "pareto_front",
    "ElementwiseWorkload",
    "elementwise_cycles",
    "block_elementwise_workloads",
    "iteration_elementwise_cycles",
]
