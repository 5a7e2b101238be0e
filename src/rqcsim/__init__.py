"""rqcsim: tensor-network simulation of random quantum circuits.

Simulates grid and bristlecone-style lattice circuits by contracting a
3D tensor network down to 2D and decomposing the remaining contraction
into independent paths over cut bond indexes, which trades memory for
parallelizable work and supports reduced-fidelity amplitude sets.
"""

from .amplitude_engine import (
    AmplitudeBatch,
    AmplitudeEngine,
    FidelitySpec,
    PathStats,
    mixed_state_samples,
    read_amplitudes,
    write_amplitudes,
)
from .analysis import (
    PearsonReport,
    PTHistogram,
    pearson_vs_hamming,
    porter_thomas_check,
    xeb_fidelity,
)
from .circuits import (
    Circuit,
    DepthSpec,
    Gate,
    Lattice,
    cross_gate_count,
    cz_cut_count,
    generate_rqc,
    parse_circuit,
    write_circuit,
)
from .contraction_plan import (
    ContractionPlan,
    CutSpec,
    MemoryBudgetError,
    PlanError,
    builtin_plan,
    enumerate_paths,
    estimate_cost,
    execute_plan,
    format_plan,
    grid_plan,
    load_plan,
    parse_plan,
)
from .network_builder import Net2D, build_3d, contract_grid, contract_time
from .oracle import evolve, exact_amplitude, exact_distribution
from .partition_cost import (
    PartitionSpec,
    best_partition,
    complexity_table,
    partition_spec,
    qubit_complexity,
)
from .sampler import (
    SampleRun,
    SamplerConfig,
    SamplingErrorReport,
    accept_probability,
    estimate_sampling_error,
    frugal_sample,
    required_batches,
    sample_circuit,
)
from .tensor_core import (
    Tensor,
    benchmark_permute,
    contract,
    permute_fast,
    permute_naive,
    plan_permutation,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit", "DepthSpec", "Gate", "Lattice",
    "cross_gate_count", "cz_cut_count", "generate_rqc",
    "parse_circuit", "write_circuit",
    "evolve", "exact_amplitude", "exact_distribution",
    "Tensor", "plan_permutation", "permute_fast", "permute_naive",
    "contract", "benchmark_permute",
    "Net2D", "build_3d", "contract_time", "contract_grid",
    "ContractionPlan", "CutSpec", "PlanError", "MemoryBudgetError",
    "parse_plan", "format_plan", "builtin_plan", "grid_plan", "load_plan",
    "enumerate_paths", "execute_plan", "estimate_cost",
    "AmplitudeEngine", "AmplitudeBatch", "FidelitySpec", "PathStats",
    "mixed_state_samples", "read_amplitudes", "write_amplitudes",
    "SamplerConfig", "SamplingErrorReport", "SampleRun",
    "accept_probability", "required_batches", "frugal_sample",
    "estimate_sampling_error", "sample_circuit",
    "PTHistogram", "PearsonReport", "porter_thomas_check",
    "pearson_vs_hamming", "xeb_fidelity",
    "PartitionSpec", "partition_spec", "qubit_complexity", "best_partition",
    "complexity_table",
    "__version__",
]
