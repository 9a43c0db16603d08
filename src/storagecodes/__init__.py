"""GF(2) distributed-storage codes: exact/functional repair, bounds, games."""

from .gf2 import (
    BitMatrix,
    BitVector,
    EnumerationCapError,
    Subspace,
    gaussian_binomial,
    solve,
    span_contains,
    subspace_intersect,
    subspace_sum,
)
from .codes import (
    CodeError,
    CodeParams,
    RepairPlan,
    StorageCode,
    find_repair_plan,
    is_recovery_set,
    rate_and_overhead,
    recovery_dimension,
    repair_locality,
    validate,
    validate_plan,
)
from .constructions import (
    FunctionalSpec,
    NamedCode,
    example1,
    example3_initial_bases,
    example3_spec,
    rbt_mbr,
    repetition_code,
    single_parity,
)
from .bounds import (
    cutset_bound,
    info_distance_bound,
    linear_locality_distance_bound,
    mbr_point,
    msr_point,
    theorem1_bound,
    theorem2_bound,
)
from .flowgame import (
    CapExceededError,
    FlowGraph,
    GameReport,
    GameState,
    GameValue,
    collector_value,
    dimakis_cutset_value,
    initial_graph,
    kill,
    make_game,
    minimax,
    rebuild,
    verify_theorem,
)
from .sim import (
    SimulationError,
    StuckError,
    SystemState,
    TraceEvent,
    collect,
    encode,
    encode_functional,
    exact_repair,
    fail,
    functional_repair,
    random_failure_script,
    run_scenario,
)

__version__ = "0.1.0"
