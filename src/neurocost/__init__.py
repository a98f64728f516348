"""Cost modeling and instrumented simulation for neuromorphic versus
conventional execution of computational graphs.

The package answers one question from two directions. Analytically, it
bounds time, space, and energy for a graph run on a conventional
machine (where energy follows the total operation count) and on a
spiking network (where energy follows cumulative state change). And
empirically, it lowers graphs to spiking networks, simulates them
event-for-event with per-step energy instrumentation, and reconciles
the measured trace against the analytic model.
"""

from .costs import (
    ComparisonRow,
    ComparisonTable,
    CostConstants,
    EnergyEstimate,
    PRESETS,
    SpaceBounds,
    TIME_MODELS,
    TimeBounds,
    conventional_energy,
    conventional_space,
    conventional_time,
    energy_terms,
    ff_cost_report,
    mesh_cost_report,
    nmc_energy_per_step,
    nmc_space,
    nmc_time,
    preset,
)
from .errors import (
    CycleDetected,
    DanglingReference,
    DegenerateMesh,
    DuplicateNodeId,
    EmptyGraph,
    FanInExceedsRule,
    FileSyntaxError,
    FiringRateOutOfRange,
    FragmentTooLarge,
    GraphError,
    GraphTooLargeForOracle,
    InconsistentAssembly,
    MismatchDetected,
    NeurocostError,
    NoRuleForOpKind,
    NonFiniteInput,
    NonFiniteState,
    PresetCycle,
    SchemaError,
    StitchingMismatch,
    UnknownInputNeuron,
    UnknownKey,
    UnknownPreset,
)
from .fileio import (
    TABLE_COLUMNS,
    TRACE_COLUMNS,
    emit_graph,
    emit_neural_json,
    emit_rows_csv,
    emit_table_csv,
    emit_trace_csv,
    load_constants,
    load_preset,
    parse_config,
    parse_graph_file,
)
from .graph import (
    ComputeGraph,
    GraphMetrics,
    OpNode,
    ScheduleResult,
    ValidatedGraph,
    compute_metrics,
    expand_template,
    list_schedule,
    ring_coupling,
    validate_graph,
)
from .neural import (
    MODEL_KINDS,
    AssemblyMap,
    LoweringRule,
    NeuralGraph,
    NeuronSpec,
    ResourceCount,
    advance,
    count_resources,
    lower_graph,
    relay_rules,
    step_neuron,
    transfer,
)
from .sim import (
    AnalogEncoding,
    DigitalEncoding,
    ReconciliationReport,
    SimState,
    SimTrace,
    StepRecord,
    TermComparison,
    ZeroActivity,
    hamming_bits,
    init_sim,
    measure_firing_rate,
    reconcile_energy,
    run_sim,
    step_sim,
)
from .threads import (
    EXACT_LIMIT,
    ORACLE_CAP,
    Fragment,
    PartitionResult,
    brute_force_partition,
    canonical_label,
    extract_fragment,
    isomorphic,
    partition_isomorphic,
    thread_efficiency,
)
from .workloads import (
    FF_INPUT_THRESH,
    Diffusion,
    FFLayerSpec,
    MeshSpec,
    decode_mesh_state,
    ff_input_ids,
    ff_input_schedule,
    ff_output_ids,
    gen_ff_layer,
    gen_mesh,
    gen_random_dag,
    gen_self_exciting_loop,
    mesh_equilibrium,
    rail_ids,
    reference_mesh_solve,
    sinusoid_init,
)
from .sweep import (
    SWEEP_COLUMNS,
    RegressionResult,
    SweepRow,
    SweepSpec,
    fit_loglog,
    run_sweep,
)
from .corpus import CorpusEntry, mini_corpus

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
