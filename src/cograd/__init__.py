"""Gradient-based QUBO solving on graphs, with a predict-then-optimize
pipeline and a benchmark harness."""

from ._version import __version__
from .baselines import dga, one_flip_local_search
from .bench import (
    BenchReport,
    InstanceSpec,
    SuiteSpec,
    emit_report,
    relative_error,
    run_suite,
)
from .gnn import (
    Adam,
    GcnParams,
    SoftAssignment,
    TrainConfig,
    TrainingDivergedError,
    default_dims,
    export_loss_trace,
    forward,
    init_params,
    project_and_repair,
    relaxed_loss,
    train,
)
from .graph import (
    Graph,
    GsetFormatError,
    ObservedSample,
    generate_d_regular,
    generate_erdos_renyi,
    load_gset,
    parse_gset,
    renormalized_adjacency,
    sample_observed_subgraph,
    write_gset,
)
from .linkpred import (
    PredictorParams,
    pair_scores,
    predict_adjacency,
    reconstruction_bce,
    train_predictor,
)
from .multilinear import CoverageModel, coverage_multilinear_grads, multilinear_value
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    end_to_end_solve,
    soft_adjacency_graph,
)
from .qubo import (
    ProblemKind,
    QuboMatrix,
    brute_force_optimum,
    build_qubo,
    export_coordinate_text,
    is_feasible,
    objective,
)
from .reference import GSET_BEST_KNOWN, PUBLISHED_CUTS, best_known
