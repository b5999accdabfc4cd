"""Personalized reaching-task difficulty estimation.

Estimates how much harder a reach target is for a specific individual than for
a control population, as a function of the target's position, using honest
causal trees; benchmarks them against T-learner baselines on synthetic
generating processes with known ground truth; and renders interpretable
difficulty maps of the workspace.
"""

from .baselines import (
    CartSpec,
    ForestSpec,
    KnnSpec,
    RegressorSpec,
    TLearner,
    fit_base_regressor,
    fit_t_learner,
)
from .causal_tree import (
    CausalForest,
    CausalTree,
    CausalTreeParams,
    DifficultyEstimate,
    Leaf,
    Split,
    best_split,
    fit_causal_forest,
    fit_causal_tree,
    grow_causal_tree,
    leaf_estimate,
)
from .domain import (
    FEATURE_NAMES,
    Dataset,
    GroupLabel,
    Workspace,
    dataset_from_csv,
    dataset_to_csv,
    features_from_xyz,
    load_dataset_csv,
    save_dataset_csv,
    stratified_honest_split,
    validate_dataset,
)
from .errors import ReachmapError
from .evaluation import (
    BenchConfig,
    BenchRow,
    ModelEntry,
    bench_config_from_json,
    bench_rows_to_csv,
    format_bench_table,
    model_entry,
    paired_t_test,
    r_squared,
    run_benchmark,
    std_error,
)
from .mapgen import (
    DifficultyMap,
    Grid,
    Region,
    build_grid,
    difficulty_map,
    export_map_csv,
    extract_regions,
    render_svg_slice,
)
from .model_io import load_model, parse_model, save_model, serialize_model
from .synth import (
    BaselineParams,
    DgpSpec,
    EffectPreset,
    GroundTruth,
    baseline_time,
    dgp_from_config,
    dgp_to_config,
    generate_dataset,
    true_tau,
)

__version__ = "0.1.0"
