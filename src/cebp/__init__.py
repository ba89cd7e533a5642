"""Crossing-tree simulation and verification toolkit.

Simulates continuous processes built from branching crossing hierarchies,
extracts crossing structure back out of sample paths, and fits the tail and
regularity exponents that characterize them.
"""

__version__ = "0.1.0"

from .branching import WEnsemble, sample_W, sample_w_range
from .errors import AnalysisError, BudgetError, CebpError, ConfigError
from .extract import (
    CrossingForest,
    LevelCrossings,
    duration_scale_invariance,
    estimate_hurst,
    extract_crossing_forest,
    extract_passage_times,
    forest_matches_tree,
    subcrossing_pmf,
)
from .holder import HolderEstimate, holder_histogram
from .increments import (
    IncrementRecords,
    IncrementTailFit,
    RemainingTimeFit,
    RemainingTimeRecords,
    increment_records,
    increment_tail,
    remaining_time_records,
    remaining_time_tail,
)
from .modulus import (
    ModulusReport,
    OscillationTable,
    brute_force_modulus,
    h_modulus,
    modulus_ratio,
    oscillation_table,
)
from .offspring import (
    DominanceCheckResult,
    MeanMatrix,
    OffspringDistribution,
    check_assumption_gw,
    check_assumption_z,
    make_offspring,
    mean_offspring_matrix,
)
from .paths import (
    SamplePath,
    SimulationConfig,
    ingest_csv,
    read_path_csv,
    simulate,
    write_path_csv,
)
from .tailfit import TailFit, fit_log_minus_log, quantile_grid, w_left_tail_fit
from .tree import CrossingTree, assign_durations, expand_tree, validate_tree
from .treeio import read_trees, write_trees
from .verify import SUITES, run_suite
