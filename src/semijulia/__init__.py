"""Graphical and statistical approximation of Julia sets of finitely
generated rational semigroups, by full backward iteration (all preimage
words to a fixed depth) and random backward iteration (the chaos game on
preimage branches), with diagnostics that check the two methods against
each other and against classically known invariant measures.
"""
from .backward import (
    BackwardOrbit,
    DEFAULT_BURN_IN,
    EmptyTail,
    WeightedPointCloud,
    empirical_measure,
    full_backward_tree,
    random_backward_orbit,
    run_chains,
)
from .cli import ConfigError, RunConfig, RunResult, execute_run, parse_config
from .measure import (
    EmptySet,
    GridMeasure,
    Viewport,
    ViewportMismatch,
    apply_transfer_operator,
    bin_cloud,
    cesaro_average,
    check_invariance,
    circle_chordal_distance,
    default_test_functions,
    full_tree_grid,
    grid_from_text,
    grid_to_text,
    hausdorff_distance,
    min_distances,
    total_variation,
)
from .ratmap import (
    Polynomial,
    RationalMap,
    SolverDivergence,
    evaluate,
    polynomial_roots,
    preimages,
    preimages_batch,
    rational_map,
)
from .render import COLORMAPS, ImageSpec, encode_ppm, render_density, write_image
from .semigroup import (
    AssumptionsReport,
    ExceptionalStartPoint,
    IndexDistribution,
    ProbabilityVector,
    Semigroup,
    build_index_distribution,
    exceptional_candidates,
    make_rng,
    sample_branch_block,
    validate_assumptions,
)
from .sphere import INF, SpherePoint, chordal_distance, ensure_point, is_inf
from .verify import run_criterion, run_verification

__version__ = "0.1.0"
