"""rsdlab: exact evaluation and statistical estimation of random serial dictatorship.

The package models one-to-one assignment instances (values, metric costs on
a line, or abstract rankings), runs serial dictatorship deterministically,
computes the RSD lottery and moments exactly by enumeration, solves the
optimal assignment exactly, estimates expected welfare/cost by sampling
(plain mean and median-of-means) with a reproducible documented generator,
evaluates the sample-size formulas and concentration inequalities behind
the estimator guarantees, and encodes/decodes the lottery into single
big-integer expected values.
"""

__version__ = "0.1.0"

from .core import (
    AssignmentInstance,
    Matching,
    Objective,
    Ordering,
    ReducedInstance,
    Violation,
    as_fraction,
    derive_preferences,
    remove_agent_best,
    validate,
)
from .sd import SdRun, evaluate, random_ordering, sd_run, serial_dictatorship
from .exact import (
    DEFAULT_ORACLE_CAP,
    AntiConcentrationCell,
    ExactSummary,
    binomial_failure_probability,
    binomial_upper_tail,
    counts_by_rank,
    enumerate_rsd,
    verify_reverse_chernoff_grid,
)
from .optimal import OptResult, brute_force_opt, solve_opt
from .estimate import (
    ApproxVerdict,
    EstimateReport,
    check_approx,
    estimate_mean,
    estimate_median_of_means,
    median,
)
from .bounds import (
    BoundValue,
    Inequality,
    LowerBoundWindow,
    Method,
    SampleSizePlan,
    bound_value,
    sample_size,
    welfare_lower_bound_window,
)
from .reduction import (
    ReductionArtifact,
    block_bits,
    build_artifact,
    build_reduction,
    decode_counts,
    exact_scaled_total,
    lottery_from_counts,
    round_trip_matches,
)
from .families import (
    Family,
    bernoulli_welfare,
    canonical_ordering,
    generate,
    random_abstract,
    random_metric_line,
    random_value,
    worst_case_metric_line,
)
from .coverage import (
    CoverageReport,
    TrialRow,
    coverage_csv,
    resolve_reference,
    run_coverage,
    write_coverage_csv,
)
from .instance_io import (
    InstanceFormatError,
    dumps_instance,
    load_instance,
    loads_instance,
    save_instance,
)
from .rng import SplitMix64, derive_seed, mix64, substream

__all__ = [name for name in dir() if not name.startswith("_")]
