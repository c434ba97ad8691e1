"""Exact excursion-level statistics for continuous-time Markov chains,
instantiated on the double-quantum-dot transport model, with a Monte Carlo
trajectory oracle that cross-checks every analytic result."""

from . import errors
from .dqd import (
    DqdParams,
    FermiSet,
    build_model,
    effective_coupling,
    fermi,
    fermi_pair,
)
from .excursions import (
    BlockDecomposition,
    ExcursionReport,
    cross_moments,
    excess_time,
    excursion_report,
    finite_difference_moments,
    noise_terms,
    observable_moments,
    outcome_distribution,
    outcome_quadrature,
    partition,
    time_moments,
)
from .markov import (
    RateMatrix,
    WeightScheme,
    fcs_current_noise,
    steady_state,
    tilt_generator,
    validate_rate_matrix,
)
from .montecarlo import (
    EmpiricalReport,
    ExcursionRecords,
    ExcursionSample,
    Trajectory,
    dump_trajectory,
    empirical_moments,
    empirical_outcome_histogram,
    excursion_filter,
    sample_excursions,
    simulate,
)
from .observables import (
    BlockadeAnalytics,
    BoundsReport,
    OutcomeTriple,
    Populations,
    activity_weights,
    blockade_analytics,
    entropy_weights,
    excess_time_weights,
    mutual_information,
    populations,
    precision_bounds,
    state_weights,
    success_fail_disaster,
    transport_weights,
)
from .sweep import SweepConfig, compute_row, load_config, sweep_rows, sweep_to_csv
from .verify import run_verify

__version__ = "0.1.0"
