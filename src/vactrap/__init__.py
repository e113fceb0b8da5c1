"""Vacuum-field signatures of a harmonically trapped charge.

Closed-form radiative rates and trap-frequency shifts with and without the
rotating-wave approximation, the corresponding master-equation generators
on truncated ladder spaces, trajectory integration with positivity and
truncation diagnostics, a two-quantum coherence witness, and two
independent oracles (time-independent perturbation theory and brute-force
evolution against a discretized bath).  The ``vactrap`` console script
exposes the sweep/report layer.
"""
from .errors import (
    ConfigParseError,
    ConfigurationError,
    DimensionMismatch,
    DimensionTooSmall,
    FitFailure,
    GuardBandOverflow,
    GuardExceeded,
    LongWavelengthWarning,
    MissingParameter,
    NumericalGuard,
    PositivityBreach,
    SingularCutoff,
    SingularDenominator,
    ToleranceFailure,
    TruncationRisk,
    VactrapError,
)
from .params import (
    CODATA_2022,
    ELECTRON,
    REFERENCE_CONFIG_NAME,
    ApproximationMode,
    CutoffKind,
    CutoffSpec,
    ExperimentConfig,
    ParticleSpec,
    PhysicalConstants,
    TrapSpec,
    compton_frequency,
    cutoff_frequency,
    cyclotron_frequency,
    load_config,
    lwa_bound,
    parse_config_text,
    parse_cutoff_kind,
    parse_mode,
    reference_config,
    spin_coupling_ratio,
)
from .rates import (
    FreeParticleShift,
    RateSet,
    build_rate_set,
    damping_rate,
    free_particle_shift,
    frequency_shift,
    gaussian_positivity_check,
    kappa,
    level_shifts_raw,
    level_shifts_renormalized,
    relative_shift,
    validity_window,
)
from .liouville import (
    DensityMatrix,
    FockOperators,
    FockSpace,
    Superoperator,
    build_2d_generator,
    build_fock_operators,
    build_lindblad_generator,
    build_redfield_generator,
    build_xp_generator,
    spectral_abscissa,
)
from .evolve import EvolutionRecord, integrate
from .observables import (
    DampedOscillatorSolution,
    ObservableSeries,
    amplitude_peaks,
    damped_oscillator_solution,
    first_moment_rhs_check,
    fit_phase_slope,
    make_state,
    series_from_record,
    witness_sum,
)
from .perturbation import (
    PerturbationShifts,
    pt_constants,
    pt_frequency_shift_renormalized,
    pt_renormalization_term,
)
from .bath import (
    BathFitResult,
    BathModel,
    bath_brute_force,
    discrete_golden_rule,
    discrete_second_order_shift,
    make_flat_bath,
)
from .sweeps import (
    SweepResult,
    Table1Report,
    ValidityReport,
    bfield_sweep,
    midpoint_exponent,
    rwa_exponent_analytic,
    table1,
    validity_report,
)
from .cli import run_cli

__version__ = "0.1.0"
