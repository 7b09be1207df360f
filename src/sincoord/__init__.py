"""Exact-identity verification for three solvable one-dimensional systems.

The library builds truncated energy-eigenbasis operators, ladder pairs,
closed-form operator evolutions, classical sinusoidal solutions, and
lowering-operator eigenstates for the trigonometric Poschl-Teller well, a
shift-operator deformed harmonic oscillator, and the Askey-Wilson system,
and checks every closed-form identity against independent numerical oracles.
"""

from .classical import (
    ClassicalState,
    Trajectory,
    check_closed_vs_flow,
    check_poisson_closure,
    check_potential_reconstruction,
    closed_form_eta,
    flow_oracle,
    sample_states,
    write_trajectory_csv,
)
from .coherent import (
    check_eigenvalue,
    check_mp_hypergeometric,
    coherent_coeffs,
)
from .errors import (
    ComplexFrequencies,
    ConfigError,
    DomainEscape,
    EnergyDrift,
    EvaluationDomain,
    NonFiniteResidual,
    NonOscillatory,
    ParameterOutOfRange,
    QuadratureNotConverged,
    SeriesNotConverged,
    SincoordError,
    VanishingFrequency,
)
from .heisenberg import (
    check_heisenberg,
    exact_evolution,
    oracle_evolution,
)
from .operators import (
    HeisenbergSolution,
    LadderPair,
    build_basic,
    build_ladder,
    build_solution,
    check_ground_state_condition,
    check_hermitian_conjugacy,
    check_ladder_action,
    check_su11,
    check_two_commutator,
    dense,
)
from .polynomials import (
    RecurrenceData,
    eval_all,
    gram_matrix,
    norms,
    recurrence,
    weight,
)
from .report import CheckReport, make_report
from .systems import (
    AskeyWilson,
    DeformedOscillator,
    HPoly,
    PoschlTeller,
    SystemSpec,
    alpha_pm,
    check_spectrum_closure,
    classical_r_polynomials,
    energies,
    r_polynomials,
)

__version__ = "0.1.0"
