"""Positive linear systems on discretized transport domains.

Simulation of boundary-controlled positive semigroups together with the
audits that certify them: inverse estimates, admissibility constants,
small-gain radii, and exponential ISS verdicts.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EigensolverError,
    GainValidationError,
    PossysError,
    SingularSystemError,
    WorkBudgetError,
)
from .lattice import (
    GridSpace,
    GridVector,
    induced_operator_norm,
    l1_norm,
    weighted_l1,
)
from .generators import (
    BorderedBidiagonal,
    GeneratorModel,
    build_upwind_generator,
    inverse_estimate_constant,
    perron_mode,
    resolvent_apply,
    resolvent_matrix,
    spectral_bound,
)
from .semigroup import (
    EvolutionPlan,
    Trajectory,
    left_invertibility_audit,
)
from .control import (
    ControlOperator,
    InputSignal,
    admissibility_constant,
    admissibility_curve,
    composition_law_check,
    impulse_response_norms,
    input_map,
    mild_solution,
    resolvent_bound_audit,
)
from .perturbation import (
    DominationReport,
    PerturbedSystem,
    assemble_perturbed,
    domination_check,
    small_gain_radius,
    variation_of_constants_check,
)
from .iss import (
    EISS,
    INCONCLUSIVE,
    ISSReport,
    NOT_EISS,
    iss_gain_fit,
    iss_verdict,
)
from .scenarios import (
    RenewalScenario,
    markov_cycle_scenario,
    renewal_scenario,
    ring_transport_scenario,
)
