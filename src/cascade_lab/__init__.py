"""Cascading-failure risk analysis for interdependent multi-system networks."""

from .pmf import (
    JointPmf,
    MarginalPmf,
    PmfError,
    entropy_bits,
    is_independent,
    kl_divergence,
    correlation,
    marginal,
    mean_vector,
    product_pmf,
)
from .model import (
    SystemModel,
    ValidationReport,
    Violation,
    VulnerabilityProfile,
    constant_profile,
    validate_model,
)
from .children import (
    OffspringLaw,
    build_children,
    check_vulnerability_scaling,
    internal_vulnerability,
    offspring_laws,
)
from .branching import (
    PoEVector,
    extinction_probabilities,
    is_positively_regular,
    mean_matrix,
    solve_extinction,
    spectral_radius,
)
from .orders import (
    OrderVerdict,
    compare_concordance,
    compare_fsd,
    compare_icv,
    compare_lt,
    certify_idcv,
    certify_supermodular,
)
from .simulate import (
    CascadeOutcome,
    CascadeTrace,
    ExtinctionEstimate,
    FiniteSystem,
    estimate_epidemic_probability,
    generate_system_graph,
    run_cascade,
    simulate_branching,
    simulate_offspring_process,
    wilson_interval,
)
from .modelio import (
    ModelFormatError,
    ModelValidationError,
    fixture_path,
    load_fixture,
    load_model,
    save_model,
    serialize_model,
)

__version__ = "0.1.0"
