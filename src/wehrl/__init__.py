"""Weyl systems, coherent-state frames, and Wehrl entropy over finite
abelian groups, with exact structural checks at desk scale."""

from .groups import (
    DualSubgroup,
    FiniteAbelianGroup,
    GroupElement,
    GroupMismatchError,
    PhaseSpaceSubgroup,
    Subgroup,
    all_subgroups,
    annihilator,
    coset_representatives,
    direct_product,
    dual_annihilator,
    group_dft,
    is_corwin,
    maximal_compact,
    parse_generators,
    parse_group,
    parse_point,
    subgroup_closure,
)
from .weyl import (
    CcrReport,
    verify_ccr,
    weyl_apply,
    weyl_matrix,
)
from .limits import DenseLimitError, dense_limit
from .states import (
    check_density_matrix,
    check_state_vector,
    maximally_mixed,
    pure_density,
    random_density_matrix,
    random_state_vector,
)
from .frames import (
    CoherentFrame,
    CosetBasis,
    coset_basis,
    invariant_subspace_dim,
    overlap_matrix,
    pure_amplitudes,
    resolution_residual,
    vacuum_vector,
)
from .entropy import (
    EntropyReport,
    HusimiTable,
    entropy_report,
    husimi,
    husimi_coset_spread,
    husimi_fast,
    husimi_marginal,
    measurement_channel,
    partial_trace,
    product_frame,
    pure_state_entropy,
    von_neumann_entropy,
    wehrl_entropy,
    wehrl_entropy_coset,
)
from .minimize import (
    MinimizerConfig,
    MinimizerResult,
    descend,
    entropy_gradient,
    minimize,
    nearest_coherent,
    scan_fiducials,
)
from .verify import CheckResult, run_checks, standard_suite, suite_pairs

# the public names of the package: every name imported above, grouped by module
__all__ = [
    "DualSubgroup", "FiniteAbelianGroup", "GroupElement", "GroupMismatchError",
    "PhaseSpaceSubgroup", "Subgroup", "all_subgroups", "annihilator", "coset_representatives",
    "direct_product", "dual_annihilator", "group_dft", "is_corwin", "maximal_compact",
    "parse_generators", "parse_group", "parse_point", "subgroup_closure",
    "CcrReport", "verify_ccr", "weyl_apply", "weyl_matrix",
    "DenseLimitError", "dense_limit",
    "check_density_matrix", "check_state_vector", "maximally_mixed", "pure_density",
    "random_density_matrix", "random_state_vector",
    "CoherentFrame", "CosetBasis", "coset_basis", "invariant_subspace_dim", "overlap_matrix",
    "pure_amplitudes", "resolution_residual", "vacuum_vector",
    "EntropyReport", "HusimiTable", "entropy_report", "husimi", "husimi_coset_spread",
    "husimi_fast", "husimi_marginal", "measurement_channel", "partial_trace", "product_frame",
    "pure_state_entropy", "von_neumann_entropy", "wehrl_entropy", "wehrl_entropy_coset",
    "MinimizerConfig", "MinimizerResult", "descend", "entropy_gradient", "minimize",
    "nearest_coherent", "scan_fiducials",
    "CheckResult", "run_checks", "standard_suite", "suite_pairs",
]

__version__ = "0.1.0"
