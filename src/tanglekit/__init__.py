"""Bipartition-based entanglement monotones for N-qubit pure states.

Reshape an amplitude vector into the L x l coefficient matrix of any qubit
bipartition, take its Plücker coordinates (maximal minors) or the Hermitian /
ε-bilinear Gram determinants, and obtain the local-unitary monotone D and the
SLOCC monotone E for every admissible partition, together with the named
special cases (concurrence, three-tangle, N-tangle, the four-qubit H/L/M/N
invariants, and the five-qubit Pfaffian form).
"""

from .bipartition import (
    Partition,
    epsilon_apply,
    epsilon_matrix,
    parity_signs,
    reshape,
    unreshape,
)
from .linalg import maximal_minors, pfaffian
from .local_ops import (
    LocalOperator,
    PovmPair,
    apply_local,
    monotonicity_trial,
    povm_branches,
    random_povm_pair,
    random_sl2,
    random_unitary,
)
from .monotones import (
    FOUR_QUBIT_LMN_SELECTIONS,
    FOUR_QUBIT_LMN_SIGNS,
    InvariantReport,
    admissible_partitions,
    all_partitions_report,
    concurrence_squared,
    d_monotone,
    e_monotone,
    five_qubit_pfaffian_monotone,
    four_qubit_h,
    four_qubit_lmn,
    meyer_wallach_q,
    n_tangle,
    partition_report,
    three_tangle,
)
from .plucker import (
    PluckerVector,
    gram_bilinear,
    gram_hermitian,
    plucker_coordinates,
    plucker_relation_residual,
)
from .states import (
    NAMED_STATES,
    PureState,
    StateParseError,
    load_state,
    make_named_state,
    parse_state,
    random_state,
    serialize_state,
)
from .verify import CheckResult, SUITE_NAMES, run_suite

__version__ = "0.1.0"
