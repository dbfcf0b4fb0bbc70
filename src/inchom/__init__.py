"""Incidence homology of subset and subspace lattices over prime fields.

The package computes quantum characteristics, boundary operators and their
generalized homology, orbit counts under group actions, character
multiplicity series, and the folded inequality chains that relate them.
"""

from .chartab import CharacterTable, Series, load_table, multiplicity_series, perm_character, sn_table, validate_table
from .errors import DataError, IncompatibleFieldError, InternalConsistencyError, ResourceLimitError
from .gfpla import SparseMat, matmul, power_boundary, rank
from .groupact import (
    Group,
    OrbitSeries,
    act,
    burnside_counts,
    cycle_type,
    fix_count_subsets,
    group_order,
    orbit_count_unionfind,
    parse_group,
)
from .homology import homology_dim, homology_scan, sequence_layout, trace_check, vanishing_window
from .inequal import check_chain, check_lw, check_palindrome, deduce_bounds, fold, symbolic_chain
from .poset import PosetSpec, boundary_matrix, enumerate_rank, incidence_matrix, incidence_rank, rank_size
from .qarith import FieldSpec, gauss_binom, q_factorial, q_int, quantum_char

__version__ = "0.1.0"
