"""Incidence homology of subset and subspace lattices over prime fields.

The package computes quantum characteristics, boundary operators and their
generalized homology, orbit counts under group actions, character
multiplicity series, and the folded inequality chains that relate them.

The names from `gfpla` (elimination) and `groupact` (group actions) load on
first access, because those two modules import numpy and nothing else does.
"""

from importlib import import_module

from .chartab import (
    CharacterTable,
    Series,
    fix_count_subsets,
    load_table,
    multiplicity_series,
    perm_character,
    sn_table,
    validate_table,
)
from .errors import DataError, IncompatibleFieldError, InternalConsistencyError, ResourceLimitError
from .homology import homology_dim, homology_scan, trace_check, vanishing_window
from .inequal import check_chain, check_lw, check_palindrome, deduce_bounds, fold, symbolic_chain
from .poset import PosetSpec, boundary_matrix, enumerate_rank, incidence_matrix, incidence_rank, rank_size
from .qarith import FieldSpec, gauss_binom, q_factorial, q_int, quantum_char

__version__ = "0.1.0"

_LAZY = {
    "gfpla": ("SparseMat", "matmul", "power_boundary", "rank"),
    "groupact": ("Group", "OrbitSeries", "act", "burnside_counts", "cycle_type",
                 "group_order", "orbit_count_unionfind", "parse_group"),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return import_module(f".{name}", __name__)
    if name in _LAZY_OWNER:
        return getattr(import_module(f".{_LAZY_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
