"""Positive-polarity Reed-Muller (PPRM) algebra.

Product terms are ``int`` bit masks, single outputs are
:class:`Expansion` objects (canonical XOR-of-terms), and the RMRLS
search state is a :class:`PPRMSystem` of one expansion per output.
"""

from repro.pprm.engine import (
    ENGINES,
    SEARCH_LANES_MAX_VARS,
    SEARCH_PACKED_MAX_VARS,
    LaneEngine,
    PackedEngine,
    PPRMEngine,
    ReferenceEngine,
    lane_engine,
    search_engine,
)
from repro.pprm.expansion import Expansion
from repro.pprm.packed import PACKED_MAX_VARS, tables_for
from repro.pprm.parser import (
    format_expansion,
    format_system,
    parse_expansion,
    parse_system,
    parse_term,
)
from repro.pprm.system import PPRMSystem
from repro.pprm.term import (
    CONSTANT_ONE,
    contains_variable,
    evaluate_term,
    format_term,
    literal_count,
    term_product,
    term_sort_key,
    variable_index,
    variable_name,
    without_variable,
)
from repro.pprm.transform import (
    expansion_to_truth_vector,
    inverse_mobius_transform,
    mobius_transform,
    truth_vector_to_expansion,
)

__all__ = [
    "Expansion",
    "PACKED_MAX_VARS",
    "PPRMSystem",
    "ENGINES",
    "LaneEngine",
    "PPRMEngine",
    "PackedEngine",
    "ReferenceEngine",
    "SEARCH_LANES_MAX_VARS",
    "SEARCH_PACKED_MAX_VARS",
    "lane_engine",
    "search_engine",
    "tables_for",
    "CONSTANT_ONE",
    "contains_variable",
    "evaluate_term",
    "format_term",
    "literal_count",
    "term_product",
    "term_sort_key",
    "variable_index",
    "variable_name",
    "without_variable",
    "expansion_to_truth_vector",
    "inverse_mobius_transform",
    "mobius_transform",
    "truth_vector_to_expansion",
    "format_expansion",
    "format_system",
    "parse_expansion",
    "parse_system",
    "parse_term",
]
