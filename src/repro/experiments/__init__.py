"""Experiment drivers regenerating every table and figure of the paper."""

from repro.experiments.common import (
    SCALABILITY_OPTIONS,
    TABLE1_OPTIONS,
    TABLE2_OPTIONS,
    TABLE3_OPTIONS,
    TABLE4_OPTIONS,
    ExperimentResult,
)
from repro.experiments.examples import render_examples, run_examples
from repro.experiments.table1 import render_table1, run_table1
from repro.experiments.table23 import (
    render_table2,
    render_table3,
    run_random_functions,
)
from repro.experiments.table4 import render_table4, run_benchmark, run_table4
from repro.experiments.table567 import render_scalability, run_scalability

__all__ = [
    "SCALABILITY_OPTIONS",
    "TABLE1_OPTIONS",
    "TABLE2_OPTIONS",
    "TABLE3_OPTIONS",
    "TABLE4_OPTIONS",
    "ExperimentResult",
    "render_examples",
    "run_examples",
    "render_table1",
    "run_table1",
    "render_table2",
    "render_table3",
    "run_random_functions",
    "render_table4",
    "run_benchmark",
    "run_table4",
    "render_scalability",
    "run_scalability",
]
