"""One module per table/figure of the paper's evaluation (Section 5).

Each module names its committed spec (``SPEC_FILE`` under ``specs/``)
and owns the ``assemble(spec, result)`` step that turns the executed
sweep into a rich result object with a ``render()`` method printing the
same rows or series the paper reports.
:func:`~repro.experiments.from_spec.run_experiment` runs one of them by
id; the CLI's ``run`` command and the benches under ``benchmarks/`` are
thin wrappers over it.
"""

from . import extension_cmp, figure4, figure5, figure6, figure7, figure8, figure9, table1
from .common import DEFAULT_RECORDS, DEFAULT_SEED, FigureResult, TableResult

__all__ = [
    "DEFAULT_RECORDS",
    "DEFAULT_SEED",
    "FigureResult",
    "TableResult",
    "extension_cmp",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "table1",
]

#: Experiment id -> module: the one list of the paper's experiments.
EXPERIMENTS = {
    "table1": table1,
    "extension_cmp": extension_cmp,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
}
