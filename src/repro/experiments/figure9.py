"""Figure 9: EBCP versus other prefetchers.

The paper's headline comparison.  All prefetchers use a uniform degree of
six (except SMS, which may issue up to 32 prefetches on a pattern match —
all lines of a spatial region) and a 64-entry prefetch buffer; the
memory-table prefetchers (EBCP, EBCP-minus, Solihin) use same-sized
main-memory tables.  Published shape the tests assert:

* EBCP beats every other scheme on every workload;
* EBCP beats EBCP-minus everywhere (skipping the un-prefetchable next
  epoch matters);
* Solihin 6,1 beats Solihin 3,2 everywhere (depth beats width);
* GHB large beats GHB small; TCP large beats TCP small (capacity);
* the sub-megabyte on-chip schemes (GHB small, TCP small, stream) are
  largely ineffective on these workloads, with SMS the exception;
* SMS does relatively well on database/SPECjbb2005 but poorly on
  TPC-W/SPECjAppServer2004 (no instruction prefetching).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .common import FigureResult

if TYPE_CHECKING:
    from ..spec import SweepResult, SweepSpec

__all__ = ["SCHEMES", "SPEC_FILE", "assemble"]

SPEC_FILE = "figure9.toml"
#: Figure 9's x-axis, in the paper's order.
SCHEMES: tuple[str, ...] = (
    "ghb_small",
    "ghb_large",
    "tcp_small",
    "tcp_large",
    "stream",
    "sms",
    "solihin_3_2",
    "solihin_6_1",
    "ebcp_minus",
    "ebcp",
)

_UNIFORM_DEGREE = 6


def assemble(spec: "SweepSpec", result: "SweepResult") -> FigureResult:
    """Build the Figure 9 result from the scheme-comparison sweep."""
    grid = result.grid()
    series = {w: [p.improvement for p in points] for w, points in grid.items()}
    return FigureResult(
        figure_id="Figure 9",
        title="Performance comparison of EBCP with other prefetchers "
        f"(uniform degree {_UNIFORM_DEGREE})",
        x_label="scheme",
        x_values=SCHEMES,
        series=series,
        points=grid,
    )
