"""Independent references that the suite checks the library against."""
from __future__ import annotations

from soldyn import NotHomeomorphism


def lp_partial_sum_check(summands) -> None:
    """The truncation check of a valid tower by building values: each partial
    sum S_j = delta_1 + ... + delta_j with `PeriodicPL.add`, refused at the
    first whose least slope is <= -1.  `add` raises BreakpointCapExceeded
    before it evaluates a grid past the cap."""
    partial = None
    for d in summands:
        partial = d if partial is None else partial.add(d)
        if min(partial.slopes) <= -1:
            raise NotHomeomorphism(
                "partial displacement sum has slope <= -1; id + sum not increasing"
            )
