"""Small builders shared by the test modules."""

from contextlib import contextmanager

import pytest

from soldeg import PolySystem, parse_system, vspace


def mk(text: str) -> PolySystem:
    """Parse a system from file-format text."""
    return parse_system(text).system


def mk_polys(header: str, *exprs: str):
    """Parse polynomials under a shared header, returning them as a list."""
    system = mk(header + "; " + "; ".join(exprs))
    return list(system)


@contextmanager
def row_cap(max_rows: int):
    """Lower the row cap, vspace.DEFAULT_MAX_ROWS, to `max_rows` inside the
    block: v_space_closure, a report's climbs and the rational-point search
    of the d_reg walk all read it at call time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vspace, "DEFAULT_MAX_ROWS", max_rows)
        yield
