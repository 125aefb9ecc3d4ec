"""Reports and closure traces pinned byte for byte.

tests/golden/reports.json holds, per system, its system file text, the
`render_report` JSON of `verify_bounds` under the file's order, and the
lines `verify_bounds(trace=...)` writes. They were recorded before monomials
were packed into ints, so any change of representation must reproduce them
exactly; a change that means to alter a report re-records them.
"""

import io
import json
from pathlib import Path

import pytest

from soldeg import parse_system, render_report, verify_bounds

GOLDEN = json.loads((Path(__file__).parent / "golden" / "reports.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_report_and_trace_are_byte_identical(case):
    sf = parse_system(case["system"])
    log = io.StringIO()
    report = verify_bounds(sf.system, sf.order, trace=log)
    assert render_report(report) == case["report"]
    assert log.getvalue() == case["trace"]
