"""Every demo script runs to completion against the source tree and prints its pinned output."""

import pytest

from conftest import battery

DEMOS = sorted(battery.DEMOS.glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_output_matches_golden(demo, pinned):
    """Each demo prints the pinned text and raises no warning (the battery's host run)."""
    pinned("demo", demo.name)
