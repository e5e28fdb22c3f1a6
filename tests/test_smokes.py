"""The scale-smoke runner: its registry, its one-smoke check and CI's call."""

import re
import time
from pathlib import Path

import pytest
import smokes
from smokes import Smoke, check


def test_registry_names_bounds_and_reasons():
    names = [s.name for s in smokes.SMOKES]
    assert len(names) == len(set(names))
    for s in smokes.SMOKES:
        assert s.rss_mb is not None or s.seconds is not None, s.name
        assert s.run.__doc__, s.name


FAKES = [
    (Smoke("good", lambda: (1, 1), 1e6, 60), True),
    (Smoke("wrong_result", lambda: (1, 2), 1e6, 60), False),
    (Smoke("rss_below_peak", lambda: (1, 1), 1, None), False),
    (Smoke("time_exceeded", lambda: (time.sleep(0.01), None), None, 0.005), False),
]


@pytest.mark.parametrize("fake, passed", FAKES, ids=[fake.name for fake, _ in FAKES])
def test_one_smoke_check(fake, passed):
    # a runner that never fails would pass CI
    ok, line = check(fake)
    assert ok is passed
    assert line.startswith(f"{'PASS' if passed else 'FAIL'} {fake.name}: ")


def test_workflow_runs_every_smoke():
    workflow = (Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    assert re.search(r"^\s*run: PYTHONPATH=src python3 tests/smokes\.py$", workflow, re.M)
    # the measuring code lives in the runner only
    assert "ru_maxrss" not in workflow
