"""One test per acceptance criterion; each prints its own pass/fail line."""

from types import SimpleNamespace

import pytest

from qaffine import acceptance


@pytest.mark.parametrize(
    "name,check",
    acceptance.CRITERIA,
    ids=[name.split(" ")[0] for name, _ in acceptance.CRITERIA],
)
def test_criterion(name, check):
    ok, detail = check()
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {name} ({detail})")
    assert ok, f"criterion {name}: {detail}"


def test_criterion_1_detail_holds_no_timing(monkeypatch):
    # the time goes in the record's `seconds`, so `verify --all --format json`
    # prints the same detail on every run; only a blown budget names a time
    assert acceptance.criterion_1_main_theorem() == (True, f"{len(acceptance.SWEEP)} instances")
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(monotonic=iter([0.0, 61.0]).__next__))
    assert acceptance.criterion_1_main_theorem() == (False, "sweep exceeded the 60 s budget: 61.0 s")
