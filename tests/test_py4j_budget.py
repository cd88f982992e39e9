"""Py4J round-trip budget of the fused passes.

Every PySpark ``Column`` call is several Python→JVM round trips, so a plan
built one column call at a time costs driver time that grows with the
column count. The fused passes build their plans from SQL text instead;
these gates keep them there. Round trips are counted by wrapping py4j's
connection ``send_command`` for the duration of one call.
"""
import pytest
from py4j import clientserver, java_gateway

from repro.core import create_report, plot

REPORT_BUDGET = 2_500
OVERVIEW_BUDGET = 500


def _count_round_trips(monkeypatch, fn) -> int:
    n = 0
    for cls in (clientserver.ClientServerConnection, java_gateway.GatewayConnection):
        orig = cls.send_command

        def counting(self, command, _orig=orig):
            nonlocal n
            n += 1
            return _orig(self, command)

        monkeypatch.setattr(cls, "send_command", counting)
    try:
        fn()
    finally:
        monkeypatch.undo()
    return n


@pytest.mark.parametrize("frame", ["titanic", "titanic_wide"])
def test_report_py4j_budget(request, monkeypatch, frame):
    df = request.getfixturevalue(frame)
    n = _count_round_trips(monkeypatch, lambda: create_report(df))
    assert 0 < n <= REPORT_BUDGET, f"create_report made {n} Py4J round trips"


@pytest.mark.parametrize("frame", ["titanic", "titanic_wide"])
def test_overview_py4j_budget(request, monkeypatch, frame):
    df = request.getfixturevalue(frame)
    n = _count_round_trips(monkeypatch, lambda: plot(df))
    assert 0 < n <= OVERVIEW_BUDGET, f"plot(df) made {n} Py4J round trips"
