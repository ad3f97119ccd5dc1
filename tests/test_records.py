"""The program's records are named tuples; ``netmodel.Flow`` alone stays a
dataclass, since callers copy flows with ``dataclasses.replace``."""

import dataclasses
import gc
import importlib
import pkgutil
import sys
import weakref

import pytest

import evoroute
from evoroute.netmodel import Flow, Link, Request, mnp_topology
from evoroute.planner import GpConfig
from evoroute.scenario import Scenario
from evoroute.sim import MetricsRecord, TickRow


def test_flow_is_the_only_dataclass():
    found = set()
    for info in pkgutil.iter_modules(evoroute.__path__):
        module = importlib.import_module(f"evoroute.{info.name}")
        found |= {obj for obj in vars(module).values() if dataclasses.is_dataclass(obj)}
    assert found == {Flow}


@pytest.mark.parametrize(
    "record, field",
    [
        (GpConfig(), "threshold"),
        (Scenario(mnp_topology(3), [Request.constant(0, 0, 1, 0.0, 30.0)]), "router"),
        (MetricsRecord(0, 0, 0.0, 0), "planner_invocations"),
        (TickRow(0, 0.0, False, 0, 0), "max_util"),
        (Link(0, 0, 1, 100.0, 25.0), "bw"),
    ],
)
def test_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either


def test_a_fresh_import_frees_the_previous_one():
    # annotations are evaluated at import; a subscription that some cache
    # keeps, such as typing.Sequence[Flow], would keep that import alive
    loaded = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "evoroute"}
    try:
        for name in loaded:
            del sys.modules[name]
        classes = []
        for info in pkgutil.iter_modules(evoroute.__path__):
            module = importlib.import_module(f"evoroute.{info.name}")
            classes += [
                weakref.ref(obj)
                for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == module.__name__
            ]
        assert len(classes) > 20
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "evoroute"]:
            del sys.modules[name]
        sys.modules.update(loaded)
    module = None
    gc.collect()
    assert [ref() for ref in classes if ref() is not None] == []
