"""The benchmark's entry points into the package still exist.

perfbench wraps the bindings named in its tracer and runs its workloads'
experiment overrides through the package; a binding that is renamed, or
an override that the parse-time checks refuse, fails a benchmark run.
The perfbench modules are executed from their source text, so no bytecode
is written next to them.
"""

import json
import sys
import types
from pathlib import Path

import spaceform_areas
from spaceform_areas import cli
from spaceform_areas.cli import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, monkeypatch) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    # dataclasses look up the defining module in sys.modules
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


def test_tracer_bindings_resolve(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    missing = [a for a in tracer.CLI_BINDINGS if not hasattr(cli, a)]
    missing += [f"{m}.{a}" for m, a in tracer.OTHER_BINDINGS
                if not hasattr(getattr(spaceform_areas, m, None), a)]
    assert missing == []


def test_workload_overrides_parse(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    experiments = [e for w in workloads.WORKLOADS.values()
                   for e in w.experiments]
    assert experiments
    for name, overrides in experiments:
        spec = parse_config(json.dumps({"experiment": name,
                                        "params": overrides}))
        assert spec.params == overrides

