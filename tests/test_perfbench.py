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

import pytest

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



@pytest.mark.parametrize("workload",
                         ["short-horizon", "ch-quadrature", "long-horizon"])
def test_traced_pass_reaches_every_homed_metric(workload, monkeypatch,
                                                tmp_path):
    # the benchmark fails a run whose traced pass leaves a metric homed on
    # its workload without a single call
    tracer = _load("tracer", monkeypatch)
    w = _load("workloads", monkeypatch).WORKLOADS[workload]
    traced = tracer.Tracer()
    with traced.installed(spaceform_areas):
        bundles = [cli.run_experiment(
            cli.ExperimentSpec(name=name, params=overrides,
                               output_dir=tmp_path / name),
            threads=w.threads) for name, overrides in w.experiments]
    assert [b.manifest["experiment"] for b in bundles if not b.passed] == []
    assert [m.name for m in tracer.LAYER_METRICS if workload in m.homes
            and tracer.calls(traced.spans, m.source) == 0] == []
