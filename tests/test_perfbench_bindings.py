"""perfbench's traced mode binds biotbench names from outside the package.

Each workload's tiny warm-up config runs through ``cli.main`` with every
perfbench span installed, so a source change that renames or stops
calling a bound name fails here, before it blinds a traced benchmark.
perfbench's files are loaded by path and left as they are.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from biotbench import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # no bytecode cache in perfbench/, which this test only reads
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


spans = _load("spans")
workloads = _load("workloads")


def _lookup(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


class RecordingPatcher(spans.Patcher):
    """A perfbench patcher that also keeps each binding's original."""

    def __init__(self):
        super().__init__()
        self.originals = []

    def wrap(self, owner, key, make):
        self.originals.append((owner, key, _lookup(owner, key)))
        super().wrap(owner, key, make)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_workload_reaches_every_expected_layer(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(workloads.warmup_config(workload, str(tmp_path / "out"))))
    tracer, patcher = spans.Tracer(), RecordingPatcher()
    try:
        spans.install(tracer, patcher)
        main = tracer.wrap("cli.main", cli.main)
        exit_code = main([workload.command, "--config", str(config_path)])
    finally:
        patcher.restore()
    assert exit_code == 0
    assert spans.missing_layers(tracer.job_metrics(0), workload.expected_layers) == []
    assert patcher.originals
    assert all(_lookup(owner, key) is original for owner, key, original in patcher.originals)
