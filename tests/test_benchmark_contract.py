"""The benchmark's contract with the library: every operation of every
``perfbench`` workload runs through ``cli.main`` on the tiny inputs and passes
its own check, and every layer that ``perfbench/spans.py`` times names a
library function.  Only reads ``perfbench/``."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

from simplicent import cli  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_operation_passes_its_check(name, tmp_path, capsys):
    wl = workloads.WORKLOADS[name](1, str(tmp_path), size="tiny")
    for op in wl.ops:
        out = tmp_path / f"{op.name}.csv"
        capsys.readouterr()
        rc = cli.main(op.argv + ["-o", str(out)])
        captured = capsys.readouterr()
        assert rc == 0, (op.name, captured.err)
        op.check(str(out), captured.out)


def test_every_traced_layer_resolves():
    for layer, (module, function) in spans.LAYERS.items():
        assert callable(getattr(importlib.import_module(module), function, None)), layer
