"""Self-test of the benchmark at smoke sizes.

    python -m pytest perfbench/test_smoke.py

Every metric named in BENCHMARK.json is emitted with its unit on every
workload, and a failed output check shows up in failed/attempted.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(capsys, workload: str, trace: int) -> tuple:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
            "--smoke"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace):
    result, detail = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        assert values["trace.unattributed_s"] >= 0.0
        calls = {}
        for path, n_calls, _, _ in detail["spans"]:
            calls[path[-1]] = calls.get(path[-1], 0) + n_calls
        assert values["estimators.sample_sets"] == (
            calls.get("estimators.success_probability", 0)
            + calls.get("estimators.one_step_samples", 0))
    else:
        assert all(v > 0 for v in values.values())


def test_failed_check_raises_failed_frac(capsys, monkeypatch):
    wl = workloads.WORKLOADS["escape-long"]
    # a 2-iteration budget censors every trial: exit code 2 and failed units
    monkeypatch.setitem(workloads.WORKLOADS, wl.name,
                        dataclasses.replace(wl, smoke={**wl.smoke, "budget": 2}))
    result, detail = bench(capsys, wl.name, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert detail["failed_frac"] == 1.0
