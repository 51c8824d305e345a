"""The benchmark's workloads still run against the library.

bench/ lies outside the test paths, so a library change that breaks
bench/workloads.py would otherwise show only under `pytest bench` or in a
benchmark run. Each unit must pass the workload's own check.
"""

import importlib
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def run_units(workload, units):
    ctx = workload.build()
    inputs = list(islice(workload.inputs("main"), units))
    return inputs, [workload.run(ctx, inp) for inp in inputs]


def test_update_clean_units_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    _, results = run_units(workloads.UpdateClean(seed=1), 3)
    assert [r.failed for r in results] == [0, 0, 0]


def test_update_tamper_units_pass_on_every_kind_and_frame(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    units = len(workloads.TAMPER_KINDS) * workloads.TAMPER_FRAMES
    inputs, results = run_units(workloads.UpdateTamper(seed=1), units)
    assert {(inp["kind"], inp["at"]) for inp in inputs} == {
        (kind, at) for kind in workloads.TAMPER_KINDS
        for at in range(workloads.TAMPER_FRAMES)
    }
    assert [r.failed for r in results] == [0] * units


@pytest.mark.parametrize("seed,index", [(1, 69_918), (2, 23_700)])
def test_update_clean_silent_miscorrection_commits(monkeypatch, seed, index):
    """The first main-stream unit of each seed whose first update boot has a
    block that BCH decodes to a wrong word: the token's MAC_MISMATCH is
    retried under a fresh boot (4 boots, not 3), and the unit passes."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.UpdateClean(seed=seed)
    inp = next(islice(workload.inputs("main"), index, None))
    result = workload.run(workload.build(), inp)
    assert result.failed == 0
    assert (result.record["outcome"], result.record["boots"]) == ("COMMITTED", 4)


def test_mc_keyfail_unit_passes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.McKeyfail(seed=1)
    _, (result,) = run_units(workload, 1)
    assert (result.ops, result.failed) == (workload.sessions_per_call, 0)
    fingerprint, traffic = workload.summarize([result.record], [result.record])
    assert fingerprint["failures_per_call"] == [result.record["failures"]]
    assert traffic["sessions"] == workload.sessions_per_call


def test_power_sweep_unit_passes_its_resimulation(monkeypatch):
    """One pass over the grid is monotone, cold_start_session re-simulates
    every cell's success count, and a count it cannot reproduce fails."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.PowerSweep(seed=1)
    cells = workload.build()
    _, (result,) = run_units(workload, 1)
    assert (result.ops, result.failed) == (workload.unit_ops, 0)
    window = [result.record]
    assert workload.final_check(cells, window) == 0
    fingerprint, traffic = workload.summarize(window, window)
    assert fingerprint["passes"] == 1 and traffic["sessions"] == workload.unit_ops
    assert len(fingerprint["cells"]) == len(cells)
    wrong = [{**result.record, "success": [result.record["success"][0] + 1.0,
                                           *result.record["success"][1:]]}]
    assert workload.final_check(cells, wrong) == workload.trials_per_cell
