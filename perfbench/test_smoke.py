"""Reduced-size smoke test of the benchmark.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at smoke size, untraced and traced, the ones
``BENCHMARK.json`` lists and ``reproduce_fig2``, and checks that each metric
``BENCHMARK.json`` declares is printed with its unit, that no operation
fails, and that a perturbed result is counted as a failure.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_unit_and_nothing_fails(name, trace, capsys):
    argv = ["--workload", name, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, smoke=True) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "fail_ratio = 0 ratio (0 of" in "\n".join(lines)
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(ln.startswith(f"{m['name']} = ") and ln.endswith(f" {m['unit']}") for ln in lines)


def _failed_after(workload_name, perturb):
    """Run one smoke-size operation whose output ``perturb`` alters; return failures."""
    _, workload = run.fresh_setup(workloads.WORKLOADS[workload_name], 0, smoke=True)
    original = workload.run
    workload.run = lambda k, out: perturb(original(k, out), out)
    runner = run.Runner(workload, run.OUT / "smoke-perturbed")
    runner.op(0)
    return runner.failed


def test_perturbed_lambda_in_written_metadata_is_a_failure():
    def perturb(report, out):
        path = next(out.glob("*.meta.json"))
        meta = json.loads(path.read_text())
        meta["lambda_max_controlled"] += 1e-6
        path.write_text(json.dumps(meta))
        return report

    assert _failed_after("sweep_ba", perturb) == 1


def test_perturbed_gain_answer_is_a_failure():
    def perturb(raw, out):
        edges, pinned, gain, schur_ok, lam = raw
        return edges, pinned, gain, schur_ok, lam + 1e-6

    assert _failed_after("design_ba", perturb) == 1


def test_unperturbed_operation_passes():
    assert _failed_after("design_ba", lambda raw, out: raw) == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "design_ba",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
