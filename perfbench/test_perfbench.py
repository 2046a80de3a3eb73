"""Checks on the benchmark itself: smoke runs print every metric with its
unit, the tracer rebinds every alias of a wrapped function, and a
directory without tkern's sources is refused.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer metrics that each workload exercises, hence nonzero when traced
EXERCISED = {
    "multiplier_sweep": (
        "rational.poly_roots.calls",
        "rational.poly_roots.repeat_share",
        "rational.RationalFunction.calls",
        "factorization.wiener_hopf.calls",
        "kernels.kernel.calls",
        "kernels.in_kernel.calls",
        "multipliers.is_multiplier.self_ms",
        "multipliers.smirnov_multiplier_test.self_ms",
        "multipliers.carleson_check.calls",
    ),
    "oracle_crosscheck": (
        "kernels.kernel.calls",
        "oracle.numeric_kernel.calls",
        "oracle.fourier_coefficients.calls",
        "oracle.boundary_sampling.calls",
        "oracle.boundary_sampling.points",
        "oracle.principal_angle.calls",
        "oracle.min_gap_ratio",
    ),
    "degree_sweep": (
        "factorization.wiener_hopf.calls",
        "kernels.kernel.calls",
        "kernels.in_kernel.calls",
        "kernels.is_maximal.calls",
    ),
    "cli_oneshot": (
        "rational.poly_roots.calls",
        "expressions.parse_expression.calls",
        "cli.main.self_ms",
    ),
}


def _smoke(trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 5 and parts[2] == "=":
            printed[(parts[0], parts[1])] = (float(parts[3]), parts[4])
    return printed, json.loads(lines[-1])


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == (
        layertrace.metric_specs()
    )
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    import workloads

    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, section):
    printed, result = _smoke(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for workload in run.WORKLOAD_NAMES:
        assert printed[(workload, "fail_share")][1] == "share"
        for metric in BENCHMARK[section]:
            assert printed[(workload, metric["name"])][1] == metric["unit"]
            assert result["metrics"][f"{workload}.{metric['name']}"]["unit"] == metric["unit"]
        if trace:
            for name in EXERCISED[workload]:
                assert printed[(workload, name)][0] > 0, (workload, name)


def test_tracer_rebinds_every_alias():
    import tkern
    from tkern import cli, multipliers, verify

    tracer = layertrace.Tracer()
    uninstall = layertrace.install(tracer)
    try:
        for layer, names in layertrace.TARGETS.items():
            for fname in names:
                wrapped = getattr(sys.modules[f"tkern.{layer}"], fname)
                original = wrapped.__wrapped__
                for mod_name, module in list(sys.modules.items()):
                    if mod_name.startswith("tkern"):
                        assert original not in vars(module).values(), (mod_name, fname)
        # each call below reaches the target through another module's alias
        multipliers.is_multiplier(
            tkern.RationalFunction([1, 1]), tkern.monomial(-1), tkern.monomial(-2)
        )
        verify.run_suite("paper-examples")
        assert cli.main(["dim", "--symbol", "zbar^2"]) == 0
    finally:
        uninstall()
    for name in ("kernels.kernel", "factorization.wiener_hopf", "kernels.in_kernel",
                 "multipliers.carleson_check", "oracle.principal_angle",
                 "halfplane.cayley_function", "expressions.parse_expression",
                 "rational.poly_roots", "rational.RationalFunction"):
        assert tracer.calls[name] > 0, name
    assert not hasattr(tkern.kernel, "__wrapped__")
    assert "__wrapped__" not in vars(tkern.RationalFunction.__init__)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "degree_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
