"""Fast self-test of the benchmark; not part of the repository's test suite.

    python3 bench/selftest.py

Runs every workload at the tiny size for one second, untraced and traced,
and checks that the result line carries every metric BENCHMARK.json names
for that mode, with its unit, and whole attempted and failed counts. Then
runs one traced workload in this process with an entry point renamed, and
checks that it is reported missing and reads 0 instead of crashing.
"""

from __future__ import annotations

import json
import subprocess
import sys

from checkout import BENCH, ROOT, load_specsyn

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _expect(ok: bool, message: str, failures: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def _check_result(result: dict, trace: int, label: str, failures: list) -> None:
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    _expect(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{label}: result keys {sorted(result)}", failures)
    _expect(result.get("correct") is True, f"{label}: correct", failures)
    attempted, failed = result.get("attempted"), result.get("failed")
    _expect(isinstance(attempted, int) and attempted >= 1
            and isinstance(failed, int) and 0 <= failed <= attempted,
            f"{label}: attempted {attempted}, failed {failed}", failures)
    metrics = result.get("metrics", {})
    _expect(set(metrics) == set(wanted),
            f"{label}: metric names (missing {sorted(set(wanted) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(wanted))})", failures)
    bad = [n for n, m in metrics.items()
           if not isinstance(m.get("value"), (int, float)) or m.get("unit") != wanted.get(n)]
    _expect(not bad, f"{label}: every value a number with its unit {bad[:5]}", failures)


def run_workloads(failures: list) -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            tail = proc.stderr[-300:] if proc.returncode else ""
            _expect(proc.returncode == 0, f"{label}: exit {proc.returncode} {tail}", failures)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                _expect(False, f"{label}: last line is not JSON", failures)
                continue
            _check_result(result, trace, label, failures)


def run_with_renamed_entry_point(failures: list) -> None:
    load_specsyn()
    import run
    import tracing

    renamed = "report_from_outcomes_renamed"
    tracing.LAYERS = tuple(
        (name, module, renamed if name == "eval.report" else qualname, hook)
        for name, module, qualname, hook in tracing.LAYERS
    )
    args = run._parse_args(["--workload", "extract", "--seed", "1", "--seconds", "1",
                            "--trace", "1", "--size", "tiny"])
    result = run.run(args)
    record = json.loads((BENCH / "results" / "extract-seed1-trace1.json").read_text())
    label = "renamed entry point"
    _check_result(result, 1, label, failures)
    _expect(record["missing_entry_points"] == [f"specsyn.eval:{renamed}"],
            f"{label}: reported missing {record['missing_entry_points']}", failures)
    _expect(record["missing_metrics"] == ["eval.report_s"],
            f"{label}: metrics behind it {record['missing_metrics']}", failures)
    _expect(result["metrics"]["eval.report_s"]["value"] == 0,
            f"{label}: eval.report_s reads 0", failures)


def main() -> int:
    failures: list = []
    run_workloads(failures)
    run_with_renamed_entry_point(failures)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
