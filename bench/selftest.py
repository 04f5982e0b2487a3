#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

For every workload it makes tiny runs (a few jobs) and checks that
  * the result line has exactly the keys correct, attempted, failed and
    metrics, and every metric that BENCHMARK.json names, with the declared
    unit, untraced and traced;
  * a run at another seed (which adds the reference spot check) is correct;
  * a deliberately corrupted reference entry makes the run fail
    (``correct`` false, ``failed`` > 0, ``success_rate`` < 1), so the check
    can fail;
and finally that the benchmark exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark itself.
Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
TIMEOUT_S = 180

failures: list[str] = []


def fail(msg: str) -> None:
    failures.append(msg)
    print(f"FAIL {msg}", flush=True)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def result_of(label: str, args: list[str], **kw):
    code, out, err = bench(*args, **kw)
    if code != 0:
        fail(f"{label}: exit {code}: {err.strip()[-500:]}")
        return None
    try:
        res = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail(f"{label}: last line is not a JSON object")
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(res)}")
        return None
    return res


def check_metrics(label: str, res: dict, declared: list[dict]) -> None:
    got = res["metrics"]
    for m in declared:
        if m["name"] not in got:
            fail(f"{label}: metric {m['name']} missing")
        elif got[m["name"]].get("unit") != m["unit"]:
            fail(f"{label}: {m['name']} has unit {got[m['name']].get('unit')}, declared {m['unit']}")
        elif not isinstance(got[m["name"]].get("value"), (int, float)):
            fail(f"{label}: {m['name']} has no numeric value")
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        fail(f"{label}: undeclared metrics {sorted(extra)}")


def corrupt(entry):
    """Change the first scalar field of a reference entry."""
    for key, val in entry.items():
        if isinstance(val, (str, int)) and not isinstance(val, bool):
            entry[key] = f"corrupted-{val}" if isinstance(val, str) else val + 1
            return key
    raise ValueError("reference entry has no scalar field")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tiny = ["--seconds", "1", "--jobs", "3"]
    OUT.mkdir(parents=True, exist_ok=True)
    for wl in (w["name"] for w in spec["workloads"]):
        base = ["--workload", wl, *tiny]
        res = result_of(f"{wl} untraced", [*base, "--seed", "0", "--trace", "0"])
        if res:
            check_metrics(f"{wl} untraced", res, spec["end_to_end"])
            if not res["correct"] or res["failed"]:
                fail(f"{wl} untraced: run reports failures")
        res = result_of(f"{wl} traced", [*base, "--seed", "0", "--trace", "1"])
        if res:
            check_metrics(f"{wl} traced", res, spec["per_layer"])
            if not res["correct"] or res["failed"]:
                fail(f"{wl} traced: run reports failures")
        res = result_of(f"{wl} seed 1", [*base, "--seed", "1", "--trace", "0"])
        if res and (not res["correct"] or res["failed"]):
            fail(f"{wl} seed 1: run reports failures")

        ref = json.loads((BENCH / "reference" / f"{wl}.json").read_text(encoding="utf-8"))
        field = corrupt(ref["jobs"][0])
        bad_ref = OUT / f"selftest-corrupt-{wl}.json"
        bad_ref.write_text(json.dumps(ref), encoding="utf-8")
        res = result_of(f"{wl} corrupted", [*base, "--seed", "0", "--trace", "0", "--reference", str(bad_ref)])
        bad_ref.unlink()
        if res:
            rate = res["metrics"]["success_rate"]["value"]
            if res["correct"] or res["failed"] < 1 or rate >= 1:
                fail(f"{wl}: corrupting reference field {field!r} went unnoticed")
            else:
                print(f"ok   {wl}: corrupted {field!r} caught, failed={res['failed']}, "
                      f"error rate {1 - rate:.3f}", flush=True)

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, out, _ = bench("--workload", spec["workloads"][0]["name"], "--seed", "0",
                             "--seconds", "1", "--trace", "0", cwd=bare)
        if code == 0 or out.strip():
            fail(f"bare directory: exit {code}, printed {out.strip()[:200]!r}")

    print("selftest:", "FAILED" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
