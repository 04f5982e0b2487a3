#!/usr/bin/env python3
"""soldyn benchmark: one seeded workload, timed end to end, outputs checked.

    python3 bench/run.py --workload certify|orbits|cli --seed N --seconds S --trace 0|1

Run from the repository root (any checkout of it).  ``--trace 0`` runs the
workload closed-loop for S seconds (and at least MIN_JOBS jobs) and reports
the end-to-end metrics; ``--trace 1`` runs a fixed number of jobs untraced,
then the same jobs with boundary tracing on, then the fixed-input micro
timings, and reports the per-layer metrics.  Every job's output is checked:
seed-independent invariants always, the stored reference at the default seed,
and a seeded sample of reference jobs on every other seed.  The last line of
standard output is the result object; the line before it has the environment
stamp and the workload's input-property shares.

Helpers: ``--write-reference`` regenerates ``bench/reference/<workload>.json``
at the default seed; ``--jobs N`` runs exactly N jobs (used by the
self-test); ``--reference PATH`` checks against another reference file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_JOBS = 100
SETUP_REPEATS = 7
SPOT_CHECKS = 6
PROBE_TIMEOUT_S = 60


def die(msg: str, code: int = 2) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_soldyn():
    """Import soldyn from this checkout's src/, never from anywhere else."""
    if not (SRC / "soldyn" / "__init__.py").is_file():
        die(f"no soldyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import soldyn

    if Path(soldyn.__file__).resolve().parent != (SRC / "soldyn").resolve():
        die(f"imported soldyn from {soldyn.__file__}, not from {SRC}")
    return soldyn


# ---------------------------------------------------------------------------
# set-up time: a fresh interpreter imports soldyn and builds the inputs


def probe_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        die(f"set-up probe failed (exit {code})")
    return t1 - t0


def setup_probe_child(workload: str, seed: int) -> None:
    import_soldyn()
    from workloads import WORKLOADS

    w = WORKLOADS[workload](seed, OUT)
    print("ready", flush=True)
    w.close()


# ---------------------------------------------------------------------------
# running and checking jobs


def run_jobs(w, n_jobs: int | None, seconds: float, check=None):
    """Closed loop over the pool; returns (per-job latencies, outputs).

    With ``check`` each output is handed to it between jobs, outside the job's
    timing, and not kept, so memory does not grow with the number of jobs.
    """
    pool = w.pool
    lat, outs = [], []
    clock = time.perf_counter
    deadline = clock() + seconds
    i = 0
    while True:
        item = pool[i % len(pool)]
        ts = clock()
        try:
            out, exc = w.run(item), None
        except Exception as e:  # a job that raises counts as failed, the run goes on
            out, exc = None, e
        te = clock()
        lat.append(te - ts)
        if check is None:
            outs.append((out, exc))
        else:
            check(i % len(pool), out, exc)
        i += 1
        if n_jobs is not None:
            if i >= n_jobs:
                break
        elif te >= deadline and i >= MIN_JOBS:
            break
    return lat, outs


def matches(ref, got) -> bool:
    """Every field of the reference is present and equal; added fields are fine."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(k in got and matches(v, got[k]) for k, v in ref.items())
    if isinstance(ref, list):
        return isinstance(got, list) and len(ref) == len(got) and all(map(matches, ref, got))
    return ref == got


class Checker:
    def __init__(self, w, reference: list | None) -> None:
        self.w = w
        self.reference = reference
        self.first: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, idx: int, out, exc, *, label: str = "job") -> None:
        self.attempted += 1
        item = self.w.pool[idx]
        bad = []
        if exc is not None:
            bad.append(f"raised {type(exc).__name__}: {exc}")
        else:
            got = self.w.canon(item, out)
            seen = self.first.get(idx)
            if seen is None:
                self.first[idx] = got
                bad += self.w.invariants(item, out)
                if self.reference is not None and not matches(self.reference[idx], got):
                    bad.append(f"differs from reference: {json.dumps(got, sort_keys=True)[:300]}")
            elif got != seen:
                bad.append("differs from an earlier run of the same input")
        if bad:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label} {idx}: " + "; ".join(bad))


def load_reference(workload: str, path: Path | None, pool_size: int) -> list:
    path = path or BENCH / "reference" / f"{workload}.json"
    try:
        ref = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        die(f"cannot read reference {path}: {exc}")
    if ref.get("workload") != workload or len(ref.get("jobs", [])) != pool_size:
        die(f"reference {path} does not describe the {workload} pool of {pool_size} jobs")
    return ref["jobs"]


def spot_check(cls, seed: int, reference: list):
    """Run a seeded sample of the default-seed jobs and compare with the reference."""
    from workloads import DEFAULT_SEED

    w0 = cls(DEFAULT_SEED, OUT)
    try:
        chk = Checker(w0, reference)
        for idx in sorted(random.Random(f"spot:{seed}").sample(range(len(w0.pool)), SPOT_CHECKS)):
            try:
                out, exc = w0.run(w0.pool[idx]), None
            except Exception as e:
                out, exc = None, e
            chk.check(idx, out, exc, label="reference job")
    finally:
        w0.close()
    return chk


# ---------------------------------------------------------------------------
# metrics


def environment(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for p in sorted((SRC / "soldyn").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def per_subcommand_ms(w, idx: list[int], lat: list[float]) -> dict[str, float]:
    from workloads import SUBCOMMANDS

    out = {}
    for sub in SUBCOMMANDS:
        vals = [t for i, t in zip(idx, lat) if w.pool[i % len(w.pool)].get("sub") == sub]
        out[f"cli.{sub}.ms"] = statistics.median(vals) * 1e3 if vals else 0.0
    return out


def layer_metrics(tracer, jobs: int) -> dict[str, float]:
    from tracing import LAYERS

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.layer(layer, "self_s")
        m[f"{layer}.calls"] = tracer.layer(layer, "calls")
        m[f"{layer}.errors"] = tracer.layer(layer, "errors")
    g = tracer.get
    constructed = g("circlemaps.PLLift.init", "calls") - g("circlemaps.PLLift.init", "errors")
    attempts = g("dynamics.rational_certificate", "calls")
    m.update({
        "circlemaps.PLLift.init.self_s": g("circlemaps.PLLift.init", "self_s"),
        "circlemaps.PLLift.constructed": constructed,
        "circlemaps.PLLift.compose.calls": g("circlemaps.PLLift.compose", "calls"),
        "circlemaps.breakpoints_materialized": tracer.bp_total,
        "circlemaps.breakpoints_per_lift": tracer.bp_total / constructed if constructed else 0.0,
        "circlemaps.breakpoints_max": tracer.bp_max,
        "circlemaps.coord_bits_max": tracer.bits_max,
        "circlemaps.PLLift.eval.calls": g("circlemaps.PLLift.eval", "calls"),
        "circlemaps.PLLift.eval.self_s": g("circlemaps.PLLift.eval", "self_s"),
        "circlemaps.PeriodicPL.eval.self_s": g("circlemaps.PeriodicPL.eval", "self_s"),
        "dynamics.rational_certificate.self_s": g("dynamics.rational_certificate", "self_s"),
        "dynamics.compositions_per_job": g("circlemaps.PLLift.compose", "calls") / jobs,
        "dynamics.certified_share": tracer.certified / attempts if attempts else 0.0,
        "profinite.ProfiniteInt.constructed":
            g("profinite.ProfiniteInt.init", "calls") - g("profinite.ProfiniteInt.init", "errors"),
        "profinite.pf_add.calls": g("profinite.pf_add", "calls"),
        "solenoid.points_constructed":
            g("solenoid.SolenoidPoint.init", "calls") - g("solenoid.SolenoidPoint.init", "errors"),
        "solenoid.canonicalize.calls": g("solenoid.canonicalize", "calls"),
        "solenoid.sol_dist.self_s": g("solenoid.sol_dist", "self_s"),
        "induced.apply.calls": g("induced.apply", "calls"),
        "induced.lp_truncate.self_s": g("induced.lp_truncate", "self_s"),
        "hull.check_semiconjugacy.self_s": g("hull.check_semiconjugacy", "self_s"),
        "hull.K_map.calls": g("hull.K_map", "calls"),
        "cli.parse.self_s": g("cli.parse", "self_s"),
    })
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "orbits", "cli"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=None, help="run exactly this many jobs")
    ap.add_argument("--reference", type=Path, default=None)
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe_child(args.workload, args.seed)
        return 0
    import_soldyn()
    if args.write_reference:
        return write_reference(args.workload)

    tiny = args.jobs is not None and args.jobs < MIN_JOBS
    setup_times = []
    if not args.trace:
        setup_times = [probe_setup(args.workload, args.seed) for _ in range(1 if tiny else SETUP_REPEATS)]
    from micro import REPEATS, run_micro
    from tracing import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    cls = WORKLOADS[args.workload]
    w = cls(args.seed, OUT)
    spot = None
    try:
        reference = load_reference(args.workload, args.reference, len(w.pool))
        w.run(w.pool[0])  # warm-up: lazy imports and first-call costs stay out of the timings
        checker = Checker(w, reference if args.seed == DEFAULT_SEED else None)
        if not args.trace:
            lat, _ = run_jobs(w, args.jobs, args.seconds, checker.check)
        else:
            n = args.jobs if args.jobs is not None else cls.TRACE_JOBS
            lat, _ = run_jobs(w, n, 0, checker.check)
            tracer = Tracer()
            tracer.install()
            try:
                traced_lat, traced_outs = run_jobs(w, n, 0)
            finally:
                tracer.uninstall()
            for i, (out, exc) in enumerate(traced_outs):
                checker.check(i % len(w.pool), out, exc, label="traced job")
            micro = run_micro(1 if tiny else REPEATS)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.bin")
        if args.seed != DEFAULT_SEED:
            spot = spot_check(cls, args.seed, reference)
        idx = list(range(len(lat)))
        props = w.properties(idx)
        cli_ms = per_subcommand_ms(w, idx, lat)
    finally:
        w.close()

    checks = [checker] + ([spot] if spot else [])
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = [p for c in checks for p in c.problems]
    for p in problems:
        print(f"bench: FAILED {p}", file=sys.stderr)

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput_jobs_s": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": statistics.quantiles(lat, n=100)[89] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": (attempted - failed) / attempted,
        }
    else:
        metrics = layer_metrics(tracer, n)
        metrics.update(cli_ms)
        metrics["trace.overhead_frac"] = sum(traced_lat) / sum(lat) - 1
        metrics["error_rate"] = failed / attempted
        metrics.update(micro)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        die(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    info = {
        "environment": environment(args),
        "properties": props,
        "latency_samples": len(lat),
        "traced_jobs": len(lat) if args.trace else 0,
        "timed_wall_s": sum(lat),
        "setup_samples_s": setup_times,
    }
    extra = {"functions": tracer.table()} if args.trace else {}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "info": info, "problems": problems, **extra}, indent=1)
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def write_reference(workload: str) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    w = WORKLOADS[workload](DEFAULT_SEED, OUT)
    try:
        jobs = []
        for i, item in enumerate(w.pool):
            out = w.run(item)
            bad = w.invariants(item, out)
            if bad:
                die(f"job {i} fails its invariants: {bad}", 1)
            jobs.append(json.loads(json.dumps(w.canon(item, out))))
    finally:
        w.close()
    path = BENCH / "reference" / f"{workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": workload, "seed": DEFAULT_SEED, "jobs": jobs}, indent=0) + "\n")
    print(f"wrote {path} ({len(jobs)} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
