"""relbgg benchmark: four seeded closed-loop workloads against the real CLI.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each run starts fresh worker processes (see worker.py), prints a report and,
as the last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Reports and spans are also written
to ``.perfbench_out/``.

Latency samples: every request of every pass is one sample.  The timed
loop replays the request list in whole passes, for --seconds and at least
100 requests (in-process workloads at least two passes, cli-cold fifty
requests, one process each, a pass).  Each sample is scaled to the
reference host speed by gauge readings taken just before and after the
request (hostspeed.py), because on a shared VM the host's own speed drifts
by up to ~1.8x for tens of seconds; the unscaled figures are in the report.
The harness and everything it starts run on one CPU, the one the gauge
reads.  throughput_rps is the number of samples over the sum of their
scaled times, so the harness's own work between requests is excluded.
setup_s is the median set-up time of SETUP_SAMPLES workers started only to
set up, each scaled by gauge readings taken just before and after it.
peak_rss_mb is the worker's ru_maxrss, or for cli-cold the largest
ru_maxrss of the request processes.  The harness uses only the standard
library and never imports relbgg itself; the workers load it from ``src/``.

Layer metric -> end-to-end metric it should move, on which workload:
  roots.build_root_system.self_ms, roots.roots_built -> throughput_rps, latency_p90_ms on sweep
  grading.*.self_ms, torsion.*.self_ms            -> latency_p50_ms on sweep
  cli.main.self_ms, cli.output_bytes              -> latency_p90_ms on sweep
  dynkin.*.self_ms                                -> latency_p50_ms on bgg-chain
  bgg.relative_hasse.self_ms, bgg.hasse_elements,
  bgg.us_per_hasse_element                        -> throughput_rps, latency_p90_ms on bgg-chain
  oracle.commutator_audit.self_ms, oracle.p_plus_action_audit.self_ms,
  oracle.pairs_checked, oracle.ns_per_pair        -> throughput_rps, latency_p90_ms, peak_rss_mb on audit
  grading.verify_bracket_additivity.self_ms       -> latency_p50_ms on audit
  import.numpy_ms, import.relbgg_ms,
  proc.bare_interpreter_ms                        -> latency_p50_ms, peak_rss_mb on cli-cold;
                                                     setup_s on the in-process workloads
  trace.overhead_frac                             -> none (diagnostic)
A change aimed at bgg-chain or audit should leave sweep unchanged, and the
reverse.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from workloads import COLD, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SETUP_SAMPLES = 9  # set-up-only workers per run; setup_s is the median of their set-up times
PROBE_SAMPLES = 5
RUN_TIMEOUT_S = 170


def quartiles(values) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spawn_worker(root: str, args, name: str, workdir: str, setup_only: bool, deadline: float) -> tuple[dict, float]:
    """Start a worker; return its result and the time from spawn to its first timed request."""
    out = os.path.join(workdir, "setup.json" if setup_only else "result.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--root", root, "--workdir", workdir, "--out", out,
    ]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans", os.path.join(root, ".perfbench_out", f"spans-{name}-seed{args.seed}.jsonl")]
    start = time.monotonic()
    subprocess.run(cmd, cwd=root, stdout=sys.stderr, check=True, timeout=max(1.0, deadline - start))
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    return result, result["ready"] - start


def probes(root: str) -> dict[str, float]:
    """Median ms of a bare interpreter, of `import numpy`, and of `import relbgg.cli` (numpy included)."""
    src = os.path.join(root, "src")
    timed_import = (
        "import sys, time; sys.path.insert(0, {src!r}); "
        "t = time.perf_counter(); import {mod}; print(time.perf_counter() - t)"
    )
    samples: dict[str, list[float]] = {"proc.bare_interpreter_ms": [], "import.numpy_ms": [], "import.relbgg_ms": []}
    for _ in range(PROBE_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples["proc.bare_interpreter_ms"].append((time.perf_counter() - start) * 1e3)
        for key, mod in (("import.numpy_ms", "numpy"), ("import.relbgg_ms", "relbgg.cli")):
            code = timed_import.format(src=src, mod=mod)
            res = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True, cwd=root)
            samples[key].append(float(res.stdout.strip().splitlines()[-1]) * 1e3)
    return {key: statistics.median(v) for key, v in samples.items()}


def environment(root: str) -> dict:
    src_hash = hashlib.sha256()
    pkg = os.path.join(root, "src", "relbgg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    commit = "unavailable (not a git checkout)"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
    }


def end_to_end(res: dict, setups: list[float], raw_setups: list[float], cold: bool) -> dict:
    """The five end-to-end metrics, each with its sample count, the quartiles of its samples and its raw value."""
    lat_ms = [ns / 1e6 for ns in res["latencies_ns"]]
    raw_ms = [ns / 1e6 for ns in res["raw_latencies_ns"]]
    rss_mb = [kb / 1024 for kb in res["rss_kb"]]
    n = len(lat_ms)
    of = "request latencies"
    return {
        "throughput_rps": {"value": n / (sum(lat_ms) / 1e3), "unit": "1/s", "n": n,
                           "quartiles": quartiles(res["pass_rps"]), "of": "per-pass rates",
                           "raw": n / (sum(raw_ms) / 1e3)},
        "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms", "n": n,
                           "quartiles": quartiles(lat_ms), "of": of, "raw": statistics.median(raw_ms)},
        "latency_p90_ms": {"value": statistics.quantiles(lat_ms, n=10)[8], "unit": "ms", "n": n,
                           "quartiles": quartiles(lat_ms), "of": of, "raw": statistics.quantiles(raw_ms, n=10)[8]},
        "peak_rss_mb": {"value": max(rss_mb), "unit": "MB", "n": len(rss_mb), "quartiles": quartiles(rss_mb),
                        "of": "request processes" if cold else "worker process", "raw": max(rss_mb)},
        "setup_s": {"value": statistics.median(setups), "unit": "s", "n": len(setups),
                    "quartiles": quartiles(setups), "of": "set-ups", "raw": statistics.median(raw_setups)},
    }


def run_workload(root: str, name: str, args, units: dict[str, str]) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(os.path.join(root, ".perfbench_out"), exist_ok=True)
    workdir = os.path.join(root, ".perfbench_work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        setups, raw_setups = [], []
        for _ in range(0 if args.trace else SETUP_SAMPLES):
            before = hostspeed.gauge()
            raw = spawn_worker(root, args, name, workdir, True, deadline)[1]
            setups.append(hostspeed.scale(raw, before, hostspeed.gauge()))
            raw_setups.append(raw)
        res = spawn_worker(root, args, name, workdir, False, deadline)[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    golden = res["golden"]
    correct = (
        res["wrong"] == 0 and not golden["mismatched"] and not golden["missing"]
        and not res.get("reference_problems")
    )
    report = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "requests_per_pass": res["requests_per_pass"], "attempted": res["attempted"], "failed": res["failed"],
        "failed_frac": res["failed"] / res["attempted"], "failure_reasons": res["reasons"], "correct": correct,
        "golden": golden, "digest": res["digest"], "reference_problems": res.get("reference_problems", []),
        "environment": dict(environment(root), numpy_loaded=res["numpy"]),
    }
    if args.trace:
        metrics = dict(res["per_layer"], **probes(root))
        report["per_layer"] = metrics
        report["wrapped"] = res.get("wrapped")
        out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        report["end_to_end"] = end_to_end(res, setups, raw_setups, name in COLD)
        out = {k: {"value": v["value"], "unit": v["unit"]} for k, v in report["end_to_end"].items()}
    report_path = os.path.join(root, ".perfbench_out", f"report-{name}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print_report(report, units)
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": out}


def print_report(r: dict, units: dict[str, str]) -> None:
    env = r["environment"]
    print(f"perfbench {r['workload']}  seed={r['seed']}  trace={r['trace']}  "
          f"{r['requests_per_pass']} requests/pass, {r['attempted']} requests")
    for key, m in r.get("end_to_end", {}).items():
        q = "/".join(f"{x:.4g}" for x in m["quartiles"])
        print(f"  {key:<16} {m['value']:12.4f} {m['unit']:<4} n={m['n']:<6} quartiles of {m['of']}: {q}"
              f"  (unscaled {m['raw']:.4f})")
    for key, value in r.get("per_layer", {}).items():
        print(f"  {key:<44} {value:14.6f} {units[key]}")
    print(f"  failed_frac      {r['failed_frac']:12.6f}      ({r['failed']} of {r['attempted']} requests)")
    for reason, count in sorted(r["failure_reasons"].items()):
        print(f"    {count:6d} x {reason}")
    g = r["golden"]
    print(f"  correct={r['correct']}  golden {g['identical']}/{len(g['mismatched']) + g['identical']} byte-identical"
          f"{'  missing ' + ','.join(g['missing']) if g['missing'] else ''}  output digest {r['digest']}")
    print(f"  env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"commit={env['git_commit'][:12]} src={env['src_sha256']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    for need in (os.path.join("src", "relbgg", "cli.py"), "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from the root of a relbgg checkout", file=sys.stderr)
            return 2
    # One CPU for the harness and every process it starts, so that the
    # host-speed gauge reads the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args, units)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
