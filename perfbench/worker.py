"""One benchmark process: set-up, then the timed closed loop, then a result file.

``run.py`` starts this file in a fresh interpreter for every run and for
every extra set-up sample, so set-up time and peak RSS belong to one
process.  Set-up covers interpreter start, ``import relbgg.cli``, input
generation and the golden replay.  The timed loop is closed and
single-client: it replays the request list in whole passes, each request
waiting for the previous one, until ``--seconds`` have passed, at least
``MIN_REQUESTS`` have run and, in-process, at least ``MIN_PASSES`` passes
are done.  Each request's time is scaled to the reference host speed by
the gauge readings taken before and after it (hostspeed.py).  cli-cold
requests are spawned through launcher.py.
Every answer of the first pass is spooled to a file and goes through the
independent checker after the loop ends (for cli-cold, together with the
in-process reference answers computed then); later passes must reproduce
the first pass byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import checks
import hostspeed
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REQUESTS = 100  # so that at least ten samples lie beyond p90
MIN_PASSES = 2  # in-process workloads: a second pass checks that answers repeat byte for byte
COLD_TIMEOUT_S = 60

# The invocations behind tests/golden/*.json, replayed before timing.
GOLDEN = (
    (["bigrade", "A4", "--sq", "1,4", "--sp", "1", "--json"], "bigrade_a4_legendrean.json"),
    (["bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1", "--json"], "bgg_dual_standard.json"),
    (["ranks", "A4", "--sq", "1,2", "--sp", "1", "--json"], "ranks_path_a4.json"),
    (["check-torsion", "--catalog", "legendrean(3)", "--json"], "check_torsion_legendrean3.json"),
)


def in_process(argv):
    """Run relbgg.cli.main(argv) as a one-shot CLI call would; return (rc, stdout, stderr, ns)."""
    cli = sys.modules["relbgg.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code or 0
        except Exception as exc:  # an escaped exception is a failed request, not a harness crash
            rc = f"uncaught {type(exc).__name__}: {exc}"
        ns = time.perf_counter_ns() - start
    return rc, out.getvalue(), err.getvalue(), ns


class Cold:
    """One ``python -m relbgg`` process per request; traced runs go through coldtrace.py.

    The processes are started by launcher.py, so that their ru_maxrss does
    not include this worker's memory.
    """

    def __init__(self, root: str, workdir: str) -> None:
        src = os.path.join(root, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        self.out_path = os.path.join(workdir, "cold.out")
        self.err_path = os.path.join(workdir, "cold.err")
        self.span_path = os.path.join(workdir, "cold.spans")
        self.trace = None  # list receiving spans when tracing
        self.counters: dict[str, int] = {}
        self.rss_kb: list[int] = []  # ru_maxrss of each request process
        launcher = [sys.executable, "-S", os.path.join(HERE, "launcher.py"), self.out_path, self.err_path]
        self.launcher = subprocess.Popen(
            launcher + [str(COLD_TIMEOUT_S)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=root, env=env, text=True,
        )

    def __call__(self, argv, request_id: int):
        if self.trace is None:
            cmd = [sys.executable, "-m", "relbgg", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "coldtrace.py"), self.span_path, str(request_id), *argv]
        self.launcher.stdin.write(json.dumps(cmd) + "\n")
        self.launcher.stdin.flush()
        rc, ns, rss_kb = json.loads(self.launcher.stdout.readline())
        self.rss_kb.append(rss_kb)
        with open(self.out_path, "rb") as fo, open(self.err_path, "rb") as fe:
            out, err = fo.read().decode("utf-8", "replace"), fe.read().decode("utf-8", "replace")
        if self.trace is not None:
            self._collect_spans()
        return rc, out, err, ns

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def _collect_spans(self) -> None:
        try:
            with open(self.span_path, encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(self.span_path)
        except (OSError, ValueError):
            return
        base = len(self.trace)
        for name, start, end, parent, req in data["spans"]:
            self.trace.append([name, start, end, parent + base if parent >= 0 else -1, req])
        for key, value in data["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def output_counts(spec, rc, out: str) -> dict:
    """Work counts read from the answer itself: bytes, Hasse elements, oracle pairs."""
    counts = {"cli.output_bytes": len(out.encode("utf-8"))}
    if rc != 0:
        return counts
    try:
        if spec["cmd"] == "bgg":
            counts["bgg.hasse_elements"] = (
                len(json.loads(out)["result"]["entries"]) if spec["json"] else len(out.splitlines())
            )
        elif spec["cmd"] == "audit":
            if spec["json"]:
                res = json.loads(out)["result"]
                pairs = res["commutator"]["pairs_checked"] + sum(r["pairs_checked"] for r in res["p_plus_raising"])
            else:
                pairs = sum(
                    int(line.split(": ")[1].split()[0])
                    for line in out.splitlines()
                    if line.startswith(("commutator audit:", "p_plus raising"))
                )
            counts["oracle.pairs_checked"] = pairs
    except (ValueError, KeyError, IndexError, TypeError):
        pass
    return counts


class Ledger:
    """Answers of the first pass, checked once timing is over, and the run's failure counts.

    Checking happens after the timed loop so the checker's own work (JSON
    parsing, reference computations) never runs between timed requests.
    First answers go to a spool file, not memory, so the worker's peak RSS
    does not grow with the outputs it has yet to check.
    """

    def __init__(self, reqs, spool_path: str) -> None:
        self.reqs = reqs
        self.refs = None  # in-process answers that cli-cold answers must equal
        self.hashes: dict[int, str] = {}
        self.spool_path = spool_path
        self.spool = open(spool_path, "w", encoding="utf-8")
        self.seen: dict[int, int] = {}
        self.unstable: set[int] = set()
        self.counts: dict[int, dict] = {}

    def observe(self, i: int, rc, out: str, err: str) -> None:
        digest = hashlib.sha256(repr((rc, out, _last_line(err))).encode("utf-8")).hexdigest()
        if i not in self.hashes:
            self.hashes[i] = digest
            self.spool.write(json.dumps([i, rc, out, err]) + "\n")
        elif digest != self.hashes[i]:
            self.unstable.add(i)
        self.seen[i] = self.seen.get(i, 0) + 1

    def settle(self) -> dict:
        """Check every first answer; return attempted, failed, wrong and the reasons by count."""
        self.spool.close()
        verdicts = {}
        for i, rc, out, err in self._spooled():
            spec = self.reqs[i][1]
            verdict = checks.judge(spec, rc, out, err)
            if verdict is None and self.refs is not None and (rc, out) != self.refs[i][:2]:
                verdict = ("wrong", "stdout or exit code differs from the in-process answer")
            if i in self.unstable:
                verdict = ("wrong", "answer differs from the first pass")
            verdicts[i] = verdict
            self.counts[i] = output_counts(spec, rc, out)
        summary = {"attempted": sum(self.seen.values()), "failed": 0, "wrong": 0, "reasons": {}}
        for i, verdict in verdicts.items():
            if verdict is not None:
                summary["failed"] += self.seen[i]
                summary["wrong"] += self.seen[i] * (verdict[0] == "wrong")
                key = f"{verdict[0]}: {verdict[1]}"
                summary["reasons"][key] = summary["reasons"].get(key, 0) + self.seen[i]
        return summary

    def _spooled(self):
        with open(self.spool_path, encoding="utf-8") as fh:
            for line in fh:
                yield json.loads(line)
        os.remove(self.spool_path)

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in sorted(self.hashes):
            h.update(self.hashes[i].encode())
        return h.hexdigest()[:16]


def run_passes(call, ledger: Ledger, seconds: float, min_requests: int, gauge: str, first_id: int = 0,
               on_request=None, min_passes: int = 1):
    """Whole passes until the time, request and pass floors are met.

    Each request is timed between two readings of the host-speed gauge ``gauge``.
    Returns the latencies scaled to the reference host speed (see
    hostspeed.py), the raw latencies and per-pass rates of scaled time.
    """
    latencies, raw, pass_rps = [], [], []
    deadline = time.monotonic() + seconds
    before = hostspeed.gauge(gauge)
    while True:
        busy = 0
        for i, (argv, _) in enumerate(ledger.reqs):
            request_id = first_id + len(latencies)
            if on_request is not None:
                on_request(request_id)
            rc, out, err, ns = call(argv, request_id)
            after = hostspeed.gauge(gauge)
            scaled = hostspeed.scale(ns, before, after, gauge)
            before = after
            latencies.append(scaled)
            raw.append(ns)
            busy += scaled
            ledger.observe(i, rc, out, err)
        pass_rps.append(len(ledger.reqs) / (busy / 1e9))
        if time.monotonic() >= deadline and len(latencies) >= min_requests and len(pass_rps) >= min_passes:
            return latencies, raw, pass_rps


def golden_replay(root: str) -> dict:
    out = {"identical": 0, "mismatched": [], "missing": []}
    for argv, name in GOLDEN:
        path = os.path.join(root, "tests", "golden", name)
        if not os.path.isfile(path):
            out["missing"].append(name)
            continue
        with open(path, encoding="utf-8") as fh:
            want = fh.read()
        if in_process(argv)[1] == want:
            out["identical"] += 1
        else:
            out["mismatched"].append(name)
    return out


def settle(ledger: Ledger, cold: bool, result: dict) -> dict:
    """Check the first answers; cli-cold ones against in-process references computed now, after timing."""
    if cold:
        ledger.refs = [in_process(argv) for argv, _ in ledger.reqs]
        bad_refs = [checks.judge(spec, *ref[:3]) for (_, spec), ref in zip(ledger.reqs, ledger.refs)]
        result["reference_problems"] = sorted({v[1] for v in bad_refs if v is not None})
    return ledger.settle()


def per_layer(spans, counters, ledger: Ledger, passes: int) -> dict:
    """Per-request self time and calls per entry point, plus the derived ratios."""
    n = passes * len(ledger.reqs)
    agg = tracer.self_times(spans)
    metrics = {}
    for name in tracer.SPAN_NAMES:
        calls, self_ns = agg.get(name, (0, 0))
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.self_ms"] = self_ns / 1e6 / n
    totals: dict[str, int] = dict(counters)
    for counts in ledger.counts.values():
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + passes * value
    for key in ("roots.roots_built", "cli.output_bytes", "bgg.hasse_elements", "oracle.pairs_checked"):
        metrics[key] = totals.get(key, 0) / n
    hasse = totals.get("bgg.hasse_elements", 0)
    pairs = totals.get("oracle.pairs_checked", 0)
    audit_ns = sum(agg.get(f"oracle.{f}", (0, 0))[1] for f in ("commutator_audit", "p_plus_action_audit"))
    metrics["bgg.us_per_hasse_element"] = agg.get("bgg.relative_hasse", (0, 0))[1] / 1e3 / hasse if hasse else 0.0
    metrics["oracle.ns_per_pair"] = audit_ns / pairs if pairs else 0.0
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="file for the spans of a traced run")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import relbgg.cli

    if not os.path.abspath(relbgg.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"relbgg imported from {relbgg.cli.__file__}, not from {src}")
    reqs = workloads.generate(args.workload, args.seed, args.workdir)
    golden = golden_replay(args.root)
    cold = args.workload in workloads.COLD
    gauge = workloads.GAUGE[args.workload]
    ready = time.monotonic()
    result = {"ready": ready, "golden": golden, "requests_per_pass": len(reqs)}
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    ledger = Ledger(reqs, os.path.join(args.workdir, "answers.jsonl"))
    call = Cold(args.root, args.workdir) if cold else (lambda argv, _: in_process(argv))
    if not args.trace:
        min_passes = 1 if cold else MIN_PASSES
        latencies, raw, pass_rps = run_passes(call, ledger, args.seconds, MIN_REQUESTS, gauge, min_passes=min_passes)
        rss_kb = call.rss_kb if cold else [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
        result.update(latencies_ns=latencies, raw_latencies_ns=raw, pass_rps=pass_rps, rss_kb=rss_kb)
        summary = settle(ledger, cold, result)
    else:
        # Untraced passes first, then the same requests with every entry point wrapped.
        plain, _, _ = run_passes(call, ledger, args.seconds / 2, 1, gauge)
        if cold:
            call.trace = spans = []
            counters, on_request = call.counters, None
        else:
            t = tracer.Tracer()
            result["wrapped"] = t.install()
            spans, counters = t.spans, t.counters
            on_request = lambda request_id: setattr(t, "request", request_id)  # noqa: E731
        traced, _, traced_rps = run_passes(call, ledger, args.seconds / 2, 1, gauge, len(plain), on_request)
        summary = settle(ledger, cold, result)
        metrics = per_layer(spans, counters, ledger, len(traced_rps))
        metrics["trace.overhead_frac"] = 1 - (sum(plain) / len(plain)) / (sum(traced) / len(traced))
        result["per_layer"] = metrics
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for row in spans:
                    fh.write(json.dumps(row) + "\n")
    if cold:
        call.close()
    numpy = sys.modules.get("numpy")
    result.update(
        summary,
        digest=ledger.digest(),
        numpy=getattr(numpy, "__version__", None),
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
