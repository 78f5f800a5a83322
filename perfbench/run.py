#!/usr/bin/env python3
"""The repository benchmark: host time of `sweep --spec` and `repro`.

    python3 perfbench/run.py --workload structural|memory|paper \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package (release, same profile as the workspace),
generates the workload's sweep spec from the seed, and starts one fresh
process per timed pass until `--seconds` have passed.  1- and 2-worker
passes alternate in the order 1, 2, 2, 1 so drift hits both alike.  Each
figure is the interquartile mean over passes, scaled by a host-speed probe
run in a process of its own before and after each pass (see README.md).

`--trace 0` prints the end-to-end metrics; `--trace 1` prints the per-layer
metrics of the traced passes instead.  Every pass checks its output; the
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Run it from the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("structural", "memory", "paper")
DEFAULT_SEED = 1
PASS_TIMEOUT_S = 45
ORDER = (1, 2, 2, 1)
# Reference host-speed probe time (a fixed 4 MiB random walk, `perfbench
# probe`, see src/main.rs).  Timed figures are scaled to a host whose probe
# takes this long; the 2-vCPU host the bounds were set on reads 4.5-5.5 ms.
PROBE_REF_S = 0.004

END_TO_END = {
    "setup_s": "s",
    "runs_per_s_1t": "runs/s",
    "runs_per_s_2t": "runs/s",
    "peak_rss_mb": "MiB",
    "report_s": "s",
}

PER_LAYER = {
    "sweep.expand_s": "s",
    "sweep.cache.hit_ratio": "ratio",
    "sweep.rss_growth_mb": "MiB",
    "sweep.executor.queue_wait_s": "s",
    "sweep.executor.busy_frac": "ratio",
    "sweep.store.append_s": "s",
    "sweep.store.records": "count",
    "kernels.build_s": "s",
    "kernels.builds": "count",
    "sched.schedule_s": "s",
    "sched.schedules": "count",
    "sched.ops_placed": "count",
    "sched.ready_scans": "count",
    "sched.lower_s": "s",
    "sim.execute_s": "s",
    "sim.executed_runs": "count",
    "sim.execute_mcycles_per_s": "Mcycles/s",
    "sim.replay_batch_s": "s",
    "sim.replay_batches": "count",
    "sim.retimed_runs": "count",
    "sim.replay_us_per_variant": "us",
    "sim.mean_batch_width": "count",
    "mem.leaders": "count",
    "mem.follower_ratio": "ratio",
    "mem.l1_misses": "count",
    "mem.l2_misses": "count",
    "mem.l3_misses": "count",
    "mem.strided_vector_accesses": "count",
    "core.suite_s": "s",
    "core.prepare_reuse": "ratio",
    "core.unreplayed_traces": "count",
    "report.load_s": "s",
    "report.resolve_s": "s",
    "report.analyze_s": "s",
    "report.render_s": "s",
    "report.figures_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

# Per-layer figures that are exact counts (identical in every traced pass);
# every other traced figure is a time and reports the interquartile mean over passes.
COUNTS = {name for name, unit in PER_LAYER.items() if unit == "count"} | {
    "sweep.cache.hit_ratio",
    "mem.follower_ratio",
    "core.prepare_reuse",
}

MASK = (1 << 64) - 1


class SplitMix:
    """SplitMix64, the same generator the Rust side uses."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def pick(self, values, k):
        """`k` distinct values, kept in their listed order."""
        idx = list(range(len(values)))
        for i in range(k):
            j = i + self.next() % (len(values) - i)
            idx[i], idx[j] = idx[j], idx[i]
        return [values[i] for i in sorted(idx[:k])]


def structural_spec(seed):
    """Every run its own schedule key: ISA x width x units x lanes x
    chaining, one memory variant per point.  All three ISAs are always in,
    so the costly scalar runs keep the same share whatever the seed."""
    rng = SplitMix(seed)
    return {
        "name": f"perfbench_structural_{seed}",
        "axes": [
            {"axis": "isa", "values": ["vliw", "usimd", "vector"]},
            {"axis": "issue_width", "values": rng.pick([2, 4, 8, 16], 3)},
            {"axis": "vector_units", "values": rng.pick([1, 2, 4], 2)},
            {"axis": "vector_lanes", "values": rng.pick([1, 2, 4, 8, 16], 3)},
            {"axis": "chaining", "values": [True, False]},
            {"axis": "mem_latency", "values": rng.pick(list(range(100, 900, 100)), 1)},
        ],
        "constraints": [{"constraint": "lane_budget", "max": 64}],
    }


def memory_spec(seed):
    """A few base machines (issue width x L2 latency, both schedule-relevant)
    times a grid of L2 size x L2 associativity x DRAM latency.  Sizes and
    ways are powers of two, so every set count is too."""
    rng = SplitMix(seed)
    return {
        "name": f"perfbench_memory_{seed}",
        "axes": [
            {"axis": "issue_width", "values": rng.pick([2, 4, 8], 2)},
            {"axis": "l2_latency", "values": rng.pick([3, 5, 7, 9, 11], 3)},
            {"axis": "l2_size", "values": rng.pick([2**k * 1024 for k in range(6, 11)], 3)},
            {"axis": "l2_assoc", "values": rng.pick([1, 2, 4, 8, 16], 4)},
            {"axis": "mem_latency", "values": rng.pick(list(range(100, 900, 100)), 5)},
        ],
    }


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the benchmark binary; exit 1 if it does not build."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        sys.exit(1)
    if built.returncode != 0:
        log("build failed")
        sys.exit(1)
    return target / "release" / "perfbench"


def run_pass(binary, workload, spec, store, threads, seed, command="pass", obs=False, spans=None):
    """One pass in a fresh process: its JSON result, or None and a reason."""
    cmd = [str(binary), command, "--workload", workload, "--store", str(store),
           "--threads", str(threads), "--seed", str(seed)]
    if spec:
        cmd += ["--spec", str(spec)]
    if obs:
        cmd.append("--obs")
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{command} timed out after {PASS_TIMEOUT_S} s"
    finally:
        Path(store).unlink(missing_ok=True)
    if done.returncode != 0:
        return None, f"{command} exited {done.returncode}: {done.stderr.strip()[-400:]}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"{command} printed no result"


def probe(binary):
    """Seconds the host-speed probe takes, in a fresh process of its own."""
    try:
        done = subprocess.run([str(binary), "probe"], cwd=ROOT, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S, check=True)
        return float(done.stdout)
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"host probe failed: {e}")
        sys.exit(1)


class Ledger:
    """Runs attempted and failed over every pass of one benchmark run."""

    def __init__(self, workload, seed):
        self.attempted = 0
        self.failed = 0
        # Passes that broke before reporting their runs; each fails as many
        # runs as a pass attempts, which the first pass that reports tells.
        self.broken = 0
        self.expected = None
        digests = json.loads((HERE / "digests.json").read_text())
        key = "any" if workload == "paper" else str(seed)
        self.recorded = digests.get(workload, {}).get(key)
        self.store_digest = None

    def totals(self):
        """Runs attempted and failed.  If no pass reported, every pass broke:
        count one run each, which gives the same failed share."""
        lost = self.broken * (self.expected or 1)
        return self.attempted + lost, self.failed + lost

    def add(self, doc, error, label):
        """Account one pass; a broken pass fails all the runs it owned."""
        if doc is None:
            self.broken += 1
            log(f"{label}: {error}")
            return None
        self.expected = self.expected or doc["attempted"]
        failed = doc["failed"]
        for msg in doc.get("failures", []):
            log(f"{label}: {msg}")
        mismatch = []
        if self.recorded and doc["records_digest"] != self.recorded:
            mismatch.append(f"records digest {doc['records_digest']} != recorded {self.recorded}")
        # Every pass of a run must leave a byte-identical store, at any
        # worker count (traced passes re-drive the calls, so they are held
        # to the records digest only).
        if "store_digest" in doc:
            self.store_digest = self.store_digest or doc["store_digest"]
            if doc["store_digest"] != self.store_digest:
                mismatch.append("store differs from the run's first pass")
        if mismatch:
            failed = doc["attempted"]
            for msg in mismatch:
                log(f"{label}: {msg}")
        self.attempted += doc["attempted"]
        self.failed += failed
        return doc


def central(docs, field):
    """Interquartile mean of a field over passes: the mean of the middle half.
    As robust to a stray slow pass as the median, and steadier when the
    host's speed flips between two levels, as shared hosts do."""
    xs = sorted(d[field] for d in docs)
    k = len(xs) // 4
    middle = xs[k:len(xs) - k]
    return statistics.fmean(middle) if middle else 0.0


def host_scaled(docs, field, throughput):
    """A field's interquartile mean over passes, scaled to the reference
    host speed.  Each pass carries the mean of the probes run just before
    and just after it; on a host running slower than the reference the
    probe takes longer, so throughputs scale up and times down by the same
    factor."""
    raw = central(docs, field)
    host = central(docs, "probe_s") / PROBE_REF_S
    if not host:
        return raw
    return raw * host if throughput else raw / host


def measure(binary, workload, spec, seed, seconds, workdir, ledger):
    """End-to-end metrics over cold passes for `seconds` seconds."""
    docs = []
    start = time.monotonic()
    before = probe(binary)
    i = 0
    while i < 2 or time.monotonic() - start < seconds:
        threads = ORDER[i % len(ORDER)]
        doc, err = run_pass(binary, workload, spec, workdir / f"store-{i}.jsonl", threads, seed)
        after = probe(binary)
        doc = ledger.add(doc, err, f"pass {i} ({threads} worker)")
        if doc:
            doc["probe_s"] = (before + after) / 2
            docs.append(doc)
        before = after
        i += 1
    one = [d for d in docs if d["threads"] == 1]
    two = [d for d in docs if d["threads"] == 2]
    rps1, rps2 = central(one, "runs_per_s"), central(two, "runs_per_s")
    log(f"{workload}: {len(one)}+{len(two)} passes; raw runs/s {rps1:.1f} (1 worker), "
        f"{rps2:.1f} (2 workers), parallel efficiency {rps2 / (2 * rps1) if rps1 else 0:.3f} "
        f"on {os.cpu_count()} CPUs; host probe {central(docs, 'probe_s') * 1e3:.3f} ms "
        f"(reference {PROBE_REF_S * 1e3:.3f} ms)")
    return {
        "setup_s": host_scaled(docs, "setup_s", throughput=False),
        "runs_per_s_1t": host_scaled(one, "runs_per_s", throughput=True),
        "runs_per_s_2t": host_scaled(two, "runs_per_s", throughput=True),
        "peak_rss_mb": central(one, "peak_rss_mb"),
        "report_s": host_scaled(docs, "report_s", throughput=False),
    }


def measure_traced(binary, workload, spec, seed, seconds, workdir, ledger):
    """Per-layer metrics: traced 1-worker passes alternating with untraced
    ones (the tracing overhead), plus one 2-worker pass with the `vmv-obs`
    recorder on for the executor's queue wait and busy time."""
    start = time.monotonic()
    obs, err = run_pass(binary, workload, spec, workdir / "store-obs.jsonl", 2, seed, obs=True)
    obs = ledger.add(obs, err, "obs pass (2 workers)")
    plain, traced = [], []
    i = 0
    while i < 2 or time.monotonic() - start < seconds:
        store = workdir / f"store-{i}.jsonl"
        if i % 2 == 0:
            doc, err = run_pass(binary, workload, spec, store, 1, seed)
            doc = ledger.add(doc, err, f"pass {i} (untraced)")
            plain += [doc] if doc else []
        else:
            spans = ROOT / ".perfbench" / f"spans-{workload}.jsonl"
            doc, err = run_pass(binary, workload, spec, store, 1, seed, "traced", spans=spans)
            doc = ledger.add(doc, err, f"pass {i} (traced)")
            traced += [doc] if doc else []
        i += 1
    metrics = {name: 0.0 for name in PER_LAYER}
    if traced:
        for name in PER_LAYER:
            if name in traced[0]:
                metrics[name] = traced[0][name] if name in COUNTS else central(traced, name)
        untraced_run = central(plain, "run_s")
        if untraced_run:
            metrics["trace.overhead_frac"] = central(traced, "run_s") / untraced_run - 1
    metrics["sweep.rss_growth_mb"] = central(plain, "rss_growth_mb")
    if obs:
        o = obs["obs"]
        metrics["sweep.executor.queue_wait_s"] = o["queue_wait_s"]
        metrics["sweep.executor.busy_frac"] = o["busy_frac"]
        metrics["sched.ops_placed"] = o["ops_placed"]
        metrics["sched.ready_scans"] = o["ready_scans"]
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spec = None
    if args.workload == "paper":
        log("paper runs the fixed Table 2 matrix; --seed does not apply")
    else:
        make = structural_spec if args.workload == "structural" else memory_spec
        spec = workdir / "spec.json"
        spec.write_text(json.dumps(make(args.seed), indent=1))
    ledger = Ledger(args.workload, args.seed)
    if ledger.recorded is None:
        log(f"no recorded digest for {args.workload} seed {args.seed}; "
            "checking passes against each other only")
    try:
        run = measure_traced if args.trace else measure
        values = run(binary, args.workload, spec, args.seed, args.seconds, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    attempted, failed = ledger.totals()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))


if __name__ == "__main__":
    main()
