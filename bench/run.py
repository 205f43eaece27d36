"""chaoskit benchmark: end-to-end timings, traced per-layer metrics, checks.

    python3 bench/run.py --workload mc-sweep --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root.  A worker process (bench/worker.py), with
one BLAS thread and --threads 1 on every CLI call, runs passes over the
workload's units until the next pass would end after --seconds (at least
one); fresh set-up-only workers before and after it time set-up.
--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced
and two traced passes, each in its own worker, and reports the per-layer
metrics of the first traced one, the tracing overhead, whether all three
passes wrote byte-identical contract files and whether both traced passes
gave the same counts.  The last line of standard output is one
JSON object; the lines before it print every metric by name with its
unit.  A full record, with machine facts, per-unit hashes and checks, is
written to bench/out/.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("mc-sweep", "exact")
SETUP_RUNS = 6
DEADLINE_S = 170.0
BLAS_THREADS = "1"
# glibc keeps freed memory in the heap for reuse instead of unmapping it:
# the order-3 units free and reallocate about 400 MB per pass, and faulting
# that in afresh each pass would put the kernel's page zeroing and
# huge-page compaction, which vary with the host's load, inside the timing
MALLOC_TUNABLES = "glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=4294967295"
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "points_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def layer_unit(name):
    for suffix, unit in ((".s", "s"), (".flops", "flop"), ("_mb", "MB"),
                         (".bytes_written", "B"), (".normals_per_draw",
                                                   "count/draw")):
        if name.endswith(suffix):
            return unit
    return "count"


class Workers:
    """Worker processes of one benchmark run, under one deadline."""

    def __init__(self, workload, seed, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS,
                        MKL_NUM_THREADS=BLAS_THREADS,
                        GLIBC_TUNABLES=MALLOC_TUNABLES)
        self.count = 0

    def spawn(self, mode, *flags):
        """Run a worker to the end; return (set-up seconds, its out dir)."""
        self.count += 1
        out = self.work / f"{mode}{self.count}"
        out.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH / "worker.py"), mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(out), "--result", str(out / "result.json"),
               *flags]
        with open(out / "stderr.txt", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT, text=True)
            # a worker past the run's deadline is killed, which also ends
            # a readline still waiting for "ready"
            timer = threading.Timer(
                max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - t0
                proc.wait()
            finally:
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        if ready.strip() != "ready" or proc.returncode != 0:
            tail = (out / "stderr.txt").read_text()[-2000:]
            raise RuntimeError(f"worker {out.name} exited {proc.returncode}:"
                               f"\n{tail}")
        return setup_s, out

    def run(self, seconds, *flags):
        out = self.spawn("run", "--seconds", str(seconds), *flags)[1]
        return json.loads((out / "result.json").read_text()), out


def measure(workload, seed, seconds, trace):
    """One run of a workload, as a record."""
    work = OUT / f"work-{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workers = Workers(workload, seed, work)
    record = {"workload": workload, "seed": seed, "trace": bool(trace)}
    try:
        if trace:
            untraced, _ = workers.run(0)
            traced, out = workers.run(0, "--trace")
            # a second traced worker, to show the counts repeat exactly
            again, _ = workers.run(0, "--trace")
            spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
            shutil.copyfile(out / "spans.jsonl", spans)
            record.update(untraced=untraced, traced=traced,
                          traced_again=again,
                          spans=str(spans.relative_to(ROOT)))
        else:
            # set-up samples before and after the passes, so their median
            # spans the run rather than one moment of it
            half = SETUP_RUNS // 2
            setup = [workers.spawn("setup")[0] for _ in range(half)]
            record["untraced"] = workers.run(seconds)[0]
            setup += [workers.spawn("setup")[0]
                      for _ in range(SETUP_RUNS - half)]
            record["setup_s"] = setup
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["machine"] = machine_facts(record["untraced"]["machine"], seed)
    return record


def machine_facts(worker_facts, seed):
    facts = {"nproc": os.cpu_count(),
             "cpus_allowed": len(os.sched_getaffinity(0)),
             "blas_threads_requested": int(BLAS_THREADS),
             "glibc_tunables": MALLOC_TUNABLES, **worker_facts}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            value = subprocess.run(["getconf", level], capture_output=True,
                                   text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            value = ""
        facts[level.lower()] = int(value) if value.isdigit() else None
    facts["seed"] = seed
    return facts


def summarize(record):
    """End-to-end metrics, rates and correctness of one record."""
    untraced = record["untraced"]
    passes = untraced["passes"]
    runs = passes + [p for k in ("traced", "traced_again") if k in record
                     for p in record[k]["passes"]]
    units = [u for p in runs for u in p["units"]]
    first = passes[0]["units"]
    probes = untraced["probes"]
    completed = [u for u in first if u["code"] == 0]
    failed_checks = [(u["name"], c) for u in completed for c in u["checks"]
                     if not c["ok"]]
    wrong = {name for name, _ in failed_checks}

    def hashes(p):
        return {u["name"]: u["files"] for u in p["units"]}

    moved = [p for p in runs[1:] if hashes(p) != hashes(passes[0])]
    # counts (every layer metric but the times) of the two traced workers
    counts_moved = []
    if record["trace"]:
        a, b = record["traced"]["layers"], record["traced_again"]["layers"]
        counts_moved = sorted(n for n in a.keys() | b.keys()
                              if not n.endswith(".s") and a.get(n) != b.get(n))
    s = {
        "attempted": len(units),
        "failed": sum(u["code"] != 0 for u in units),
        # over one pass, so the rate does not depend on the pass count
        "error_rate": (sum(u["code"] != 0 for u in first)
                       + sum(p["code"] != 0 for p in probes))
        / (len(first) + len(probes)),
        "wrong_rate": len(wrong) / max(1, len(completed)),
        "failed_checks": failed_checks,
        "hashes_identical": not moved,
        "counts_moved": counts_moved,
        "correct": (not wrong and not moved and not counts_moved
                    and bool(completed)),
    }
    s["metrics"] = {
        "run_s": statistics.median(p["run_s"] for p in passes),
        "points_per_s": statistics.median(
            sum(u["points"] for u in p["units"] if u["code"] == 0) / p["run_s"]
            for p in passes),
        "peak_rss_mb": untraced["peak_rss_mb"],
    }
    if "setup_s" in record:
        s["metrics"]["setup_s"] = statistics.median(record["setup_s"])
    if record["trace"]:
        s["layers"] = record["traced"]["layers"]
        s["tracing_overhead_s"] = (record["traced"]["passes"][0]["run_s"]
                                   - passes[0]["run_s"])
    return s


def report(record, s):
    """Print the record's metrics, one per line, with their units."""
    w = record["workload"]
    m = record["machine"]
    blas = m.get("blas", {})
    print(f"[{w}] machine: nproc {m['nproc']}, blas {blas.get('name')} "
          f"{blas.get('version')} threads {blas.get('threads')}, python "
          f"{m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, "
          f"L2 {m['level2_cache_size']} B, L3 {m['level3_cache_size']} B, "
          f"seed {m['seed']}")
    first = record["untraced"]["passes"][0]
    for u in first["units"]:
        print(f"[{w}] unit {u['name']}: {u['seconds']:.3f} s, "
              f"{u['points']} points, exit {u['code']} {u['error']}".rstrip())
    for p in record["untraced"].get("probes", []):
        print(f"[{w}] probe {p['name']}: exit {p['code']} {p['error']}")
    n = len(record["untraced"]["passes"])
    counts = {"run_s": f"median of {n} passes",
              "points_per_s": f"median of {n} passes",
              "peak_rss_mb": f"high water over {n} passes",
              "setup_s": f"median of {len(record.get('setup_s', ()))}"}
    for name, value in s["metrics"].items():
        print(f"[{w}] {name} = {value:.6g} {END_TO_END_UNITS[name]} "
              f"({counts[name]})")
    print(f"[{w}] error_rate = {s['error_rate']:.6g} ratio "
          f"(failed / attempted, one pass's units and the known-defect "
          f"probes)")
    print(f"[{w}] wrong_rate = {s['wrong_rate']:.6g} ratio "
          f"(units failing an output check / completed units)")
    for name, c in s["failed_checks"]:
        print(f"[{w}] FAILED CHECK {name} {c['check']}: {c['detail']}")
    print(f"[{w}] contract files identical across passes: "
          f"{s['hashes_identical']}")
    if record["trace"]:
        print(f"[{w}] counts identical across two traced runs: "
              f"{not s['counts_moved']} {' '.join(s['counts_moved'])}".rstrip())
    if record["trace"]:
        from tracer import NAMED

        for name in NAMED:
            print(f"[{w}] {name} = {s['layers'][name]:.6g} "
                  f"{layer_unit(name)}")
        print(f"[{w}] tracing_overhead_s = {s['tracing_overhead_s']:.6g} s "
              f"(traced minus untraced run_s)")


def final_metrics(s, trace):
    if trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {m["name"]: {"value": s["layers"][m["name"]], "unit": m["unit"]}
                for m in spec["per_layer"]}
    return {n: {"value": v, "unit": END_TO_END_UNITS[n]}
            for n, v in s["metrics"].items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "chaoskit" / "__init__.py").is_file():
        print(f"error: no chaoskit sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in names:
        try:
            record = measure(w, args.seed, args.seconds, args.trace)
        except RuntimeError as e:
            print(f"error: {w}: {e}", file=sys.stderr)
            return 1
        s = summarize(record)
        record["summary"] = s
        path = OUT / f"record-{w}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        report(record, s)
        print(f"[{w}] record: {path.relative_to(ROOT)}")
        final["correct"] &= s["correct"]
        final["attempted"] += s["attempted"]
        final["failed"] += s["failed"]
        prefix = "" if len(names) == 1 else f"{w}."
        for n, v in final_metrics(s, args.trace).items():
            final["metrics"][prefix + n] = v
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
