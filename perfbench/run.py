#!/usr/bin/env python3
"""End-to-end benchmark of chorev: serve_mixed and migrate.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_mixed --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

It builds perfbench/bench.exe with dune, computes the expected outputs
once (the serve oracle, or a one-shot Versions.publish for migrate),
then starts one fresh bench.exe process per repetition until --seconds
of timed work have run. Every repetition replays the same inputs, made
from --seed. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of one extra traced repetition with
--trace 1 (on serve_mixed also of one untimed replay of the journaled
serve_durable script). perfbench/README.md explains the workloads and
metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
SCRATCH = ".bench_build"
WORKLOADS = ("serve_mixed", "migrate")
# The journaled script: not a timed workload (an evolve there is mostly
# fsync waits, and the time blocked on a shared virtual disk swings up
# to fourfold between repetitions, which no probe tracked), but
# replayed once, untimed, in serve_mixed's traced run for the journal
# layer's counts, and checked by the self-test.
JOURNALED = "serve_durable"
# Repetitions per run: at least MIN_REPS so that per-cycle medians have
# a middle, at most MAX_REPS; in between, repetitions continue until
# --seconds of timed work have run.
MIN_REPS = {"serve_mixed": 3, JOURNALED: 3, "migrate": 9}
MAX_REPS = {"serve_mixed": 12, JOURNALED: 20, "migrate": 60}
# Measuring stops early enough to finish within the 180 s a run may take
# once built.
BUDGET_S = 160.0
# Nominal durations of bench.exe's two machine-speed probes (seconds):
# their durations in a fast phase of a shared 2-vCPU VM (Intel Xeon,
# 2.0 GHz). Times are reported scaled to the machine speed at which the
# probes take this long.
PROBE_NOMINAL_S = {"probe": 3.0e-3, "latency": 5.0e-3}
# Each workload's scale factor is a weighted geometric mean of the two
# probes' factors. serve_mixed streams allocation through the minor heap
# and the streaming probe alone tracks it: when the VM's speed changed
# 1.7x between runs, it cut the spread of 8 seeds from 43% raw to 8%.
# migrate looks up hash tables over an 87 MB heap: over 10 seeds the
# streaming probe alone spread it by 17%, the two probes half and half
# by 10% (raw: 27%); over another 8 seeds, 4.4% against 2.9%. On
# serve_mixed the half-and-half mix was no better (10 seeds: 5.5% and
# 6.0% against 6.2% and 5.0% on throughput and evolve p50).
PROBE_WEIGHTS = {
    "serve_mixed": {"probe": 1.0},
    JOURNALED: {"probe": 1.0},
    "migrate": {"probe": 0.5, "latency": 0.5},
}
FLUSH_POLICY = ("fsync per WAL record; file and directory fsync per "
                "atomic write (the program's own policy)")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    pass


# --------------------------------------------------------------------------
# Build and subprocesses


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "serve"))):
        raise Failure("not a chorev checkout: run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    except FileNotFoundError:
        raise Failure("dune not found")
    except subprocess.TimeoutExpired:
        raise Failure("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        raise Failure("build failed")


def bench(args, deadline, capture_stderr=False):
    """Run bench.exe to completion; return its JSON line (and its stderr
    when asked)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise Failure("out of time")
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True, timeout=timeout,
                           stderr=subprocess.PIPE if capture_stderr else None)
    except subprocess.TimeoutExpired:
        raise Failure("bench.exe timed out: %s" % " ".join(args))
    if r.returncode != 0:
        if capture_stderr:
            log(r.stderr)
        raise Failure("bench.exe failed (%d): %s" % (r.returncode, " ".join(args)))
    out = json.loads(r.stdout.strip().splitlines()[-1])
    return (out, r.stderr) if capture_stderr else out


def fs_type(path):
    """Filesystem type of the mount holding path, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3:
                    mnt = parts[1]
                    if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) > len(best):
                        best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# --------------------------------------------------------------------------
# Statistics


def median(xs):
    return statistics.median(xs)


def nearest_rank(samples, p):
    """Server.percentile: nearest rank on a sorted copy."""
    s = sorted(samples)
    if not s:
        return 0.0
    rank = max(0, min(len(s) - 1, int(-(-p * len(s) // 1)) - 1))
    return s[rank]


def aligned_medians(series):
    """Element-wise median of equally long sample lists (one per rep)."""
    return [median(col) for col in zip(*series)]


def probes_of(rep, kind):
    """Every duration of one probe ("probe" or "latency") a repetition
    took."""
    if "probes" in rep:  # migrate
        return rep["probes" if kind == "probe" else "latencies"]
    return [p for key in ("setup_cycles", "cycles")
            for p in [rep[key][kind + "_before"]] + rep[key][kind + "_after"]]


def speed_factor(reps, weights):
    """Scale to nominal machine speed: each probe's nominal duration over
    the median of its durations in these repetitions (below 1 while the
    machine runs slow), weighted as PROBE_WEIGHTS says. One factor per
    run: a single probe carries its own jitter, and scaling each cycle
    or phase by the probes around it spread migrate's figures twice as
    much in a 5-seed test."""
    f = 1.0
    for kind, w in weights.items():
        f *= (PROBE_NOMINAL_S[kind] / median([p for r in reps for p in probes_of(r, kind)])) ** w
    return f


# --------------------------------------------------------------------------
# One run


class Run:
    def __init__(self, workload, seed, seconds, trace, small=False):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.small = trace, small
        self.started = time.monotonic()
        self.deadline = self.started + BUDGET_S
        self.checks = []  # (what, ok)
        self.reps = []
        self.recovery = None
        self.traced = None
        self.journaled = None  # serve_mixed's traced run: the replay of JOURNALED
        self.path_table = ""
        self.journal_fs = "n/a"
        self.journals = []

    def args(self, cmd, *extra):
        a = [cmd, "--workload", self.workload, "--seed", str(self.seed)]
        if self.small:
            a.append("--small")
        return a + list(extra)

    def check(self, what, ok):
        self.checks.append((what, bool(ok)))
        if not ok:
            log("CHECK FAILED: " + what)

    def journal_root(self, tag):
        os.makedirs(SCRATCH, exist_ok=True)
        root = os.path.join(SCRATCH, "journal-%s-%d-%d-%s" % (
            self.workload, self.seed, os.getpid(), tag))
        shutil.rmtree(root, ignore_errors=True)
        self.journal_fs = fs_type(SCRATCH)
        self.journals.append(root)
        return root

    def remove_journals(self):
        # Deleting thousands of journal files costs the disk work (ext4
        # here discards freed blocks) that would slow the fsyncs of the
        # next repetition, so journals stay until the run is measured and
        # the deletions are synced before the run ends.
        for root in self.journals:
            shutil.rmtree(root, ignore_errors=True)
        self.journals = []
        os.sync()

    def rep(self, index, trace=False):
        durable = self.workload == JOURNALED
        root = self.journal_root(str(index)) if durable else None
        extra = (["--journal", root] if root else []) + (["--trace"] if trace else [])
        if trace:
            r, self.path_table = bench(self.args("rep", *extra), self.deadline,
                                       capture_stderr=True)
        else:
            r = bench(self.args("rep", *extra), self.deadline)
        # restart on the journal the repetition left, in a fresh process,
        # once per run (and in the traced run)
        if durable and (index == 0 or trace):
            rec = bench(self.args("recover", "--journal", root), self.deadline)
            self.check("recovered every tenant", rec["recovered"] == r["tenants"])
            self.check("recovered queries equal live queries",
                       rec["query_digest"] == r["query_digest"])
            if index == 0:
                self.recovery = rec
        return r

    def check_outputs(self, r, ref):
        if self.workload == "migrate":
            for k in ("migrated", "finishing", "stuck"):
                self.check("migrate %s count equals Versions.publish" % k, r[k] == ref[k])
            self.check("final digest equals Versions.publish", r["digest"] == ref["digest"])
        else:
            self.check("response stream digest equals the oracle's",
                       r["digest"] == ref["digest"] and r["lines"] == ref["lines"])

    def timed(self, r):
        # migrate: a caller of `chorev migrate` waits for populate + run
        return r["timed_s"] + (r["setup_s"] if self.workload == "migrate" else 0.0)

    def execute(self):
        try:
            self.measure()
        finally:
            self.remove_journals()

    def measure(self):
        os.sync()  # settle disk work left by whatever ran before
        self.info = bench(["info"], self.deadline)
        self.ref = bench(self.args("reference"), self.deadline)
        timed_total = 0.0
        while True:
            t = time.monotonic()
            r = self.rep(len(self.reps))
            self.check_outputs(r, self.ref)
            self.reps.append(r)
            timed_total += self.timed(r)
            took = time.monotonic() - t
            n = len(self.reps)
            if n >= MAX_REPS[self.workload]:
                break
            if n >= MIN_REPS[self.workload] and timed_total >= self.seconds:
                break
            reserve = 4.0 * took if self.trace else 0.5 * took
            if n >= MIN_REPS[self.workload] and time.monotonic() + took + reserve > self.deadline:
                break
        self.factor = speed_factor(self.reps, PROBE_WEIGHTS[self.workload])
        if self.trace:
            self.traced = self.rep(len(self.reps), trace=True)
            self.check_outputs(self.traced, self.ref)
            if self.workload == "serve_mixed":
                self.replay_journaled()

    def replay_journaled(self):
        """One untimed replay of the journaled script at the same seed,
        with its output checks and a restart on its journal: the journal
        layer's counts and recovery time."""
        d = Run(JOURNALED, self.seed, 0, False, self.small)
        d.deadline = self.deadline
        try:
            ref = bench(d.args("reference"), d.deadline)
            self.journaled = d.rep(0)
            d.check_outputs(self.journaled, ref)
        finally:
            d.remove_journals()
        self.checks += d.checks
        self.recovery, self.journal_fs = d.recovery, d.journal_fs

    # ----------------------------------------------------------------------
    # Metrics

    def attempted_failed(self):
        reps = self.reps + [r for r in (self.traced, self.journaled) if r]
        attempted = sum(r["instances"] if "instances" in r else r["lines"] for r in reps)
        return attempted, sum(r["failed"] for r in reps)

    def serve_samples(self):
        """Per-request execution times, each the median over repetitions
        of the same request, by kind (raw microseconds)."""
        kinds = self.reps[0]["lat"].keys()
        return {k: aligned_medians([r["lat"][k] for r in self.reps]) for k in kinds}

    def end_to_end(self, scale=True):
        """{metric: (value, unit)}; scale=False gives the raw wall-clock
        figures, printed for reference."""
        reps, f = self.reps, (self.factor if scale else 1.0)
        setup_s = median([r["setup_s"] for r in reps]) * f
        heap = median([r["heap_peak_mb"] for r in reps])
        if self.workload == "migrate":
            run = median([r["timed_s"] for r in reps]) * f
            change = median([r["setup_s"] + r["timed_s"] for r in reps]) * f
            return {
                "setup_s": (setup_s, "s"),
                "throughput_per_s": (reps[0]["instances"] / run, "1/s"),
                "change_p50_ms": (change * 1000.0, "ms"),
                "heap_peak_mb": (heap, "MB"),
            }
        # The timed phase is the same sequence of cycles in every
        # repetition; its duration is the sum of each cycle's median.
        wall = sum(aligned_medians([r["cycles"]["wall"] for r in reps])) * f
        evolves = self.serve_samples()["evolve"]
        return {
            "setup_s": (setup_s, "s"),
            "throughput_per_s": (reps[0]["requests"] / wall, "1/s"),
            "change_p50_ms": (nearest_rank(evolves, 0.5) * f / 1000.0, "ms"),
            "heap_peak_mb": (heap, "MB"),
        }

    def per_layer(self):
        t = self.traced
        layers = dict(t["layers"])
        first = self.reps[0]
        serve = self.workload != "migrate"
        units = first["requests"] if serve else first["instances"] / 1000.0
        out = {}
        # op latencies from the untraced repetitions
        samples = self.serve_samples() if serve else {}
        for kind, ps in (("evolve", (0.5, 0.99)), ("query", (0.5, 0.99)), ("publish", (0.5,))):
            for p in ps:
                name = "serve.%s.p%d_ms" % (kind, round(p * 100))
                out[name] = (nearest_rank(samples.get(kind, []), p) * self.factor / 1000.0
                             if serve else 0.0)
        # the journal layer, from the journaled replay
        out["serve.recover_s"] = self.recovery["recover_s"] if self.recovery else 0.0
        d = self.journaled
        for k in ("bytes", "records", "files"):
            out["journal.%s_per_req" % k] = d["journal"][k] / d["requests"] if d else 0.0
        for k in ("minor_words", "major_words", "major_collections"):
            out["gc." + k] = first["gc"][k] / units
        # raw times of the same run: the traced repetition's own few
        # probes would carry more jitter than the run's factor corrects
        untraced = median([r["timed_s"] for r in self.reps])
        out["obs.trace_overhead_pct"] = 100.0 * (t["timed_s"] / untraced - 1.0)
        for k, v in layers.items():
            if not k.startswith("count."):
                out[k] = v
        return out

    def result_metrics(self, names):
        if self.trace:
            got = self.per_layer()
            units = {}
        else:
            e2e = self.end_to_end()
            got = {k: v for k, (v, _) in e2e.items()}
            units = {k: u for k, (_, u) in e2e.items()}
        metrics = {}
        for m in names:
            name = m["name"]
            if name in got:
                metrics[name] = {"value": got[name], "unit": m["unit"]}
            else:
                # a per-layer metric of a layer this workload bypasses
                if not self.trace:
                    raise Failure("end-to-end metric %s not measured" % name)
                metrics[name] = {"value": 0, "unit": m["unit"]}
        extra = sorted(set(got) - {m["name"] for m in names})
        if extra:
            raise Failure("metrics missing from BENCHMARK.json: %s" % ", ".join(extra))
        for k, u in units.items():
            if metrics[k]["unit"] != u:
                raise Failure("unit of %s is %s, BENCHMARK.json says %s" % (k, u, metrics[k]["unit"]))
        return metrics

    def sample_count(self, name):
        k = len(self.reps)
        if self.trace:
            return "1 traced repetition"
        if name == "change_p50_ms" and self.workload != "migrate":
            return "%d evolves, each the median of %d repetitions" % (
                len(self.reps[0]["lat"]["evolve"]), k)
        if name == "throughput_per_s" and self.workload != "migrate":
            return "%d requests in %d cycles, each the median of %d repetitions" % (
                self.reps[0]["requests"], len(self.reps[0]["cycles"]["wall"]), k)
        return "median of %d repetitions" % k

    def stamp(self):
        first = self.reps[0]
        s = {
            "workload": self.workload,
            "seed": self.seed,
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "ocaml": self.info["ocaml"],
            "pool_size": self.info["pool_size"],
            "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
            "repetitions": len(self.reps),
        }
        if self.workload == "migrate":
            s["instances"] = first["instances"]
        else:
            s["tenants"] = first["tenants"]
            s["requests"] = first["requests"]
        if self.journaled:
            s["journaled_replay"] = {
                "script": JOURNALED,
                "tenants": self.journaled["tenants"],
                "requests": self.journaled["requests"],
                "journal_fs": self.journal_fs,
                "flush_policy": FLUSH_POLICY,
            }
        return s


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(args):
    spec = load_spec()
    if args.workload not in WORKLOADS:
        raise Failure("unknown workload %s" % args.workload)
    build()
    run = Run(args.workload, args.seed, args.seconds, args.trace == 1)
    run.execute()
    names = spec["per_layer"] if run.trace else spec["end_to_end"]
    metrics = run.result_metrics(names)
    attempted, failed = run.attempted_failed()
    print("run stamp: " + json.dumps(run.stamp()))
    if run.trace:
        print(run.path_table.rstrip("\n"))
        rows = [k for k in metrics if k.endswith(".self_ms") and k != "mapping.public_gen.apply.self_ms"]
        t = run.traced
        per = t["requests"] if "requests" in t else t["instances"] / 1000.0
        wall = t["timed_s"] if "requests" in t else (
            t["setup_s"] + t["timed_s"] + t["layers"]["migrate.digest.self_ms"] * per / 1000.0)
        print("self-time rows sum to %.6f ms/op; traced timed wall time is %.6f ms/op" % (
            sum(metrics[k]["value"] for k in rows), wall * 1000.0 / per))
    raw = {} if run.trace else run.end_to_end(scale=False)
    for name, m in metrics.items():
        line = "%-44s %16.6g %-8s (%s)" % (name, m["value"], m["unit"], run.sample_count(name))
        if name in raw:
            line += "  raw wall clock %.6g" % raw[name][0]
        print(line)
    correct = all(ok for _, ok in run.checks) and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


# --------------------------------------------------------------------------
# Determinism self-test at small sizes


def selftest(seeds):
    build()
    ok = True
    a, b = seeds
    for w in ("serve_mixed", JOURNALED, "migrate"):
        runs = []
        for seed in (a, a, b):
            run = Run(w, seed, 0, True, small=True)
            run.execute()
            runs.append(run)
        for i, run in enumerate(runs):
            if not all(good for _, good in run.checks):
                ok = False
                log("%s seed %d: output check failed" % (w, run.seed))
            _, failed = run.attempted_failed()
            if failed:
                ok = False
                log("%s seed %d: %d failed operations" % (w, run.seed, failed))

        def fingerprint(run):
            first, t = run.reps[0], run.traced
            f = {"digest": first["digest"], "gc": first["gc"]}
            for k in ("journal", "fresh", "hits", "fuel"):
                if k in first:
                    f[k] = first[k]
            f.update({k: v for k, v in t["layers"].items() if k.startswith("count.")})
            return f

        fa, fb = fingerprint(runs[0]), fingerprint(runs[1])
        same = fa == fb
        ok = ok and same
        print("%-14s seed %d twice: %s; seed %d: %s" % (
            w, a, "identical" if same else "DIFFER", b,
            "checks pass" if all(g for _, g in runs[2].checks) else "CHECKS FAIL"))
        if not same:
            for k in sorted(set(fa) | set(fb)):
                if fa.get(k) != fb.get(k):
                    print("  %s: %r vs %r" % (k, fa.get(k), fb.get(k)))
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="determinism self-test at small sizes (seeds 42 and 7)")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest((42, 7))
        if not args.workload:
            ap.error("--workload is required")
        run_once(args)
        return 0
    except (Failure, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
