"""sympderiv benchmark: cold ``verify`` processes at genus 2, 3 and 4.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-g3 --seed 0 --seconds 30 --trace 0

A run first launches one untimed process that only imports the program
(it compiles bytecode and warms the file cache), then, untraced, a few
set-up-only launches, then as many whole rounds as fit in ``--seconds``,
at least one.  A round is the workload's fixed number of ``verify``
invocations, each in a fresh process (``PYTHONPATH=src``, entry
``sympderiv.cli.main``, no ``--max-minutes``).  Every certificate is
checked against the closed forms of ``oracle.py`` and for byte-identical
repeats; each check a process runs is one operation, counted as failed
when its entry is wrong, missing or not deterministic.

The runner and every process it launches are pinned to one CPU, where a
speed probe (``SpeedProbe``) times a fixed loop every 20 ms; times are
reported in seconds at the probe's reference speed, so that the drift of
a shared host's CPU speed does not read as a change of the program.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (first check
started to certificate written, summed over a round's processes; median
over rounds), ``setup_s`` (launch to program imported and CLI ready; the
median launch, times the processes per round), both scaled to the
reference speed, and ``peak_rss_mb`` (largest peak RSS of any process).
``--trace 1`` runs the rounds with ``tracer.py`` installed and reports
the ``per_layer`` metrics named in ``BENCHMARK.json``, medians over
processes; the full trace (every group, counter, check and span) goes to
``.bench_build/perfbench/``.

The last line of standard output is the JSON result.
"""

import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

import oracle  # noqa: E402

G4_CHECKS = [cid for cid in oracle.applicable(4) if cid != "goeritz-kernel"]

# workload -> (genus, verify selection, checks run by each process,
# processes per round).  ``suite-g2`` (seven processes, 10-20 s) is kept for
# the self-test and for comparisons by hand, but is not in BENCHMARK.json:
# even scaled by the speed probe its spread over five runs was 0.09 of its
# median, and a third gated workload would not fit the time all runs of
# the steadiness check are allowed.
WORKLOADS = {
    "suite-g2": (2, ["--all"], oracle.applicable(2), 7),
    "suite-g3": (3, ["--all"], oracle.applicable(3), 1),
    "lattices-g4": (4, [a for cid in G4_CHECKS for a in ("--check", cid)],
                    G4_CHECKS, 1),
}

SETUP_PROBES = 5

# The speed probe: a thread of this process that, every PROBE_PERIOD_S,
# times _probe_loop on the one CPU this process and its children are pinned
# to.  REFERENCE_LOOP_S is the loop's time at the reference speed: about
# its mean on the 2-vCPU Xeon VM the benchmark was tuned on, with a
# ``verify`` process sharing the CPU.
PROBE_PERIOD_S = 0.02
PROBE_MIN_SAMPLES = 5
REFERENCE_LOOP_S = 4.3e-4
DEADLINE_S = 170.0    # every process is stopped by then
UNTRACED_BY_S = 60.0  # a traced run's own untraced round must end by then


def _code_digest():
    """Digest of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(".py"):
                    path = os.path.join(dirpath, fn)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def program_env():
    """The environment tier-1 runs the program in: ``PYTHONPATH=src``."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class State:
    """What earlier runs of the same code saw, kept in the checkout:
    certificate digests for the determinism check across runs, and untraced
    ``wall_s`` figures for the tracing overhead."""

    def __init__(self):
        self.path = os.path.join(OUT, "state.json")
        digest = _code_digest()
        try:
            with open(self.path) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            doc = {}
        if doc.get("code") != digest:
            doc = {"code": digest, "certs": {}, "wall_s": {}}
        self.doc = doc

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.doc, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def _probe_loop():
    s = 0
    for i in range(4000):
        s += i * i % 7
    return s


class SpeedProbe(threading.Thread):
    """Samples the speed of the CPU the program runs on, alongside it.

    On a shared VM the speed of a vCPU drifts, in stretches of seconds to
    minutes, by up to 1.7x; a time measured over such a stretch says more
    about the host than about the program.  The probe pins this process,
    and so every child it launches, to one CPU and times a fixed loop there
    every ``PROBE_PERIOD_S``; ``scaled`` turns a wall-clock interval into
    seconds at the reference speed, so that both sides of a comparison are
    measured in the same unit whatever the host did meanwhile.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.samples = []  # (midpoint, loop seconds)
        self.halt = threading.Event()

    def run(self):
        while not self.halt.wait(PROBE_PERIOD_S):
            t0 = time.perf_counter()
            _probe_loop()
            t1 = time.perf_counter()
            self.samples.append(((t0 + t1) / 2, t1 - t0))

    def stop(self):
        self.halt.set()
        self.join()

    def speed(self, a, b):
        """Mean speed over [a, b] relative to the reference: the mean of
        REFERENCE_LOOP_S / loop time over the samples taken in [a, b] (at
        least five, widening [a, b] for a short interval).  A loop that was
        interrupted reads as a slow sample, which moves such a mean little.
        """
        ts = [t for t, _ in self.samples]
        lo, hi = bisect.bisect_left(ts, a), bisect.bisect_right(ts, b)
        while hi - lo < PROBE_MIN_SAMPLES and (lo > 0 or hi < len(ts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(ts))
        picked = self.samples[lo:hi]
        return sum(REFERENCE_LOOP_S / d for _, d in picked) / len(picked)

    def scaled(self, a, b):
        """Seconds at the reference speed that [a, b] took."""
        return (b - a) * self.speed(a, b)


class Runner:
    def __init__(self, workload, seed, work, deadline, probe):
        (self.genus, selection, self.check_ids,
         self.processes) = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.verify_args = ["--genus", str(self.genus), *selection,
                            "--seed", str(seed)]
        self.env = program_env()
        self.probe = probe
        self.n = 0

    def launch(self, verify_args=None, trace=False):
        """One child process; returns its report, or None if it died."""
        self.n += 1
        tag = os.path.join(self.work, "p%03d" % self.n)
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--report", tag + "-report.json"]
        if trace:
            cmd += ["--trace", tag + "-trace.json"]
        if verify_args is None:
            cmd.append("--setup-only")
        else:
            cmd += ["--"] + verify_args + ["--json", tag + "-cert.json"]
        timeout = self.deadline - time.perf_counter()
        launch = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            print("process timed out: %s" % " ".join(cmd), file=sys.stderr)
            return None
        try:
            with open(tag + "-report.json") as f:
                report = json.load(f)
        except (OSError, ValueError):
            print("process died (exit %d): %s\n%s" % (
                proc.returncode, " ".join(cmd), proc.stderr), file=sys.stderr)
            return None
        if report.get("error"):
            print(report["error"], file=sys.stderr)
        report["setup_s"] = self.probe.scaled(launch, report["ready"])
        if "end" in report:
            report["wall_s"] = self.probe.scaled(report["start"],
                                                 report["end"])
        report["tag"] = tag
        return report

    def round(self, trace=False):
        return [self.process(trace) for _ in range(self.processes)]

    def process(self, trace=False):
        """One ``verify`` process with its certificate checked."""
        rep = self.launch(self.verify_args, trace=trace)
        out = {"report": rep, "failed": list(self.check_ids), "cert": None}
        if rep is None:
            return out
        try:
            with open(rep["tag"] + "-cert.json", "rb") as f:
                raw = f.read()
            doc = json.loads(raw)
        except (OSError, ValueError):
            return out
        found = oracle.problems(doc, self.genus, self.seed, self.check_ids)
        for cid, probs in found.items():
            if probs:
                print("%s: %s" % (cid, "; ".join(probs)), file=sys.stderr)
        out["failed"] = [cid for cid, probs in found.items() if probs]
        out["cert"] = (doc, raw)
        if trace:
            with open(rep["tag"] + "-trace.json") as f:
                out["trace"] = json.load(f)
        return out


def run(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    state = State()
    work = tempfile.mkdtemp(dir=OUT, prefix="run-")
    probe = SpeedProbe()
    probe.start()
    try:
        return _run(workload, seed, seconds, trace, state, work, probe)
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)


def _median_of(values):
    """Median; a sample value for counts, so that they stay integers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _wall(procs):
    """A round's ``wall_s``: the sum over its processes that reported."""
    return sum(p["report"]["wall_s"] for p in procs
               if p["report"] is not None)


def _run(workload, seed, seconds, trace, state, work, probe):
    runner = Runner(workload, seed, work, time.perf_counter() + DEADLINE_S,
                    probe)
    runner.launch()  # warm-up, untimed
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            rep = runner.launch()
            if rep is not None:
                setups.append(rep["setup_s"])

    # whole rounds, as many as fit in ``seconds`` (at least one): a round
    # starts only if one as long as the last would still end in time
    rounds = []
    begin = last = time.perf_counter()
    while True:
        rounds.append(runner.round(trace=trace))
        now = time.perf_counter()
        if 2 * now - last - begin > seconds:
            break
        last = now
    walls = [_wall(r) for r in rounds if any(p["report"] for p in r)]

    overhead = None
    if trace and walls:
        traced = statistics.median(walls)
        untraced = state.doc["wall_s"].get(workload)
        source = "median of earlier untraced runs of this code"
        if not untraced and time.perf_counter() + traced < \
                begin + UNTRACED_BY_S:
            ref = runner.round(trace=False)
            rounds.append(ref)
            if any(p["report"] for p in ref):
                untraced = [_wall(ref)]
                source = "one untraced round of this run"
        if untraced:
            overhead = {"traced_wall_s": traced,
                        "untraced_wall_s": statistics.median(untraced),
                        "untraced_from": source}
            overhead["overhead_s"] = traced - overhead["untraced_wall_s"]

    # determinism: every certificate against the first one seen for these
    # arguments and this source, in this run or an earlier one
    procs = [p for r in rounds for p in r]
    key = "%s seed=%d" % (workload, seed)
    reference = state.doc["certs"].get(key)
    for p in procs:
        if p["cert"] is None:
            continue
        digests = oracle.entry_digests(*p["cert"])
        if reference is None:
            reference = state.doc["certs"][key] = digests
            continue
        for cid in oracle.differing(reference, digests, runner.check_ids):
            print("%s: certificate differs from an earlier one with the "
                  "same arguments" % cid, file=sys.stderr)
            if cid not in p["failed"]:
                p["failed"].append(cid)

    reports = [p["report"] for p in procs if p["report"] is not None]
    setups += [rep["setup_s"] for rep in reports]
    with open(os.path.join(OUT, "speed-%s.json" % workload), "w") as f:
        json.dump({"cpu": probe.cpu, "samples": probe.samples,
                   "processes": [[rep["start"], rep["end"]]
                                 for rep in reports]}, f)
    attempted = len(runner.check_ids) * len(procs)
    failed = sum(len(p["failed"]) for p in procs)
    print("workload %s seed %d: %d round(s) of %d process(es), %d/%d "
          "operations failed" % (workload, seed, len(rounds),
                                 runner.processes, failed, attempted))
    for i, rep in enumerate(reports):
        print("  process %d: wall %.3f s at the reference speed (%.3f s "
              "measured, speed %.3f), set-up %.3f s, peak RSS %.1f MB" % (
                  i + 1, rep["wall_s"], rep["end"] - rep["start"],
                  probe.speed(rep["start"], rep["end"]), rep["setup_s"],
                  rep["peak_rss_kb"] / 1024))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": {}}

    if not trace:
        if walls:
            history = state.doc["wall_s"].setdefault(workload, [])
            history[:] = history[-9:] + [statistics.median(walls)]
        state.save()
        if walls:
            result["metrics"] = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                # one launch's median set-up, paid by each process of a round
                "setup_s": {"value": statistics.median(setups)
                            * runner.processes, "unit": "s"},
                "peak_rss_mb": {"value": max(rep["peak_rss_kb"]
                                             for rep in reports) / 1024,
                                "unit": "MB"},
            }
        return result

    state.save()
    traced = [p for p in procs if "trace" in p]
    if not traced:
        return result
    traces = [p["trace"] for p in traced]
    metrics = {k: _median_of([t["metrics"][k] for t in traces])
               for k in traces[0]["metrics"]}
    summary = {
        "workload": workload, "seed": seed, "metrics": metrics,
        "checks": {cid: statistics.median([t["checks"][cid] for t in traces])
                   for cid in runner.check_ids},
        "overhead": overhead, "processes": traces,
    }
    path = os.path.join(OUT, "trace-%s.json" % workload)
    with open(path, "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    shutil.copyfile(traced[-1]["report"]["tag"] + "-trace-spans.npz",
                    os.path.join(OUT, "trace-%s-spans.npz" % workload))
    _print_trace(summary, path)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        per_layer = json.load(f)["per_layer"]
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]],
                                     "unit": m["unit"]} for m in per_layer}
    return result


def _print_trace(summary, path):
    m = summary["metrics"]
    print("per-layer self time (s):")
    for k in sorted(m):
        if k.endswith(".self_s"):
            print("  %-12s %9.3f" % (k[:-len(".self_s")], m[k]))
    print("per-check time (s), inclusive:")
    for cid, s in summary["checks"].items():
        print("  checks.%s_s %.3f" % (cid, s))
    ov = summary["overhead"]
    if ov is None:
        print("tracing overhead: not measured (no untraced wall_s of this "
              "code recorded, and no time left for an untraced round)")
    else:
        print("tracing overhead: %.3f s (traced wall_s %.3f s - untraced "
              "wall_s %.3f s, %s)" % (ov["overhead_s"], ov["traced_wall_s"],
                                       ov["untraced_wall_s"],
                                       ov["untraced_from"]))
    print("full trace: %s" % os.path.relpath(path, ROOT))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sympderiv", "cli.py")):
        print("error: %s holds no sympderiv sources (src/sympderiv)" % ROOT,
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
