"""Self-test of the benchmark; about 20 s.

Usage, from the root of the repository::

    python3 perfbench/selftest.py

1. Runs ``suite-g2`` briefly, untraced and traced, and checks that every
   metric named in ``BENCHMARK.json`` is emitted with its unit and is
   above 0, with no failed operation.
2. Checks that the oracle rejects a tampered certificate: a rank off by
   one, a status flipped to ``fail``, and certificates that differ between
   repeats (in one entry, and in bytes only).
3. Checks that in the traced run the layer self times plus the time
   outside every span add up to the traced wall time, and that the trace
   holds every per-layer metric of the seven layers and every check.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what)


def bench(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "suite-g2", "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    expect(out.returncode == 0, "run.py --trace %d exits 0" % trace)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           "result has exactly the four keys")
    expect(result["correct"] is True and result["failed"] == 0
           and result["attempted"] >= 1, "suite-g2 runs with 0 failures")
    return result


def check_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        got = bench(trace)["metrics"]
        named = {m["name"]: m["unit"] for m in spec[key]}
        expect(set(got) == set(named),
               "--trace %d emits exactly the %s metrics" % (trace, key))
        for name, unit in named.items():
            m = got.get(name, {})
            expect(m.get("unit") == unit and m.get("value", 0) > 0,
                   "%s emitted in %s and above 0 (got %r)" % (name, unit, m))


def check_oracle():
    ids = oracle.applicable(2)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        cert = os.path.join(tmp, "cert.json")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--report",
             os.path.join(tmp, "report.json"), "--", "--all", "--genus", "2",
             "--seed", "1", "--json", cert],
            cwd=ROOT, env=run.program_env(),
            stdout=subprocess.DEVNULL, check=True, timeout=120)
        with open(cert, "rb") as f:
            raw = f.read()
    doc = json.loads(raw)

    def flagged(d):
        return sorted(cid for cid, p in oracle.problems(d, 2, 1, ids).items()
                      if p)

    expect(flagged(doc) == [], "genuine certificate passes the oracle")
    bad = copy.deepcopy(doc)
    bad["checks"][0]["witness"]["kernel_rank"] += 1
    expect(flagged(bad) == ["d2-rank"], "rank off by one is rejected")
    bad = copy.deepcopy(doc)
    next(e for e in bad["checks"] if e["id"] == "core-values")["status"] = "fail"
    expect(flagged(bad) == ["core-values"], "status flipped to fail is rejected")
    expect(flagged(dict(doc, seed=2)) == sorted(ids), "wrong seed is rejected")

    ref = oracle.entry_digests(doc, raw)
    expect(oracle.differing(ref, ref, ids) == [], "identical repeat accepted")
    bad = copy.deepcopy(doc)
    next(e for e in bad["checks"]
         if e["id"] == "goeritz-kernel")["witness"]["catalog_rank"] += 1
    bad_raw = json.dumps(bad, sort_keys=True, indent=1).encode() + b"\n"
    expect(flagged(bad) == [] and oracle.differing(
        ref, oracle.entry_digests(bad, bad_raw), ids) == ["goeritz-kernel"],
        "a repeat differing in one entry is rejected")
    expect(oracle.differing(ref, oracle.entry_digests(doc, raw + b" "), ids)
           == ids, "a repeat differing only in bytes is rejected")


def check_trace():
    with open(os.path.join(run.OUT, "trace-suite-g2.json")) as f:
        summary = json.load(f)
    for rnd in summary["processes"]:
        total = sum(rnd["layers"].values()) + rnd["outside_s"]
        expect(abs(total - rnd["wall_s"]) <= 1e-6 * rnd["wall_s"],
               "layer self times + outside (%.9f) == traced wall (%.9f)"
               % (total, rnd["wall_s"]))
        expect(rnd["outside_s"] >= 0, "time outside spans is not negative")
    names = {g + "_s" for g in tracer.GROUPS} | {
        layer + ".self_s" for layer in ("intlin", "freelie", "trees",
                                        "derivspace", "traces", "catalogs",
                                        "casson")}
    missing = sorted(names - set(summary["metrics"]))
    expect(not missing, "trace holds every per-layer metric (missing %s)"
           % missing)
    expect(sorted(summary["checks"]) == sorted(oracle.applicable(2)),
           "trace holds the time of every check run")
    expect(summary["overhead"] is not None, "trace states its overhead")


def main():
    check_metrics()
    check_oracle()
    check_trace()
    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
