"""Measure the reference figures quoted in perfbench/README.md.

Usage, from the root of the repository::

    python3 perfbench/reference.py            # about 20 minutes on 2 cores

Runs ``verify --all`` at genus 2, 3 and 4 (the last includes the genus-4
``goeritz-kernel`` check, which the benchmark workloads leave out), each in
a cold process, then times the tier-1 test suite.  Prints a markdown table
of every check's measured seconds beside its ``CheckSpec.estimate``.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import OUT, program_env  # noqa: E402


def run_suite(genus, tmp):
    report = os.path.join(tmp, "report-g%d.json" % genus)
    cert = os.path.join(tmp, "cert-g%d.json" % genus)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--report", report,
           "--", "--all", "--genus", str(genus), "--json", cert]
    launch = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=program_env(), check=True,
                   stdout=subprocess.DEVNULL)
    with open(report) as f:
        rep = json.load(f)
    rep["launch"] = launch
    return rep


def run_tier1():
    cmd = [sys.executable, "-m", "pytest", "-q",
           "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, env=program_env(), capture_output=True,
                         text=True)
    lines = out.stdout.strip().splitlines()
    return time.perf_counter() - t0, lines[-1] if lines else "(no output)"


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sympderiv import checks

    reports = {}
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for genus in (2, 3, 4):
            reports[genus] = run_suite(genus, tmp)
    tier1_s, tier1_line = run_tier1()

    print("| check | g2 s | g2 est | g3 s | g3 est | g4 s | g4 est |")
    print("| --- | ---: | ---: | ---: | ---: | ---: | ---: |")
    for spec in checks.ALL_CHECKS:
        cells = []
        for genus in (2, 3, 4):
            if genus in spec.genera:
                cells.append("%.2f" % reports[genus]["check_seconds"][spec.id])
                cells.append(str(spec.estimate.get(genus, "-")))
            else:
                cells += ["-", "-"]
        print("| `%s` | %s |" % (spec.id, " | ".join(cells)))
    for genus in (2, 3, 4):
        r = reports[genus]
        print("verify --all --genus %d: %.1f s wall, %.1f s set-up, "
              "peak RSS %.0f MB" % (genus, r["end"] - r["start"],
                                    r["ready"] - r["launch"],
                                    r["peak_rss_kb"] / 1024))
    print("tier-1 pytest: %.0f s (%s)" % (tier1_s, tier1_line))


if __name__ == "__main__":
    main()
