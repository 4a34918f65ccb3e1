"""One benchmark process: import the program, run ``verify`` once, report.

Usage (from the root of the repository, with ``PYTHONPATH=src``)::

    python3 perfbench/child.py --report R.json [--trace T.json] -- VERIFY-ARGS
    python3 perfbench/child.py --report R.json --setup-only

The report holds ``time.perf_counter()`` stamps, which on Linux read the
system-wide monotonic clock, so the parent can subtract its own launch
stamp from ``ready``.  ``ready`` is taken once numpy and every sympderiv
module are imported and the CLI parser is built; ``start`` and ``end``
bracket ``sympderiv.cli.main``, whose last act is writing the certificate.
The report is written even when ``main`` raises, so a process that dies in
a check still yields its timings.
"""

import argparse
import json
import os
import sys
import time
import traceback


def _peak_rss_kb():
    # VmHWM is the high-water mark of this process image alone; getrusage
    # would also count the parent's image from before exec.
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _write_json(path, doc):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f)
    os.replace(tmp, path)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--report", required=True)
    p.add_argument("--trace")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("verify_args", nargs=argparse.REMAINDER)
    args = p.parse_args()
    verify_args = args.verify_args
    if verify_args[:1] == ["--"]:
        verify_args = verify_args[1:]

    import numpy  # noqa: F401  (part of set-up by definition)
    from sympderiv import checks, cli
    cli.build_parser()
    report = {"ready": time.perf_counter(), "check_seconds": {}}
    if args.setup_only:
        report["peak_rss_kb"] = _peak_rss_kb()
        _write_json(args.report, report)
        return 0

    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    run_check = checks.run_check

    def timed_run_check(*a, **kw):
        rep = run_check(*a, **kw)
        report["check_seconds"][rep.id] = rep.seconds
        return rep

    checks.run_check = timed_run_check
    code = None
    report["start"] = time.perf_counter()
    try:
        code = cli.main(verify_args)
    except Exception:
        report["error"] = traceback.format_exc()
    finally:
        report["end"] = time.perf_counter()
        report["exit_code"] = code
        report["peak_rss_kb"] = _peak_rss_kb()
        _write_json(args.report, report)
        if tracer is not None:
            tracer.uninstall()
            _write_json(args.trace, tracer.summary(report["start"],
                                                   report["end"]))
            tracer.save_spans(os.path.splitext(args.trace)[0] + "-spans.npz",
                              report["start"])
    return 0 if code is not None else 3


if __name__ == "__main__":
    sys.exit(main())
