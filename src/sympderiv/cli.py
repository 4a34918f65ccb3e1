"""Command-line driver for the verification suite.

Runs named checks per genus, prints one line per check, and optionally
writes a JSON certificate.  Exit codes: 0 all selected checks passed (or
were observed/skipped), 1 at least one failure, 2 usage error.

The JSON certificate is deterministic for fixed flags: keys are sorted,
coordinate data is emitted as decimal strings, and wall times are kept out
of the file (they are printed on stdout instead).
"""

import argparse
import json
import os
import sys
import tempfile

from . import checks


def _witness_jsonable(obj):
    """Coerce witness data to JSON-stable types (ints, strings, lists)."""
    if isinstance(obj, dict):
        return {str(k): _witness_jsonable(v) for k, v in sorted(
            obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_witness_jsonable(x) for x in obj]
    if isinstance(obj, bool):
        return obj
    if hasattr(obj, "item") and not isinstance(obj, str):  # numpy scalar
        obj = obj.item()
    if isinstance(obj, int):
        return obj
    return str(obj)


def _temp_beside(path):
    """A new temporary file in path's directory: (fd, its path)."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    return tempfile.mkstemp(dir=d, prefix=".certificate-")


def _write_atomic(path, text):
    """Write text to path through a temporary file in its directory, given
    the mode a plain open would (mkstemp makes it 0600, which the replace
    keeps)."""
    fd, tmp = _temp_beside(path)
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def build_parser():
    p = argparse.ArgumentParser(
        prog="verify",
        description="Exact verification of the degree-2 derivation-lattice "
                    "statements at desk scale.")
    p.add_argument("--genus", type=int, choices=(2, 3, 4), default=2,
                   help="genus to verify (default 2)")
    p.add_argument("--all", action="store_true",
                   help="run every check applicable at this genus")
    p.add_argument("--check", action="append", default=[],
                   choices=checks.CHECKS, metavar="ID",
                   help="run one named check (repeatable; see --list)")
    p.add_argument("--json", metavar="PATH",
                   help="write a JSON certificate to PATH")
    p.add_argument("--seed", type=int, default=0,
                   help="non-negative seed for randomized property checks "
                        "(default 0)")
    p.add_argument("--list", action="store_true",
                   help="list available check ids and exit")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        # random.Random seeds with |seed|: -1 would draw the instances of 1
        parser.error("--seed must be a non-negative int")
    if args.json is not None:
        # checked before any check runs, not when the certificate is written
        if not args.json or os.path.isdir(args.json):
            parser.error("--json needs a file path, not %r" % args.json)
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.json))):
            parser.error("--json directory does not exist: %s" % args.json)
        try:
            fd, tmp = _temp_beside(args.json)
        except OSError as e:
            parser.error("--json directory cannot take the certificate: "
                         "%s (%s)" % (args.json, e.strerror))
        os.close(fd)
        os.unlink(tmp)

    if args.list:
        for entry in checks.ALL_CHECKS:
            print("%-24s %s (genus %s)" % (
                entry.id, entry.anchor, ",".join(map(str, entry.genera))))
        return 0

    if not args.check and not args.all:
        parser.error("nothing selected; use --all or --check ID")

    selected = [c.id for c in checks.ALL_CHECKS] if args.all else args.check
    reports = []
    for cid in selected:
        rep = checks.run_check(cid, args.genus, seed=args.seed)
        reports.append(rep)
        print("%-24s genus=%d  %-8s %6.1fs  %s" % (
            rep.id, rep.genus, rep.status, rep.seconds, rep.anchor))
        if rep.status == "fail":
            print("  witness: %s" % _witness_jsonable(rep.witness),
                  file=sys.stderr)

    if args.json:
        doc = {
            "version": checks.VERSION,
            "genus": args.genus,
            "seed": args.seed,
            "checks": [
                {
                    "id": r.id,
                    "anchor": r.anchor,
                    "genus": r.genus,
                    "status": r.status,
                    "witness": _witness_jsonable(r.witness),
                }
                for r in reports
            ],
        }
        _write_atomic(args.json,
                      json.dumps(doc, sort_keys=True, indent=1) + "\n")

    n_fail = sum(1 for r in reports if r.failed)
    n_pass = sum(1 for r in reports if r.status == "pass")
    print("summary: %d pass, %d fail, %d other" % (
        n_pass, n_fail, len(reports) - n_pass - n_fail))
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
