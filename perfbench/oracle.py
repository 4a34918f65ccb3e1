"""Certificate oracle: closed forms computed here, apart from the program.

``problems(doc, genus, seed, check_ids)`` returns, for every requested check,
the list of ways its certificate entry misses its closed form, its asserted
inclusion or its expected status; an empty list means the entry is right.
``entry_digests`` and ``differing`` compare certificates for determinism.
Nothing here imports ``sympderiv``.
"""

import hashlib
import json
from math import comb


def d2_rank(g):
    return comb(comb(2 * g, 2) + 1, 2) - comb(2 * g, 4)


def _f0_generators(g):
    """Generators with at least one A-leaf: all of them minus the odot pairs
    and trees whose letters all lie in B."""
    n_pairs = comb(2 * g, 2)
    total = n_pairs + comb(n_pairs + 1, 2)
    b_pairs = comb(g, 2)
    return total - b_pairs - comb(b_pairs + 1, 2)


# check id -> genera where it runs, in the order ``verify --all`` runs them
GENERA = {
    "d2-rank": (2, 3, 4),
    "dprime-index": (2, 3),
    "trace-surjectivity": (2, 3, 4),
    "trace-kernels": (2, 3),
    "kernel-index": (2, 3),
    "well-definedness": (2,),
    "levine-counterexample": (2, 3, 4),
    "casson-bridge": (2, 3),
    "quartic-vanishing": (2, 3),
    "realizable-kernel": (2, 3, 4),
    "realizable-sum": (2, 3, 4),
    "goeritz-degree1": (2, 3, 4),
    "goeritz-kernel": (2, 3, 4),
    "core-values": (2, 3, 4),
}


def applicable(genus):
    return [cid for cid, genera in GENERA.items() if genus in genera]


def _statuses(g):
    """Expected status of each check at genus g: ``observed`` where the
    statement is only decisive at a larger genus, else ``pass``."""
    out = dict.fromkeys(GENERA, "pass")
    if g == 2:
        out["trace-kernels"] = "observed"
    if g < 4:
        for cid in ("realizable-kernel", "realizable-sum", "goeritz-kernel"):
            out[cid] = "observed"
    return out


def _expect(g, cid, w):
    """(description, holds) pairs for one witness."""
    rank = d2_rank(g)
    if cid == "d2-rank":
        return [("kernel_rank == count_rank == %d" % rank,
                 w.get("kernel_rank") == w.get("count_rank") == rank)]
    if cid == "dprime-index":
        return [("index == 2^C(2g,2)",
                 w.get("index") == str(2 ** comb(2 * g, 2)))]
    if cid == "kernel-index":
        return [("index == 2^(2g+C(2g,2))",
                 w.get("index") == str(2 ** (2 * g + comb(2 * g, 2))))]
    if cid == "trace-surjectivity":
        return [("rank_as == (g-1)(2g+1)",
                 w.get("rank_as") == (g - 1) * (2 * g + 1)),
                ("rank_sym == (g+1)(2g-1)",
                 w.get("rank_sym") == (g + 1) * (2 * g - 1)),
                ("image_in_omega_kernel", w.get("image_in_omega_kernel") is True)]
    if cid == "trace-kernels":
        out = [("as_equal", w.get("as_equal") is True),
               ("bracket_included", w.get("bracket_included") is True),
               ("ker_as_rank == ker_sym_rank == rank D2",
                w.get("ker_as_rank") == w.get("ker_sym_rank") == rank)]
        if g == 2:
            out.append(("bracket_rank == 6", w.get("bracket_rank") == 6))
        else:
            out.append(("sym_equal", w.get("sym_equal") is True))
        return out
    if cid == "well-definedness":
        return [("ihx_colorings == (2g)^4", w.get("ihx_colorings") == (2 * g) ** 4),
                ("relation_instances == 1000", w.get("relation_instances") == 1000),
                ("no failures", w.get("failures") == [])]
    if cid == "levine-counterexample":
        return [("elements_checked == g(g-1)(1 + g(g-1)/2)",
                 w.get("elements_checked") == g * (g - 1) * (1 + comb(g, 2)))]
    if cid == "casson-bridge":
        return [("bridge_instances == 100 * #F0 generators",
                 w.get("bridge_instances") == 100 * _f0_generators(g)),
                ("composite_instances == 10 * rank D2",
                 w.get("composite_instances") == 10 * rank)]
    if cid == "quartic-vanishing":
        return [("spanning_vectors == C(2g,4)",
                 w.get("spanning_vectors") == comb(2 * g, 4))]
    if cid == "realizable-kernel":
        out = [("included", w.get("included") is True)]
        if g == 4:
            out.append(("equal", w.get("equal") is True))
        return out
    if cid == "realizable-sum":
        ok = (isinstance(w.get("sum_rank"), int)
              and w.get("ker_as_rank") == rank and w["sum_rank"] <= rank)
        out = [("sum_rank <= ker_as_rank == rank D2", ok)]
        if g == 4:
            out.append(("equal", w.get("equal") is True))
        return out
    if cid == "goeritz-degree1":
        return [("orbit_rank == C(2g,3) - 2 C(g,3)",
                 w.get("orbit_rank") == comb(2 * g, 3) - 2 * comb(g, 3)),
                ("equals_mixed_wedge", w.get("equals_mixed_wedge") is True)]
    if cid == "goeritz-kernel":
        out = [("included", w.get("included") is True)]
        if g == 4:
            out.append(("equal", w.get("equal") is True))
        return out
    if cid == "core-values":
        return [("d_core(h) == 4h(h-1), h = 1..5", w.get("d_core") == {
            str(h): 4 * h * (h - 1) for h in range(1, 6)})]
    return [("known check id", False)]


def problems(doc, genus, seed, check_ids):
    """check id -> list of failed expectations (empty when the entry holds)."""
    out = {cid: [] for cid in check_ids}
    header_ok = (isinstance(doc, dict) and doc.get("genus") == genus
                 and doc.get("seed") == seed and "version" in doc)
    entries = {}
    for e in doc.get("checks", []) if isinstance(doc, dict) else []:
        entries.setdefault(e.get("id"), e)
    statuses = _statuses(genus)
    for cid in check_ids:
        if not header_ok:
            out[cid].append("certificate header: wrong genus, seed or version")
        e = entries.get(cid)
        if e is None:
            out[cid].append("missing from the certificate")
            continue
        if e.get("genus") != genus:
            out[cid].append("entry genus %r" % e.get("genus"))
        if e.get("status") != statuses.get(cid):
            out[cid].append("status %r, expected %r"
                            % (e.get("status"), statuses.get(cid)))
        w = e.get("witness")
        if not isinstance(w, dict):
            out[cid].append("witness is not an object")
            continue
        for desc, holds in _expect(genus, cid, w):
            if not holds:
                out[cid].append(desc)
    return out


def entry_digests(doc, raw):
    """check id -> sha256 of its entry's canonical JSON, plus the header
    under the key ``""`` and the certificate's raw bytes under ``"*"``."""
    out = {"": hashlib.sha256(json.dumps(
        {k: v for k, v in doc.items() if k != "checks"},
        sort_keys=True).encode()).hexdigest(),
        "*": hashlib.sha256(raw).hexdigest()}
    for e in doc.get("checks", []):
        out[e.get("id")] = hashlib.sha256(
            json.dumps(e, sort_keys=True).encode()).hexdigest()
    return out


def differing(reference, digests, check_ids):
    """Check ids whose certificate entry differs from the reference digests.
    A differing header, or bytes that differ while every entry agrees,
    counts against every check."""
    if reference["*"] == digests["*"]:
        return []
    if reference[""] != digests[""]:
        return list(check_ids)
    changed = [cid for cid in check_ids
               if reference.get(cid) != digests.get(cid)]
    return changed or list(check_ids)
