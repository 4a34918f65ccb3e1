"""The degree-2 lattices held in D_2 coordinates are the same lattices as
the ambient ones they stand for, not only of the same ranks.

``tests/data/lattice-digests.json`` holds, per genus, the rank and the
sha256 of the HNF basis of each lattice as it was computed in the ambient
H (x) L_3 coordinates, before the lattices moved into Z^r.  Each
coordinate lattice is mapped back through D_2's basis, put in HNF, and
hashed the same way.  Genus 4 is compared by a CI step
(``lattice_digests_match(4)``), being too slow for tier-1.
"""

import hashlib
import json
import os

import pytest

from sympderiv import catalogs, checks, traces
from sympderiv.derivspace import space
from sympderiv.intlin import IntegerLattice, safe_matmul

DIGESTS = os.path.join(os.path.dirname(__file__), "data",
                       "lattice-digests.json")


def digest(lat):
    """sha256 of [ambient dimension, HNF basis as lists of ints]."""
    doc = json.dumps([lat.ambient_dim, lat.basis.tolist()],
                     separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def coordinate_lattices(g):
    """Every degree-2 lattice besides D_2 itself, in Z^r."""
    sp = space(g)
    double = checks._double_kernel(g)
    return {
        "ker_tr_as": traces.kernel(sp, "as"),
        "ker_tr_sym": traces.kernel(sp, "sym"),
        "ker_tr_A": traces.kernel(sp, "A"),
        "ker_tr_B": traces.kernel(sp, "B"),
        "double_kernel": double,
        "triple_kernel": double.intersection(traces.kernel(sp, "B")),
        "filtration_0_A": sp.filtration("A"),
        "filtration_0_B": sp.filtration("B"),
        "ker_projection_A": sp.ker_projection(),
        "dprime2": sp.dprime2(),
        "johnson_span": catalogs.catalog_lattice(
            sp, catalogs.johnson_catalog(sp)),
        "bracket_span": catalogs.catalog_lattice(
            sp, catalogs.tripod_bracket_entries(sp, side=None)),
        "realizable_span": checks._realizable_lattices(g)[2],
        "tau2_orbit_closure": catalogs.goeritz_tau2_lattice(sp),
    }


def lattice_digests_match(g):
    """Assert that every coordinate lattice, mapped back to H (x) L_3, has
    the recorded rank and HNF digest; return how many were compared."""
    with open(DIGESTS) as f:
        want = json.load(f)[str(g)]
    sp = space(g)
    got = coordinate_lattices(g)
    assert sorted(got) == sorted(want)
    for name, lat in got.items():
        assert lat.ambient_dim == sp.rank, name
        ambient = IntegerLattice(sp.ambient_dim,
                                 safe_matmul(lat.basis, sp.d2().basis))
        assert {"rank": ambient.rank, "sha256": digest(ambient)} \
            == want[name], name
    return len(got)


@pytest.mark.parametrize("g", [2, 3])
def test_coordinate_lattices_equal_recorded_ambient_lattices(g):
    assert lattice_digests_match(g) == 14
