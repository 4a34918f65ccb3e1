"""Every check run past the reach of ``verify``, with its peak bounds.

``verify`` runs each check at the genera of its ``CheckSpec.genera``, all
within 2-4.  This driver calls the checks directly where ``verify`` does
not: at genus 4 for those it skips, and at genus 5-7.  It also compares
the cached, streamed and closed-form paths with the general-purpose
references kept in the tests, at genera too slow for tier-1.

Each group of ``GROUPS`` is a list of stages run in order in one process:
a check that must pass with the witnesses given, a reference helper whose
result must equal the value given, or a bound on the process's peak
resident size (VmHWM) read at that point.  Run from the repository root:

    PYTHONPATH=src:tests python tests/direct_checks.py

which runs every group in a fresh child process, so that each peak is
that group's own, prints each group's witnesses, seconds and peaks, and
exits non-zero naming every group that failed.
"""

import importlib
import sys
import time

import numpy as np

from sympderiv import checks
from sympderiv.derivspace import space
from sympderiv.intlin import kernel_lattice


def vmhwm_kb():
    """This process's peak resident size so far, in kB."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM"))


class Check:
    """Stage: ``checks.CHECKS[cid].fn(g, 0)`` must pass, and each witness
    named in ``want`` must equal its value."""

    def __init__(self, cid, g, **want):
        self.cid, self.g, self.want = cid, g, want

    def run(self):
        ok, wit = checks.CHECKS[self.cid].fn(self.g, 0)
        print(self.cid, self.g, ok, wit, flush=True)
        assert ok is True, (self.cid, wit)
        for key, value in self.want.items():
            assert wit[key] == value, (self.cid, key, value, wit)


class Ref:
    """Stage: the reference helper ``fn`` ("module.name" in the tests,
    imported only when the stage runs, or a function) called on space(g),
    or on g itself if not ``on_space``, then on ``args``.  The helper
    asserts what it compares; what it returns must equal ``want`` (if None,
    it is printed only)."""

    def __init__(self, fn, g, want, *args, on_space=True):
        self.fn, self.g, self.want = fn, g, want
        self.args, self.on_space = args, on_space

    def run(self):
        fn = self.fn
        if isinstance(fn, str):
            module, name = fn.rsplit(".", 1)
            fn = getattr(importlib.import_module(module), name)
        got = fn(space(self.g) if self.on_space else self.g, *self.args)
        print(fn.__name__, self.g, "->", got, flush=True)
        assert self.want is None or got == self.want, (fn.__name__, got)


class Peak:
    """Stage: VmHWM, read at this point of the group, must stay under
    ``mb`` MB."""

    def __init__(self, mb):
        self.mb = mb

    def run(self):
        kb = vmhwm_kb()
        print(f"VmHWM {kb / 1024:.1f} MB, bound {self.mb} MB", flush=True)
        assert kb < self.mb * 1024, (kb, self.mb)


def d2_is_bracket_kernel(sp):
    """Assert that D_2 is the kernel of the whole bracket map, int8 basis
    included; return its rank."""
    ref = kernel_lattice(sp.ctx.bracket_word_matrix())
    assert sp.d2() == ref
    assert sp.d2().basis.dtype == ref.basis.dtype == np.int8
    return ref.rank


# the checks verify skips at genus 4, trace-kernels on the streamed Johnson
# catalog among them
SKIPPED_AT_4 = [c.id for c in checks.ALL_CHECKS if 4 not in c.genera]
WANT_AT_4 = {"trace-kernels": {"johnson_rank": 336}}

GROUPS = {
    "genus-4-skipped": [Check(cid, 4, **WANT_AT_4.get(cid, {}))
                        for cid in SKIPPED_AT_4],
    # 788 symmetric halves and 41,478 trees, every candidate of the tests'
    # enumeration, block by block, each expanded on its colors by the tests'
    # reference through Lie brackets, compared in D_2 coordinates; then the
    # stream built per wedge class, row by row, against deduplicating every
    # candidate's row by its values, at genus 4 and 5 with two-term colors;
    # too slow for tier-1
    "johnson-references": [
        Ref("test_catalogs.johnson_rows_match_lie_path", 4, 788 + 41478,
            False),
        Ref("test_catalogs.johnson_stream_matches_reference", 4, 16954,
            False),
        Ref("test_catalogs.johnson_stream_matches_reference", 5, 135295,
            False),
    ],
    # every genus-4 lattice held in D_2 coordinates against
    # tests/data/lattice-digests.json; genus 2 and 3 run in tier-1
    "lattice-digests-g4": [
        Ref("test_lattice_digests.lattice_digests_match", 4, 14,
            on_space=False),
    ],
    # D_2 at genus 5-7 has the rank of both counts: d2() renames the genus-2
    # kernel rows, builds the generator coordinates from sparse expansions,
    # with no dense generator matrix, and checks that the generators span
    # the bracket-map kernel.  At genus 5 and 6, after the peak is read, D_2
    # must equal the kernel of the whole map, int8 basis included
    "d2-g5": [
        Check("d2-rank", 5, kernel_rank=825, count_rank=825, expected=825),
        Ref(d2_is_bracket_kernel, 5, 825),
    ],
    "d2-g6": [
        Check("d2-rank", 6, kernel_rank=1716, count_rank=1716,
              expected=1716),
        # 84 MB from the genus-2 templates, 133 MB from one HNF of the
        # whole map
        Peak(120),
        Ref(d2_is_bracket_kernel, 6, 1716),
    ],
    "d2-g7": [
        Check("d2-rank", 7, kernel_rank=3185, count_rank=3185,
              expected=3185),
        # 119 MB with the generator span assembled from the HNF loop's rank
        # rows alone, 142 MB through the dense [h | u] of all rows, 194 MB
        # through masks the size of the basis and an int64 identity, 382 MB
        # from one HNF of the whole map
        Peak(135),
    ],
    # the Johnson and tripod-bracket spans against both trace kernels; then
    # the mod-2 image rows, read from the generator spans' transforms, by
    # their GF(2) ranks and the index of ker tr_as
    "traces-g5": [
        Check("trace-kernels", 5, johnson_rank=825, ker_as_rank=825,
              bracket_rank=825),
        # 59.7-60.6 MB with every product past float64 formed over the
        # nonzeros of both operands, 59.3-60.1 MB with the Johnson
        # candidates formed per wedge class and dense batches joined as
        # remainders, 59.7-59.9 MB with every
        # candidate keyed on wedges (74 MB when that keying came in), 179 MB
        # on built rows' bytes
        Peak(150),
        Check("trace-surjectivity", 5, rank_as=44, rank_sym=54),
        Check("kernel-index", 5, index=str(2 ** 55)),
    ],
    # the realizable catalog's span, whose sparse batches go untested into
    # one HNF loop, read block by block as pulled
    "realizable-g5": [
        Check("realizable-kernel", 5, catalog_size=4345, catalog_rank=760,
              kernel_rank=760),
        Check("realizable-sum", 5, sum_rank=825),
        # 70 MB streamed, 71 MB with a membership test per batch; one int64
        # stack of the 4,345 rows alone would add 29 MB
        Peak(90),
    ],
    # the largest input of the HNF loop and its sparsest-row pivots
    "trace-kernels-g6": [
        Check("trace-kernels", 6, johnson_rank=1716, ker_as_rank=1716,
              bracket_rank=1716),
        # 140.6-141.9 MB with every product past float64 formed over the
        # nonzeros of both operands, 140.8-142.6 MB with the Johnson
        # candidates formed per wedge class and dense batches joined as
        # remainders, 144.6 MB with every
        # candidate keyed on wedges (210 MB when that keying came in),
        # 1.3 GB on built rows' bytes
        Peak(400),
    ],
    # both orbit closures: degree 1 in Lambda^3 H coordinates, degree 2 on
    # D_2 coordinates with every symmetry's matrix read from moved
    # generator leaves, each of which must then equal the reference that
    # moves D_2's basis by m (x) L_3(m)
    "goeritz-g5": [
        Check("goeritz-degree1", 5, orbit_rank=100),
        Check("goeritz-kernel", 5, catalog_rank=695, kernel_rank=695),
        # 71 MB with the tau_2 seed read block by block into the first
        # lattice, 100 MB with it stacked, 127 MB with the matrices stored
        # in int64, 135 MB with the int64 matrices side by side in one
        # product, all with test_catalogs imported before the read; with
        # it imported after, as here, 61 MB streamed and 90 MB stacked
        Peak(80),
        Ref("test_catalogs.coordinate_actions_match_reference", 5, 5),
    ],
    # the degree-2 orbit closure, whose seed of 9,874 rows is read block by
    # block into the first lattice
    "goeritz-kernel-g6": [
        Check("goeritz-kernel", 6, catalog_rank=1464, kernel_rank=1464),
        # 153 MB streamed, 346 MB with the seed stacked before the closure
        Peak(175),
    ],
    # tr_as, tr_sym, tr_A, tr_B and tr_omegaS tabulated from the one
    # contraction rule against the letter formulas kept in the tests, values
    # and dtype, at genus 5 and 6; then tr_A and tr_B and the traces of
    # D_2's basis read from them against the traces of the ambient
    # H (x) L_3 basis times D_2's basis at genus 5; genus 2-5 and 2-4 run
    # in tier-1
    "trace-tables": [
        Ref("test_traces.tables_match_letter_references", 5, 5),
        Ref("test_traces.tables_match_letter_references", 6, 5),
        Ref("test_traces.side_traces_match_reference", 5, 2),
    ],
    # the letter-order bracket table against the tensor table at genus 6
    # (its nonzeros printed); ker tr_as and ker tr_sym, read from one GF(2)
    # elimination, against the left kernel of [m | 2I] at genus 5 and 6;
    # the double kernel, one integer kernel on tr_A's domain, against the
    # Zassenhaus intersection of ker tr_as and ker tr_A at genus 5.  Genus
    # 1-5, 2-5 and 2-4 run in tier-1
    "closed-forms": [
        Ref("test_freelie.letter_table_matches_tensor_table", 6, None,
            on_space=False),
        Ref("test_traces.mod2_kernels_match_reference", 5, [825, 825]),
        Ref("test_traces.mod2_kernels_match_reference", 6, [1716, 1716]),
        Ref("test_checks.double_kernel_matches_intersection", 5, 760,
            on_space=False),
    ],
    # ker_projection, the kernel of D_2's basis at the coordinates that
    # killing A keeps, and tr_A; then, at genus 6, the rows it reads, built
    # from generator triplets, against the loop's elements expanded in
    # H (x) L_3 and solved over D_2's basis (genus 2-5 run in tier-1)
    "levine": [
        Check("levine-counterexample", 5, elements_checked=220),
        Ref("test_checks.levine_rows_match_ambient_route", 6, 480),
    ],
    # casson-bridge selects the unit rows of the A-side generators by
    # index, in int8, and multiplies them over the nonzeros of both
    # operands
    "casson": [
        Check("dprime-index", 5),
        Check("casson-bridge", 5),
        Check("quartic-vanishing", 5),
        # 67.3-69.4 MB measured, 75.2-76.0 MB with the unit rows read from
        # an int64 identity, 82.6-82.8 MB with that identity and products
        # that gather a dense row of the other operand for every nonzero
        Peak(72),
        Check("casson-bridge", 6),
        # 158.3-164.5 MB, 191.4-192.5 MB and 214.6-215.0 MB
        Peak(176),
    ],
    # the ambient IHX test: three eta2 stacks of letter indices over all
    # basis colorings, in blocks of 1,024, each row read from
    # bracket_table(1, 2) with no Lie bracket
    "well-definedness-g5": [
        Check("well-definedness", 5, ihx_colorings=10000,
              relation_instances=1000),
        # 41 MB from table rows, 124 MB through lie_bracket on one-hot
        # leaves
        Peak(80),
    ],
    "well-definedness-g6": [
        Check("well-definedness", 6, ihx_colorings=20736,
              relation_instances=1000),
        # 53 MB from table rows, 222 MB through lie_bracket on one-hot
        # leaves
        Peak(100),
    ],
}


def run(stages):
    """Run a group's stages in order in this process, then print its
    seconds and its peak."""
    start = time.perf_counter()
    for stage in stages:
        stage.run()
    print(f"{time.perf_counter() - start:.2f} s, "
          f"VmHWM {vmhwm_kb() / 1024:.1f} MB", flush=True)


def main(argv):
    if argv:  # a child of the run below: the one group named
        run(GROUPS[argv[0]])
        return 0
    import subprocess  # here, so that no child loads it before its peaks
    failed = []
    for name in GROUPS:
        print(f"== {name}", flush=True)
        if subprocess.run([sys.executable, __file__, name]).returncode:
            failed.append(name)
    if failed:
        print("failed:", ", ".join(failed), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
