"""Span tracing of the sympderiv layers from outside the program.

``Tracer.install()`` replaces every public function and public method of
the nine ``sympderiv`` modules (plus the few private names in ``EXTRA``)
by a wrapper that records one span per call: name, start, end and parent.
Names bound elsewhere with ``from .x import y`` are rebound in every
``sympderiv`` module that holds the same object, so no call path escapes.
Spans are kept in memory in flat arrays; ``summary()`` reduces them to
per-layer self times, the metric groups of ``GROUPS`` and the counters fed
by ``HOOKS``.  Nothing is written into the program's own output.
"""

import importlib
import time
from array import array
from functools import wraps

import numpy as np

MODULES = ("intlin", "freelie", "trees", "derivspace", "traces", "catalogs",
           "casson", "checks", "cli")

# Private names that carry a layer boundary worth a span: the homology
# action (also called directly by ``checks``), and the lattice comparisons
# whose spans count orbit-closure rounds.
EXTRA = {"catalogs._transform_rows", "intlin.IntegerLattice.__contains__",
         "intlin.IntegerLattice.__eq__"}

# metric group -> spans it covers.  A group's time sums only its outermost
# spans (one not nested in another span of the same group), and its call
# count counts those spans, so a wrapper calling its alias counts once.
GROUPS = {
    "catalogs.action": ["catalogs._transform_rows"],
    "catalogs.orbit_closure": ["catalogs.orbit_closure"],
    "catalogs.catalog_build": [
        "catalogs.johnson_catalog", "catalogs.realizable_catalog_A",
        "catalogs.tripod_bracket_entries", "catalogs.goeritz_tau2_entries"],
    "catalogs.catalog_lattice": ["catalogs.catalog_lattice"],
    "intlin.hnf": ["intlin.hermite_normal_form"],
    "intlin.intersection": ["intlin.IntegerLattice.intersection"],
    "intlin.sum": ["intlin.IntegerLattice.sum"],
    "intlin.kernel": ["intlin.kernel_lattice", "intlin.left_kernel"],
    "intlin.membership": ["intlin.IntegerLattice.membership",
                          "intlin.IntegerLattice.__contains__"],
    "intlin.gf2_rank": ["intlin.GF2Matrix.rank"],
    "intlin.safe_matmul": ["intlin.safe_matmul"],
    "derivspace.d2": ["derivspace.DerivationSpace.d2"],
    "derivspace.gen_matrix": ["derivspace.DerivationSpace.gen_matrix"],
    "derivspace.express": [
        "derivspace.DerivationSpace.express_in_generators",
        "derivspace.DerivationSpace.express_in_tree_generators"],
    "derivspace.ker_projection": ["derivspace.DerivationSpace.ker_projection"],
    "derivspace.filtration": ["derivspace.DerivationSpace.filtration"],
    "traces.ker_tr_as": ["traces.ker_tr_as"],
    "traces.ker_tr_sym": ["traces.ker_tr_sym"],
    "traces.ker_tr_A": ["traces.ker_tr_A"],
    "traces.ker_tr_B": ["traces.ker_tr_B"],
    "traces.image_rank": ["traces.image_rank_as", "traces.image_rank_sym"],
    "freelie.lie_bracket": ["freelie.SymplecticContext.lie_bracket"],
    "freelie.bracket_matrix": ["freelie.SymplecticContext.bracket_matrix"],
    "trees.eta2": ["trees.eta2"],
    "trees.expand_symhalf": ["trees.expand_symhalf"],
    "trees.tree_bracket": ["trees.tree_bracket"],
    "casson.mu": ["casson.mu", "casson.mu_of_coeffs"],
    "casson.qbar": ["casson.qbar", "casson.qbar_of_coeffs"],
    "casson.composite": ["casson.half_omegaS_plus_delta"],
    "checks.run_check": ["checks.run_check"],
}
GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

# (child span, direct parent span) -> counter of such spans
CHILD_COUNTS = {
    "catalogs.catalog_chunks": ("intlin.IntegerLattice.sum",
                                "catalogs.catalog_lattice"),
    "catalogs.orbit_rounds": ("intlin.IntegerLattice.__eq__",
                              "catalogs.orbit_closure"),
}

HOOK_SPAN = "perfbench.hook"


def _array_stats(tr, a):
    """Count an object-dtype result and track the largest entry's bits."""
    a = np.asarray(a)
    if a.size == 0:
        return
    if a.dtype == object:
        tr.counters["intlin.object_results"] += 1
        big = max(abs(int(x)) for x in a.flat)
    else:
        big = int(np.abs(a).max())
    bits = big.bit_length()
    if bits > tr.counters["intlin.max_entry_bits"]:
        tr.counters["intlin.max_entry_bits"] = bits


def _hnf_hook(tr, args, kwargs, result, outer):
    rows, cols = np.shape(args[0])
    if rows * cols > tr.counters["intlin.hnf_max_cells"]:
        tr.counters["intlin.hnf_max_cells"] = rows * cols
    for a in result if isinstance(result, tuple) else (result,):
        _array_stats(tr, a)  # the HNF, and the transform when asked for


def _lattice_hook(tr, args, kwargs, result, outer):
    _array_stats(tr, result.basis)


def _matmul_hook(tr, args, kwargs, result, outer):
    _array_stats(tr, result)


def _action_hook(tr, args, kwargs, result, outer):
    tr.counters["catalogs.action_rows"] += len(args[2])


def _catalog_hook(tr, args, kwargs, result, outer):
    if outer:
        entries = result[0] if isinstance(result, tuple) else result
        tr.counters["catalogs.catalog_entries"] += len(entries)


HOOKS = {
    "intlin.hermite_normal_form": _hnf_hook,
    "intlin.IntegerLattice.sum": _lattice_hook,
    "intlin.IntegerLattice.intersection": _lattice_hook,
    "intlin.kernel_lattice": _lattice_hook,
    "intlin.safe_matmul": _matmul_hook,
    "catalogs._transform_rows": _action_hook,
    **{name: _catalog_hook for name in GROUPS["catalogs.catalog_build"]},
}

COUNTERS = ("intlin.object_results", "intlin.max_entry_bits",
            "intlin.hnf_max_cells", "catalogs.action_rows",
            "catalogs.catalog_entries")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.layer_stack = []
        self.groups = {g: [0, 0, 0.0] for g in GROUPS}  # depth, calls, s
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.check_seconds = {}
        self._undo = []

    # -- recording -------------------------------------------------------
    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        hook_id = self._name_id(HOOK_SPAN)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        group = GROUP_OF.get(name)
        hook = HOOKS.get(name)

        layer = name.split(".")[0]
        layers = self.layer_stack

        if group is None:  # every function with a hook is in a group
            @wraps(fn)
            def traced(*args, **kwargs):
                if layers and layers[-1] == layer:
                    # a call inside its own layer: its time is self time of
                    # that layer either way, so no span is needed
                    return fn(*args, **kwargs)
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                stack.append(idx)
                layers.append(layer)
                ends.append(0.0)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                    layers.pop()
            return traced

        state = self.groups[group]
        is_check = name == "checks.run_check"

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            outer = state[0] == 0
            state[0] += 1
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            layers.append(layer)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = ends[idx] = clock()
                stack.pop()
                layers.pop()
                state[0] -= 1
                if outer:
                    state[1] += 1
                    state[2] += t - starts[idx]
                if is_check:
                    self.check_seconds[args[0]] = t - starts[idx]
            if hook is not None:
                # the hook's own cost is a span of its own, so it is never
                # booked as self time of the layer that called the function
                h = len(starts)
                names.append(hook_id)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                starts.append(clock())
                hook(self, args, kwargs, result, outer)
                ends[h] = clock()
            return result
        return traced

    # -- installation ----------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {layer: importlib.import_module("sympderiv." + layer)
                for layer in MODULES}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                    continue
                name = "%s.%s" % (layer, attr)
                if not callable(obj) or (attr.startswith("_")
                                         and name not in EXTRA):
                    continue
                traced = self._wrap(name, obj)
                for other in mods.values():
                    for a2, o2 in list(vars(other).items()):
                        if o2 is obj:
                            self._set(other, a2, traced)

    def _wrap_class(self, layer, cls):
        for attr, fn in list(vars(cls).items()):
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if (isinstance(fn, (type, property, staticmethod, classmethod))
                    or not callable(fn)
                    or (attr.startswith("_") and name not in EXTRA)):
                continue
            self._set(cls, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def save_spans(self, path, wall_start):
        """Write every recorded span (times relative to ``wall_start``)."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start) - wall_start,
                 end=np.frombuffer(self.span_end) - wall_start)

    # -- reduction -------------------------------------------------------
    def summary(self, wall_start, wall_end):
        """Per-layer self times, group metrics and counters for the spans
        recorded between ``wall_start`` and ``wall_end``."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        n = len(name)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=n)
        self_time = dur - child_time
        layer_names = sorted({nm.split(".")[0] for nm in self.names})
        layer_of = np.array([layer_names.index(nm.split(".")[0])
                             for nm in self.names], dtype=np.int64)
        per_layer = np.bincount(layer_of[name], weights=self_time,
                                minlength=len(layer_names)) if n else \
            np.zeros(len(layer_names))
        wall = wall_end - wall_start
        outside = wall - float(dur[~has_parent].sum())

        metrics = {}
        for layer, s in zip(layer_names, per_layer):
            metrics[layer + ".self_s"] = float(s)
        for group, (_, calls, seconds) in self.groups.items():
            metrics[group + "_s"] = seconds
            metrics[group + "_calls"] = calls
        metrics.update(self.counters)
        ids = self._name_ids
        for metric, (child, par) in CHILD_COUNTS.items():
            if child in ids and par in ids:
                sel = (name == ids[child]) & has_parent
                metrics[metric] = int(np.sum(
                    name[parent[sel]] == ids[par]))
            else:
                metrics[metric] = 0

        calls = {}
        per_name_self = np.bincount(name, weights=self_time,
                                    minlength=len(self.names))
        per_name_total = np.bincount(name, weights=dur,
                                     minlength=len(self.names))
        per_name_calls = np.bincount(name, minlength=len(self.names))
        for i, nm in enumerate(self.names):
            if per_name_calls[i]:
                calls[nm] = {"calls": int(per_name_calls[i]),
                             "total_s": float(per_name_total[i]),
                             "self_s": float(per_name_self[i])}
        return {
            "wall_s": wall,
            "outside_s": outside,
            "spans": n,
            "layers": {k[:-len(".self_s")]: v for k, v in metrics.items()
                       if k.endswith(".self_s")},
            "metrics": metrics,
            "checks": dict(self.check_seconds),
            "calls": calls,
        }
