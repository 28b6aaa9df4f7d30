"""Spans and counters at popctrl's module boundaries, recorded from outside.

The tracer replaces public functions (and a few methods) of the package
with wrappers that record a span per call: name, start, end, parent span
and sample id.  Spans are held in flat in-memory arrays and written out
once, at the end of the run.  A boundary whose function no longer exists
is recorded as absent rather than failing the run, so refactors that
rename internals keep the end-to-end benchmark working.

Self time of a span is its duration minus the part of it covered by its
child spans.  Children of one span run one after another, except the
items of ``util.map_parallel``, which may overlap on the pool; for those
the union of the item intervals is subtracted.
"""

import functools
import inspect
import os
import sys
import threading
import time
from array import array

import numpy as np

PACKAGE = "popctrl"

# (module, attribute, span name); "Class.method" patches a method on the class.
BOUNDARIES = (
    ("cli", "run_command", "cli.run_command"),
    ("pipelines", "cmd_control", "pipelines.cmd_control"),
    ("pipelines", "cmd_solve", "pipelines.cmd_solve"),
    ("pipelines", "cmd_contraction", "pipelines.cmd_contraction"),
    ("pipelines", "cmd_observability", "pipelines.cmd_observability"),
    ("scenario", "load_scenario", "scenario.load_scenario"),
    ("model", "Fertility.__call__", "model.fertility"),
    ("model", "RateFunction.__call__", "model.rate"),
    ("grid", "write_field_csv", "grid.write_field_csv"),
    ("forward", "solve_forward", "forward.solve_forward"),
    ("adjoint", "solve_adjoint", "adjoint.solve_adjoint"),
    ("adjoint", "_sweep_from_work", "adjoint.sweep"),
    ("control", "synthesize_null_control", "control.synthesize_null_control"),
    ("control", "minimize_penalty", "control.minimize_penalty"),
    ("control", "_Workspace.apply_hessian", "control.apply_hessian"),
    ("fixed_point", "iterate_to_fixed_point", "fixed_point.iterate_to_fixed_point"),
    ("fixed_point", "trace_map", "fixed_point.trace_map"),
    ("fixed_point", "contraction_test", "fixed_point.contraction_test"),
    ("observability", "estimate_observability_constant",
     "observability.estimate_observability_constant"),
    ("observability", "observability_ratio", "observability.observability_ratio"),
    ("observability", "_power_iteration", "observability.power_iteration"),
    ("util", "map_parallel", "util.map_parallel"),
)

MAP_SPAN = "util.map_parallel"
ITEM_SPAN = "util.map_parallel.item"

# Counters a deterministic program must reproduce exactly for a given seed.
COUNTERS = (
    "forward.frozen.calls", "forward.nonlinear.calls", "forward.cell_updates",
    "adjoint.sweeps", "adjoint.columns", "adjoint.cell_updates",
    "control.stages", "control.cg_iters", "control.hessian_applies",
    "fixed_point.outer_iters", "fixed_point.contraction_trials",
    "observability.adjoint_solves", "observability.estimates",
    "util.map_parallel.calls", "util.map_parallel.items", "grid.csv.bytes",
)


def _layer(span_name):
    layer = span_name.split(".", 1)[0]
    return "pipelines" if layer == "cli" else layer


def _columns(profile):
    """Number of right-hand sides in a profile argument: (N+1,) or (N+1, k)."""
    arr = np.asarray(profile)
    return int(arr.shape[1]) if arr.ndim == 2 else 1


def _cells(grid, columns):
    return columns * grid.num_age_cells * grid.num_time_cells


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._sample = array("i")
        self._start = array("d")
        self._end = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []
        self.absent = []
        self.sample_id = -1
        self.counts = {}
        self.map_workers = {}
        self.max_concurrent_items = 0
        self._active_items = 0

    # -- span recording ---------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        with self._lock:
            sid = len(self._name)
            self._name.append(nid)
            self._parent.append(parent)
            self._sample.append(self.sample_id)
            self._end.append(0.0)
            self._start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def _close(self, sid):
        self._end[sid] = time.perf_counter()
        self._stack().pop()

    def count(self, name, value=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def _has_ancestor(self, sid, layer):
        sid = self._parent[sid]
        while sid >= 0:
            if _layer(self.names[self._name[sid]]) == layer:
                return True
            sid = self._parent[sid]
        return False

    def begin_sample(self, sample_id):
        self.sample_id = sample_id
        self.counts = {}
        return len(self._name)

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every boundary that exists; record the ones that do not."""
        self.absent = []
        for module_name, attr, span in BOUNDARIES:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = None
            if owner is not None:
                original = (owner.__dict__.get(method) if owner_name
                            else getattr(owner, method, None))
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if span == MAP_SPAN:
                wrapper = self._wrap_map(original)
            else:
                wrapper = self._wrap(original, span, _HOOKS.get(span))
            if owner_name:
                self._patches.append((owner, method, original))
                setattr(owner, method, wrapper)
                continue
            # the function may have been imported by name into other modules
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE
                                       or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def _wrap(self, original, span, hook):
        nid = self._name_id(span)
        signature = inspect.signature(original) if hook is not None else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = tracer._open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                except TypeError:
                    bound = {}
                hook(tracer, sid, bound, result)
            return result

        return wrapper

    def _wrap_map(self, original):
        map_nid = self._name_id(MAP_SPAN)
        item_nid = self._name_id(ITEM_SPAN)
        tracer = self
        util = sys.modules.get(f"{PACKAGE}.util")

        @functools.wraps(original)
        def wrapper(fn, items, *args, **kwargs):
            items = list(items)
            sid = tracer._open(map_nid)

            def item_fn(item):
                isid = tracer._open(item_nid, parent=sid)
                with tracer._lock:
                    tracer._active_items += 1
                    tracer.max_concurrent_items = max(tracer.max_concurrent_items,
                                                      tracer._active_items)
                try:
                    return fn(item)
                finally:
                    with tracer._lock:
                        tracer._active_items -= 1
                    tracer._close(isid)

            try:
                return original(item_fn, items, *args, **kwargs)
            finally:
                tracer._close(sid)
                counter = getattr(util, "worker_count", None)
                workers = counter(len(items)) if callable(counter) else 1
                tracer.map_workers[sid] = workers
                tracer.count("util.map_parallel.calls")
                tracer.count("util.map_parallel.items", len(items))

        return wrapper

    # -- aggregation --------------------------------------------------------

    def sample_stats(self, lo):
        """Per-layer self times, span counts and counters of one sample."""
        hi = len(self._name)
        n = hi - lo
        name = np.frombuffer(self._name[lo:hi], dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self._parent[lo:hi], dtype=np.int32).astype(np.int64) - lo
        start = np.frombuffer(self._start[lo:hi], dtype=np.float64)
        end = np.frombuffer(self._end[lo:hi], dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)

        item_total = map_capacity = 0.0
        if MAP_SPAN in self._name_ids:
            for k in np.nonzero(name == self._name_ids[MAP_SPAN])[0]:
                items = np.nonzero(parent == k)[0]
                covered[k] = _union_length(start[items], end[items])
                item_total += float(np.sum(dur[items]))
                map_capacity += float(dur[k]) * self.map_workers.get(lo + int(k), 1)
        self_time = dur - covered

        layers = np.array([_layer(s) for s in self.names] or ["?"])[name]
        if ITEM_SPAN in self._name_ids:
            # work inside a pool item belongs to the caller of map_parallel
            for k in np.nonzero(name == self._name_ids[ITEM_SPAN])[0]:
                caller = parent[parent[k]] if parent[k] >= 0 else -1
                if caller >= 0:
                    layers[k] = layers[caller]

        stats = {"layer_self_s": {}, "name_self_s": {}, "name_total_s": {},
                 "name_calls": {}, "counts": dict(self.counts), "spans": n,
                 "map_efficiency": item_total / map_capacity if map_capacity else 0.0}
        for layer in set(layers.tolist()):
            stats["layer_self_s"][layer] = float(np.sum(self_time[layers == layer]))
        for nid, span in enumerate(self.names):
            sel = name == nid
            stats["name_calls"][span] = int(np.sum(sel))
            stats["name_self_s"][span] = float(np.sum(self_time[sel]))
            stats["name_total_s"][span] = float(np.sum(dur[sel]))
        return stats

    def write(self, path):
        """Write every recorded span; names index the ``names`` array."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(handle,
                     names=np.array(self.names, dtype=str),
                     name=np.frombuffer(self._name, dtype=np.int32).copy(),
                     parent=np.frombuffer(self._parent, dtype=np.int32).copy(),
                     sample=np.frombuffer(self._sample, dtype=np.int32).copy(),
                     start=np.frombuffer(self._start, dtype=np.float64).copy(),
                     end=np.frombuffer(self._end, dtype=np.float64).copy())


def _union_length(starts, ends):
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts)
    total = 0.0
    cur_lo, cur_hi = starts[order[0]], ends[order[0]]
    for k in order[1:]:
        if starts[k] > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = starts[k], ends[k]
        else:
            cur_hi = max(cur_hi, ends[k])
    return float(total + cur_hi - cur_lo)


# -- counters taken at the boundaries ----------------------------------------


def _forward_hook(tracer, sid, args, result):
    frozen = args.get("frozen_trace") is not None
    tracer.count("forward.frozen.calls" if frozen else "forward.nonlinear.calls")
    if "grid" in args and "m0" in args:
        tracer.count("forward.cell_updates", _cells(args["grid"], _columns(args["m0"])))


def _adjoint_hook(profile_arg):
    def hook(tracer, sid, args, result):
        parent = tracer._parent[sid]
        if parent >= 0 and _layer(tracer.names[tracer._name[parent]]) == "adjoint":
            return  # the inner sweep of solve_adjoint: counted at solve_adjoint
        columns = _columns(args[profile_arg]) if args.get(profile_arg) is not None else 1
        tracer.count("adjoint.sweeps")
        tracer.count("adjoint.columns", columns)
        if "grid" in args:
            tracer.count("adjoint.cell_updates", _cells(args["grid"], columns))
        if tracer._has_ancestor(sid, "observability"):
            tracer.count("observability.adjoint_solves")
    return hook


def _minimize_hook(tracer, sid, args, result):
    tracer.count("control.stages")
    control = result[0] if isinstance(result, tuple) else result
    tracer.count("control.cg_iters", int(getattr(control, "iterations", 0)))


def _contraction_hook(tracer, sid, args, result):
    tracer.count("fixed_point.contraction_trials", int(getattr(result, "trials", 0)))


def _csv_hook(tracer, sid, args, result):
    path = args.get("path")
    if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
        tracer.count("grid.csv.bytes", os.path.getsize(path))


_HOOKS = {
    "forward.solve_forward": _forward_hook,
    "adjoint.solve_adjoint": _adjoint_hook("n_T"),
    "adjoint.sweep": _adjoint_hook("work_n"),
    "control.minimize_penalty": _minimize_hook,
    "control.apply_hessian": lambda tracer, sid, args, result:
        tracer.count("control.hessian_applies"),
    "fixed_point.trace_map": lambda tracer, sid, args, result:
        tracer.count("fixed_point.outer_iters"),
    "fixed_point.contraction_test": _contraction_hook,
    "observability.estimate_observability_constant": lambda tracer, sid, args, result:
        tracer.count("observability.estimates"),
    "grid.write_field_csv": _csv_hook,
}
