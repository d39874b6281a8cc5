"""Layer tracing for the traced benchmark run.

Wraps seqarea's public functions from the outside, in the benchmark's own
process only.  Modules bind imported names (``seqarea.verify.build_vertices``,
``seqarea.closedforms.term``, ...), so every wrapper is set on each seqarea
module that holds the original object, and taken off again by ``uninstall``.

Each call becomes a span: name, parent, and four clock readings.  ``t_in`` and
``t_out`` bracket the wrapper, ``t0`` and ``t1`` the wrapped call, so
a parent's self time is its call time minus what its children's wrappers
covered, and the wrappers' own cost is kept apart as tracing overhead.
Spans of one request stay in memory until the request ends; then they are
folded into per-layer totals, and those of the first traced round are kept
to be written out.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# Span name -> per-layer time metric it is charged to (self time).
LAYERS = {
    "sequences.term": "sequences.term_ms",
    "sequences.family_term": "sequences.term_ms",
    "sequences.polygonal_number": "sequences.term_ms",
    "sequences.preset": "sequences.preset_ms",
    "sequences.binet_params": "sequences.binet_ms",
    "sequences.binet_eval": "sequences.binet_ms",
    "geometry.build_vertices": "geometry.build_ms",
    "geometry.shoelace_area": "geometry.shoelace_ms",
    "geometry.shoelace_signed": "geometry.shoelace_ms",
    "geometry.collinear": "geometry.collinear_ms",
    "closedforms.mgon_area": "closedforms.family_ms",
    "closedforms.closed_triangle_area": "closedforms.family_ms",
    "closedforms.polygonal_mgon_area": "closedforms.family_ms",
    "closedforms.polygonal_triangle_area": "closedforms.family_ms",
    "closedforms.general_mgon_area": "closedforms.general_ms",
    "closedforms.general_triangle_area": "closedforms.general_ms",
    "verify.verify_family": "verify.grid_self_ms",
    "verify.verify_collinearity": "verify.grid_self_ms",
    "verify.polygonal_table": "verify.grid_self_ms",
    "verify.third_order_table": "verify.grid_self_ms",
    "cli.main": "cli.self_ms",
    "cli.closed_area_for": "cli.self_ms",
    "cli.render_gen": "cli.render_ms",
    "cli.render_area": "cli.render_ms",
    "cli.render_report": "cli.render_ms",
    "cli.render_polygonal_table": "cli.render_ms",
    "cli.render_third_order_table": "cli.render_ms",
}
QUADELEM_METHODS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "conjugate", "norm", "inv",
    "to_rational",
)
for _method in QUADELEM_METHODS:
    LAYERS[f"numerics.QuadElem.{_method}"] = "numerics.quadelem_ms"

TIME_METRICS = sorted(set(LAYERS.values()))
COUNT_METRICS = (
    "sequences.term_calls",
    "sequences.preset_calls",
    "geometry.polygons",
    "closedforms.general_calls",
    "numerics.quadelem_created",
    "verify.cells",
)
# Span name -> count metric bumped once per call.
CALL_COUNTS = {
    "sequences.term": "sequences.term_calls",
    "sequences.preset": "sequences.preset_calls",
    "geometry.build_vertices": "geometry.polygons",
    "closedforms.general_mgon_area": "closedforms.general_calls",
    "closedforms.general_triangle_area": "closedforms.general_calls",
}
REQUEST = "request"
KEEP_SPANS = 100_000


class Tracer:
    """Span buffers for one process; ``fold`` turns them into layer totals."""

    def __init__(self):
        self.names = [REQUEST] + list(LAYERS)
        self.code = {name: i for i, name in enumerate(self.names)}
        self.installed = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.t_in = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.t_out = array("q")
        self.stack = [-1]
        self.counts = Counter()
        self.new_round()
        self.kept = []  # raw spans of the first traced round: (request, span...)

    # -- per-round and per-request state ---------------------------------
    def new_round(self):
        self.distinct = set()
        self._new_request()

    def _new_request(self):
        # Cleared in place: the wrappers hold these very objects.
        for buf in (self.name_ids, self.parents, self.t_in, self.t0, self.t1,
                    self.t_out):
            del buf[:]
        del self.stack[1:]
        self.counts.clear()
        self.max_index = 0
        self.max_bits = 0

    def begin_request(self):
        self._new_request()
        now = time.perf_counter_ns()
        for buf, value in ((self.name_ids, self.code[REQUEST]), (self.parents, -1),
                           (self.t_in, now), (self.t0, now), (self.t1, now),
                           (self.t_out, now)):
            buf.append(value)
        self.stack.append(0)

    def end_request(self):
        now = time.perf_counter_ns()
        self.t1[0] = self.t_out[0] = now
        self.stack.pop()

    def fold(self, keep, request_id):
        """Self time per layer (ns), counts and overhead of the request."""
        n = len(self.parents)
        covered = [0] * n
        parents, t_in, t0, t1, t_out = (
            self.parents, self.t_in, self.t0, self.t1, self.t_out
        )
        overhead = 0
        for i in range(n - 1, -1, -1):
            p = parents[i]
            if p >= 0:
                covered[p] += t_out[i] - t_in[i]
            overhead += (t_out[i] - t_in[i]) - (t1[i] - t0[i])
        self_ns = Counter()
        per_name = Counter()
        names, name_ids = self.names, self.name_ids
        for i in range(1, n):
            name = names[name_ids[i]]
            own = (t1[i] - t0[i]) - covered[i]
            per_name[name] += own
            self_ns[LAYERS[name]] += own
        if keep and len(self.kept) < KEEP_SPANS:
            base = t_in[0] if n else 0
            for i in range(min(n, KEEP_SPANS - len(self.kept))):
                self.kept.append(
                    (request_id, i, parents[i], names[name_ids[i]],
                     t0[i] - base, t1[i] - base)
                )
        return {
            "self_ns": dict(self_ns),
            "per_name_ns": dict(per_name),
            "counts": dict(self.counts),
            "spans": n,
            "overhead_ns": overhead,
            "max_index": self.max_index,
            "max_bits": self.max_bits,
            "distinct": len(self.distinct),
        }

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, name, fn, hook=None):
        name_id = self.code[name]
        counted = CALL_COUNTS.get(name)
        clock = time.perf_counter_ns
        name_ids, parents, stack, counts = (
            self.name_ids, self.parents, self.stack, self.counts
        )
        t_in_buf, t0_buf, t1_buf, t_out_buf = self.t_in, self.t0, self.t1, self.t_out

        def wrapper(*args, **kwargs):
            t_in = clock()
            i = len(parents)
            name_ids.append(name_id)
            parents.append(stack[-1])
            t_in_buf.append(t_in)
            t0_buf.append(t_in)
            t1_buf.append(t_in)
            t_out_buf.append(t_in)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                t0_buf[i] = t0
                t1_buf[i] = t1
                t_out_buf[i] = t1
            if counted is not None:
                counts[counted] += 1
            if hook is not None:
                hook(args, result)
            t_out_buf[i] = clock()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _term_hook(self, args, result):
        spec, n = args
        self.distinct.add((spec, n))
        if n > self.max_index:
            self.max_index = n
        bits = result.bit_length()
        if bits > self.max_bits:
            self.max_bits = bits

    def _cells_hook(self, args, result):
        self.counts["verify.cells"] += len(result.cells)

    def install(self):
        """Wrap every traced function wherever a seqarea module binds it."""
        from seqarea import numerics

        hooks = {
            "sequences.term": self._term_hook,
            "verify.verify_family": self._cells_hook,
            "verify.verify_collinearity": self._cells_hook,
        }
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "seqarea" or key.startswith("seqarea.")
        ]
        for name in LAYERS:
            if name.startswith("numerics."):
                continue
            home, attr = name.split(".")
            original = getattr(sys.modules[f"seqarea.{home}"], attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.installed.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cls = numerics.QuadElem
        for method in QUADELEM_METHODS:
            original = cls.__dict__[method]
            self.installed.append((cls, method, original))
            setattr(cls, method, self._wrap(f"numerics.QuadElem.{method}", original))
        original_init = cls.__init__
        counts = self

        def counting_init(obj, *args, **kwargs):
            counts.counts["numerics.quadelem_created"] += 1
            original_init(obj, *args, **kwargs)

        self.installed.append((cls, "__init__", original_init))
        cls.__init__ = counting_init

    def uninstall(self):
        for owner, key, original in reversed(self.installed):
            setattr(owner, key, original)
        self.installed = []
