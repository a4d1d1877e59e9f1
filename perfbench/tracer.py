"""Outside-in tracing of geomfreq's layers.

The tracer wraps every public function of each layer module by replacing
module attributes, so ``src/`` is not touched.  Names a module rebinds with
``from .frenet import invariants`` (hilbert, park, signals, numdiff,
analysis, validate) are replaced too, as are functions held in module-level
dicts (``validate._SUITES``, ``signals._PRESETS``); one wrapper serves every
binding of a function, so identity checks such as
``builder is three_phase_model`` still hold.

Each call made while ``active`` is a span (id, parent id, op id, name,
start, end).  Calls, inclusive time and self time (duration minus the time
covered by child spans) are summed per function as the calls return, so
memory stays bounded.  The spans themselves are kept in memory, whole ops
only, up to MAX_SPANS, and written out when the run ends; ``spans_dropped``
counts the spans of the ops that did not fit, so the spans file never holds
a span whose parent is missing.
"""

import functools
import time
import types

MAX_SPANS = 100_000


class Tracer:
    def __init__(self, layers):
        self.layers = layers  # layer name -> module
        self.active = False
        self.op_id = 0
        self.stats = {}  # "layer.function" -> [calls, total_ns, self_ns]
        self.spans = []  # spans of the whole ops kept
        self.spans_dropped = 0
        self._op_spans = []  # spans of the running op
        self._op_dropped = 0  # its spans past MAX_SPANS
        self._stack = []  # [span id, ns covered by children] per open span
        self._next_id = 1
        self._undo = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(tracer.spans) + len(tracer._op_spans) < MAX_SPANS:
                    tracer._op_spans.append(
                        (span_id, parent, tracer.op_id, name, start, end)
                    )
                else:
                    tracer._op_dropped += 1

        return traced

    def install(self, extra_namespaces=()):
        """Replace every binding of each layer's public functions."""
        wrappers = {}
        for layer, mod in self.layers.items():
            for name, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)

        def swap(obj):
            if isinstance(obj, types.FunctionType):
                return wrappers.get(obj, obj)
            if isinstance(obj, tuple):
                new = tuple(swap(x) for x in obj)
                return new if any(a is not b for a, b in zip(new, obj)) else obj
            return obj

        for mod in (*self.layers.values(), *extra_namespaces):
            ns = vars(mod)
            for name, obj in list(ns.items()):
                if isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        new = swap(val)
                        if new is not val:
                            self._undo.append((obj, key, val))
                            obj[key] = new
                else:
                    new = swap(obj)
                    if new is not obj:
                        self._undo.append((ns, name, obj))
                        ns[name] = new

    def end_op(self):
        """Keep the finished op's spans if all of them fit."""
        if self._op_dropped:
            self.spans_dropped += len(self._op_spans) + self._op_dropped
        else:
            self.spans.extend(self._op_spans)
        self._op_spans = []
        self._op_dropped = 0

    def uninstall(self):
        """Put every replaced binding back."""
        for container, key, original in reversed(self._undo):
            container[key] = original
        self._undo.clear()

    def by_layer(self):
        """{layer: [calls, self_ns]} summed over the layer's functions."""
        out = {layer: [0, 0] for layer in self.layers}
        for name, (calls, _total, self_ns) in self.stats.items():
            acc = out[name.split(".", 1)[0]]
            acc[0] += calls
            acc[1] += self_ns
        return out

    def write_spans(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(str(x) for x in span) + "\n")
