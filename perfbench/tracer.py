"""Per-layer tracing of one benchmark child, from outside the program.

The tracer wraps ``flowrefine`` functions at every module attribute bound to
them, because each caller looks a function up in its own module:
``rules.refines_behavior`` and ``behaviors.refines_behavior`` are separate
bindings, and the rules are called through the ``RULES`` table.  Methods of
the machine and bounds classes are wrapped on the class.  A function a later
version renamed or removed is reported as absent, and its metrics read 0.

Totals and coarse spans stay in memory until :meth:`Tracer.finish`.
"""

from __future__ import annotations

import gc
import inspect
import sys
import time
from collections import defaultdict

# Span name -> (module, functions).  The functions of one span share a depth
# counter, so nested or recursive calls are timed once, at the outermost call.
TIMED = (
    ("rules.premise.included_under_invariant", "flowrefine.rules",
     ("_included_under_invariant",)),
    ("rules.premise.invariant_valid", "flowrefine.rules", ("_invariant_holds_on_runs",)),
    ("rules.premise.env_compatible", "flowrefine.rules", ("_invariant_env_compatible",)),
    ("rules.premise.input_independent", "flowrefine.rules",
     ("_state_level_independent", "_behaviorally_independent")),
    ("rules.system_refinement", "flowrefine.rules", ("check_system_refinement",)),
    ("rules.step", "flowrefine.rules", ("apply_step",)),
    ("behaviors.refines_behavior", "flowrefine.behaviors", ("refines_behavior",)),
    ("behaviors.run_output_words", "flowrefine.behaviors", ("run_output_words",)),
    ("system.black_box", "flowrefine.system", ("black_box",)),
    ("system.validate_system", "flowrefine.system", ("validate_system",)),
    ("archfile.parse", "flowrefine.archfile",
     ("parse_architecture", "parse_script", "parse_env")),
    ("archfile.elaborate", "flowrefine.archfile",
     ("elaborate_architecture", "elaborate_machine", "elaborate_invariant",
      "elaborate_system_node")),
    ("archfile.render", "flowrefine.archfile", ("render_architecture",)),
)

# Called tens of thousands of times: timed, but no span record per call.
HOT = frozenset({"behaviors.run_output_words"})

RULE_SPANS = ("refine-invariant", "refine-behavior", "remove-input", "fold")

COUNTERS = (
    "behaviors.emit_calls",
    "behaviors.advance_calls",
    "behaviors.emit_misses",
    "behaviors.advance_misses",
    "behaviors.cache_entries",
    "streams.tuples_yielded",
)

_CACHES = ("_emit_cache", "_emit_sets", "_advance_cache")


def _rebind(original, replacement) -> bool:
    """Point every flowrefine module attribute bound to ``original`` at
    ``replacement``; report whether there was one."""
    found = False
    for name, module in list(sys.modules.items()):
        if name != "flowrefine" and not name.startswith("flowrefine."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                found = True
    return found


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.spans = []  # (name, start, end, parent index or None)
        self.absent = []
        self._depth = defaultdict(int)
        self._open = []

    def timed(self, span: str, fn):
        record = span not in HOT
        seconds, calls, depth, open_spans = self.seconds, self.calls, self._depth, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[span] += 1
            if depth[span]:
                return fn(*args, **kwargs)
            depth[span] += 1
            index = None
            if record:
                index = len(self.spans)
                self.spans.append([span, 0.0, 0.0, open_spans[-1] if open_spans else None])
                open_spans.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[span] -= 1
                seconds[span] += end - start
                if record:
                    open_spans.pop()
                    self.spans[index][1:3] = [start, end]

        return wrapper

    def install(self):
        """Wrap the program's layers; call after importing flowrefine.cli."""
        for span, module_name, names in TIMED:
            module = sys.modules.get(module_name)
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn) or not _rebind(fn, self.timed(span, fn)):
                    self.absent.append("%s.%s" % (module_name, name))
        self._install_rules()
        self._install_machine()
        self._install_bounds()

    def _install_rules(self):
        table = getattr(sys.modules.get("flowrefine.rules"), "RULES", None)
        for rule in RULE_SPANS:
            entry = table.get(rule) if isinstance(table, dict) else None
            span = "rules." + rule
            if isinstance(entry, tuple) and entry and callable(entry[0]):
                table[rule] = (self.timed(span, entry[0]),) + entry[1:]
            elif callable(entry):
                table[rule] = self.timed(span, entry)
            else:
                self.absent.append("RULES[%r]" % rule)

    def _install_machine(self):
        cls = getattr(sys.modules.get("flowrefine.behaviors"), "IntervalTransducer", None)
        if cls is None:
            self.absent.append("behaviors.IntervalTransducer")
            return
        counts = self.counts
        emit, advance, init = cls.emit, cls.advance, cls.__init__

        def counted_emit(machine, state):
            counts["behaviors.emit_calls"] += 1
            return emit(machine, state)

        def counted_advance(machine, state, out_slice, in_slice):
            counts["behaviors.advance_calls"] += 1
            return advance(machine, state, out_slice, in_slice)

        cls.emit, cls.advance = counted_emit, counted_advance

        # A cache miss is a call into the function the machine was built
        # with; count those by wrapping them as each machine is created.
        signature = inspect.signature(init)
        if not {"emit", "advance"} <= set(signature.parameters):
            self.absent.append("IntervalTransducer(emit=, advance=)")
            return

        def missed(counter, fn):
            def call(*args):
                counts[counter] += 1
                return fn(*args)
            return call

        def traced_init(machine, *args, **kwargs):
            bound = signature.bind(machine, *args, **kwargs)
            bound.arguments["emit"] = missed("behaviors.emit_misses", bound.arguments["emit"])
            bound.arguments["advance"] = missed(
                "behaviors.advance_misses", bound.arguments["advance"])
            init(*bound.args, **bound.kwargs)

        cls.__init__ = traced_init

    def _install_bounds(self):
        cls = getattr(sys.modules.get("flowrefine.streams"), "EnumerationBounds", None)
        tuples = getattr(cls, "tuples", None)
        if tuples is None:
            self.absent.append("streams.EnumerationBounds.tuples")
            return
        counts = self.counts

        def counted_tuples(bounds, *args, **kwargs):
            for x in tuples(bounds, *args, **kwargs):
                counts["streams.tuples_yielded"] += 1
                yield x

        cls.tuples = counted_tuples

    def _cache_entries(self) -> int:
        cls = getattr(sys.modules.get("flowrefine.behaviors"), "IntervalTransducer", None)
        if cls is None:
            return 0
        machines = [obj for obj in gc.get_objects() if isinstance(obj, cls)]
        caches = [getattr(m, name, None) for m in machines for name in _CACHES]
        caches = [c for c in caches if isinstance(c, dict)]
        if machines and not caches:
            self.absent.append("IntervalTransducer caches")
        return sum(map(len, caches))

    def finish(self) -> dict:
        """Totals as metric name -> value, plus spans and absent names."""
        self.counts["behaviors.cache_entries"] = self._cache_entries()
        metrics = dict(self.counts)
        for span, _, _ in TIMED:
            metrics[span + "_s"] = self.seconds[span]
            metrics[span + "_calls"] = self.calls[span]
        for rule in RULE_SPANS:
            metrics["rules.%s_s" % rule] = self.seconds["rules." + rule]
        metrics["rules.steps"] = self.calls["rules.step"]
        return {"metrics": metrics, "spans": self.spans, "absent": self.absent}
