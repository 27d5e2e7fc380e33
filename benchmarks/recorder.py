"""Operation accounting and span tracing for the benchmark.

Every workload reports its work through one :class:`Recorder`:

- ``rec.op(name)`` wraps one operation (one enumeration, one object's round
  trip, one CLI process).  It always times the operation and counts it as
  attempted; an exception inside it counts the operation as failed and is
  kept in ``rec.errors``, so one bad object does not hide the others.
- ``rec.call(name, fn, *args)`` wraps one call into a public function of the
  library.  With tracing off it is a plain call.  With tracing on it records
  a span: its name (``module.function``), start, end, parent span, the
  operation it belongs to, an object count and whether it raised.

Spans stay in memory and are written once, when the run ends.  Self time is
a span's duration minus the time its direct children cover; the children
of one span never overlap, because the benchmark runs one thread.
"""

from __future__ import annotations

import gc
import statistics
import sys
from contextlib import contextmanager
from importlib.abc import MetaPathFinder
from time import perf_counter

MODULES = ("paths", "tamari", "trees", "maps", "bijections", "series", "cli")


class WrongAnswer(Exception):
    """An output of the library disagrees with the benchmark's check."""


def expect(ok, what):
    if not ok:
        raise WrongAnswer(what)


class Recorder:
    """Counts, times and (when ``tracing``) traces the work of one run."""

    def __init__(self, reference):
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.probes_attempted = 0
        self.probes_failed = 0
        self.errors = []
        self.spans = []  # [name, start, end, parent, op, objects, failed, phase]
        self.phases = []  # kind of each phase: "setup", "pass" or "probe"
        self.op_names = []  # name of each operation, indexed by operation id
        self.op_times = {}  # op name -> (duration, speed) pairs, for the current phase
        self.op_objects = {}  # op name -> objects one such operation handles
        self._stack = []
        self.reference = reference

    def begin(self, kind, tracing):
        """Start a phase; returns the dict its operation durations go into."""
        self.tracing = tracing
        self.phases.append(kind)
        self.op_times = {}
        return self.op_times

    def _open(self, name, objects):
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[parent][4] if parent >= 0 else -1
        span = [name, 0.0, 0.0, parent, op, objects, 0, len(self.phases) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def call(self, name, fn, *args, objects=1, **kwargs):
        if not self.tracing:
            return fn(*args, **kwargs)
        span = self._open(name, objects)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[6] = 1
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, name, objects=1, probe=False):
        """One operation.  A probe counts apart from the workload's own
        operations, and only a :class:`WrongAnswer` from it is a failure of
        the run: any other exception is the robustness gap it probes for."""
        span = None
        if self.tracing:
            span = self._open(name, objects)
            span[4] = len(self.op_names)
        self.op_names.append(name)
        self.op_objects[name] = objects
        if probe:
            self.probes_attempted += 1
        else:
            self.attempted += 1
        self.reference.speed()
        start = perf_counter()
        try:
            yield
        except Exception as exc:  # one failing object must not hide the rest
            if probe and not isinstance(exc, WrongAnswer):
                self.probes_failed += 1
            else:
                self.attempted += probe  # a probe's wrong answer fails the run
                self.failed += 1
                self.errors.append("%s: %r" % (name, exc))
            if span is not None:
                span[6] = 1
        finally:
            end = perf_counter()
            self.op_times.setdefault(name, []).append((end - start, self.reference.speed()))
            if span is not None:
                span[1], span[2] = start, end
                self._stack.pop()


REFERENCE_EVERY_S = 0.5


def interpreter_kernel():
    """Fixed work that shares no code with the library: interpreter
    dispatch, small allocations, and a sort over a few hundred kilobytes.
    The cycle collector is off meanwhile, so the kernel's time does not grow
    with the workload's live heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        s = 0
        for i in range(40_000):
            s += i * i % 7
        d = {}
        for i in range(20_000):
            d[i & 1023] = (i, [i])
        xs = [(i, str(i)) for i in range(12_000)]
        xs.sort(key=lambda t: t[1])
        return s + len(d) + len(xs)
    finally:
        if enabled:
            gc.enable()


class Reference:
    """The machine's current speed, from the time of a fixed kernel.

    On a shared host the speed of one core drifts by up to a factor of two
    over tens of seconds, and a whole run can fall in a slow stretch.  The
    kernel is timed between operations, at most every REFERENCE_EVERY_S.
    ``speed`` is ``nominal_s`` (the kernel's time on an unloaded core of a
    2 GHz Xeon VM) divided by the median of the last three samples.  A wall
    time multiplied by the speed at its end is in seconds at the reference
    speed.  The kernel must slow down like the measured work: the default
    runs in-process; the ``cli`` workload starts a bare interpreter.
    """

    def __init__(self, kernel=interpreter_kernel, nominal_s=0.008):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.samples = []
        self._at = float("-inf")

    def speed(self, force=False):
        """Time the kernel if it is due (or ``force``); return the current
        speed, 1 at the reference speed and below 1 when slower."""
        now = perf_counter()
        if force or now - self._at >= REFERENCE_EVERY_S:
            self.kernel()
            self._at = perf_counter()
            self.samples.append(self._at - now)
        return self.nominal_s / statistics.median(self.samples[-3:])


class ImportSpans(MetaPathFinder):
    """Records a ``<module>.import`` span around the execution of each
    ``tamarimaps`` module body, so import cost shows in each layer."""

    def __init__(self, rec):
        self.rec = rec

    def find_spec(self, fullname, path, target=None):
        if fullname.partition(".")[0] != "tamarimaps":
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        layer = fullname.rpartition(".")[2] if "." in fullname else "package"
        exec_module = spec.loader.exec_module
        rec = self.rec
        spec.loader.exec_module = lambda module: rec.call(
            layer + ".import", exec_module, module
        )
        return spec


def layer_of(name):
    head = name.partition(".")[0]
    return head if head in MODULES else "bench"


def summarize(rec):
    """Per-layer figures from the spans.

    Returns ``(functions, layers)``.  ``functions`` maps each span name to its
    median per pass of time, self time, calls, objects and failures, and
    separately per set-up.  ``layers`` gives, for each module, the self time
    and call count of one set-up plus one pass (medians of each).
    """
    child = [0.0] * len(rec.spans)
    for name, start, end, parent, *_ in rec.spans:
        if parent >= 0:
            child[parent] += end - start
    per_phase = {}  # phase -> name -> [time, self, calls, objects, failed]
    for k, (name, start, end, _parent, _op, objects, failed, phase) in enumerate(rec.spans):
        acc = per_phase.setdefault(phase, {}).setdefault(name, [0.0, 0.0, 0, 0, 0])
        acc[0] += end - start
        acc[1] += end - start - child[k]
        acc[2] += 1
        acc[3] += objects
        acc[4] += failed

    def medians(kind):
        phases = [k for k, knd in enumerate(rec.phases) if knd == kind and k in per_phase]
        names = sorted({n for k in phases for n in per_phase[k]})
        out = {}
        for n in names:
            rows = [per_phase[k].get(n, [0.0, 0.0, 0, 0, 0]) for k in phases]
            out[n] = {
                key: median([r[i] for r in rows])
                for i, (key, median) in enumerate((
                    ("s", statistics.median), ("self_s", statistics.median),
                    ("calls", statistics.median_low), ("objects", statistics.median_low),
                    ("failed", statistics.median_low)))
            }
        return out

    functions = {"pass": medians("pass"), "setup": medians("setup")}
    layers = {}
    for module in MODULES:
        self_s = calls = 0
        for table in functions.values():
            for n, row in table.items():
                if layer_of(n) == module:
                    self_s += row["self_s"]
                    calls += row["calls"]
        layers[module] = {"self_s": self_s, "calls": calls}
    return functions, layers


def op_total(passes, *names, norm=False):
    """Total over the operations ``names`` (default: all) of each operation's
    median duration across passes, in wall seconds or, with ``norm``, in
    seconds at the reference speed (see :class:`Reference`).  The k-th
    operation of a name is the same work in every pass, so this is one pass
    with every operation at its median: a burst of load from elsewhere on
    the machine slows a few operations of one pass and drops out."""
    total = 0.0
    for name in names or passes[0]:
        for samples in zip(*(p[name] for p in passes)):
            total += statistics.median(d * speed if norm else d for d, speed in samples)
    return total
