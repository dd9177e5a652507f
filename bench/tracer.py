"""Spans around the package's public functions, installed from outside.

The tracer replaces each public function of a layer module (and each public
method of the classes it defines) with a wrapper, in every package module
that binds the name: callers look functions up as module globals
(``hypmix.mixing.reduce_word``) or class attributes
(``SubgroupAutomaton.from_generators``), so that is where the wrapper must
sit. ``restore()`` puts every original object back.

A span is (name, start, end, parent, trial). Spans are folded into per-name
totals as they close instead of being stored: a traced workload opens
millions of them. A span's self time is its duration minus the part of it
that its child spans cover; children of one span run one after another on
the single traced thread, so that part is the sum of their durations.
``reference_self_times`` computes the same quantity from stored spans by
interval union, and ``self_check`` compares the two on synthetic spans.

Traced passes run at one worker: the span stack is not shared safely
between threads.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("freegroup", "stallings", "walks", "rng", "mixing", "cantor", "transverse", "harness")

# Spans that parse a config inside harness.run. Everything under them is
# booked to the "parse" phase, so layer counts cover the experiment's work
# and parsing shows as harness.parse_s alone.
PARSE_ROOTS = ("harness.parse_measure", "harness.parse_subgroup")

# Private or dunder attributes traced in addition to the public ones.
EXTRA = {"cantor": [("ConePermutation", "__init__")]}


class Stat:
    __slots__ = ("calls", "total", "self_time", "in_trial")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.in_trial = 0


class Tracer:
    """Installs spans on the package and aggregates them by name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # Open spans: [name, start, child_time, trial, phase].
        self._stack: list[list] = []
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._prefix = None

    # --- spans ---------------------------------------------------------------

    def open(self, name: str, trial=None, phase=None) -> list:
        if self._stack:
            parent = self._stack[-1]
            trial = parent[3] if trial is None else trial
            phase = parent[4] if phase is None else phase
        frame = [name, self.clock(), 0.0, trial, phase]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> float:
        end = self.clock()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        duration = end - frame[1]
        key = frame[0] if frame[4] is None else f"{frame[4]}:{frame[0]}"
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - frame[2]
        if frame[3] is not None:
            stat.in_trial += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def count(self, name: str, value: float = 1.0):
        self.counters[name] = self.counters.get(name, 0.0) + value

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    # --- installation ----------------------------------------------------------

    def _wrap(self, raw, name: str, observe=None, phase=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(name, phase=phase)
            try:
                result = raw(*args, **kwargs)
            finally:
                duration = tracer.close(frame)
            if observe is not None and frame[4] is None:
                observe(tracer, args, kwargs, result, duration)
            return result

        traced.__wrapped__ = raw
        traced.__tracer__ = tracer
        return traced

    def _wrap_map_trials(self, raw, name: str):
        tracer = self

        def traced_map_trials(fn, trials, threads=1):
            if threads > 1:
                raise RuntimeError("traced passes run at one worker")
            # The top span is this map_trials call; the one below called it.
            stack = tracer._stack
            trial_name = f"{stack[-2][0] if len(stack) > 1 else 'bench'}/trial"

            def one(t):
                frame = tracer.open(trial_name, trial=t)
                try:
                    return fn(t)
                finally:
                    tracer.close(frame)

            return raw(one, trials, threads)

        return self._wrap(traced_map_trials, name)

    def _patch(self, owner, attr: str, new):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self, package, observers: dict | None = None):
        """Wrap every public function and method of the layer modules."""
        observers = observers or {}
        prefix = self._prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix) and m]
        for layer in LAYERS:
            module = sys.modules[prefix + layer]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if inspect.isgeneratorfunction(obj):
                        continue
                    name = f"{layer}.{attr}"
                    if name == "rng.map_trials":
                        new = self._wrap_map_trials(obj, name)
                    else:
                        phase = "parse" if name in PARSE_ROOTS else None
                        new = self._wrap(obj, name, observers.get(name), phase)
                    for mod in modules:
                        for bound, value in list(vars(mod).items()):
                            if value is obj:
                                self._patch(mod, bound, new)
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == module.__name__
                    and not issubclass(obj, BaseException)
                ):
                    members = [m for m in vars(obj) if not m.startswith("_")]
                    members += [m for c, m in EXTRA.get(layer, ()) if c == attr]
                    for member in members:
                        self._install_method(layer, obj, member, observers)

    def _install_method(self, layer: str, cls, member: str, observers: dict):
        descriptor = cls.__dict__[member]
        name = f"{layer}.{cls.__name__}.{member}"
        if isinstance(descriptor, (classmethod, staticmethod)):
            raw = descriptor.__func__
        elif inspect.isfunction(descriptor):
            raw = descriptor
        else:
            return
        if inspect.isgeneratorfunction(raw):
            return
        new = self._wrap(raw, name, observers.get(name))
        if isinstance(descriptor, (classmethod, staticmethod)):
            new = type(descriptor)(new)
        self._patch(cls, member, new)

    def restore(self) -> list[str]:
        """Undo every patch; return the attributes that did not come back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        missing = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if owner.__dict__.get(attr) is not original
        ]
        self._patches.clear()
        return sorted(set(missing + leftover_wrappers(self)))


def leftover_wrappers(tracer: Tracer) -> list[str]:
    """Attributes of any loaded package module or class that still hold one
    of this tracer's wrappers."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if tracer._prefix is None or not mod_name.startswith(tracer._prefix) or module is None:
            continue
        owners = [module] + [v for v in vars(module).values() if inspect.isclass(v)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                value = getattr(value, "__func__", value)
                if getattr(value, "__tracer__", None) is tracer:
                    found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


# --- the check of the tracer itself ----------------------------------------------


def reference_self_times(spans) -> dict[str, float]:
    """Self time per name from stored spans (name, start, end, parent index)."""
    out: dict[str, float] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        children = sorted((s, e) for (_n, s, e, p) in spans if p == i)
        covered = 0.0
        cursor = start
        for s, e in children:
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def self_check() -> list[str]:
    """Replay synthetic nested spans through a Tracer on a fake clock and
    compare its self times with the interval-union definition."""
    # (name, start, end, parent index): a root with three children, one of
    # them with a child of its own; the first child ends where the second
    # starts, and two children share a name.
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 3.0, 0),
        ("b", 3.0, 7.5, 0),
        ("c", 4.0, 5.0, 2),
        ("a", 8.0, 9.25, 0),
    ]
    events = []
    for i, (_n, s, e, _p) in enumerate(spans):
        events.append((s, 1, i))
        events.append((e, 0, i))
    events.sort()
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    frames = {}
    for at, is_open, i in events:
        now[0] = at
        if is_open:
            frames[i] = tracer.open(spans[i][0])
        else:
            tracer.close(frames[i])
    want = reference_self_times(spans)
    problems = []
    for name, value in want.items():
        got = tracer.stat(name).self_time
        if abs(got - value) > 1e-12:
            problems.append(f"self time of {name}: tracer {got}, definition {value}")
    if abs(want["root"] - 2.25) > 1e-12 or abs(want["b"] - 3.5) > 1e-12:
        problems.append(f"definition gives {want}")
    return problems
