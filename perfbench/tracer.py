"""Outside-in span tracing of the triq modules.

The tracer wraps the public functions of each triq module (the names in
its ``__all__``) and rebinds every reference a caller can reach: the
module attributes, the by-name imports other modules made of them, and
function values stored in module-level dicts (such as ``cli._PREPARE``
and ``cli._ANALYTIC``). After rebinding it scans module attributes and
module-level dicts, lists and tuples again, and raises ``TraceError`` if
any original function is still reachable there, so a missed binding
fails the traced run instead of silently dropping its time.

Spans are aggregated as they close: per wrapped name the call count,
the total time and the self time (duration minus the time of the spans
it directly caused). A few names also accumulate a work count taken
from their arguments or result, and a few keep every duration so a
percentile can be reported.
"""

import functools
import importlib
import time
import types

MODULES = ("core", "states", "noise", "analytic", "measures", "ddseq", "tomo", "cli")


class TraceError(RuntimeError):
    """The traced run cannot account for the program's calls."""


def _n_states(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else len(kwargs["states"])


def _traj_seconds(args, kwargs, result):
    noise = args[2] if len(args) > 2 else kwargs["noise"]
    t_final = args[4] if len(args) > 4 else kwargs["t_final"]
    return noise.trajectories * t_final


def _n_pulses(args, kwargs, result):
    return len(result)


# name -> work count taken from one call (arguments, result)
WORK = {
    "measures.curve_from_states": _n_states,
    "noise.evolve_correlated": _traj_seconds,
    "ddseq.expand_schedule": _n_pulses,
}
KEEP_DURATIONS = ("tomo.mle_reconstruct",)


class Stat:
    __slots__ = ("calls", "total", "self_time", "work", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.work = 0.0
        self.durations = []


class Tracer:
    """Aggregated spans of the wrapped triq functions.

    Spans are recorded only while ``active`` is true, so the benchmark's
    own output checks, which call triq too, stay out of the figures.
    """

    def __init__(self):
        self.active = False
        self.stats = {}
        self._child_time = []  # one accumulator per open span

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def wrap(self, name, fn):
        work = WORK.get(name)
        keep = name in KEEP_DURATIONS
        stack = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dur
                st = self.stat(name)
                st.calls += 1
                st.total += dur
                st.self_time += dur - children
                if keep:
                    st.durations.append(dur)
                if work is not None and result is not None:
                    st.work += work(args, kwargs, result)

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every public function and rebind all references to it."""
        mods = [importlib.import_module("triq")]
        mods += [importlib.import_module("triq." + m) for m in MODULES]
        wrappers = {}
        for layer, mod in zip(MODULES, mods[1:]):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self.wrap("%s.%s" % (layer, attr), fn)
        for mod in mods:
            _rebind(vars(mod), wrappers)
        missed = [where for mod in mods for where in _references(mod, wrappers)]
        if missed:
            raise TraceError("wrappers missed: " + ", ".join(missed))


def _is_wrapped_target(value, wrappers):
    return isinstance(value, types.FunctionType) and value in wrappers


def _rebind(namespace, wrappers):
    for key, value in list(namespace.items()):
        if _is_wrapped_target(value, wrappers):
            namespace[key] = wrappers[value]
        elif isinstance(value, dict):
            for k, v in list(value.items()):
                if _is_wrapped_target(v, wrappers):
                    value[k] = wrappers[v]


def _references(mod, wrappers):
    for key, value in vars(mod).items():
        if _is_wrapped_target(value, wrappers):
            yield "%s.%s" % (mod.__name__, key)
        elif isinstance(value, (dict, list, tuple)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            for k, v in items:
                if _is_wrapped_target(v, wrappers):
                    yield "%s.%s[%r]" % (mod.__name__, key, k)
