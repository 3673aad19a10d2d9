"""Run-time tracing of fermicorr's layers from outside the package.

A module's imported names are wrapped where that module looks them up, so
each call is seen once, at the caller's layer. Every call becomes a span
``(name, start, end, parent index, tag)`` kept in memory; ``start`` and
``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC on Linux, so
spans of different processes share one time axis).
"""
import importlib
import time

# (module, attribute, span name)
WRAPPED = (
    ("fermicorr.cli", "main", "cli.main"),
    ("fermicorr.cli", "write_csv", "cli.write_csv"),
    ("fermicorr.cli", "compute_amplitudes", "amplitudes.compute_amplitudes"),
    ("fermicorr.cli", "assemble", "amplitudes.assemble"),
    ("fermicorr.cli", "report", "measures.report"),
    ("fermicorr.cli", "geometric_discord", "measures.geometric_discord"),
    ("fermicorr.cli", "connected_correlation", "measures.connected_correlation"),
    ("fermicorr.cli", "negativity", "measures.negativity"),
    ("fermicorr.cli", "random_state", "states.random_state"),
    ("fermicorr.cli", "discord_bruteforce", "oracles.discord_bruteforce"),
    ("fermicorr.cli", "maxcorr_bruteforce", "oracles.maxcorr_bruteforce"),
    ("fermicorr.cli", "chsh_gridopt", "oracles.chsh_gridopt"),
    ("fermicorr.cli", "negativity_eig", "oracles.negativity_eig"),
    ("fermicorr.measures", "geometric_discord", "measures.geometric_discord"),
    ("fermicorr.measures", "connected_correlation", "measures.connected_correlation"),
    ("fermicorr.measures", "negativity", "measures.negativity"),
    ("fermicorr.measures", "validate_state", "states.validate_state"),
    ("fermicorr.measures", "decompose", "states.decompose"),
    ("fermicorr.oracles", "validate_state", "states.validate_state"),
    ("fermicorr.states", "validate_state", "states.validate_state"),
)
# Span tags: the coupling of each amplitude call, to tell coupling blocks apart.
TAGS = {"amplitudes.compute_amplitudes": lambda p, *_: p.coupling}


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []

    def install(self):
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
            else:
                setattr(module, attr, self._traced(fn, name))

    def _traced(self, fn, name):
        spans, stack, tag = self.spans, self._stack, TAGS.get(name)

        def traced(*args, **kwargs):
            # a finished span is a tuple of atoms, which the garbage collector
            # stops tracking, so a long trace does not slow collections down
            i, parent = len(spans), stack[-1] if stack else -1
            spans.append(None)
            stack.append(i)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i] = (name, start, time.perf_counter(), parent, tag(*args) if tag else None)
                stack.pop()

        return traced
