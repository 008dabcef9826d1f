"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps every public function of the traced `hamfourier`
modules and rebinds the wrapper under every name any `hamfourier` module
holds for it (for example `features.amplitude` and `features.substream`
as well as `evolution.amplitude` and `rng.substream`), so calls made
through a name imported elsewhere are counted too.  Nothing under `src/`
changes.  Each span records its inclusive time, its self time (inclusive
minus the time of the spans nested in it) and, for the metrics that need
it, the time of the spectral oracle nested in it.

The metrics name the functions they read.  A name that the program no
longer defines is reported in `absent` and its metrics read 0; it never
raises, so the traced run survives refactors that delete or rename them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

TRACED_MODULES = ("hamiltonians", "evolution", "features", "labels", "rng",
                  "regression", "pipeline")

#: the dense spectral oracle; evolution.amplitude_s excludes its time
ORACLE = "hamiltonians.sector_eigensystem"

#: the regression fits, one per `--method`
FITS = ("regression.fit_ols", "regression.fit_ridge",
        "regression.fit_constrained")
#: the file reads and writes of the pipeline layer
IO = ("pipeline.atomic_write", "pipeline.read_dataset",
      "pipeline.read_features")

#: every function a per-layer metric reads
NAMES = (
    ORACLE, "hamiltonians.sector_states", "hamiltonians.sector_matrix",
    "hamiltonians.spectral_weights", "evolution.amplitude",
    "evolution.trotter_evolve", "rng.substream", "labels.label",
    *FITS, *IO,
)

#: per-layer metric -> unit, in the order they are reported
UNITS = {
    "hamiltonians.eigh_calls": "count",
    "hamiltonians.eigh_s": "s",
    "hamiltonians.basis_calls": "count",
    "hamiltonians.basis_s": "s",
    "hamiltonians.matrix_s": "s",
    "hamiltonians.spectral_weights_calls": "count",
    "hamiltonians.max_sector_dim": "count",
    "evolution.amplitude_calls": "count",
    "evolution.amplitude_s": "s",
    "evolution.trotter_calls": "count",
    "evolution.trotter_steps": "count",
    "evolution.trotter_s": "s",
    "features.vectors": "count",
    "features.self_s": "s",
    "features.shots_drawn": "count",
    "rng.substream_calls": "count",
    "rng.substream_s": "s",
    "labels.label_calls": "count",
    "labels.self_s": "s",
    "regression.fit_calls": "count",
    "regression.fit_s": "s",
    "pipeline.io_s": "s",
    "pipeline.bytes_read": "B",
    "pipeline.bytes_written": "B",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
}


class _Stats:
    __slots__ = ("calls", "incl", "self", "incl_no_oracle", "entries",
                 "entry_incl")

    def __init__(self):
        self.calls = 0
        self.incl = self.self = self.incl_no_oracle = self.entry_incl = 0.0
        self.entries = 0


class Tracer:
    """Spans of one traced round; create one per round."""

    def __init__(self, vector_len: int, clock=perf_counter):
        """`clock` times the spans; pass one that stops while the
        benchmark's own calibration kernel runs."""
        self.vector_len = vector_len
        self.clock = clock
        self.stats: dict[str, _Stats] = defaultdict(_Stats)
        self.counters: dict[str, int] = defaultdict(int)
        self.wrapped: set[str] = set()
        self._stack: list[list] = []  # one frame per open span
        self._oracle_time = 0.0
        self._undo: list[tuple] = []

    # --- installation ------------------------------------------------

    def install(self) -> None:
        originals = {}
        for short in TRACED_MODULES:
            try:
                mod = importlib.import_module(f"hamfourier.{short}")
            except ImportError:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[obj] = self._wrap(obj, f"{short}.{attr}", short)
                    self.wrapped.add(f"{short}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != "hamfourier" and not modname.startswith("hamfourier."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, attr, originals[obj])
                    self._undo.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    @property
    def absent(self) -> list[str]:
        return [name for name in NAMES if name not in self.wrapped]

    # --- spans -------------------------------------------------------

    @contextmanager
    def span(self, name: str, module: str):
        """A span opened by the benchmark itself, e.g. around one stage."""
        opened = self._open(module)
        try:
            yield
        finally:
            self._close(name, module, *opened)

    def _open(self, module: str):
        parent = self._stack[-1] if self._stack else None
        frame = [module, 0.0]  # the span's module and its children's time
        self._stack.append(frame)
        return parent, frame, self._oracle_time, self.clock()

    def _close(self, name, module, parent, frame, oracle0, t0) -> None:
        dur = self.clock() - t0
        self._stack.pop()
        st = self.stats[name]
        st.calls += 1
        st.incl += dur
        st.self += dur - frame[1]
        if name == ORACLE:
            self._oracle_time += dur
        st.incl_no_oracle += dur - (self._oracle_time - oracle0)
        if parent is None or parent[0] != module:
            st.entries += 1
            st.entry_incl += dur
        if parent is not None:
            parent[1] += dur

    def _wrap(self, fn, name: str, module: str):
        observe = _OBSERVERS.get(name)
        if observe is None and module == "features":
            observe = _count_vectors
        signature = inspect.signature(fn) if observe in _NEED_ARGS else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = tracer._open(module)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, module, *opened)
            if observe is not None:
                parent = opened[0]
                bound = {}
                if signature is not None:
                    try:
                        bound = signature.bind(*args, **kwargs).arguments
                    except TypeError:
                        pass
                is_entry = parent is None or parent[0] != module
                observe(tracer, bound, result, is_entry)
            return result

        return wrapper

    # --- metrics -----------------------------------------------------

    def _layer_self(self, module: str) -> float:
        return sum(st.self for name, st in self.stats.items()
                   if name.split(".", 1)[0] == module)

    def metrics(self, shots_per_vector: int) -> dict[str, float]:
        s = self.stats
        get = lambda name: s[name] if name in s else _Stats()  # noqa: E731
        fits = [get(n) for n in FITS]
        io = [get(n) for n in IO]
        vectors = self.counters["features.vectors"]
        return {
            "hamiltonians.eigh_calls": get(ORACLE).calls,
            "hamiltonians.eigh_s": get(ORACLE).self,
            "hamiltonians.basis_calls": get("hamiltonians.sector_states").calls,
            "hamiltonians.basis_s": get("hamiltonians.sector_states").incl,
            "hamiltonians.matrix_s": get("hamiltonians.sector_matrix").incl,
            "hamiltonians.spectral_weights_calls":
                get("hamiltonians.spectral_weights").calls,
            "hamiltonians.max_sector_dim": self.counters["max_sector_dim"],
            "evolution.amplitude_calls": get("evolution.amplitude").calls,
            "evolution.amplitude_s": get("evolution.amplitude").incl_no_oracle,
            "evolution.trotter_calls": get("evolution.trotter_evolve").calls,
            "evolution.trotter_steps": self.counters["trotter_steps"],
            "evolution.trotter_s": get("evolution.trotter_evolve").incl,
            "features.vectors": vectors,
            "features.self_s": self._layer_self("features"),
            "features.shots_drawn": vectors * shots_per_vector,
            "rng.substream_calls": get("rng.substream").calls,
            "rng.substream_s": get("rng.substream").incl,
            "labels.label_calls": get("labels.label").calls,
            "labels.self_s": self._layer_self("labels"),
            "regression.fit_calls": sum(st.calls for st in fits),
            "regression.fit_s": sum(st.entry_incl for st in fits),
            "pipeline.io_s": sum(st.incl for st in io),
            "pipeline.bytes_read": self.counters["bytes_read"],
            "pipeline.bytes_written": self.counters["bytes_written"],
            "pipeline.self_s": self._layer_self("pipeline"),
        }

    def table(self) -> dict[str, dict]:
        """Every span name with its counts and times, for the run report."""
        return {name: {"calls": st.calls, "entries": st.entries,
                       "incl_s": st.incl, "self_s": st.self}
                for name, st in sorted(self.stats.items())}


# --- observers: counts read from arguments and results --------------------

def _observe_sector_states(tracer, args, result, is_entry):
    dim = getattr(result, "dim", None)
    if isinstance(dim, int):
        tracer.counters["max_sector_dim"] = max(tracer.counters["max_sector_dim"], dim)


def _observe_trotter(tracer, args, result, is_entry):
    tracer.counters["trotter_steps"] += int(args.get("n_step", 0))


def _observe_write(tracer, args, result, is_entry):
    text = args.get("text")
    if isinstance(text, str):
        tracer.counters["bytes_written"] += len(text.encode())


def _count_read(tracer, args, result, is_entry):
    path = args.get("path")
    if path is None:
        return
    try:
        tracer.counters["bytes_read"] += os.path.getsize(path)
    except OSError:
        pass


def _count_vectors(tracer, args, result, is_entry):
    """Feature vectors leaving the features layer: rows of the real arrays
    of length 2K+1 returned by calls into it from another layer."""
    shape = getattr(result, "shape", None)
    if not is_entry or not shape or shape[-1] != tracer.vector_len:
        return
    if getattr(result, "dtype", None) is None or result.dtype.kind != "f":
        return
    tracer.counters["features.vectors"] += 1 if len(shape) == 1 else shape[0]


_OBSERVERS = {
    "hamiltonians.sector_states": _observe_sector_states,
    "evolution.trotter_evolve": _observe_trotter,
    "pipeline.atomic_write": _observe_write,
    "pipeline.read_dataset": _count_read,
    "pipeline.read_features": _count_read,
}
_NEED_ARGS = (_observe_trotter, _observe_write, _count_read)
