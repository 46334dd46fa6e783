"""Spans around the calls into each mimo_asympt module, recorded from outside.

`install` replaces every public function of the library modules (and
`Scenario.build_pair`) by a timing wrapper, in every module namespace that
holds it, so calls between modules are caught as well as calls from the CLI.
Spans are kept in memory; the worker turns them into per-layer metrics.
Nothing inside the program changes: the wrappers call the originals.
"""

import functools
import inspect
import os
import time
from typing import NamedTuple, Optional

LAYERS = ("scenario", "channel", "mmse", "asymptotics", "covariance", "gaussian", "montecarlo")


class Span(NamedTuple):
    phase: object      # which verb call or probe the span belongs to
    name: str          # "<layer>.<function>"
    depth: int         # 0 for a call made by the CLI or the probe itself
    seconds: float
    extra: Optional[tuple]


def _extra_run_trials(args, kwargs, out):
    workers = kwargs.get("n_workers") or int(os.environ.get("MIMO_ASYMPT_THREADS", "0") or 0)
    return (out.n_trials, workers or os.cpu_count())


def _extra_fixed_point(args, kwargs, out):
    return (out.iterations,)


_EXTRA = {
    "montecarlo.run_trials": _extra_run_trials,
    "asymptotics.solve_fixed_point": _extra_fixed_point,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = None
        self.last_summary = None
        self._depth = 0

    def _wrap(self, name, fn):
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = self._depth
            self._depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                self._depth = depth
            if name == "montecarlo.run_trials":
                self.last_summary = out
            self.spans.append(Span(self.phase, name, depth, seconds,
                                   extra(args, kwargs, out) if extra else None))
            return out

        return traced

    def install(self):
        import importlib

        mods = {layer: importlib.import_module(f"mimo_asympt.{layer}") for layer in LAYERS}
        namespaces = list(mods.values()) + [importlib.import_module("mimo_asympt.cli")]
        for layer, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    if ns.__dict__.get(attr) is fn:
                        setattr(ns, attr, wrapped)
        scenario_cls = mods["scenario"].Scenario
        scenario_cls.build_pair = self._wrap("scenario.Scenario.build_pair",
                                             scenario_cls.build_pair)

    def of(self, phase, name=None):
        return [s for s in self.spans if s.phase == phase and (name is None or s.name == name)]
