"""Run-time span tracing of the mmdrl layers, installed from outside.

The program's source is not touched. ``install`` replaces every public
function of the nine mmdrl modules with a timing wrapper at each place
the function object is bound (its own module, every ``from .x import f``
site and the package namespace), and wraps the public methods and
``__init__`` of their classes on the class itself. Lazy imports inside
function bodies read the module attribute at call time, so they see the
wrapper too.

Spans are aggregated in memory per name: calls, total seconds, self
seconds (duration minus the time covered by child spans) and a few work
counts read from arguments and return values. ``Tracer.snapshot`` hands
them to the caller, which writes them out when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = (
    "kernels",
    "measures",
    "mdp",
    "projections",
    "dp",
    "td",
    "evaluation",
    "experiments",
    "cli",
)


# Work counts per span, read from its bound arguments and its result, each
# as (value, "sum" | "max"). Every count repeats exactly for a fixed config
# and seed.
COUNTERS = {
    "projections.solve_simplex_qp": lambda args, r: {
        "iterations": (r.iterations, "sum"),
        "kkt_max": (r.kkt_residual, "max"),
    },
    "projections.solve_simplex_qp_batch": lambda args, r: {
        "iterations": (r[2], "sum"),
        "kkt_max": (float(max(r[1], default=0.0)), "max"),
    },
    "dp.categorical_dp_solve": lambda args, r: {
        "sweeps": (r.iterations, "sum"),
        "unconverged": (int(not r.converged), "sum"),
    },
    "td.categorical_td_run": lambda args, r: {"steps": (int(args["steps"]), "sum")},
    # Pairs of atoms the O(n^2) path would visit, computed from the shape.
    "kernels.signed_energy_sum": lambda args, r: {
        "pairs": (int(args["atoms"].shape[0]) ** 2, "sum")
    },
    "mdp.rollout_returns": lambda args, r: {
        "chain_steps": (int(args["n"]) * int(args["horizon"]), "sum")
    },
}


class Tracer:
    """In-memory span aggregator; one per process."""

    def __init__(self):
        self.stats = {}
        self._stack = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
        )
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                covered = stack.pop()
                if stack:
                    stack[-1] += duration
                stats["calls"] += 1
                stats["total_s"] += duration
                stats["self_s"] += duration - covered
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = stats["counts"]
                for key, (value, how) in counter(bound.arguments, result).items():
                    if how == "max":
                        counts[key] = max(counts.get(key, value), value)
                    else:
                        counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def snapshot(self) -> dict:
        return {
            name: {
                "calls": st["calls"],
                "total_s": st["total_s"],
                "self_s": st["self_s"],
                **st["counts"],
            }
            for name, st in self.stats.items()
        }


def _wrap_class(tracer: Tracer, prefix: str, cls) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        name = f"{prefix}.{cls.__name__}.{attr}"
        if isinstance(member, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, member.__func__)))
        elif isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, member.__func__)))
        elif inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(name, member))


def install(tracer: Tracer) -> None:
    """Wrap the public API of every mmdrl module; call before ``cli.main``."""
    package = importlib.import_module("mmdrl")
    modules = {short: importlib.import_module(f"mmdrl.{short}") for short in MODULES}
    namespaces = [package, *modules.values()]
    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, short, obj)
            elif inspect.isfunction(obj):
                traced = tracer.wrap(f"{short}.{attr}", obj)
                for namespace in namespaces:
                    for bound_name, value in list(vars(namespace).items()):
                        if value is obj:
                            setattr(namespace, bound_name, traced)
