"""Per-layer tracing of lccn_lab from outside the package.

The package binds most cross-module calls with `from .x import y`, so a
caller looks a function up in its own module's namespace (for example
`lccn_lab.trainers.gibbs_sample_batch`). Patching only the defining module
would record nothing; the tracer therefore replaces every binding of a
traced function in every loaded lccn_lab module, and restores them on exit.

A span's busy time is its whole duration; its self time is the busy time
minus the busy time of traced calls made inside it.
"""

from __future__ import annotations

import functools
import sys
import time

# (defining module, function, extra work counter or None). The extra counter
# reads the work size from the call's positional arguments.
TRACED = (
    ("sampler", "gibbs_sample_batch", ("draws", lambda args: len(args[0]))),
    ("noise_model", "update_bound", None),
    ("noise_model", "transition_from_counts", None),
    ("classifier", "sgd_step", None),
    ("classifier", "sgd_step_soft", None),
    ("classifier", "apply_gradients", None),
    ("classifier", "pretrain_ce", None),
    ("classifier", "forward_proba", ("rows", lambda args: len(args[1]))),
    ("trainers", "run_trainer", None),
    ("trainers", "_composed_loss_grads", None),
    ("metrics", "test_accuracy", None),
    ("metrics", "correction_ratio", None),
    ("metrics", "write_metrics_csv", None),
    ("datagen", "make_gaussian_mixture", None),
    ("datagen", "apply_noise", None),
    ("cli", "run_experiment", None),
)


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.work = 0


class Tracer:
    """Context manager that times every function in TRACED while it is active."""

    def __init__(self) -> None:
        self.stats = {f"{mod}.{fn}": _Stat() for mod, fn, _ in TRACED}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn, counter):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.calls += 1
                stat.busy += elapsed
                stat.self_time += elapsed - children
                if counter is not None:
                    stat.work += counter(args)
                if stack:
                    stack[-1] += elapsed

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "lccn_lab"]
        for mod_name, fn_name, extra in TRACED:
            original = getattr(sys.modules[f"lccn_lab.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, extra and extra[1])
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def counts(self) -> dict[str, int]:
        """Call and work counts, which must repeat exactly from round to round."""
        out = {}
        for mod_name, fn_name, extra in TRACED:
            key = f"{mod_name}.{fn_name}"
            out[f"{key}.calls"] = self.stats[key].calls
            if extra is not None:
                out[f"{key}.{extra[0]}"] = self.stats[key].work
        return out

    def times(self) -> dict[str, float]:
        out = {}
        for key, stat in self.stats.items():
            out[f"{key}.busy_s"] = stat.busy
            out[f"{key}.self_s"] = stat.self_time
        return out
