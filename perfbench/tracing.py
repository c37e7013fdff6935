"""Spans around the public calls a job makes into each semijulia module.

The wrappers replace names as they are bound in ``semijulia.cli`` and
``semijulia.verify`` (and the entries of ``verify.CRITERIA``); nothing in the
package itself changes.  Spans (name, start, end, parent, run id, counts)
stay in memory until the job writes them out at exit.  ``preimages`` is
deliberately not wrapped: it is called once per chain step, and the
``ratmap`` layer is measured by a separate probe instead.
"""
from __future__ import annotations

import functools
import inspect
import time

# Public functions as bound in semijulia.cli / semijulia.verify.
TRACED = (
    "parse_config",
    "execute_run",
    "validate_assumptions",
    "run_chains",
    "full_backward_tree",
    "full_tree_grid",
    "bin_cloud",
    "check_invariance",
    "hausdorff_distance",
    "total_variation",
    "grid_to_text",
    "render_density",
    "write_image",
)
# Calls whose arguments and results the output checks read; these are
# wrapped (without timing) in untraced jobs too.
CAPTURED = ("run_chains",)


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _check_invariance_atoms(a, result) -> dict:
    n = len(a["cloud"])
    atoms = min(n, a["max_atoms"]) if a["rng"] is not None else n
    return {"atoms": atoms, "generators": len(a["sg"].generators)}


def _grid_counts(result) -> dict:
    return {"mass": result.total_mass, "outside": result.outside_mass}


# Work counts per call, computed from the bound arguments and the result.
COUNTS = {
    "run_chains": lambda a, r: {"steps": a["n_per_chain"] * a["n_chains"]},
    "full_backward_tree": lambda a, r: {"atoms": len(r)},
    "full_tree_grid": lambda a, r: {
        "atoms": a["sg"].total_degree ** a["depth"],
        **_grid_counts(r),
    },
    "bin_cloud": lambda a, r: {"atoms": len(a["cloud"]), **_grid_counts(r)},
    "check_invariance": _check_invariance_atoms,
    "grid_to_text": lambda a, r: {"bytes": len(r)},
    "render_density": lambda a, r: {"bytes": len(r)},
    "criterion": lambda a, r: {
        "elapsed": r.elapsed,
        "budget": r.budget,
        "passed": int(r.passed),
    },
}


class Tracer:
    """Records spans when ``timed``; always keeps the captured calls."""

    def __init__(self, run_id: str, timed: bool) -> None:
        self.run_id = run_id
        self.timed = timed
        self.spans: list[dict] = []
        self.captured: dict[str, list[tuple[dict, object]]] = {}
        self._stack: list[int] = []

    def install(self, cli, verify) -> None:
        names = TRACED if self.timed else CAPTURED
        for module in (cli, verify):
            for name in names:
                if hasattr(module, name):
                    setattr(module, name, self._wrap(getattr(module, name), name))
        for i, (cname, fn) in enumerate(verify.CRITERIA):
            verify.CRITERIA[i] = (
                cname,
                self._wrap(fn, "criterion", span_name=f"verify.{cname}"),
            )

    def _wrap(self, fn, key: str, span_name: str | None = None):
        if span_name is None:
            span_name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        sig = inspect.signature(fn)
        count = COUNTS.get(key)
        capture = key in CAPTURED or key == "criterion"

        def bound(args, kwargs) -> dict:
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return dict(b.arguments)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.timed:
                result = fn(*args, **kwargs)
                if capture:
                    self.captured.setdefault(key, []).append((bound(args, kwargs), result))
                return result
            span = {
                "id": len(self.spans),
                "name": span_name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = now()
                self._stack.pop()
            if count or capture:
                arguments = bound(args, kwargs)
                if count:
                    span["counts"] = count(arguments, result)
                if capture:
                    self.captured.setdefault(key, []).append((arguments, result))
            return result

        return wrapper


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover (children of
    one span never overlap: a job runs on one thread)."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
