"""Span-stack tracer that wraps advisc's layer functions from outside the package.

Every public function of the traced modules is replaced by a wrapper at each
module attribute that binds it, so calls through ``from .schemes import
ftcs_step`` in other modules are seen too. The frozen field containers are
traced through their ``__post_init__``. Spans are aggregated per name in
memory (a paper-presets pass opens about 730k of them), keeping call count,
inclusive time, self time (inclusive minus the time covered by child spans)
and work done. Calls and failures of a few spans nested in a given ancestor
are counted too. ``remove()`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

TRACED_MODULES = ("grid", "schemes", "adjoint", "optimizer", "diagnostics", "runio", "cli")
CONTAINERS = ("CellField", "FaceViscosity", "SpaceTimeViscosity")
CONTAINER_SPAN = "grid.containers"
# Called once per CSV value; its cost stays inside the writer spans.
UNTRACED = {"runio.fmt"}
# (ancestor, span) pairs whose nested calls and failures are counted.
WATCHED = (
    ("optimizer.train_per_step", "adjoint.grad_mu_instantaneous"),
    ("optimizer.train_global", "schemes.simulate"),
    ("optimizer.train_global", "adjoint.grad_mu_global"),
)
_MARK = "__bench_traced__"


class Stat:
    __slots__ = ("calls", "total", "self_time", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.work = 0


def _cells(args, kwargs) -> int:
    u = args[0] if args else kwargs["u"]
    return u.values.shape[0]


def _first_path_bytes(args, kwargs) -> int:
    return os.stat(args[0] if args else kwargs["path"]).st_size


def _manifest_bytes(args, kwargs) -> int:
    from advisc.runio import MANIFEST_NAME

    directory = args[0] if args else kwargs["directory"]
    return os.stat(os.path.join(directory, MANIFEST_NAME)).st_size


# Per-span work counters, evaluated after the span closes (outside its time):
# cells stepped by the kernel, and bytes of the file each leaf reader or
# writer touched (read_manifest delegates to read_json, so it counts none).
WORK = {
    "schemes.ftcs_step": _cells,
    "runio.write_manifest": _manifest_bytes,
}
for _name in ("write_matrix_csv", "write_series_csv", "write_columns_csv", "write_json",
              "read_matrix_csv", "read_series_csv", "read_columns_csv", "read_json"):
    WORK["runio." + _name] = _first_path_bytes


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.nested: dict[tuple[str, str], list[int]] = {pair: [0, 0] for pair in WATCHED}
        self._children: list[float] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        children = self._children
        active = self._active
        watched = [(anc, self.nested[(anc, span)]) for anc, span in WATCHED if span == name]
        work = WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            active[name] = active.get(name, 0) + 1
            failed = False
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = clock() - t0
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                active[name] -= 1
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - inner
                for ancestor, counts in watched:
                    if active.get(ancestor):
                        counts[0] += 1
                        counts[1] += failed
                if work is not None and not failed:
                    stat.work += work(args, kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function at every advisc module attribute bound to it."""
        import advisc.cli  # noqa: F401  (loads every traced module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "advisc" or n.startswith("advisc."))]
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            module = sys.modules["advisc." + short]
            for attr, fn in vars(module).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[id(fn)] = self._wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        grid = sys.modules["advisc.grid"]
        for cls_name in CONTAINERS:
            cls = getattr(grid, cls_name)
            self._patch(cls, "__post_init__", self._wrap(CONTAINER_SPAN, cls.__post_init__))

    def report(self) -> dict:
        """Per-span totals and the watched nested counts, as JSON-ready data."""
        return {
            "spans": {name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time,
                             "work": s.work}
                      for name, s in self.stats.items()},
            "nested": [[a, b, *counts] for (a, b), counts in self.nested.items()],
        }

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def wrappers_left() -> list[str]:
    """Names of advisc attributes that are still tracer wrappers."""
    left = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "advisc" or name.startswith("advisc.")):
            continue
        for attr, value in vars(module).items():
            if getattr(value, _MARK, False):
                left.append(f"{name}.{attr}")
            if inspect.isclass(value) and getattr(value.__dict__.get("__post_init__"), _MARK, False):
                left.append(f"{name}.{attr}.__post_init__")
    return left
