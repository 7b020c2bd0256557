"""Outside-in span tracing of the cliquerep package.

`Tracer.install` replaces every public function of `cliquerep.__all__`, and
`cli.run`, wherever that function object is bound in a `cliquerep.*` module
namespace, with a timing wrapper. Calls the package makes through those
names (the sweep's calls to `greedy_decomposition`, `represent`'s calls to
`validate_partition`) are therefore attributed too. A sweep makes millions
of boundary calls, so spans are aggregated per (name, parent) as call count,
total time, time covered by child spans, failures and a work counter (input
characters for the parsers, items for generators); self time is total minus
children.
"""

from __future__ import annotations

import inspect
import sys
import types
from time import perf_counter

PARSERS = ("graphs.parse_edge_list", "graphs.parse_graph6")


class Tracer:
    def __init__(self) -> None:
        #: (name, parent name or None) -> [calls, total_s, child_s, failed, work]
        self.stats: dict[tuple[str, str | None], list] = {}
        self._stack: list[list] = []

    def _record(self, name, parent, dt, child, failed, work) -> None:
        rec = self.stats.get((name, parent))
        if rec is None:
            rec = self.stats[(name, parent)] = [0, 0.0, 0.0, 0, 0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += child
        rec[3] += failed
        rec[4] += work

    def wrap(self, fn, name: str):
        stack, record = self._stack, self._record
        counts_input = name in PARSERS

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            failed = 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                record(name, parent, dt, frame[1], failed,
                       len(args[0]) if counts_input and args else 0)

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name: str):
        """Each resumption of the generator is one span; work counts items."""
        stack, record = self._stack, self._record

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                parent = stack[-1][0] if stack else None
                frame = [name, 0.0]
                stack.append(frame)
                failed, produced = 1, 0
                t0 = perf_counter()
                try:
                    item = next(gen)
                    failed, produced = 0, 1
                except StopIteration:
                    failed = 0
                    return
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dt
                    record(name, parent, dt, frame[1], failed, produced)
                yield item

        traced.__wrapped__ = fn
        return traced

    def install(self) -> int:
        """Wrap the package's public functions; returns how many bindings
        were replaced."""
        import cliquerep
        import cliquerep.cli

        targets = {cliquerep.cli.run: "cli.run"}
        for public in cliquerep.__all__:
            obj = getattr(cliquerep, public)
            if isinstance(obj, types.FunctionType):
                targets[obj] = f"{obj.__module__.rsplit('.', 1)[-1]}.{public}"
        wrappers = {
            fn: (self.wrap_generator if inspect.isgeneratorfunction(fn) else self.wrap)(fn, name)
            for fn, name in targets.items()
        }
        replaced = 0
        for modname, module in list(sys.modules.items()):
            if modname != "cliquerep" and not modname.startswith("cliquerep."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    replaced += 1
        return replaced

    def export(self) -> list[dict]:
        return [{"name": name, "parent": parent, "calls": c, "total_s": t,
                 "child_s": ch, "failed": f, "work": w}
                for (name, parent), (c, t, ch, f, w) in sorted(
                    self.stats.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))]


def totals(spans: list[dict], name: str, parent: str | None = ...) -> dict:
    """Sum the span records of one name, optionally under one parent."""
    out = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0, "work": 0}
    for s in spans:
        if s["name"] == name and (parent is ... or s["parent"] == parent):
            out["calls"] += s["calls"]
            out["total_s"] += s["total_s"]
            out["self_s"] += s["total_s"] - s["child_s"]
            out["failed"] += s["failed"]
            out["work"] += s["work"]
    return out
