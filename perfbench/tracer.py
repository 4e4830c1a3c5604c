"""Spans around calls into fibtree's public functions, installed from outside.

`from .goldring import fib` gives every importing module its own binding,
so each wrapped function is replaced in every fibtree module namespace
that binds it, and the three methods on their classes.  A span records
its name, start, end and the span that was open when it began.  Counts
and self time (duration minus the time covered by child spans) are kept
for every span; the first spans to start are kept in memory up to a cap
and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from array import array
from time import perf_counter_ns

# Functions and methods traced, by defining module.
TARGETS = {
    "goldring": ("fib", "gold_sign", "phi_pow", "MapWord.apply"),
    "wythoff": ("u", "v", "u_inverse", "FibSeq.term", "reference_index"),
    "fibword": ("letter_at", "u_count"),
    "tree": ("FibTree.lo", "node_label", "parent_label", "build_levels"),
    "algebra": ("tree_sum",),
    "represent": ("classify", "find_sequence", "find_interval_level", "count_occurrences"),
    "order": ("is_subtree", "self_containment", "least_upper_bound"),
    "warray": ("wythoff_array", "hofstadter_g"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
SPAN_CAP = 200_000


def fibtree_modules() -> list:
    import fibtree

    names = [m.name for m in pkgutil.iter_modules(fibtree.__path__) if m.name != "__main__"]
    return [fibtree] + [importlib.import_module(f"fibtree.{n}") for n in names]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.dropped = 0
        self._next_id = 0
        # Open spans: [span id, nanoseconds covered by finished children].
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        idx = self._name_id(name)
        calls, self_ns, stack = self.calls, self.self_ns, self._stack

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_ns[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if sid < SPAN_CAP:
                    self.span_id.append(sid)
                    self.span_name.append(idx)
                    self.span_parent.append(parent)
                    self.span_start.append(t0)
                    self.span_end.append(t1)
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target in every fibtree namespace that binds it."""
        modules = fibtree_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod_name, fns in TARGETS.items():
            home = by_name[mod_name]
            for fn_name in fns:
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    self._replace(cls, meth, self.wrap(f"{mod_name}.{fn_name}", getattr(cls, meth)))
                    continue
                orig = getattr(home, fn_name)
                wrapped = self.wrap(f"{mod_name}.{fn_name}", orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._replace(m, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        return {n: (self.calls[i], self.self_ns[i] / 1e9) for i, n in enumerate(self.names)}

    def write_spans(self, path) -> None:
        """One JSON line per kept span, in order of completion, with its parent's id (-1 for none).

        Spans are kept by start order, so every kept span's parent is kept too.
        """
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans_kept": len(self.span_name), "spans_dropped": self.dropped}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(
                    json.dumps(
                        {
                            "id": self.span_id[i],
                            "name": self.names[self.span_name[i]],
                            "parent": self.span_parent[i],
                            "start_ns": self.span_start[i],
                            "end_ns": self.span_end[i],
                        }
                    )
                    + "\n"
                )
