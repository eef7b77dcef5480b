"""Outside-in layer tracing: wrap tdual's public functions, keep spans in memory.

Every public module-level function of the span layers is replaced, in every
tdual module namespace that binds it (and in cli.COMMANDS), by a wrapper
that records a span (function, start, end, parent span, op id).  A layer's
self time is the time its spans cover minus the time their child spans
cover.  The lca layer and linops.snap_phase are hot (about 1e5 calls per
op), so they are only counted.  Work the tracer itself does after a call
(hashing matrices, measuring sizes) is recorded as a child span of its own
and so never lands in a layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

SPAN_LAYERS = ("cli", "triples", "crossed", "groupcoh", "cech", "zmodlin")
# tiny helpers called inside the Smith loop; their time stays in smith_form
NOT_WRAPPED = {"zmodlin.xgcd", "zmodlin.inv_mod"}
TRACER = "trace.self"


class Tracer:
    def __init__(self):
        self.on = False
        self.op = -1
        self.names: list[str] = []
        self.spans: list = []       # (fid, start, end, parent, op, nested_in_same_fn)
        self.stack: list[int] = []
        self.depth: dict[int, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.seen: dict[str, set] = defaultdict(set)
        self._restore: list = []
        self.tracer_fid = self._fid(TRACER)

    def _fid(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # -- op boundaries -----------------------------------------------------
    def begin_op(self, op: int) -> None:
        self.op = op
        self.seen.clear()
        self.on = True

    def end_op(self) -> None:
        self.on = False

    # -- wrappers ----------------------------------------------------------
    def _span(self, fn, name: str, extra=None):
        fid = self._fid(name)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            stack, spans, depth = tr.stack, tr.spans, tr.depth
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            depth[fid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[fid] -= 1
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, tr.op, depth[fid] > 0)
            if extra is not None:
                extra(args, result)
                spans.append((tr.tracer_fid, t1, perf_counter(), parent, tr.op, False))
            return result
        return wrapper

    def _count(self, fn, key: str, extra=None):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tr.on:
                tr.counters[key] += 1
                if extra is not None:
                    extra(args, result)
            return result
        return wrapper

    def _repeat(self, key: str, arr: np.ndarray, tag) -> None:
        h = hash((arr.shape, tag, np.ascontiguousarray(arr).tobytes()))
        if h in self.seen[key]:
            self.counters[key + ".repeats"] += 1
        self.seen[key].add(h)

    def _d_group_extra(self, args, result):
        self.counters["groupcoh.d_group.cells"] += result.values.size

    def _total_matrix_extra(self, args, result):
        self.counters["groupcoh.total_matrix.cols"] += result.shape[1]
        self._repeat("groupcoh.total_matrix", result, None)

    def _smith_extra(self, args, result):
        A, m = np.asarray(args[0]), int(args[1])
        self.counters["zmodlin.smith_form.cells"] += A.size
        self.counters["zmodlin.smith_form.max_dim"] = max(
            self.counters["zmodlin.smith_form.max_dim"], max(A.shape, default=0))
        self._repeat("zmodlin.smith_form", np.asarray(A, dtype=np.int64) % m, m)

    def _snap_extra(self, args, k):
        s, m = complex(args[0]), int(args[1])
        err = abs(s - np.exp(2j * np.pi * k / m)) / (math.pi / m)
        self.counters["linops.snap_phase.worst_err_ratio"] = max(
            self.counters["linops.snap_phase.worst_err_ratio"], err)

    def install(self) -> None:
        """Patch every tdual namespace; undone by uninstall()."""
        mods = {name: sys.modules[name] for name in list(sys.modules)
                if name == "tdual" or name.startswith("tdual.")}
        extras = {
            "groupcoh.d_group": self._d_group_extra,
            "groupcoh.total_matrix": self._total_matrix_extra,
            "zmodlin.smith_form": self._smith_extra,
        }
        replace = {}
        for layer in SPAN_LAYERS:
            mod = mods["tdual." + layer]
            for name, obj in vars(mod).items():
                full = f"{layer}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and full not in NOT_WRAPPED):
                    replace[id(obj)] = self._span(obj, full, extras.get(full))
        lca, linops = mods["tdual.lca"], mods["tdual.linops"]
        replace[id(lca.pairing)] = self._count(lca.pairing, "lca.pairing.calls")
        replace[id(linops.snap_phase)] = self._count(
            linops.snap_phase, "linops.snap_phase.calls", self._snap_extra)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._set(mod, name, obj, replace[id(obj)])
        cls = lca.FiniteLcaGroup
        self._set(cls, "add", cls.add, self._count(cls.add, "lca.group_add.calls"))
        commands = mods["tdual.cli"].COMMANDS
        saved = dict(commands)
        self._restore.append(lambda: commands.update(saved))
        commands.update({k: tuple(replace.get(id(f), f) for f in fns)
                         for k, fns in saved.items()})

    def _set(self, owner, name, old, new) -> None:
        self._restore.append(lambda: setattr(owner, name, old))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    # -- analysis ----------------------------------------------------------
    def summarize(self, ops: int, op_wall: float) -> dict:
        """Per-op layer metrics from the recorded spans and counters."""
        n = len(self.spans)
        child = [0.0] * n
        for fid, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        fn = defaultdict(lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
        layer_self = defaultdict(float)
        for i, (fid, t0, t1, _, _, nested) in enumerate(self.spans):
            if fid == self.tracer_fid:
                continue
            name = self.names[fid]
            self_s = (t1 - t0) - child[i]
            stats = fn[name]
            stats["self_s"] += self_s
            stats["calls"] += 1
            if not nested:
                stats["incl_s"] += t1 - t0
            layer_self[name.split(".")[0]] += self_s
        out = {}
        for name, stats in fn.items():
            for key, value in stats.items():
                out[f"{name}.{key}"] = value / ops
        for layer in SPAN_LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / ops
        c = self.counters
        for key in ("groupcoh.d_group.cells", "groupcoh.total_matrix.cols",
                    "zmodlin.smith_form.cells", "lca.pairing.calls",
                    "lca.group_add.calls", "linops.snap_phase.calls"):
            out[key] = c[key] / ops
        out["zmodlin.smith_form.max_dim"] = c["zmodlin.smith_form.max_dim"]
        out["linops.snap_phase.worst_err_ratio"] = c["linops.snap_phase.worst_err_ratio"]
        for key in ("groupcoh.total_matrix", "zmodlin.smith_form"):
            calls = fn[key]["calls"] if key in fn else 0
            out[key + ".repeat_ratio"] = c[key + ".repeats"] / calls if calls else 0.0
        out["trace.coverage"] = sum(layer_self.values()) / op_wall if op_wall else 0.0
        return out

    def dump(self, path: str) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "functions": self.names,
                "fields": ["function", "start_us", "end_us", "parent", "op"],
                "spans": [[fid, round((t0 - base) * 1e6), round((t1 - base) * 1e6),
                           parent, op] for fid, t0, t1, parent, op, _ in self.spans],
            }, fh, separators=(",", ":"))
