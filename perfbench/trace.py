"""Span recorder for the traced pass.

Every public function (and public method of a public class) defined in a
`cot_lab` module is wrapped in a span, and the wrapper is bound at every
module namespace that held the original, so calls made through
`from .numkit import ...` are caught too. Nothing in the library changes.

A span records its name, start, end and the span that was open on the same
thread when it began. Spans sit in flat arrays in memory and are written out
once, when the traced pass ends. Self time is a span's duration minus the
durations of its child spans; inclusive time counts only the outermost span
of each name, so recursion is not counted twice.
"""

import functools
import importlib
import inspect
import itertools
import threading
import time
from array import array

import numpy as np

MODULES = ("numkit", "infokit", "binary_case", "gaussian_case",
           "hybrid_bound", "block_sim", "tables", "cli")


def _sim_tag(args, kwargs):
    return {"samples": args[-1].samples}


def _block_tag(args, kwargs):
    cfg, sim = args
    return {"n": cfg.n, "codebooks": cfg.codebooks, "samples": sim.samples}


# spans whose arguments the per-layer metrics need, and how to read them
TAGS = {"block_sim.sim_uncoded_binary": _sim_tag,
        "block_sim.sim_uncoded_gaussian": _sim_tag,
        "block_sim.sim_genie_hybrid_binary": _sim_tag,
        "block_sim.sim_block_hybrid": _block_tag}


class Recorder:
    """Holds the spans of one traced pass and their per-name totals."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = itertools.count(1)
        self.span_id = array("q")
        self.parent = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls, self.incl_s, self.self_s = [], [], []
        self.tags = {}
        self._restore = []

    def _name(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl_s.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.depth = [], {}
        return local

    def wrap(self, name, fn):
        nid = self._name(name)
        tag = TAGS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            local = self._thread()
            stack, depth = local.stack, local.depth
            sid = next(self._next)
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            depth[nid] = depth.get(nid, 0) + 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                info = tag(args, kwargs) if tag else None
                stack.pop()
                depth[nid] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                with self._lock:
                    self.span_id.append(sid)
                    self.parent.append(parent)
                    self.name_id.append(nid)
                    self.start.append(t0)
                    self.end.append(t1)
                    self.calls[nid] += 1
                    self.self_s[nid] += dur - frame[1]
                    if depth[nid] == 0:
                        self.incl_s[nid] += dur
                    if info is not None:
                        self.tags[sid] = (nid, dur, info)
        return span

    def install(self):
        """Wrap the public functions of every module and rebind them."""
        mods = {m: importlib.import_module(f"cot_lab.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._rebind(obj, meth, self.wrap(
                                f"{short}.{attr}.{meth}", fn))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(mod, attr, wrapped[obj])
        return mods["cli"]

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def save(self, path):
        """Write every span and the name table to one .npz file."""
        np.savez(path, span_id=np.frombuffer(self.span_id, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 names=np.array(self.names))

    def table(self):
        """Per-function calls, inclusive and self seconds, for called ones."""
        return {name: {"calls": self.calls[i], "incl_s": self.incl_s[i],
                       "self_s": self.self_s[i]}
                for i, name in enumerate(self.names) if self.calls[i]}

    def module_self(self, module):
        return sum(s for name, s in zip(self.names, self.self_s)
                   if name.split(".")[0] == module)

    def tagged(self, name):
        """(duration, info) of every tagged span of one name, in order."""
        nid = self._ids[name]
        return [(dur, info) for _, (i, dur, info) in sorted(self.tags.items())
                if i == nid]
