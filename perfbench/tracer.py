"""In-memory call tracing of surfrep's layers, installed from outside the package.

``Tracer.install`` wraps every public function of the five layer modules and
every public method of ``LieGroupModel``, at each module attribute that names
the function: ``surfrep.cohomology.fox_derivative`` is wrapped as well as
``surfrep.words.fox_derivative``, so calls between modules are seen too. Each
call becomes a span (name, parent span, start and end in ns, raised or not)
in flat arrays; self time and call counts are computed from the spans after
the run, and ``write`` saves them. ``uninstall`` restores every attribute.
"""

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("words", "groups", "holonomy", "cohomology", "reduction")
ROOT = "bench.job"


class Tracer:
    def __init__(self):
        self.names = []
        # span 0 is a sentinel parent for top-level spans
        self.name = array("q", [0])
        self.parent = array("q", [0])
        self.start = array("q", [0])
        self.end = array("q", [0])
        self.raised = bytearray(1)
        self.fox_letters = 0
        self._stack = [0]
        self._patches = []

    def wrap(self, label, fn):
        """Return fn recording one span named label per call."""
        nid = len(self.names)
        self.names.append(label)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        raised, stack, clock = self.raised, self._stack, time.perf_counter_ns
        count_letters = label == "words.fox_derivative"

        def traced(*args, **kwargs):
            if count_letters:
                word = args[0] if args else kwargs["w"]
                self.fox_letters += len(word)
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            raised.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self, extra_modules=()):
        """Wrap the layers' public functions at every surfrep module attribute
        and every attribute of extra_modules that names them. The wrappers are
        made on the first call; later calls reinstall the same ones."""
        if not self._patches:
            self._patches = self._plan(extra_modules)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _plan(self, extra_modules):
        from surfrep.groups import LieGroupModel

        patches = []
        for attr, obj in list(vars(LieGroupModel).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                patches.append((LieGroupModel, attr, obj, self.wrap(f"groups.{attr}", obj)))
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"surfrep.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "surfrep" or n.startswith("surfrep.")]
        for module in modules + list(extra_modules):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((module, attr, obj, wrappers[obj]))
        return patches

    def summary(self):
        """Calls and raised calls per span name, self seconds per layer, total
        root (job) seconds, and algebra_to_matrix calls made under a holonomy span."""
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = np.bincount(parent[1:], weights=dur[1:], minlength=len(dur))
        self_ns = dur - child
        layer_of = [label.split(".")[0] for label in self.names]
        layers = sorted(set(layer_of))
        layer_index = np.array([layers.index(layer) for layer in layer_of], dtype=np.int64)
        span_layer = layer_index[name[1:]]
        self_s = np.bincount(span_layer, weights=self_ns[1:], minlength=len(layers)) / 1e9
        calls = np.bincount(name[1:], minlength=len(self.names))
        raised = np.bincount(name[1:], weights=np.frombuffer(self.raised, dtype=np.uint8)[1:],
                             minlength=len(self.names))

        # spans are numbered in call order, so a parent precedes its children
        is_holonomy = [layer == "holonomy" for layer in layer_of]
        under = bytearray(len(dur))
        a2m_under_holonomy = 0
        a2m = self.names.index("groups.algebra_to_matrix")
        for sid in range(1, len(dur)):
            nid = self.name[sid]
            pid = self.parent[sid]
            inside = under[pid] or (pid and is_holonomy[self.name[pid]])
            under[sid] = inside
            if nid == a2m and inside:
                a2m_under_holonomy += 1
        roots = name[1:] == self.names.index(ROOT)
        return {
            "calls": {n: int(c) for n, c in zip(self.names, calls)},
            "raised": {n: int(c) for n, c in zip(self.names, raised)},
            "self_s": {layer: float(s) for layer, s in zip(layers, self_s)},
            "job_s": float(dur[1:][roots].sum() / 1e9),
            "a2m_under_holonomy": a2m_under_holonomy,
            "fox_letters": self.fox_letters,
            "spans": len(dur) - 1,
        }

    def write(self, path):
        """Save the spans as gzip-compressed JSON columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "names": self.names,
            "name": self.name.tolist()[1:],
            "parent": self.parent.tolist()[1:],
            "start_ns": self.start.tolist()[1:],
            "end_ns": self.end.tolist()[1:],
            "raised": list(self.raised[1:]),
        }
        with gzip.open(path, "wt") as handle:
            json.dump(columns, handle)
