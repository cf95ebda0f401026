"""Run one `tamari` command with timing wrappers around each layer.

    python perfbench/traced.py TRACE.json <tamari argv...>

Every public function of the layer modules, and the public and arithmetic
methods of their classes, is wrapped in place before `tamari.cli.main`
runs, in each other module that holds a reference to it, so calls between
layers go through the wrappers.  Wrappers keep aggregate counters per
function (calls, total ns, self ns, result sizes or yielded items); only
the per-op entry calls of `tamari.cli` also get spans.  The counters are
written to TRACE.json when the command ends, and the exit status is the
command's.  The program itself is unchanged: only this launcher installs
the wrappers, and untraced ops never load it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "lattice", "paths", "trees", "diagonal", "series", "polys",
          "equations", "formulas")
ARITHMETIC = frozenset({"__add__", "__sub__", "__rsub__", "__neg__",
                        "__mul__", "__pow__"})
# functions whose result size is the layer's work count
SIZED = frozenset({"lattice.all_trees", "paths.m_tamari_elements",
                   "paths.m_tamari_covers", "trees.rotations_down"})
# group -> (functions, layer whose calls count or None for any caller);
# only the outermost call of a group adds its time
GROUPS = {
    "trees.sort_key": ({"trees.serialize", "trees.bracket_vector"},
                       "lattice"),
    "trees.spans": ({"trees.descent_spans", "trees.ascent_spans"}, None),
    "trees.canopy": ({"trees.canopy", "trees.agree", "trees.ell"}, None),
}
ENTRIES = frozenset({"cli.main", "cli.cmd_table", "cli.cmd_verify",
                     "cli.cmd_eval"})
# wrapped even where their own layer calls them: their calls or result
# sizes are counted, or they are entry calls
ALWAYS = SIZED | ENTRIES | {"diagonal.classify_edges"}
ENGINES = {"lattice": "_engine", "paths": "_m_engine"}


class Tracer:
    """Counters shared by every wrapper of one process."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        # open calls as [layer, ns spent in wrapped callees]; the root
        # frame collects the time of calls made from outside any layer
        self.stack: list = [["", 0]]
        self.stats: dict = {}       # key -> [calls, total ns, self ns, items]
        self.errors = dict.fromkeys(LAYERS, 0)
        self.groups = {name: [0, 0] for name in GROUPS}  # [depth, ns]
        self.spans: list = []
        self.open_spans: list = []
        self.modules: dict = {}

    def _escaped(self, layer: str) -> None:
        """Count an exception once per layer boundary it crosses."""
        if self.stack[-2][0] != layer:
            self.errors[layer] += 1

    def wrap(self, fn, key: str, layer: str, group):
        stat = self.stats.setdefault(key, [0, 0, 0, 0])
        stack = self.stack
        clock = self.clock
        escaped = self._escaped

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                stat[0] += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = [layer, 0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    except Exception:
                        escaped(layer)
                        raise
                    finally:
                        elapsed = clock() - start
                        stack.pop()
                        stat[1] += elapsed
                        stat[2] += elapsed - frame[1]
                        stack[-1][1] += elapsed
                    stat[3] += 1
                    yield item
            return generator_wrapper

        sized = key in SIZED
        entry = key in ENTRIES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if entry:
                self.open_spans.append(len(self.spans))
                self.spans.append({
                    "name": key, "start_ns": clock(),
                    "parent": self.open_spans[-2]
                    if len(self.open_spans) > 1 else None})
            if group is not None:
                group[0] += 1
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                escaped(layer)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                stack[-1][1] += elapsed
                if group is not None:
                    group[0] -= 1
                    if not group[0]:
                        group[1] += elapsed
                if entry:
                    self.spans[self.open_spans.pop()]["end_ns"] = clock()
            if sized:
                stat[3] += len(result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap each layer's public callables wherever they are bound."""
        originals: dict = {}   # id(original) -> (original, key, layer)
        for layer in LAYERS:
            module = importlib.import_module(f"tamari.{layer}")
            self.modules[layer] = module
            for name, value in vars(module).items():
                if (name.startswith("_")
                        or getattr(value, "__module__", None)
                        != module.__name__):
                    continue
                if isinstance(value, type):
                    if not issubclass(value, BaseException):
                        self._wrap_methods(value, layer)
                elif callable(value):
                    originals[id(value)] = (value, f"{layer}.{name}", layer)
        for module_name, module in list(sys.modules.items()):
            if module_name != "tamari" and not module_name.startswith(
                    "tamari."):
                continue
            caller = module_name.rpartition(".")[2]
            for name, value in list(vars(module).items()):
                if id(value) not in originals:
                    continue
                fn, key, layer = originals[id(value)]
                # a layer's calls to itself leave its self time unchanged
                if caller == layer and key not in ALWAYS:
                    continue
                setattr(module, name,
                        self.wrap(fn, key, layer, self._group(key, caller)))

    def _group(self, key: str, caller: str):
        for name, (keys, only_from) in GROUPS.items():
            if key in keys and only_from in (None, caller):
                return self.groups[name]
        return None

    def _wrap_methods(self, cls: type, layer: str) -> None:
        for name, value in list(vars(cls).items()):
            if inspect.isfunction(value) and (not name.startswith("_")
                                              or name in ARITHMETIC):
                key = f"{layer}.{cls.__name__}.{name}"
                setattr(cls, name, self.wrap(value, key, layer, None))

    def engines(self) -> dict:
        out = {}
        for layer, attribute in ENGINES.items():
            cached = getattr(self.modules[layer], attribute, None)
            if not hasattr(cached, "cache_info"):
                out[layer] = {"absent": f"tamari.{layer}.{attribute} has no "
                                        "cache_info()"}
                continue
            info = cached.cache_info()
            out[layer] = {"hits": info.hits, "misses": info.misses}
        return out

    def report(self, argv, status) -> dict:
        return {
            "argv": list(argv),
            "status": status,
            "stats": self.stats,
            "errors": self.errors,
            "groups": {name: ns for name, (_, ns) in self.groups.items()},
            "engines": self.engines(),
            "spans": self.spans,
        }


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = tracer.modules["cli"]
    status = 1
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.report(argv, status), handle)
    sys.exit(status)


if __name__ == "__main__":
    main()
