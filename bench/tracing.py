"""Boundary tracing of the soldyn layers, from outside the library.

``Tracer.install()`` replaces every public function of each layer module,
every public method of its classes (plus ``__init__``, ``__post_init__``,
``__call__``, the arithmetic dunders, ``__eq__`` and ``__hash__``), and every
copy of those functions that another ``soldyn`` module imported, with a
wrapper that records one span: name, start, end and parent span.  Spans stay
in memory; ``write()`` saves them when the run ends.  ``uninstall()`` puts the
originals back.  Properties are not wrapped, so their time counts as self
time of the calling span.

A span's self time is its duration minus the durations of its child spans.
Alongside the spans the tracer counts calls, exceptions leaving each wrapped
function and each layer, certificates that ``rational_certificate`` found,
and, from the lifts that ``PLLift.__init__`` builds, breakpoints per lift and
the largest numerator or denominator bit length.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("profinite", "solenoid", "circlemaps", "induced", "dynamics", "hull", "cli")
DUNDERS = ("__init__", "__post_init__", "__call__", "__add__", "__neg__", "__sub__", "__eq__", "__hash__")
# private helpers that are layer boundaries in their own right
EXTRA = {"cli": {"_load_input": "parse"}}
SPAN_CAP = 3_000_000
_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self.bp_total = 0
        self.bp_max = 0
        self.bits_max = 0
        self.certified = 0
        self.layer_errors = dict.fromkeys(LAYERS, 0)
        self._layer_of: list[str] = []
        self._stack = [[-1, 0.0, -1]]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"soldyn.{name}") for name in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    label = EXTRA.get(layer, {}).get(attr)
                    if label is None and attr.startswith("_"):
                        continue
                    post = self._certificate if attr == "rational_certificate" else None
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{label or attr}", post)
                    self._patch(mod, attr, wrapped[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        # the click group itself, so argument parsing and output count as cli
        group = mods["cli"].main
        self._patch(group, "main", self._wrap(group.main, "cli.main"))
        # copies of the wrapped functions imported into other modules
        for mod in [sys.modules["soldyn"], *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and vars(mod)[attr] is not w:
                    self._patch(mod, attr, w)

    def _wrap_class(self, layer: str, cls: type) -> None:
        by_func: dict[int, object] = {}
        members = sorted(vars(cls).items(), key=lambda kv: kv[0].startswith("__"))
        for attr, obj in members:
            if not inspect.isfunction(obj):
                continue
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            w = by_func.get(id(obj))
            if w is None:
                label = "init" if attr == "__init__" else attr.strip("_")
                post = self._lift_stats if (cls.__name__ == "PLLift" and attr == "__init__") else None
                w = by_func[id(obj)] = self._wrap(obj, f"{layer}.{cls.__name__}.{label}", post)
            self._patch(cls, attr, w)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str, post=None):
        nid = len(self.names)
        self.names.append(name)
        self._layer_of.append(name.split(".", 1)[0])
        self.calls.append(0)
        self.errors.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        calls, errors, self_s, total_s = self.calls, self.errors, self.self_s, self.total_s
        s_name, s_parent, s_start, s_end = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        layer_of, layer_errors = self._layer_of, self.layer_errors
        layer = layer_of[nid]

        def wrapper(*args, **kwargs):
            frame = stack[-1]
            sid = len(s_name)
            if sid < SPAN_CAP:
                s_name.append(nid)
                s_parent.append(frame[0])
                s_start.append(0.0)
                s_end.append(0.0)
            else:
                sid = -1
                tracer.spans_dropped += 1
            mine = [sid, 0.0, nid]
            stack.append(mine)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                # click ends every standalone invocation with SystemExit
                if exc.code not in (0, None):
                    errors[nid] += 1
                    if frame[2] < 0 or layer_of[frame[2]] != layer:
                        layer_errors[layer] += 1
                raise
            except BaseException:
                errors[nid] += 1
                if frame[2] < 0 or layer_of[frame[2]] != layer:
                    layer_errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                frame[1] += dur
                self_s[nid] += dur - mine[1]
                total_s[nid] += dur
                calls[nid] += 1
                if sid >= 0:
                    s_start[sid] = t0
                    s_end[sid] = t1
            if post is not None:
                post(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def _certificate(self, args, result) -> None:
        self.certified += result is not None

    def _lift_stats(self, args, result) -> None:
        lift = args[0]
        nb = len(lift.xs)
        self.bp_total += nb
        if nb > self.bp_max:
            self.bp_max = nb
        bits = 0
        for v in lift.xs + lift.ys:
            b = max(v.numerator.bit_length(), v.denominator.bit_length())
            if b > bits:
                bits = b
        if bits > self.bits_max:
            self.bits_max = bits

    # -- summaries ----------------------------------------------------------

    def table(self) -> dict[str, dict]:
        return {
            n: {"calls": c, "errors": e, "self_s": s, "total_s": t}
            for n, c, e, s, t in zip(self.names, self.calls, self.errors, self.self_s, self.total_s)
            if c or e
        }

    def get(self, name: str, field: str):
        try:
            i = self.names.index(name)
        except ValueError:
            return 0
        return {"calls": self.calls, "errors": self.errors, "self_s": self.self_s}[field][i]

    def layer(self, layer: str, field: str):
        if field == "errors":
            return self.layer_errors[layer]
        vals = {"calls": self.calls, "errors": self.errors, "self_s": self.self_s}[field]
        return sum(v for n, v in zip(self.names, vals) if n.split(".", 1)[0] == layer)

    def write(self, path: Path) -> None:
        """Spans as four little-endian arrays after a one-line JSON header."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "dropped": self.spans_dropped,
            "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                if sys.byteorder != "little":
                    arr = array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)
