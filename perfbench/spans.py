"""Outside-in span recorder for esclab.

The program is not edited: ``Tracer.install`` replaces every public function
and public method of the listed modules with a timing wrapper, in every
module that bound the function (``build_prompts`` is bound in ``prompts``,
``agents`` and ``orchestrator``, for instance), and ``uninstall`` puts the
originals back.  Spans are kept in memory as tuples

    (span id, parent id, phase id, name, start, end, request tag, extra)

and written out once, at the end of a run.  A span's self time is its
duration minus the duration of its children.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import itertools
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SID, PARENT, PHASE, NAME, START, END, TAG, EXTRA = range(8)


def _tag_of(args: tuple) -> str:
    for arg in args[:3]:
        tag = getattr(arg, "request_tag", None)
        if tag:
            return tag
    return ""


def _traceable(fn) -> bool:
    return inspect.isfunction(fn) and not inspect.isgeneratorfunction(inspect.unwrap(fn))


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.records: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Frame used by calls that start with an empty stack (the main thread
        # outside any span, or a worker thread): (parent, phase, tag).
        self._root = (0, 0, "")
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, extra=None):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``extra(args, kwargs, result)`` may return one number to keep with
        the span (bytes produced, parse success, ...); it runs after the span
        has ended.
        """
        records = self.records
        ids = self._ids
        get_stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = get_stack()
            parent, phase, inherited = stack[-1] if stack else tracer._root
            tag = kwargs.get("request_tag") or _tag_of(args) or inherited
            sid = next(ids)
            stack.append((sid, phase, tag))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                records.append((sid, parent, phase, name, start, end, tag, None))
                raise
            end = perf_counter()
            stack.pop()
            value = extra(args, kwargs, result) if extra is not None else None
            records.append((sid, parent, phase, name, start, end, tag, value))
            return result

        return traced

    @contextlib.contextmanager
    def phase(self, name: str):
        """A benchmark-side span that roots one timed phase."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        sid = next(self._ids)
        saved = self._root
        self._root = (sid, sid, "")
        stack.append((sid, sid, ""))
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self._root = saved
            self.records.append((sid, parent, sid, name, start, end, "", None))

    def install(self, modules, extras: dict | None = None, classes=()) -> None:
        """Wrap the public functions and methods of ``modules``.

        Module-level functions are replaced wherever a module in ``modules``
        binds the same object; methods are replaced on their class.  Span
        names are ``<module>.<function>`` or ``<module>.<Class>.<method>``.
        ``classes`` adds ``(layer, class)`` pairs from outside the program.
        """
        extras = extras or {}
        functions: dict[int, tuple[str, object]] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                if _traceable(obj) and obj.__module__ == module.__name__:
                    functions[id(obj)] = (f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(layer, obj, extras)
        for layer, cls in classes:
            self._wrap_methods(layer, cls, extras)
        wrapped = {
            key: self.wrap(name, fn, extras.get(name)) for key, (name, fn) in functions.items()
        }
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and functions[id(obj)][1] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])

    def _wrap_methods(self, layer: str, cls, extras: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            if _traceable(obj):
                name = f"{layer}.{cls.__name__}.{attr}"
                self._patches.append((cls, attr, obj))
                setattr(cls, attr, self.wrap(name, obj, extras.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("id\tparent\tphase\tname\tstart\tend\ttag\textra\n")
            for record in sorted(self.records):
                handle.write("\t".join("" if v is None else str(v) for v in record) + "\n")


class PhaseView:
    """The spans of one phase instance, with self times computed."""

    def __init__(self, root: tuple, spans: list[tuple], names: dict[int, str]):
        self.root = root
        self.spans = spans
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            child_time[span[PARENT]] += span[END] - span[START]
        self.self_time = {
            span[SID]: span[END] - span[START] - child_time.get(span[SID], 0.0) for span in spans
        }
        self._names = names

    @property
    def duration(self) -> float:
        return self.root[END] - self.root[START]

    def named(self, name: str) -> list[tuple]:
        return [span for span in self.spans if span[NAME] == name]

    def parent_name(self, span: tuple) -> str:
        return self._names.get(span[PARENT], "")

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(self.self_time[s[SID]] for s in self.spans if s[NAME].startswith(prefix))

    def layer_outer(self, layer: str) -> list[tuple]:
        """Spans of ``layer`` whose caller is outside that layer."""
        prefix = layer + "."
        return [
            s for s in self.spans
            if s[NAME].startswith(prefix) and not self.parent_name(s).startswith(prefix)
        ]

    def self_by_layer(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[NAME].split(".", 1)[0]] += self.self_time[span[SID]]
        return dict(totals)


def phases(records: list[tuple]) -> dict[str, list[PhaseView]]:
    """Group spans by the phase that rooted them, keyed by phase name."""
    names = {record[SID]: record[NAME] for record in records}
    by_phase: dict[int, list[tuple]] = defaultdict(list)
    roots: dict[int, tuple] = {}
    for record in records:
        if record[SID] == record[PHASE]:
            roots[record[SID]] = record
        else:
            by_phase[record[PHASE]].append(record)
    grouped: dict[str, list[PhaseView]] = defaultdict(list)
    for sid in sorted(roots):
        root = roots[sid]
        grouped[root[NAME]].append(PhaseView(root, by_phase.get(sid, []), names))
    return grouped
