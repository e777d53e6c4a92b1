"""In-memory span tracing of udspell's modules, installed at run time.

:func:`install` wraps every public module-level function of each udspell
module and rebinds every name that refers to it (``from .x import f`` copies
included), so no file of the program changes. Each call records one span:
name, start, end, parent span and record id. Generator functions get one span
per resumption, so work done lazily inside a consumer's loop is charged to the
generator and nested under the consumer.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

MODULES = (
    "pinyin", "confusion", "ecm", "scorer", "lattice", "dictionary", "decoder", "evaluate", "cli",
)

# Per-character predicates: a span on each call would cost more than the
# work, and their time is charged to the caller either way.
SKIP = {"confusion.is_chinese_char", "pinyin.phonetic_similar"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    record: str | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)

    def open(self, name: str, record: str | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, record=record))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, record: str | None = None):
        idx = self.open(name, record)
        try:
            yield
        finally:
            self.close(idx)

    def reset(self) -> None:
        self.spans = []
        self.stack = []

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, fh) -> None:
        for i, s in enumerate(self.spans):
            fh.write(
                json.dumps(
                    {"i": i, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "record": s.record},
                    ensure_ascii=False,
                )
                + "\n"
            )


def _record_id(args, kwargs) -> str | None:
    rid = kwargs.get("id")
    if rid is None and args:
        rid = getattr(args[0], "id", None)
    return None if rid is None else str(rid)


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):

        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            rid = _record_id(args, kwargs)
            try:
                while True:
                    idx = tracer.open(name, rid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    yield item
            finally:
                it.close()

        return gen_wrapper

    def wrapper(*args, **kwargs):
        idx = tracer.open(name, _record_id(args, kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


@contextmanager
def install(tracer: Tracer):
    """Wrap udspell's public functions for the duration of the block."""
    mods = {m: sys.modules[f"udspell.{m}"] for m in MODULES}
    mods_all = [sys.modules["udspell"], *mods.values()]
    originals: dict[int, tuple] = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
                or name in SKIP
                or (short == "cli" and attr == "main")
            ):
                continue
            originals[id(obj)] = (obj, _wrap(tracer, name, obj))
    patched = []
    for mod in mods_all:
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, obj))
    try:
        yield
    finally:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)
