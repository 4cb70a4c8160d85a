"""In-memory span tracing around the public functions of the ltpnet modules.

The tracer replaces every binding of a traced function inside the ``ltpnet``
package (the defining module and every module that imported the name) with
a thin wrapper, and restores the originals on ``uninstall``. A wrapper logs
one entry event (the span's name id) and one exit event (-1), each with a
``perf_counter_ns`` timestamp, into two flat arrays. Nothing else happens
per call, so the cost stays near a microsecond even for the tens of
thousands of tiny calls a gradient check makes.

``spans()`` turns the event log into one row per call: name, start, end,
parent (the span that was open when the call began) and self time (duration
minus the part covered by child spans). A few wrappers also record a value
from the call's arguments or result, such as a batch's window count, in
``Tracer.notes``, keyed by the entry event's index.
"""

import importlib
import sys
import time
import timeit
from array import array

import numpy as np


def _resolve(dotted):
    """'ltpnet.training:SgdOptimizer.step' -> (owner object, attribute name)."""
    module_name, _, path = dotted.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names = []
        self.events = array("i")
        self.stamps = array("q")
        self.notes = {}
        self._saved = []

    def install(self, targets, notes=None):
        """Wrap each target; ``notes`` maps a target to ``fn(args, result)``.

        Each target is ``'module:qualified.name'``. Module-level functions are
        rebound in every loaded ``ltpnet`` module that holds them, so callers
        that did ``from .x import f`` are traced too.
        """
        notes = notes or {}
        for dotted in targets:
            owner, attr = _resolve(dotted)
            original = owner.__dict__[attr]
            if dotted not in self.names:
                self.names.append(dotted)
            wrapper = self._wrap(original, self.names.index(dotted), notes.get(dotted))
            if isinstance(owner, type):
                bindings = [(owner, attr)]
            else:
                bindings = [
                    (mod, key)
                    for name, mod in list(sys.modules.items())
                    if name == "ltpnet" or name.startswith("ltpnet.")
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for holder, key in bindings:
                self._saved.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    def _wrap(self, fn, name_id, note):
        log, stamp, clock = self.events.append, self.stamps.append, time.perf_counter_ns
        if note is None:
            def traced(*args, **kwargs):
                log(name_id)
                stamp(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    stamp(clock())
                    log(-1)
            return traced

        events, notes = self.events, self.notes

        def traced_with_note(*args, **kwargs):
            entry = len(events)
            log(name_id)
            stamp(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                stamp(clock())
                log(-1)
            notes[entry] = note(args, result)
            return result
        return traced_with_note

    def mark(self):
        """Event count now; calls that begin between two marks belong to
        the stretch of the run between them."""
        return len(self.events)

    def spans(self):
        """One row per completed call, in call order.

        Returns a dict of arrays: ``name`` (index into ``names``), ``entry``
        (event index of the call's entry), ``start``/``end`` (ns),
        ``parent`` (row of the enclosing span or -1) and ``self_ns``.
        """
        ev = np.frombuffer(self.events, dtype=np.int32)
        ts = np.frombuffer(self.stamps, dtype=np.int64)
        is_entry = ev >= 0
        depth = np.cumsum(np.where(is_entry, 1, -1))
        # An entry opens level depth; its exit is the next event that closes
        # the same level, so within a level entries and exits alternate.
        level = np.where(is_entry, depth, depth + 1)
        order = np.lexsort((np.arange(ev.size), level))
        entries, exits = order[0::2], order[1::2]
        if not (is_entry[entries].all() and not is_entry[exits].any()):
            raise RuntimeError("unbalanced trace: a traced call did not return")
        by_start = np.argsort(entries, kind="stable")
        entries, exits = entries[by_start], exits[by_start]
        lvl = level[entries]
        # The parent is the latest span, one level up, that began earlier.
        parent = np.full(entries.size, -1, dtype=np.int64)
        for d in np.unique(lvl):
            if d == 1:
                continue
            children = np.flatnonzero(lvl == d)
            above = np.flatnonzero(lvl == d - 1)
            pos = np.searchsorted(entries[above], entries[children]) - 1
            parent[children] = above[pos]
        start, end = ts[entries], ts[exits]
        duration = end - start
        covered = np.bincount(
            parent[parent >= 0], weights=duration[parent >= 0], minlength=entries.size
        )
        return {
            "name": ev[entries],
            "entry": entries,
            "start": start,
            "end": end,
            "parent": parent,
            "self_ns": duration - covered.astype(np.int64),
        }


def span_cost_ns(calls=20000, repeats=7) -> float:
    """What tracing adds to one call: a traced no-op against a plain one,
    best of ``repeats`` loops of ``calls`` calls each."""
    def noop():
        pass

    traced = Tracer()._wrap(noop, 0, None)
    best = [min(timeit.repeat(fn, number=calls, repeat=repeats)) for fn in (traced, noop)]
    return (best[0] - best[1]) / calls * 1e9
