"""Spans around the benchmark's calls into the program.

The benchmark reaches every layer through ``Calls``.  In an untraced run
those are the program's own functions, unwrapped.  In a traced run each is
wrapped in a span, and the layers reached only through another layer
(datatype inference inside learning, DFA membership inside validation and
inference) are wrapped by patching their classes for the duration of the
run.  The program itself is never edited.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

from xvpa import (Learner, build_xvpa, compile_cxvpa, dump_state, load_datatype_system,
                  minimize, parse_document, parse_state, validate)
from xvpa.datatypes import LexicalDatatypeSystem
from xvpa.dfa import Dfa

PHASES = ("setup", "warmup", "timed", "side")


class NullTracer:
    """Tracing off: calls pass straight through."""

    phase = "setup"
    op = -1
    label = ""

    def wrap(self, name, fn, note=None, keep=True):
        return fn

    def paused(self):
        return nullcontext()


class Tracer:
    """Records a span per wrapped call: name, start, end and parent.

    Spans are kept in memory and written out by ``write``.  Self time (a
    span's duration minus the time its child spans cover) is summed per
    phase and span name as spans close.  Spans made with ``keep=False`` are
    only summed, not stored: DFA membership runs up to once per datatype
    for every inferred text, far too often to keep each call.
    """

    def __init__(self):
        self.phase = "setup"
        self.op = -1                 # index of the operation the spans belong to
        self.label = ""              # what that operation is, e.g. "hostile deep verdict"
        self.spans = []              # (id, parent, name, phase, op, start_ns, end_ns)
        self.self_ns = defaultdict(int)    # (phase, name) -> ns
        self.total_ns = defaultdict(int)   # (phase, name) -> ns, children included
        self.calls = defaultdict(int)      # (phase, name) -> count
        self.label_ns = defaultdict(int)   # (phase, label, name) -> self ns
        self.counts = defaultdict(int)     # counter name -> value
        self._stack = []             # open spans: [id, name, start_ns, child_ns]
        self._next_id = 0
        self._paused = False

    def wrap(self, name, fn, note=None, keep=True):
        """``fn`` inside a span; ``note(counts, args, result)`` then updates
        the layer's counters."""
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else -1
            entry = [self._next_id, name, 0, 0]
            self._next_id += 1
            self._stack.append(entry)
            entry[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self._close(entry, parent, end, keep)
            if note is not None:
                note(self.counts, args, result)
            return result
        return traced

    def _close(self, entry, parent, end, keep):
        span_id, name, start, child = entry
        duration = end - start
        key = (self.phase, name)
        self.self_ns[key] += duration - child
        self.label_ns[(self.phase, self.label, name)] += duration - child
        self.total_ns[key] += duration
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][3] += duration
        if keep:
            self.spans.append((span_id, parent, name, self.phase, self.op, start, end))

    @contextmanager
    def paused(self):
        """Output checks run here: their calls are neither spanned nor counted."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextmanager
    def patched(self):
        """Wrap the layers the benchmark reaches only through other layers."""
        targets = [
            (LexicalDatatypeSystem, "infer", "datatypes.infer", None, True),
            (LexicalDatatypeSystem, "minimal_datatypes", "datatypes.minimal_datatypes",
             None, True),
            (Dfa, "accepts", "dfa.accepts", _count_chars, False),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in targets]
        for owner, attr, name, note, keep in targets:
            setattr(owner, attr, self.wrap(name, owner.__dict__[attr], note, keep))
        try:
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def self_s(self, *names) -> float:
        return sum(self.self_ns.get((p, n), 0) for p in PHASES for n in names) / 1e9

    def calls_of(self, name) -> int:
        return sum(self.calls.get((p, name), 0) for p in PHASES)

    def summary(self) -> dict:
        """Per phase and span name: calls, self seconds, total seconds."""
        out = {}
        for (phase, name), calls in sorted(self.calls.items()):
            out.setdefault(phase, {})[name] = {
                "calls": calls,
                "self_s": self.self_ns[(phase, name)] / 1e9,
                "total_s": self.total_ns[(phase, name)] / 1e9,
            }
        return out

    def by_label(self) -> dict:
        """Self seconds per phase, operation label and span name."""
        out = {}
        for (phase, label, name), ns in sorted(self.label_ns.items()):
            out.setdefault(phase, {}).setdefault(label, {})[name] = ns / 1e9
        return out

    def write(self, path_stem, extra: dict):
        """Spans as TSV and the summary as JSON, beside each other."""
        with open(f"{path_stem}.tsv", "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tphase\top\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
        with open(f"{path_stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"phases": self.summary(), "by_label": self.by_label(),
                       "counts": dict(self.counts), **extra},
                      fh, indent=1, sort_keys=True)


def _count_chars(counts, args, _result):
    counts["dfa.chars"] += len(args[1])


def _gauge(counter, measure):
    def note(counts, args, result):
        counts[counter] = max(counts[counter], measure(args, result))
    return note


def _note_parse(counts, args, result):
    counts["events.bytes"] += len(args[0])
    counts["events.events"] += len(result)


def _note_learn(counts, _args, result):
    counts["learner.mind_changes"] += result


def _note_snapshot(counts, _args, result):
    stats = result.stats()
    counts["weighted.states"] = max(counts["weighted.states"], stats.states)
    counts["weighted.transitions"] = max(counts["weighted.transitions"], stats.transitions)


def _note_validate(counts, _args, result):
    if not result.accepted:
        counts["automata.rejects"] += 1


class Calls:
    """The program's public entry points, as the benchmark calls them."""

    def __init__(self, tracer):
        w = tracer.wrap
        self.load_datatypes = w("datatypes.load_datatype_system", load_datatype_system)
        self.parse = w("events.parse_document", parse_document, _note_parse)
        self.learn = w("learner.learn", Learner.learn, _note_learn)
        self.unlearn = w("learner.unlearn", Learner.unlearn)
        self.snapshot = w("weighted.snapshot", Learner.snapshot, _note_snapshot)
        self.dump_state = w("persistence.dump_state", dump_state,
                            _gauge("persistence.state_bytes", lambda a, r: len(r)))
        self.parse_state = w("persistence.parse_state", parse_state,
                             _gauge("persistence.state_bytes", lambda a, r: len(a[0])))
        self.build = w("automata.build_xvpa", build_xvpa,
                       _gauge("automata.modules_built", lambda a, r: len(r.modules)))
        self.minimize = w("automata.minimize", minimize,
                          _gauge("automata.modules_minimized", lambda a, r: len(r.modules)))
        self.compile = w("automata.compile_cxvpa", compile_cxvpa,
                         _gauge("automata.predicates", lambda a, r: len(r.predicates)))
        self.validate = w("automata.validate", validate, _note_validate)

    def model(self, state: str, dts):
        """State-file text to a compiled validator, as every validating
        command of the ``xvpa`` tool does before its first verdict."""
        built = self.build(self.snapshot(self.parse_state(state, dts)), dts, False)
        return self.compile(self.minimize(built))
