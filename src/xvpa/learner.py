"""Incremental learning: state naming, updates, unlearning, sanitization.

States are named from stream prefixes so that equally named states merge;
the naming schemes bound the left-sibling memory by ``k`` and the typing
context by ``l``, which fixes the hypothesis space.  A walk names the
states of a document's structure and counts the keys they take in each
counter table, once per shape (its kinds and the names of its non-text
events): each learner keeps, in a bounded memo, the run of every shape it
has learned twice.  One loop infers and counts the texts of walked and kept
runs.  Learning adds those counts, creating states and transitions on first
contact.  Mind changes (counters flipping from zero to one) are recorded
per document as a convergence heuristic.

Unlearning takes the same run as learning: it checks and then subtracts
exactly those counts, deleting only the touched keys that reach zero, so
its cost follows the document, not the size of the model.  Sanitization
uniformly decrements all transition counters to shake out rare, possibly
poisoned structure, and keeps the modules that runs still enter.

A learner instance admits one mutator at a time.  Snapshots taken between
mutations are immutable; validators built from them never block learning.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .automata import AutomatonStructureError, EmptyLanguageError, _matched_reach, build_xvpa
from .events import CHARS, START, DocumentEventStream
from .weighted import START_STATE, TEXT_PLACEHOLDER, StateName, WeightedVpa

ANCESTOR = "ancestor"
ANCESTOR_SIBLING = "ancestor-sibling"

SHAPE_DOC_MAX = 2**12  # the most events of a document whose shape the memo keeps
SHAPE_MEMO_MAX = 2**14  # the most events of all kept shapes; the memo is cleared when full
SIGHTINGS_MAX = 2**12  # the most shapes remembered as walked once; cleared when full


class LearnerError(ValueError):
    pass


class MissingTransitionError(LearnerError):
    """An unlearn run left the automaton: the document was never learned
    (or was already unlearned).  No mutation has happened."""

    def __init__(self, index, detail=""):
        self.index = index
        super().__init__(f"run leaves the automaton at event {index}" + (f" ({detail})" if detail else ""))


class CounterUnderflowError(LearnerError):
    """A decrement would drive a counter below zero.  No mutation."""


class SanitizedStateError(LearnerError):
    """Unlearning after sanitize is unsound and therefore refused."""


class DatatypeMismatchError(LearnerError):
    """The active datatype definition file differs from the one the state
    was created with."""


@dataclass(frozen=True)
class NamingScheme:
    """Naming mode plus locality bounds (k: left siblings, l: context)."""

    mode: str = ANCESTOR
    k: int = 1
    l: int = 1

    def __post_init__(self):
        if self.mode not in (ANCESTOR, ANCESTOR_SIBLING):
            raise ValueError(f"unknown naming mode {self.mode!r}")
        if self.k < 1 or self.l < 1:
            raise ValueError("locality bounds k and l must be >= 1")


def call_name(scheme: NamingScheme, q: StateName, element: str) -> StateName:
    """Target state of a call: fresh sibling string, extended context."""
    ctx, sibs = q
    if scheme.mode == ANCESTOR:
        return ((ctx + (element,))[-scheme.l:], ())
    segment = (sibs + (element,))[-scheme.k:]
    return (ctx[-scheme.l:] + (segment,), ())


def int_name(scheme: NamingScheme, q: StateName) -> StateName:
    """Target state after text: context kept, placeholder appended."""
    ctx, sibs = q
    return (ctx, (sibs + (TEXT_PLACEHOLDER,))[-scheme.k:])


def ret_name(scheme: NamingScheme, q: StateName, popped: StateName, element: str) -> StateName:
    """Target state of a return: the popped state's context, the closed
    element appended to its siblings."""
    ctx, sibs = popped
    return (ctx, (sibs + (element,))[-scheme.k:])


class Learner:
    """Persistent learner state: weighted VPA, scheme, and bookkeeping.  The
    mind-change series has one entry per document learned; ``series``, a
    checked series text, is kept as text until read or unlearned."""

    def __init__(self, dts, scheme: NamingScheme, series: str = ""):
        self.dts = dts
        self.scheme = scheme
        self.dts_hash = dts.content_hash
        self.vpa = WeightedVpa()
        self._series = series  # comma-joined entries, before _entries
        self._entries: list[str] = []  # one per document since
        self.sanitized = False
        # the shape memo (see _run): shape -> packed run, the events of the
        # kept shapes, hashes of shapes walked once, and the one copy of
        # each key and name that the packed runs share
        self._memo: dict = {}
        self._memo_events = 0
        self._seen: set[int] = set()
        self._interned: dict = {}

    @property
    def documents_learned(self) -> int:
        """The number of documents learned: the series' length."""
        return len(self._entries) + (self._series.count(",") + 1 if self._series else 0)

    @property
    def mind_changes(self) -> list[int]:
        """Mind changes per document, parsed from the series text."""
        text = self.mind_change_text()
        return list(map(int, text.split(","))) if text else []

    def mind_change_text(self) -> str:
        """The series as a state file holds it."""
        return ",".join([self._series, *self._entries] if self._series else self._entries)

    # -- learning -------------------------------------------------------------

    def learn(self, stream: DocumentEventStream) -> int:
        """One-pass incremental update; returns this document's mind changes.

        The stream must be a validated DocumentEventStream; on that
        precondition the pass cannot fail midway, so the update is applied
        directly and is per-document atomic.
        """
        self._check_input(stream)
        changes = 0
        for table, taken in zip(self._tables(), self._run(stream, admit=True)):
            for key, (count, target, _index) in taken:
                old = table.get(key)
                if old is None:
                    table[key] = count if target is None else (target, count)
                    changes += 1
                elif target is None:
                    table[key] = old + count
                else:
                    table[key] = (old[0], old[1] + count)
        self._entries.append(str(changes))
        return changes

    # -- unlearning -----------------------------------------------------------

    def unlearn(self, stream: DocumentEventStream) -> None:
        """Exactly reverse one previously learned document.

        The document's run is the one learning takes.  Only when every
        transition it takes exists and no counter would underflow are the
        decrements applied, so a failed unlearn leaves the state untouched;
        only the keys the run takes are visited, so the cost follows the
        document, not the size of the automaton.
        """
        if self.sanitized:
            raise SanitizedStateError("unlearn is unsound after sanitize")
        self._check_input(stream)
        missing = []
        underflow = None
        left = []
        for kind, table, taken in zip(("call", "text transition", "return", None, None),
                                      self._tables(), self._run(stream, admit=False)):
            for key, (count, target, index) in taken:
                old = table.get(key)
                have = 0 if old is None else old if target is None else old[1]
                if kind and not have:
                    missing.append((index, f"no {kind} on {key[1]}"))
                elif have < count:
                    underflow = key
                else:
                    left.append((table, key, have - count, None if target is None else old[0]))
        if missing:
            raise MissingTransitionError(*min(missing))
        if underflow is not None:
            raise CounterUnderflowError(f"counter for {underflow!r} would underflow")

        # commit; keys that reach zero are deleted
        for table, key, count, target in left:
            if not count:
                del table[key]
            else:
                table[key] = count if target is None else (target, count)
        if not self._entries and self._series:  # split off the last entries once
            self._entries = self._series.rsplit(",", 1024)
            self._series = self._entries.pop(0) if len(self._entries) > 1024 else ""
        if self._entries:
            self._entries.pop()

    def _run(self, stream: DocumentEventStream, admit: bool):
        """The keys a document's run takes in each counter table.

        Returns the call, text, return, state and final tables, in the order
        of ``_tables``, each as ``(key, (count, target state, index of the
        first event that takes it))`` pairs in the order the walk first
        takes the keys; the state and final tables have no target (None).
        Text keys are ``(source, datatype)``.  Targets are named, never
        looked up, so the run does not depend on what the automaton holds.

        Only the text keys depend on the texts.  Every other key, and each
        text's source and target, follow from the document's shape: its
        kinds and the names of its non-text events.  A shape that ``learn``
        walks a second time (``admit``) is kept in the memo; ``unlearn``
        neither counts nor keeps a shape.  A document of a kept shape is not
        walked; walked or kept, its texts are inferred and counted here.
        """
        shape = (stream.kinds, tuple(map(getattr, stream.labels, repeat("_rendered"), repeat(None))))
        packed = self._memo.get(shape)
        if packed is None:
            *tables, texts = self._walk(stream)
            if admit:
                self._admit(shape, tables, texts)
            calls, rets, states, finals = (table.items() for table in tables)
        else:
            *tables, texts = packed
            calls, rets, states, finals = (zip(t[::4], zip(t[1::4], t[2::4], t[3::4])) for t in tables)
        infer = self.dts.infer
        labels = stream.labels
        ints: dict = {}
        texts = iter(texts)
        for index, source, target in zip(texts, texts, texts):
            for dt in sorted(infer(labels[index])):
                ints.setdefault((source, dt), [0, target, index])[0] += 1
        return calls, ints.items(), rets, states, finals

    def _walk(self, stream: DocumentEventStream):
        """Name a document's structure event by event: ``_run``'s call,
        return, state and final tables as dicts from a key to ``[count,
        target, first index]``, and its texts, not inferred, as a flat list
        of ``index, source, target``.

        The walk zips the stream's index, kind and label sequences, so it
        builds no Event.
        """
        scheme = self.scheme
        calls: dict = {}
        rets: dict = {}
        states: dict = {}
        texts: list = []
        stack: list[StateName] = []
        q = START_STATE
        index = -1
        # one setdefault per key: a state name is a nested tuple, and its
        # hash is computed again on every lookup
        for index, kind, label in zip(stream.indices, stream.kinds, stream.labels):
            if kind == CHARS:
                q2 = int_name(scheme, q)
                texts += index, q, q2
            else:
                element = label._rendered
                if kind == START:
                    q2 = call_name(scheme, q, element)
                    calls.setdefault((q, element), [0, q2, index])[0] += 1
                    stack.append(q)
                else:
                    popped = stack.pop()
                    q2 = ret_name(scheme, q, popped, element)
                    rets.setdefault((q, element, popped), [0, q2, index])[0] += 1
            states.setdefault(q2, [0, None, index])[0] += 1
            q = q2
        return calls, rets, states, {q: [1, None, index]}, texts

    def _admit(self, shape, tables, texts) -> None:
        """Keep a learned shape in the memo on its second sighting, unless
        it has more than ``SHAPE_DOC_MAX`` events; the memo is cleared
        before it would hold more than ``SHAPE_MEMO_MAX``.  A kept run is
        one flat tuple per table, ``key, count, target, index`` per key,
        and one of ``index, source, target`` per text, with every key and
        name interned, so shapes that share keys share one copy."""
        events = len(shape[0])
        if events > SHAPE_DOC_MAX:
            return
        sighting = hash(shape)
        if sighting not in self._seen:
            if len(self._seen) >= SIGHTINGS_MAX:
                self._seen.clear()
            self._seen.add(sighting)
            return
        if self._memo_events + events > SHAPE_MEMO_MAX:
            self._memo.clear()
            self._interned.clear()
            self._memo_events = 0
        self._memo_events += events
        intern = self._interned.setdefault
        packed = []
        for table in tables:
            flat = []
            for key, (count, target, index) in table.items():
                flat += intern(key, key), count, intern(target, target), index
            packed.append(tuple(flat))
        flat = []
        texts = iter(texts)
        for index, source, target in zip(texts, texts, texts):
            flat += index, intern(source, source), intern(target, target)
        packed.append(tuple(flat))
        self._memo[shape] = tuple(packed)

    def _tables(self):
        v = self.vpa
        return v.calls, v.ints, v.rets, v.states, v.finals

    # -- sanitization -----------------------------------------------------------

    def sanitize(self) -> bool:
        """Trim low-frequency structure by a uniform counter decrement.

        Every transition counter is decremented by one, dropping those that
        reach zero.  The counted states of the modules that some run enters
        are kept, each counting its incoming transition weights (finals take
        the state weight), so no kept module lacks its entry.  The decision
        is made on the model that validation runs: if the result cannot be
        generated or its dXVPA accepts no document, everything reverts and
        False is returned (not applicable); otherwise the result replaces
        the learner's automaton and True is returned.

        Sanitizing marks the state: subsequent unlearns are refused.
        """
        v = self.vpa
        tables = [{key: (dst, w - 1) for key, (dst, w) in table.items() if w > 1}
                  for table in (v.calls, v.ints, v.rets)]
        entered = {e[0] for e in _matched_reach(*tables)}
        states: dict = {}
        for table in tables:
            for dst, w in table.values():
                if dst[0] in entered:
                    states[dst] = states.get(dst, 0) + w
        finals = {q: states[q] for q in v.finals if q in states}
        candidate = WeightedVpa(states, finals, *tables).trimmed(self.dts)
        try:
            build_xvpa(candidate, self.dts, False)
        except (EmptyLanguageError, AutomatonStructureError):
            return False  # revert: nothing was mutated
        # a root's return is taken from any exit of its module
        reach = _matched_reach(candidate.calls, candidate.ints, candidate.rets)
        exits = {x for x, _c, _popped in candidate.rets}
        if all(reach[e].isdisjoint(exits) for (q, _c), (e, _w) in candidate.calls.items()
               if q == START_STATE):
            return False
        self.vpa = candidate
        self.sanitized = True
        return True

    # -- queries ---------------------------------------------------------------

    def snapshot(self) -> WeightedVpa:
        """Trimmed, immutable view of the current automaton."""
        return self.vpa.trimmed(self.dts)

    def _check_input(self, stream):
        if not isinstance(stream, DocumentEventStream):
            raise TypeError("learner operations require a DocumentEventStream")
        if self.dts.content_hash != self.dts_hash:
            raise DatatypeMismatchError(
                "datatype definition file changed since this state was created")

