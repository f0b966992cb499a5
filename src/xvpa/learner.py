"""Incremental learning: state naming, updates, unlearning, sanitization.

States are named from stream prefixes so that equally named states merge;
the naming schemes bound the left-sibling memory by ``k`` and the typing
context by ``l``, which fixes the hypothesis space.  One walk names the
states of a document's run and counts the keys it takes in each counter
table.  Learning adds those counts, creating states and transitions on
first contact.  Mind changes (counters flipping from zero to one) are
recorded per document as a convergence heuristic.

Unlearning takes the same run as learning: it checks and then subtracts
exactly those counts, deleting only the touched keys that reach zero, so
its cost follows the document, not the size of the model.  Sanitization
uniformly decrements all transition counters to shake out rare, possibly
poisoned structure.

A learner instance admits one mutator at a time.  Snapshots taken between
mutations are immutable; validators built from them never block learning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import CHARS, START, DocumentEventStream
from .weighted import START_STATE, TEXT_PLACEHOLDER, StateName, WeightedVpa

ANCESTOR = "ancestor"
ANCESTOR_SIBLING = "ancestor-sibling"


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
    """Persistent learner state: weighted VPA, scheme, and bookkeeping."""

    def __init__(self, dts, scheme: NamingScheme):
        self.dts = dts
        self.scheme = scheme
        self.dts_hash = dts.content_hash
        self.vpa = WeightedVpa()
        self.documents_learned = 0
        self.mind_changes: list[int] = []
        self.sanitized = False

    # -- learning -------------------------------------------------------------

    def learn(self, stream: DocumentEventStream) -> int:
        """One-pass incremental update; returns this document's mind changes.

        The stream must be a validated DocumentEventStream; on that
        precondition the pass cannot fail midway, so the update is applied
        directly and is per-document atomic.
        """
        self._check_input(stream)
        v = self.vpa
        changes = 0
        new = ([], [], [], [], [])
        for weights, taken, fresh in zip(self._weights(), self._run(stream), new):
            for key, entry in taken.items():
                old = weights.get(key, 0)
                weights[key] = old + entry[0]
                if old == 0:
                    fresh.append((key, entry[1]))
                    changes += 1
        calls, ints, rets, states, finals = new
        v.call_to.update(calls)
        v.int_to.update((q, target) for (q, _dt), target in ints)
        v.ret_to.update(rets)
        v.states.update(q for q, _ in states)
        v.finals.update(q for q, _ in finals)

        self.documents_learned += 1
        self.mind_changes.append(changes)
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
        v = self.vpa
        missing = []
        underflow = None
        remaining = []
        for kind, weights, taken in zip(("call", "text transition", "return", None, None),
                                        self._weights(), self._run(stream)):
            left = []
            for key, entry in taken.items():
                have = weights.get(key, 0)
                if kind and have <= 0:
                    missing.append((entry[2], f"no {kind} on {key[1]}"))
                elif have < entry[0]:
                    underflow = key
                left.append((key, have - entry[0]))
            remaining.append(left)
        if missing:
            raise MissingTransitionError(*min(missing))
        if underflow is not None:
            raise CounterUnderflowError(f"counter for {underflow!r} would underflow")

        # commit; keys that reach zero are deleted with their targets
        calls, ints, rets, states, finals = dropped = ([], [], [], [], [])
        for weights, left, gone in zip(self._weights(), remaining, dropped):
            for key, count in left:
                if count:
                    weights[key] = count
                else:
                    del weights[key]
                    gone.append(key)
        for key in calls:
            del v.call_to[key]
        for key in rets:
            del v.ret_to[key]
        for q in {q for q, _dt in ints}:
            if not any((q, dt) in v.w_int for dt in self.dts.datatypes):
                del v.int_to[q]
        v.states.difference_update(states)
        v.finals.difference_update(finals)
        self.documents_learned -= 1
        if self.mind_changes:
            self.mind_changes.pop()

    def _run(self, stream: DocumentEventStream):
        """The keys a document's run takes in each counter table.

        Returns the call, text, return, state and final tables, in the
        order of ``_weights``; each maps a key to ``[count, target state,
        index of the first event that takes it]``.  Text keys are
        ``(source, datatype)``.  Targets are named, never looked up, so the
        run does not depend on what the automaton holds.
        """
        scheme = self.scheme
        infer = self.dts.infer
        calls: dict = {}
        ints: dict = {}
        rets: dict = {}
        states: dict = {}
        stack: list[StateName] = []
        q = START_STATE
        index = -1
        # one setdefault per key: a state name is a nested tuple, and its
        # hash is computed again on every lookup
        for event in stream:
            index = event.index
            kind = event.kind
            if kind == CHARS:
                q2 = int_name(scheme, q)
                for dt in sorted(infer(event.label)):
                    ints.setdefault((q, dt), [0, q2, index])[0] += 1
            else:
                element = event.label.render()
                if kind == START:
                    q2 = call_name(scheme, q, element)
                    calls.setdefault((q, element), [0, q2, index])[0] += 1
                    stack.append(q)
                else:
                    popped = stack.pop()
                    q2 = ret_name(scheme, q, popped, element)
                    rets.setdefault((q, element, popped), [0, q2, index])[0] += 1
            states.setdefault(q2, [0, q2, index])[0] += 1
            q = q2
        return calls, ints, rets, states, {q: [1, q, index]}

    def _weights(self):
        v = self.vpa
        return v.w_call, v.w_int, v.w_ret, v.w_state, v.w_final

    # -- sanitization -----------------------------------------------------------

    def sanitize(self) -> bool:
        """Trim low-frequency structure by a uniform counter decrement.

        Stage 1 decrements every transition counter by one (floored at
        zero) and recomputes each non-start state's counter as the sum of
        its incoming transition weights (finals take the recomputed state
        weight).  Stage 2 removes states left unreachable from the start.
        If no reachable final state would survive, everything reverts and
        False is returned (not applicable); otherwise the trimmed result
        replaces the learner's automaton and True is returned.

        Sanitizing marks the state: subsequent unlearns are refused.
        """
        v = self.vpa
        w_call = {k: max(0, w - 1) for k, w in v.w_call.items()}
        w_ret = {k: max(0, w - 1) for k, w in v.w_ret.items()}
        w_int = {k: max(0, w - 1) for k, w in v.w_int.items()}

        edges = [(key[0], v.call_to[key], w) for key, w in w_call.items() if w > 0]
        edges += [(key[0], v.ret_to[key], w) for key, w in w_ret.items() if w > 0]
        edges += [(src, v.int_to[src], w) for (src, _dt), w in w_int.items() if w > 0]
        incoming: dict[StateName, int] = {}
        adj: dict[StateName, list[StateName]] = {}
        for src, dst, w in edges:
            incoming[dst] = incoming.get(dst, 0) + w
            adj.setdefault(src, []).append(dst)
        live = {START_STATE}
        work = [START_STATE]
        while work:
            for t in adj.get(work.pop(), ()):
                if t not in live:
                    live.add(t)
                    work.append(t)

        # unreachable states get weight zero, so trimming drops every
        # transition that touches them
        w_state = {q: incoming[q] for q in live if incoming.get(q, 0) > 0}
        w_final = {q: w_state[q] for q in v.finals if q in w_state}
        if not w_final:
            return False  # revert: nothing was mutated

        v.w_call, v.w_ret, v.w_int, v.w_state, v.w_final = w_call, w_ret, w_int, w_state, w_final
        # full trim semantics: drop datatype transitions subsumed by a kept one
        self.vpa = v.trimmed(self.dts)
        self.sanitized = True
        return True

    # -- queries ---------------------------------------------------------------

    def snapshot(self) -> WeightedVpa:
        """Trimmed, immutable view of the current automaton."""
        return self.vpa.trimmed(self.dts)

    def mind_change_series(self) -> list[int]:
        return list(self.mind_changes)

    def _check_input(self, stream):
        if not isinstance(stream, DocumentEventStream):
            raise TypeError("learner operations require a DocumentEventStream")
        if self.dts.content_hash != self.dts_hash:
            raise DatatypeMismatchError(
                "datatype definition file changed since this state was created")
