"""The intermediate weighted visibly pushdown automaton.

This is the learner's substrate: named states, call/internal/return
transitions, and frequency counters for states, final states, and
transitions.  Counters are plain Python ints (arbitrary precision), so
exact decrements for unlearning are always possible.

State names are exact pairs ``(typing_context, left_siblings)`` of tuples;
no hashing scheme may alias distinct names, so plain tuple equality keys
every map.  Under the ancestor scheme the context is a tuple of element
names; under the ancestor-sibling scheme it is a tuple of segments, each a
tuple of element names (and the text placeholder).

Mutation is single-writer: the learner serializes all updates.  Trimmed
snapshots are fresh objects, treated as immutable, and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass

StateName = tuple  # (context, siblings)

START_STATE: StateName = ((), ())

TEXT_PLACEHOLDER = "$"


@dataclass(frozen=True)
class SnapshotStats:
    """Summary over positive-weight entries (plus the start state)."""

    states: int
    transitions: int
    finals: int
    total_weight: int


class WeightedVpa:
    """States, finals, deterministic transition maps, and counters.

    Transition structure:
      * calls:    ``(source, element) -> target`` pushing the source state
      * internals: ``source -> target`` with per-datatype counters keyed
        ``(source, datatype)`` (a datatype choice shares one successor)
      * returns:  ``(source, element, popped) -> target``
    """

    __slots__ = ("states", "finals", "call_to", "int_to", "ret_to",
                 "w_state", "w_final", "w_call", "w_int", "w_ret")

    def __init__(self):
        self.states: set[StateName] = {START_STATE}
        self.finals: set[StateName] = set()
        self.call_to: dict[tuple, StateName] = {}
        self.int_to: dict[StateName, StateName] = {}
        self.ret_to: dict[tuple, StateName] = {}
        self.w_state: dict[StateName, int] = {}
        self.w_final: dict[StateName, int] = {}
        self.w_call: dict[tuple, int] = {}
        self.w_int: dict[tuple, int] = {}
        self.w_ret: dict[tuple, int] = {}

    # -- summaries -----------------------------------------------------------

    def stats(self) -> SnapshotStats:
        states = sum(1 for w in self.w_state.values() if w > 0)
        if self.w_state.get(START_STATE, 0) <= 0:
            states += 1  # the start state survives with weight zero
        transitions = (sum(1 for w in self.w_call.values() if w > 0)
                       + sum(1 for w in self.w_int.values() if w > 0)
                       + sum(1 for w in self.w_ret.values() if w > 0))
        finals = sum(1 for w in self.w_final.values() if w > 0)
        total = (sum(self.w_state.values()) + sum(self.w_final.values())
                 + sum(self.w_call.values()) + sum(self.w_int.values())
                 + sum(self.w_ret.values()))
        return SnapshotStats(states, transitions, finals, total)

    # -- trim ----------------------------------------------------------------

    def trimmed(self, dts) -> "WeightedVpa":
        """Positive-weight snapshot with datatype antichain reduction.

        Zero-weight transitions, states, and finals are dropped (the start
        state always survives).  For every internal state pair, only the
        lexically maximal surviving datatypes are kept: a subsumed datatype
        adds nothing to the snapshot's language.  The receiver is not
        mutated; raw counters keep subsumed entries so unlearning stays
        exact.
        """
        snap = WeightedVpa()
        snap.states = {q for q, w in self.w_state.items() if w > 0}
        snap.states.add(START_STATE)
        snap.finals = {q for q, w in self.w_final.items() if w > 0}
        snap.w_state = {q: w for q, w in self.w_state.items() if w > 0}
        snap.w_final = {q: w for q, w in self.w_final.items() if w > 0}
        for key, w in self.w_call.items():
            if w > 0:
                dst = self.call_to[key]
                if key[0] in snap.states and dst in snap.states:
                    snap.call_to[key] = dst
                    snap.w_call[key] = w
        for key, w in self.w_ret.items():
            if w > 0:
                dst = self.ret_to[key]
                if key[0] in snap.states and dst in snap.states:
                    snap.ret_to[key] = dst
                    snap.w_ret[key] = w
        by_src: dict[StateName, set[str]] = {}
        for (src, dt), w in self.w_int.items():
            if w > 0:
                by_src.setdefault(src, set()).add(dt)
        for src, dtset in by_src.items():
            dst = self.int_to[src]
            if src not in snap.states or dst not in snap.states:
                continue
            snap.int_to[src] = dst
            for dt in dts.maxima(dtset):
                snap.w_int[(src, dt)] = self.w_int[(src, dt)]
        return snap

    # -- comparisons (tests, set-drivenness) ----------------------------------

    def structure(self):
        """Hashable view of states, finals, and transitions sans weights."""
        return (
            frozenset(self.states),
            frozenset(self.finals),
            frozenset((k, v) for k, v in self.call_to.items() if self.w_call.get(k, 0) > 0),
            frozenset((k, self.int_to[k[0]]) for k, w in self.w_int.items() if w > 0),
            frozenset((k, v) for k, v in self.ret_to.items() if self.w_ret.get(k, 0) > 0),
        )

    def __eq__(self, other):
        if not isinstance(other, WeightedVpa):
            return NotImplemented
        return (self.structure() == other.structure()
                and self.w_state == other.w_state
                and self.w_final == other.w_final
                and self.w_call == other.w_call
                and self.w_int == other.w_int
                and self.w_ret == other.w_ret)

    def __hash__(self):
        raise TypeError("WeightedVpa is not hashable")
