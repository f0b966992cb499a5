"""The intermediate weighted visibly pushdown automaton.

This is the learner's substrate: named states, call/internal/return
transitions, and frequency counters for states, final states, and
transitions.  Counters are plain Python ints (arbitrary precision), so
exact decrements for unlearning are always possible.  No count below 1 is
stored: an entry whose counter reaches zero is deleted.

State names are exact pairs ``(typing_context, left_siblings)`` of tuples;
no hashing scheme may alias distinct names, so plain tuple equality keys
every map.  Under the ancestor scheme the context is a tuple of element
names; under the ancestor-sibling scheme it is a tuple of segments, each a
tuple of element names (and the text placeholder).

Mutation is single-writer: the learner serializes all updates.  Trimmed
snapshots are fresh objects, treated as immutable, and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

StateName = tuple  # (context, siblings)

START_STATE: StateName = ((), ())

TEXT_PLACEHOLDER = "$"


@dataclass(frozen=True)
class SnapshotStats:
    """Summary over the stored entries (plus the start state)."""

    states: int
    transitions: int
    finals: int
    total_weight: int


@dataclass(slots=True)
class WeightedVpa:
    """One table per counter.

      * states, finals: ``state -> count``; the start state is implicit
      * calls:     ``(source, element) -> (target, count)``, pushing the source
      * ints:      ``(source, datatype) -> (target, count)``; all datatypes
        of one source share its target (a datatype choice)
      * rets:      ``(source, element, popped) -> (target, count)``

    Equal when every table is; mutable, so not hashable.
    """

    states: dict[StateName, int] = field(default_factory=dict)
    finals: dict[StateName, int] = field(default_factory=dict)
    calls: dict[tuple, tuple[StateName, int]] = field(default_factory=dict)
    ints: dict[tuple, tuple[StateName, int]] = field(default_factory=dict)
    rets: dict[tuple, tuple[StateName, int]] = field(default_factory=dict)

    # -- summaries -----------------------------------------------------------

    def stats(self) -> SnapshotStats:
        transitions = (self.calls, self.ints, self.rets)
        total = (sum(self.states.values()) + sum(self.finals.values())
                 + sum(w for table in transitions for _dst, w in table.values()))
        return SnapshotStats(len(self.states) + (START_STATE not in self.states),
                             sum(map(len, transitions)), len(self.finals), total)

    # -- trim ----------------------------------------------------------------

    def trimmed(self, dts) -> "WeightedVpa":
        """Snapshot of the counted part with datatype antichain reduction.

        Transitions whose source or target is not a counted state are
        dropped, and so are returns whose popped state is not counted (the
        start state always counts).  For every text source, only the
        lexically maximal datatypes are kept: a subsumed datatype adds
        nothing to the snapshot's language.  The receiver is not
        mutated; raw counters keep subsumed entries so unlearning stays
        exact.
        """
        counted = self.states.keys() | {START_STATE}
        by_src: dict[StateName, set[str]] = {}
        for (src, dt), (dst, _w) in self.ints.items():
            if src in counted and dst in counted:
                by_src.setdefault(src, set()).add(dt)
        return WeightedVpa(
            states=dict(self.states), finals=dict(self.finals),
            calls={key: entry for key, entry in self.calls.items()
                   if key[0] in counted and entry[0] in counted},
            ints={(src, dt): self.ints[(src, dt)]
                  for src, dtset in by_src.items() for dt in dts.maxima(dtset)},
            rets={key: entry for key, entry in self.rets.items()
                  if key[0] in counted and key[2] in counted and entry[0] in counted})
