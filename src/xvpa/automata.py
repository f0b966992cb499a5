"""Modular typed automata and one-pass stream validation.

A trimmed learner snapshot becomes a dXVPA: states partition into modules
by typing context, each module has a single entry, its exit states share
one return table (the single-exit property is the data shape), and
internal transitions carry datatype choices.  The start state calls its
root elements as any state calls an element, and each module it calls is
a start module; a model may have several.  Congruent modules for the
same element are folded.
Compilation numbers the states once and lays the transitions out as
integer tables keyed by rendered element labels; it replaces each state's
datatype choice by one int, the bitmask of its members over the datatype
system's shared, lazily built product of all lexical acceptors, so one
``accept_mask`` call checks each text and compilation builds no automaton.

Validation has one transition rule over those tables, run two ways:
``validate`` loops over a parsed event stream, and ``Validator`` runs the
rule from expat callbacks as the bytes arrive, building no events and
stopping at the first rejection.  Both routes key the tables by the
labels of the QNames that ``events`` makes; neither splits a name itself.

Generated automata are immutable; validation is reentrant and safe for
concurrent use across streams (the shared product builds its states under
a lock).  A ``Validator`` holds one document's run and serves one caller.
"""

from __future__ import annotations

import functools
import gc
import xml.parsers.expat
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType

from . import events
from .dfa import refine
from .events import (CHARS, END, START, DocumentEventStream, _attributes, _check_head,
                     _expat_parser, _malformed, _qname)
from .weighted import START_STATE, StateName, WeightedVpa

UNEXPECTED_ELEMENT = "unexpected-element"
UNEXPECTED_END = "unexpected-end"
DATATYPE_MISMATCH = "datatype-mismatch"
PREMATURE_EOF = "premature-eof"
TRAILING_CONTENT = "trailing-content"
EMPTY_LANGUAGE = "empty-language"


def _gc_paused(fn):
    """Run ``fn`` with the cyclic garbage collector off; after it, collect
    only the youngest generation, what ``fn`` made, if that passed the
    collector's threshold.  A collector that was off stays off.  Loading a
    state file and each step from it to a compiled model allocate
    thousands of containers that live until the step returns and form no
    reference cycles, so a collection inside a step frees nothing.  Left
    on, the collector ran every 700 of them, and a collection of the
    caller's whole heap, when one was due, fell into whichever build came
    next, so a build's time depended on what had run before it.  Paused,
    a step never starts a collection of an older generation; the next
    allocation outside the steps does that."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
            if gc.get_count()[0] > gc.get_threshold()[0]:
                gc.collect(0)
    return paused


class EmptyLanguageError(ValueError):
    """The snapshot has no reachable final state: nothing to generate."""


class AutomatonStructureError(ValueError):
    """The snapshot violates an assumption of automaton generation."""


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: str | None = None
    event_index: int | None = None

    def __bool__(self):
        return self.accepted


ACCEPT = Verdict(True)

@dataclass
class Module:
    """One schema type: entry, exits, and its three transition relations.

    ``calls`` map (state, element) to the callee module; ``internals`` map
    a state to its unique successor and datatype choice; ``returns`` map
    (popped state, element) to a state of the calling module, and every
    state in ``exits`` takes every return (single-exit property).  Calls
    from the start state and returns that pop it open and close a root
    element: they are kept out of ``calls`` and ``returns``, ``Dxvpa.roots``
    holds the calls, and the compiled model adds each root's call and
    return.
    """

    element: str
    states: set = field(default_factory=set)
    entry: StateName = None
    exits: set = field(default_factory=set)
    calls: dict = field(default_factory=dict)
    internals: dict = field(default_factory=dict)
    returns: dict = field(default_factory=dict)


@dataclass(eq=False)
class Dxvpa:
    """Datatyped modular automaton over a lexical datatype system, as
    ``build_xvpa`` makes and checks it, its modules keyed by typing context.
    ``roots`` maps each root element to its start module's key, the module
    that the start state's call on that element enters."""

    modules: dict[tuple, Module]
    roots: dict[str, tuple]
    dts: object


@dataclass(eq=False)
class Cxvpa:
    """Table-driven automaton for one-pass validation, on integer states,
    whose text transitions are bitmasks over the datatype product.

    ``compile_cxvpa`` numbers the dXVPA's states once; ``names[i]`` is the
    ``StateName`` of state ``i``, and state 0 is the start state.  Three
    tables, each indexed by state, hold the transitions:

    * ``calls[q]`` maps an element's rendered label to the callee's entry;
    * ``returns[p]`` maps an element's rendered label, for popped state
      ``p``, to ``(target, exits)``: the state the one module that takes
      that return resumes in, and the ids of that module's exits, the only
      states that take it;
    * ``texts[q]`` is ``(mask, target)``, every datatype choice fused into
      one bitmask over the datatype product, or None.

    Each root element is an ordinary call from the start state into its
    start module's entry; its return, taken by that module's exits,
    empties the stack and has no target (None).  No module call or return
    is keyed by the start state.  ``predicates`` maps each datatype set to
    its mask.  A text takes ``texts[q]`` when ``accept_mask(text, mask) &
    mask`` is nonzero, ``accept_mask`` being the product's.
    """

    names: tuple[StateName, ...]
    calls: tuple[dict[str, int], ...]
    returns: tuple[dict[str, tuple[int | None, frozenset[int]]], ...]
    texts: tuple[tuple[int, int] | None, ...]
    predicates: dict[frozenset, int]
    accept_mask: object


# ---------------------------------------------------------------------------
# generation from a snapshot

@_gc_paused
def build_xvpa(snapshot: WeightedVpa, dts, minimize_modules: bool = True) -> Dxvpa:
    """Assemble a dXVPA from a trimmed snapshot.

    Modules are the distinct nonempty typing contexts; the start state's
    calls are read as any state's, and ``roots`` maps each root element to
    the start module its call enters; each module's entry is the state
    with empty siblings; exits are states with outgoing returns, and the
    module's one return table, keyed by (popped state, element), holds the
    returns of all its exits, so each exit takes each of them.  A return
    key that two modules take, or that lies outside the module the popped
    state's call on its element enters, or that has two targets in one
    module, is a structure error: a learner never makes one, since the
    callee and the target are functions of the popped state and element.
    (A crossed return would come alive when minimize folds its module
    into the callee's class.)  So are a call, text or return source, a
    text or return target and a popped state that is no state of its
    module, and a return that targets a text's successor (mixed
    content).  Each transition map is read once, so the cost is linear
    in the snapshot.
    """
    states_of: dict[tuple, set] = {}
    for q in snapshot.states:
        states_of.setdefault(q[0], set()).add(q)
    states_of.pop((), None)  # the start state and the states after a root
    modules: dict[tuple, Module] = {}
    for ctx, states in states_of.items():
        entry = (ctx, ())
        if entry not in states:
            raise AutomatonStructureError(f"module {ctx!r} lacks entry state")
        modules[ctx] = Module(element="", entry=entry, states=states)

    # transitions, partitioned by source module; a text target is a state of
    # the source's module, a return target one of the popped state's
    entry_elements: dict[tuple, set[str]] = {ctx: set() for ctx in modules}
    roots: dict[str, tuple] = {}
    for (q, c), (dst, _w) in snapshot.calls.items():
        mod = modules.get(q[0])
        if q != START_STATE and (mod is None or q not in mod.states) or dst[0] not in modules:
            raise _outside_modules((q, c, dst))
        if q == START_STATE:
            roots[c] = dst[0]
        else:
            mod.calls[(q, c)] = dst[0]
        entry_elements[dst[0]].add(c)
    if not roots or not snapshot.finals:
        raise EmptyLanguageError("snapshot accepts no document")
    choices: dict[StateName, tuple] = {}
    for (src, dt), (dst, _w) in snapshot.ints.items():
        choices.setdefault(src, (dst, set()))[1].add(dt)
    for src, (dst, dtset) in choices.items():
        mod = modules.get(src[0])
        if mod is None or src not in mod.states or dst not in mod.states:
            raise _outside_modules((src, dst))
        mod.internals[src] = (dst, frozenset(dtset))
    owner: dict[tuple, tuple] = {}
    for (q, c, popped), (dst, _w) in snapshot.rets.items():
        mod = modules.get(q[0])
        if mod is None or q not in mod.states:
            raise _outside_modules((q, c, popped, dst))
        mod.exits.add(q)
        if popped == START_STATE:
            continue  # a root's return: the compiled model adds it
        pmod = modules.get(popped[0])
        if pmod is None or popped not in pmod.states or dst not in pmod.states:
            raise _outside_modules((q, c, popped, dst))
        # the one module that takes it: the callee of its call, if any
        callee = pmod.calls.get((popped, c))
        if owner.setdefault((popped, c), callee or q[0]) != q[0]:
            raise AutomatonStructureError(
                f"return on {c!r} popping {popped!r} lies in two modules or outside its callee")
        if mod.returns.setdefault((popped, c), dst) != dst:
            raise AutomatonStructureError(
                f"return on {c!r} popping {popped!r} has two targets")

    # element assignment: the element whose calls enter the module
    for ctx, mod in modules.items():
        elements = entry_elements[ctx]
        if len(elements) != 1:
            raise AutomatonStructureError(
                f"module {ctx!r} entered by elements {sorted(elements)}; expected exactly one")
        mod.element = elements.pop()
    # mixed content: no return may target a text's unique successor
    text_targets = {dst for dst, _dtset in choices.values()}
    if any(target in text_targets for mod in modules.values() for target in mod.returns.values()):
        raise AutomatonStructureError("return transition targets a datatype-choice successor")

    dxvpa = Dxvpa(modules, roots, dts)
    if minimize_modules:
        dxvpa = minimize(dxvpa)
    return dxvpa


def _outside_modules(transition) -> AutomatonStructureError:
    return AutomatonStructureError(f"transition {transition!r} leaves its modules")


def _matched_reach(calls, ints, rets) -> dict:
    """The states that runs reach with their stack matched, read as the
    dXVPA reads them.

    ``reach[e]`` holds the states that runs entering at ``e`` reach at the
    same stack height; its keys are the start state and every entry some
    run calls.  As in ``build_xvpa``, a return belongs to the table of its
    source's module and every exit of that module takes it: a call from
    ``q`` on ``c`` into ``e`` resumes at the target of ``e``'s module's
    return for ``(q, c)`` once ``reach[e]`` holds an exit.
    """
    int_to = {q: dst for (q, _dt), (dst, _w) in ints.items()}
    calls_of: dict[StateName, list] = {}
    for (q, c), (e, _w) in calls.items():
        calls_of.setdefault(q, []).append((c, e))
    returns = {(popped, c, x[0]): dst for (x, c, popped), (dst, _w) in rets.items()}
    exits = {x for x, _c, _popped in rets}
    reach: dict[StateName, set] = {}
    callers: dict[StateName, list] = {}
    exited = set()  # entries whose reach holds an exit
    work = []

    def add(e, q):
        if q not in reach[e]:
            reach[e].add(q)
            work.append((e, q))

    def resume(e, q, c, callee):
        dst = returns.get((q, c, callee[0]))
        if dst is not None and callee in exited:
            add(e, dst)

    reach[START_STATE], callers[START_STATE] = set(), []
    add(START_STATE, START_STATE)
    while work:
        e, q = work.pop()
        if q in int_to:
            add(e, int_to[q])
        for c, callee in calls_of.get(q, ()):
            if callee not in reach:
                reach[callee], callers[callee] = set(), []
                add(callee, callee)
            callers[callee].append((e, q, c))
            resume(e, q, c, callee)
        if q in exits and e not in exited:
            exited.add(e)
            for caller, popped, c in callers[e]:
                resume(caller, popped, c, e)
    return reach


# ---------------------------------------------------------------------------
# module minimization

@_gc_paused
def minimize(dxvpa: Dxvpa) -> Dxvpa:
    """Fold congruent modules mapped to the same element.

    Congruence is bisimilarity of the module graphs where internal edges
    compare by exact datatype choice and call edges by (element, callee
    module).  One coarsest-partition refinement over all module states
    (``_blocks``) decides it: modules of one element whose entries share a
    block form a class, and each class folds into its member with the
    repr-smallest key.  A call's returns lie in its callee (``build_xvpa``
    checks it), so folding a class never changes the module graph its
    members' callers see, and these classes are the modules a pairwise
    scan leaves.  One pass builds the survivors: calls go to survivors,
    and every member's returns go into its survivor's table, except those
    that pop a state of a folded module, which are dropped.  Dropping is
    exact: no call enters a folded module, the start module maps to its
    survivor, and text and return targets stay in their source's module,
    so no run pushes a state of a folded module or looks such a return up.
    Refinement costs O(m log n) for n states and m edges, and is skipped
    when no element has two modules; the rest is linear.  The input is not
    mutated.
    """
    modules = dxvpa.modules
    shared = len({mod.element for mod in modules.values()}) < len(modules)
    block = _blocks(modules) if shared else {}  # else every class has one member

    survivor: dict[tuple, tuple] = {}
    classes: dict[tuple, tuple] = {}
    for key in sorted(modules, key=repr):
        mod = modules[key]
        survivor[key] = classes.setdefault((mod.element, block.get(mod.entry)), key)

    folded = {key: Module(element=mod.element, states=set(mod.states),
                          entry=mod.entry, exits=set(mod.exits),
                          calls={qc: survivor[callee] for qc, callee in mod.calls.items()},
                          internals=dict(mod.internals))
              for key, mod in modules.items() if survivor[key] == key}
    for key, mod in modules.items():
        returns = folded[survivor[key]].returns
        for (popped, c), target in mod.returns.items():
            if survivor[popped[0]] == popped[0]:
                returns[(popped, c)] = target
    return Dxvpa(folded, {c: survivor[key] for c, key in dxvpa.roots.items()}, dxvpa.dts)


def _blocks(modules: dict) -> dict[StateName, int]:
    """The block of each module state in the coarsest partition (``refine``)
    keyed by its exit flag, its datatype choice and its call elements, each
    with whether the callee resumes it, over its text edge, its call edges
    ``(element, "entry")`` to the callee's entry and ``(element, "resume")``
    to the state its module resumes in after the callee returns, which
    ``build_xvpa`` checks is a state of that module, as it checks a text
    edge's target."""
    labels: dict[StateName, list[str]] = {}  # a state's call elements
    for mod in modules.values():
        for q, c in mod.calls:
            labels.setdefault(q, []).append(c)
    initial: dict = {}
    edges = []
    for mod in modules.values():
        for q in mod.states:
            calls = []
            for c in sorted(labels.get(q, ())):
                callee = modules[mod.calls[(q, c)]]
                resume = callee.returns.get((q, c))
                calls.append((c, resume is not None))
                edges.append((q, (c, "entry"), callee.entry))
                if resume is not None:
                    edges.append((q, (c, "resume"), resume))
            hit = mod.internals.get(q)
            if hit is not None:
                edges.append((q, "text", hit[0]))
            initial[q] = (q in mod.exits, None if hit is None else hit[1], tuple(calls))
    return refine(initial, edges)


# ---------------------------------------------------------------------------
# compilation and validation

@_gc_paused
def compile_cxvpa(dxvpa: Dxvpa) -> Cxvpa:
    """Number the dXVPA's states once and build the integer tables of
    ``Cxvpa`` from its modules in one pass.  Every datatype choice becomes
    the mask of its members over the datatype system's shared product,
    one per distinct set.  No automaton is built; the product grows its
    states as texts need them."""
    modules = dxvpa.modules
    ids = {START_STATE: 0}
    for mod in modules.values():
        for q in mod.states:
            ids[q] = len(ids)
    entries = {key: ids[mod.entry] for key, mod in modules.items()}
    calls: dict[int, dict] = {0: {c: entries[key] for c, key in dxvpa.roots.items()}}
    returns: dict[int, dict] = {0: {c: (None, frozenset(map(ids.__getitem__, modules[key].exits)))
                                    for c, key in dxvpa.roots.items()}}
    texts: dict[int, tuple] = {}
    predicates: dict[frozenset, int] = {}
    for mod in modules.values():
        for (q, c), callee in mod.calls.items():
            q = ids[q]
            if q in calls:
                calls[q][c] = entries[callee]
            else:
                calls[q] = {c: entries[callee]}
        exits = frozenset(map(ids.__getitem__, mod.exits))
        for (popped, c), target in mod.returns.items():
            popped = ids[popped]
            if popped in returns:
                returns[popped][c] = (ids[target], exits)
            else:
                returns[popped] = {c: (ids[target], exits)}
        for src, (dst, dtset) in mod.internals.items():
            mask = predicates.get(dtset)
            if mask is None:
                mask = predicates[dtset] = dxvpa.dts.mask(dtset)
            texts[ids[src]] = (mask, ids[dst])
    states = range(len(ids))
    none = repeat(_NO_MOVES)
    return Cxvpa(tuple(ids), tuple(map(calls.get, states, none)),
                 tuple(map(returns.get, states, none)), tuple(map(texts.get, states)),
                 predicates, dxvpa.dts.product.accept_mask)


_NO_MOVES = MappingProxyType({})


def validate(model: Cxvpa, stream: DocumentEventStream) -> Verdict:
    """Single-pass run over a document event stream.

    Reads the stream's kind and label tuples directly and builds no Event;
    an event's index is its position.  The run starts in the start state
    (0) with an empty stack, so the root element is its first call, and
    each event is one lookup in the state's call, return or text table,
    keyed by the QName's rendered label; a text is checked once against the
    state's mask.  The stream is accepted when it ends just after the
    root's return, which empties the stack.  A rejection is a verdict, never
    an exception; cost is linear in event count plus total text length.
    Anything but a DocumentEventStream, or an unchecked one whose labels
    are not names and texts, raises TypeError.  ``Validator`` drives the
    same tables and rule from expat callbacks.
    """
    if not isinstance(stream, DocumentEventStream):
        raise TypeError("validate requires a DocumentEventStream")
    calls, returns, texts, accept = model.calls, model.returns, model.texts, model.accept_mask
    q = 0
    stack = []
    index = -1
    run = zip(stream.indices, stream.kinds, stream.labels)
    try:
        for index, kind, label in run:
            if kind == CHARS:
                hit = texts[q]
                if hit is None or not accept(label, hit[0]) & hit[0]:
                    return Verdict(False, DATATYPE_MISMATCH, index)
                q = hit[1]
            elif kind == START:
                target = calls[q].get(label._rendered)
                if target is None:
                    return Verdict(False, UNEXPECTED_ELEMENT, index)
                stack.append(q)
                q = target
            elif kind == END:
                hit = returns[stack.pop()].get(label._rendered) if stack else None
                if hit is None or q not in hit[1]:
                    return Verdict(False, UNEXPECTED_END, index)
                q = hit[0]
                if not stack:
                    break  # the root's return
            else:
                return Verdict(False, UNEXPECTED_ELEMENT, index)
        else:
            return Verdict(False, PREMATURE_EOF, index)
    except (AttributeError, TypeError) as exc:
        raise TypeError("stream labels are not names and texts") from exc
    for index, _kind, _label in run:
        return Verdict(False, TRAILING_CONTENT, index)
    return ACCEPT


class _Rejected(Exception):
    """Raised in an expat callback to stop the parse at a rejection."""


class Validator:
    """Push-mode validation of one document, fused with its parse.

    ``feed(chunk)`` parses the next bytes and ``close()`` ends the input.
    Expat callbacks, installed by the setup ``parse_document`` uses, drive
    ``validate``'s tables and rule: no Event and no stream is built, names
    come from the shared tables of ``parse_document`` (bound once per
    document) as the same QNames, and attributes are read as the sorted
    ``start(@name), characters(value), end(@name)`` triples it emits, which
    the event index counts.  Text is buffered only until its run ends, so a
    whitespace-only run is still dropped.  The checks of ``parse_document``
    hold however the input is chunked: UTF-8 only (the first four bytes are
    held back until all four are seen), the declared encoding, and the
    DOCTYPE refusal.

    The first rejection ends the document: reading stops there, and
    ``feed`` and ``close`` return that verdict (false) from then on.  Until
    then ``feed`` returns ACCEPT, nothing being rejected so far, and
    ``close`` returns the document's verdict, on every call.  Once ``close``
    has accepted the document, or a parse error was raised, ``feed`` raises
    ``ValueError``.  A parse error is raised as ``parse_document`` raises
    it, but only when it comes before any rejection: a document rejected at
    some event and malformed later is rejected, where ``validate(model,
    parse_document(raw))`` raises.
    """

    def __init__(self, model: Cxvpa):
        calls, returns, texts, accept = model.calls, model.returns, model.texts, model.accept_mask
        q = 0
        stack: list[int] = []
        index = 0  # of the next event
        buf: list[str] = []
        elements, attributes = events._shared

        def flush_text():
            nonlocal q, index
            run = "".join(buf)
            buf.clear()
            if run.strip(" \t\r\n"):
                hit = texts[q]
                if hit is None or not accept(run, hit[0]) & hit[0]:
                    raise _Rejected(DATATYPE_MISMATCH, index)
                q = hit[1]
                index += 1

        def on_start(name, attrs):
            nonlocal q, index
            if buf:
                flush_text()
            target = calls[q].get((elements.get(name) or _qname(elements, name, False))._rendered)
            if target is None:
                raise _Rejected(UNEXPECTED_ELEMENT, index)
            stack.append(q)
            q = target
            index += 1
            if attrs:
                for _ns, _local, qn, value in _attributes(attributes, attrs):
                    label = qn._rendered
                    target = calls[q].get(label)
                    if target is None:
                        raise _Rejected(UNEXPECTED_ELEMENT, index)
                    hit = texts[target]
                    if hit is None or not accept(value, hit[0]) & hit[0]:
                        raise _Rejected(DATATYPE_MISMATCH, index + 1)
                    back = returns[q].get(label)
                    if back is None or hit[1] not in back[1]:
                        raise _Rejected(UNEXPECTED_END, index + 2)
                    q = back[0]
                    index += 3

        def on_end(name):
            nonlocal q, index
            if buf:
                flush_text()
            hit = returns[stack.pop()].get(elements[name]._rendered)
            if hit is None or q not in hit[1]:
                raise _Rejected(UNEXPECTED_END, index)
            q = hit[0]
            index += 1

        self._parser = _expat_parser(on_start, on_end, buf)
        self._head = b""  # the first bytes, until four are seen
        self._verdict: Verdict | None = None

    def feed(self, chunk) -> Verdict:
        """Read the next bytes of the document."""
        if self._verdict is ACCEPT:  # only close() stores it
            raise ValueError("the document has ended")
        if self._verdict is None:
            if self._head is not None:
                self._head += chunk
                if len(self._head) < 4:
                    return ACCEPT
                chunk, self._head = self._head, None
                _check_head(chunk[:4])
            self._parse(chunk, False)
        return ACCEPT if self._verdict is None else self._verdict

    def close(self) -> Verdict:
        """End the input; the document's verdict."""
        if self._verdict is None:
            head, self._head = self._head or b"", None
            _check_head(head)
            self._parse(head, True)  # the bytes held back, and the end
            if self._verdict is None:
                # expat ended without an error, so the root element closed
                # and every event was taken
                self._verdict = ACCEPT
        return self._verdict

    def _parse(self, data, final: bool):
        if self._parser is None:
            raise ValueError("the document has ended in an error")
        done = True
        try:
            self._parser.Parse(data, final)
            done = final
        except _Rejected as stop:
            self._verdict = Verdict(False, *stop.args)
        except xml.parsers.expat.ExpatError as exc:
            raise _malformed(exc) from None
        finally:
            if done:
                # the DOCTYPE handler holds the parser: break the cycle
                self._parser.StartDoctypeDeclHandler = None
                self._parser = None


# ---------------------------------------------------------------------------
# DOT export

def to_dot(automaton, compiled: bool = False) -> str:
    """Graphviz rendering: modules as clusters, entries bold, exits double.

    Deterministic output (sorted modules, states, edges) so renderings can
    be used as golden files.
    """
    if isinstance(automaton, Cxvpa):
        raise TypeError("pass the dXVPA; use compiled=True for predicate labels")
    dxvpa = automaton
    ids = {}
    lines = ["digraph xvpa {", "  rankdir=LR;", "  node [shape=circle fontsize=10];"]
    predicates = {}  # numbered in the order the sorted edges first use them
    starts = set(dxvpa.roots.values())
    for mi, key in enumerate(sorted(dxvpa.modules, key=repr)):
        mod = dxvpa.modules[key]
        lines.append(f"  subgraph cluster_{mi} {{")
        star = " (start)" if key in starts else ""
        lines.append(f'    label="{_dot_text(mod.element)}{star}";')
        for q in sorted(mod.states, key=repr):
            ids[q] = f"s{len(ids)}"
            shape = "doublecircle" if q in mod.exits else "circle"
            style = ' style=bold' if q == mod.entry else ""
            label = "e" if q == mod.entry else ("x" if q in mod.exits else "q")
            lines.append(f'    {ids[q]} [shape={shape}{style} label="{label}"];')
        lines.append("  }")

    for key in sorted(dxvpa.modules, key=repr):
        mod = dxvpa.modules[key]
        for src in sorted(mod.internals, key=repr):
            dst, dtset = mod.internals[src]
            if compiled:
                label = predicates.setdefault(frozenset(dtset), f"p{len(predicates)}")
            else:
                label = _dot_text(", ".join(sorted(dtset)))
            lines.append(f'  {ids[src]} -> {ids[dst]} [label="{label}"];')
        for (q, c) in sorted(mod.calls, key=repr):
            entry = dxvpa.modules[mod.calls[(q, c)]].entry
            lines.append(f'  {ids[q]} -> {ids[entry]} [label="{_dot_text(c)}" style=dashed];')
        rows = [((x, c, popped), dst) for (popped, c), dst in mod.returns.items()
                for x in mod.exits]
        for (x, c, _popped), dst in sorted(rows, key=lambda row: repr(row[0])):
            lines.append(f'  {ids[x]} -> {ids[dst]} [label="/{_dot_text(c)}" style=dotted];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_text(name: str) -> str:
    """An element or datatype name as the body of a quoted DOT string."""
    return name.replace("\\", "\\\\").replace('"', '\\"')
