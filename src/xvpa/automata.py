"""Modular typed automata and one-pass stream validation.

A trimmed learner snapshot becomes a dXVPA: states partition into modules
by typing context, each module has a single entry, its exit states share
one return table (the single-exit property is the data shape), and
internal transitions carry datatype choices.  Congruent modules for the
same element are folded.
Compilation replaces each state's datatype choice by a single predicate
acceptor (the determinized, minimized union of the members' lexical
acceptors) so validation checks every text exactly once.

Generated automata are immutable; validation is reentrant and safe for
concurrent use across streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dfa import Dfa, union_dfas
from .events import CHARS, END, START, QName
from .weighted import START_STATE, StateName, WeightedVpa

UNEXPECTED_ELEMENT = "unexpected-element"
UNEXPECTED_END = "unexpected-end"
DATATYPE_MISMATCH = "datatype-mismatch"
PREMATURE_EOF = "premature-eof"
TRAILING_CONTENT = "trailing-content"
EMPTY_LANGUAGE = "empty-language"


class EmptyLanguageError(ValueError):
    """The snapshot has no reachable final state: nothing to generate."""


class AutomatonStructureError(ValueError):
    """The snapshot violates an assumption of automaton generation."""


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: str | None = None
    event_index: int | None = None
    state: str | None = None

    def __bool__(self):
        return self.accepted


ACCEPT = Verdict(True)


@dataclass
class Module:
    """One schema type: entry, exits, and its three transition relations.

    ``calls`` map (state, element) to the callee module; ``internals`` map
    a state to its unique successor and datatype choice; ``returns`` map
    (popped state, element) to a state of the calling module, and every
    state in ``exits`` takes every return (single-exit property).  Returns
    that pop the start state close the root element and are kept out of
    ``returns``: they are represented by module exits + finals.
    """

    context: tuple
    element: str
    states: set = field(default_factory=set)
    entry: StateName = None
    exits: set = field(default_factory=set)
    calls: dict = field(default_factory=dict)
    internals: dict = field(default_factory=dict)
    returns: dict = field(default_factory=dict)


class Dxvpa:
    """Datatyped modular automaton over a lexical datatype system."""

    def __init__(self, modules, m0, root_element, dts):
        self.modules: dict[tuple, Module] = modules
        self.m0 = m0
        self.root_element = root_element
        self.dts = dts
        self.finals = frozenset(modules[m0].exits)
        self._check_structure()

    def _check_structure(self):
        internal_targets = set()
        for key, mod in self.modules.items():
            if mod.entry not in mod.states:
                raise AutomatonStructureError(f"module {key!r} lacks its entry state")
            internal_targets.update(dst for dst, _ in mod.internals.values())
        # mixed content: the unique datatype-choice successor is structural
        # (internals is a map); no return may target such a successor
        for mod in self.modules.values():
            for target in mod.returns.values():
                if target in internal_targets:
                    raise AutomatonStructureError(
                        "return transition targets a datatype-choice successor")

    def stats(self):
        return {
            "modules": len(self.modules),
            "states": sum(len(m.states) for m in self.modules.values()),
            "calls": sum(len(m.calls) for m in self.modules.values()),
            "internals": sum(len(m.internals) for m in self.modules.values()),
            "returns": sum(len(m.returns) for m in self.modules.values()),
        }


class Cxvpa:
    """Predicate-transition automaton for one-pass validation.

    Structure mirrors the dXVPA it was compiled from; every datatype
    choice is fused into one deterministic acceptor, at most one internal
    transition per state.  ``ret_map`` maps (popped state, element) to the
    target and the exits of the one module that takes that return.
    """

    def __init__(self, dxvpa: Dxvpa, predicates, int_map):
        self.root_element = dxvpa.root_element
        self.m0 = dxvpa.m0
        self.entry0 = dxvpa.modules[dxvpa.m0].entry
        self.finals = dxvpa.finals
        self.predicates: dict[frozenset, Dfa] = predicates
        self.call_map: dict[tuple, StateName] = {}
        self.ret_map: dict[tuple, tuple[StateName, frozenset]] = {}
        self.int_map: dict[StateName, tuple[StateName, frozenset]] = int_map
        for mod in dxvpa.modules.values():
            for (q, c), callee in mod.calls.items():
                self.call_map[(q, c)] = dxvpa.modules[callee].entry
            exits = frozenset(mod.exits)
            for key, target in mod.returns.items():
                self.ret_map[key] = (target, exits)


# ---------------------------------------------------------------------------
# generation from a snapshot

def build_xvpa(snapshot: WeightedVpa, dts, minimize_modules: bool = True) -> Dxvpa:
    """Assemble a dXVPA from a trimmed snapshot.

    Modules are the distinct nonempty typing contexts; the start module is
    the one called from the start state; each module's entry is the state
    with empty siblings; exits are states with outgoing returns, and the
    module's one return table, keyed by (popped state, element), holds the
    returns of all its exits, so each exit takes each of them.  A return
    key that two modules take, or that has two targets in one module, is a
    structure error: a learner never makes one, since the callee and the
    target are functions of the popped state and element.
    Each transition map is read once, so the cost is linear in the
    snapshot.
    """
    root_calls = {key: dst for key, (dst, _w) in snapshot.calls.items() if key[0] == START_STATE}
    if not root_calls or not snapshot.finals:
        raise EmptyLanguageError("snapshot accepts no document")
    root_elements = sorted({key[1] for key in root_calls})
    if len(root_elements) > 1:
        raise AutomatonStructureError(
            f"snapshot has multiple root elements {root_elements}; one start module required")
    root_element = root_elements[0]

    states_of: dict[tuple, set] = {}
    for q in snapshot.states:
        states_of.setdefault(q[0], set()).add(q)
    states_of.pop((), None)  # the start state and the states after the root
    modules: dict[tuple, Module] = {}
    for ctx, states in states_of.items():
        entry = (ctx, ())
        if entry not in states:
            raise AutomatonStructureError(f"module {ctx!r} lacks entry state")
        modules[ctx] = Module(context=ctx, element="", entry=entry, states=states)

    m0 = next(iter(root_calls.values()))[0]
    if m0 not in modules:
        raise _outside_modules(next(iter(root_calls.items())))

    # transitions, partitioned by source module; a text target lies in the
    # source's module, a return target in the popped state's
    for (q, c), (dst, _w) in snapshot.calls.items():
        if q == START_STATE:
            continue
        mod = modules.get(q[0])
        if mod is None or dst[0] not in modules:
            raise _outside_modules((q, c, dst))
        mod.calls[(q, c)] = dst[0]
    choices: dict[StateName, tuple] = {}
    for (src, dt), (dst, _w) in snapshot.ints.items():
        choices.setdefault(src, (dst, set()))[1].add(dt)
    for src, (dst, dtset) in choices.items():
        mod = modules.get(src[0])
        if mod is None or dst[0] != src[0]:
            raise _outside_modules((src, dst))
        mod.internals[src] = (dst, frozenset(dtset))
    owner: dict[tuple, tuple] = {}
    for (q, c, popped), (dst, _w) in snapshot.rets.items():
        mod = modules.get(q[0])
        if mod is None:
            raise _outside_modules((q, c, popped, dst))
        mod.exits.add(q)
        if popped == START_STATE:
            continue  # root return: represented by finals
        if popped[0] not in modules or dst[0] != popped[0]:
            raise _outside_modules((q, c, popped, dst))
        if owner.setdefault((popped, c), q[0]) != q[0]:
            raise AutomatonStructureError(
                f"return on {c!r} popping {popped!r} lies in two modules")
        if mod.returns.setdefault((popped, c), dst) != dst:
            raise AutomatonStructureError(
                f"return on {c!r} popping {popped!r} has two targets")

    # element assignment: the element whose calls enter the module
    entry_elements: dict[tuple, set[str]] = {ctx: set() for ctx in modules}
    entry_elements[m0].add(root_element)
    for mod in modules.values():
        for (q, c), callee in mod.calls.items():
            entry_elements[callee].add(c)
    for ctx, mod in modules.items():
        elements = entry_elements[ctx]
        if len(elements) != 1:
            raise AutomatonStructureError(
                f"module {ctx!r} entered by elements {sorted(elements)}; expected exactly one")
        mod.element = elements.pop()

    dxvpa = Dxvpa(modules, m0, root_element, dts)
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

def minimize(dxvpa: Dxvpa) -> Dxvpa:
    """Fold congruent modules mapped to the same element.

    Congruence is bisimilarity of the module graphs where internal edges
    compare by exact datatype choice and call edges by (element, callee
    module); the pairing must be a bijection.  One coarsest-partition
    refinement over all module states picks the candidates: modules of one
    element whose entries share a block.  Only the pairwise test folds a
    candidate into the repr-smallest bisimilar member of its class; a fold
    can make its callers' pairs bisimilar, so their classes are tested
    again.  A fold never separates a bisimilar pair, and bisimilar modules
    always share a block, so this reaches the automaton of a pairwise scan
    over all modules.  Calls are indexed by state and returns by (popped
    state, element), so testing a pair costs the edges of the states it
    visits, and refinement costs its rounds times the states and edges.
    The input is not mutated.
    """
    modules = {k: _copy_module(m) for k, m in dxvpa.modules.items()}
    m0 = dxvpa.m0
    graph = _ModuleGraph(modules)

    classes = _candidate_classes(graph)
    class_of = {key: i for i, members in enumerate(classes) for key in members}
    pending = list(range(len(classes)))
    queued = set(pending)
    while pending:
        i = pending.pop()
        queued.discard(i)
        survivors = []
        for key_n in classes[i]:
            n = modules[key_n]
            for key_m in survivors:
                pairing = _bisimulation(graph, modules[key_m], n)
                if pairing is None:
                    continue
                for key_c in graph.callers[key_n] - {key_n}:
                    j = class_of.get(key_c)
                    if j is not None and j not in queued:
                        queued.add(j)
                        pending.append(j)
                graph.fold(key_m, key_n, pairing)
                if m0 == key_n:
                    m0 = key_m
                break
            else:
                survivors.append(key_n)
        classes[i] = survivors
    return Dxvpa(modules, m0, dxvpa.root_element, dxvpa.dts)


def _copy_module(m: Module) -> Module:
    return Module(context=m.context, element=m.element, states=set(m.states),
                  entry=m.entry, exits=set(m.exits), calls=dict(m.calls),
                  internals=dict(m.internals), returns=dict(m.returns))


class _ModuleGraph:
    """The module-graph view of a set of modules, folded in place.

    ``labels`` maps a state to the elements it calls (fixed by the
    snapshot) and ``callers`` maps a module to the modules that call it.
    A call from state q on element c resumes in the callee's return for
    (q, c).  A fold updates only the entries of the modules it touches.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.labels: dict[StateName, list[str]] = {}
        self.callers: dict[tuple, set] = {key: set() for key in modules}
        for key, mod in modules.items():
            for (q, c), callee in mod.calls.items():
                self.labels.setdefault(q, []).append(c)
                self.callers[callee].add(key)

    def edges(self, mod: Module, state: StateName):
        """Outgoing edges of a state in the module-graph view.

        A call edge is labeled (element, callee module) and leads to the
        state this module resumes in after the callee returns popping
        ``state``; root-module calls that never resume map to None."""
        edges = {}
        hit = mod.internals.get(state)
        if hit:
            dst, dtset = hit
            edges[("text", dtset)] = dst
        for c in self.labels.get(state, ()):
            callee_key = mod.calls.get((state, c))
            if callee_key is not None:
                edges[("call", c, callee_key)] = self.modules[callee_key].returns.get((state, c))
        return edges

    def fold(self, key_m: tuple, key_n: tuple, pairing: dict):
        """Fold module n into m, rewriting calls and returns of its neighbors."""
        modules = self.modules
        m, n = modules[key_m], modules[key_n]

        # callers of n now call m; n's returns move to m's table (their
        # targets live in the callers and stay valid)
        callers = self.callers.pop(key_n)
        callers.discard(key_n)
        for key_i in callers:
            mod_i = modules[key_i]
            for (q, c), callee in list(mod_i.calls.items()):
                if callee == key_n:
                    mod_i.calls[(q, c)] = key_m
        self.callers[key_m] |= callers
        m.returns.update(n.returns)

        # callees of n: returns popping n-states are rewritten through the pairing
        callees = {callee for (_q, _c), callee in n.calls.items()}
        for callee_key in callees:
            if callee_key == key_n:
                callee_key = key_m  # n's returns to its own calls moved to m
            else:
                self.callers[callee_key].discard(key_n)
            returns = modules[callee_key].returns
            # the folded module never takes a return whose popped state or
            # target the pairing does not cover, so such a return is dropped
            for (popped, c), target in list(returns.items()):
                if popped in n.states:
                    del returns[(popped, c)]
                    if popped in pairing and target in pairing:
                        returns[(pairing[popped], c)] = pairing[target]

        del modules[key_n]


def _candidate_classes(graph: _ModuleGraph) -> list[list]:
    """Modules that may fold together, by coarsest partition refinement.

    A state's signature is its exit flag, its text edge (datatype choice,
    target block) and its call edges (element, callee entry block, resume
    block), taken in the module-graph view of its own module, where a
    target outside the module has no edges.  Blocks start as one and split
    until stable (Moore refinement, as in ``Dfa.minimized``).  Bisimilar
    modules have entries in one block, so each class lists the modules of
    one element whose entries share a block, in repr order.
    """
    modules = graph.modules
    empty = (False, None, ())
    rows = []
    for mod in modules.values():
        for q in mod.states:
            hit = mod.internals.get(q)
            calls = []
            for c in sorted(graph.labels.get(q, ())):
                callee_key = mod.calls[(q, c)]
                callee = modules[callee_key]
                calls.append((c, callee.entry, callee.returns.get((q, c))))
            rows.append((q, mod.states, q in mod.exits, hit, calls))
    block: dict[StateName, int] = {}
    count = 0
    while True:
        ids = {empty: 0}
        new_block = {}
        for q, states, is_exit, hit, calls in rows:
            text = None
            if hit:
                dst, dtset = hit
                text = (dtset, block.get(dst, 0) if dst in states else 0)
            sig = (is_exit, text, tuple(
                (c, block.get(entry, 0),
                 None if resume is None else (block.get(resume, 0) if resume in states else 0))
                for c, entry, resume in calls))
            new_block[q] = ids.setdefault(sig, len(ids))
        block = new_block
        if len(ids) == count:
            break
        count = len(ids)
    by_key: dict[tuple, list] = {}
    for key in sorted(modules, key=repr):
        by_key.setdefault((modules[key].element, block[modules[key].entry]), []).append(key)
    return [members for members in by_key.values() if len(members) > 1]


def _bisimulation(graph: _ModuleGraph, m: Module, n: Module):
    """Entry-rooted pairing of two module graphs, or None.

    Requires identical edge labels at every paired state, identical
    exit status, and a bijective pairing.
    """
    pairing: dict[StateName, StateName] = {}
    reverse: dict[StateName, StateName] = {}
    work = [(n.entry, m.entry)]
    while work:
        qn, qm = work.pop()
        if qn in pairing:
            if pairing[qn] != qm:
                return None
            continue
        if qm in reverse and reverse[qm] != qn:
            return None
        if (qn in n.exits) != (qm in m.exits):
            return None
        edges_n = graph.edges(n, qn)
        edges_m = graph.edges(m, qm)
        if set(edges_n) != set(edges_m):
            return None
        pairing[qn] = qm
        reverse[qm] = qn
        for label, target_n in edges_n.items():
            target_m = edges_m[label]
            if (target_n is None) != (target_m is None):
                return None
            if target_n is not None:
                work.append((target_n, target_m))
    return pairing


# ---------------------------------------------------------------------------
# compilation and validation

def compile_cxvpa(dxvpa: Dxvpa) -> Cxvpa:
    """Fuse every datatype choice into one minimized predicate acceptor."""
    predicates: dict[frozenset, Dfa] = {}
    int_map: dict[StateName, tuple[StateName, frozenset]] = {}
    for mod in dxvpa.modules.values():
        for src, (dst, dtset) in mod.internals.items():
            key = frozenset(dtset)
            if key not in predicates:
                members = [dxvpa.dts.datatypes[name].dfa for name in sorted(key)]
                predicates[key] = members[0] if len(members) == 1 else union_dfas(members)
            int_map[src] = (dst, key)
    return Cxvpa(dxvpa, predicates, int_map)


_BEFORE_ROOT = object()
_DONE = object()
_ROOT_MARK = object()


def validate(model: Cxvpa, stream) -> Verdict:
    """Single-pass run over a document event stream.

    Accepts any iterable of events (a validated stream or a raw sequence,
    e.g. an open-ended feed), runs the automaton with an explicit stack,
    and checks each text once against the current state's predicate.
    Failures become verdicts, never exceptions; cost is linear in event
    count plus total text length.
    """
    root_element, finals = model.root_element, model.finals
    call_map, ret_map, int_map = model.call_map, model.ret_map, model.int_map
    predicates = model.predicates
    q = _BEFORE_ROOT
    stack = []
    index = -1
    for event in stream:
        index = event.index if event.index >= 0 else index + 1
        if q is _DONE:
            return Verdict(False, TRAILING_CONTENT, index)
        kind = event.kind
        if kind == START:
            label = event.label.render() if isinstance(event.label, QName) else str(event.label)
            if q is _BEFORE_ROOT:
                if label != root_element:
                    return Verdict(False, UNEXPECTED_ELEMENT, index, "(start)")
                stack.append(_ROOT_MARK)
                q = model.entry0
            else:
                target = call_map.get((q, label))
                if target is None:
                    return Verdict(False, UNEXPECTED_ELEMENT, index, _show(q))
                stack.append(q)
                q = target
        elif kind == END:
            label = event.label.render() if isinstance(event.label, QName) else str(event.label)
            if q is _BEFORE_ROOT or not stack:
                return Verdict(False, UNEXPECTED_END, index, _show(q))
            top = stack.pop()
            if top is _ROOT_MARK:
                if label != root_element or q not in finals:
                    return Verdict(False, UNEXPECTED_END, index, _show(q))
                q = _DONE
            else:
                hit = ret_map.get((top, label))
                if hit is None or q not in hit[1]:
                    return Verdict(False, UNEXPECTED_END, index, _show(q))
                q = hit[0]
        elif kind == CHARS:
            if q is _BEFORE_ROOT:
                return Verdict(False, DATATYPE_MISMATCH, index, "(before root)")
            hit = int_map.get(q)
            if hit is None or not predicates[hit[1]].accepts(str(event.label)):
                return Verdict(False, DATATYPE_MISMATCH, index, _show(q))
            q = hit[0]
        else:
            return Verdict(False, UNEXPECTED_ELEMENT, index, _show(q))
    if q is _DONE and not stack:
        return ACCEPT
    return Verdict(False, PREMATURE_EOF, index, _show(q))


def _show(q) -> str:
    if q is _BEFORE_ROOT:
        return "(before root)"
    if q is _DONE:
        return "(after root)"
    ctx, sibs = q
    def fmt_ctx(c):
        if c and isinstance(c[0], tuple):
            return "#".join(" ".join(seg) for seg in c)
        return " ".join(c)
    return f"({fmt_ctx(ctx)} | {' '.join(sibs)})"


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
    for mi, key in enumerate(sorted(dxvpa.modules, key=repr)):
        mod = dxvpa.modules[key]
        lines.append(f"  subgraph cluster_{mi} {{")
        star = " (start)" if key == dxvpa.m0 else ""
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
                label = ", ".join(sorted(dtset))
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
    """An element name as the body of a quoted DOT string."""
    return name.replace("\\", "\\\\").replace('"', '\\"')
