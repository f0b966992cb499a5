"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths they check: minimality
is recomputed by brute force over all datatypes, both datatype orders are
read from the definition file's lines and closed by fixpoint, cardealer
conformance is a hand-written recursive descent with stdlib regexes, the
small-stream enumerator produces every well-nested stream within
depth/width bounds, the accepted-stream witness is a fixpoint of its own
over the compiled tables, module minimization is the pairwise scan that
restarts after each fold, the datatype-set validator checks each text
against every member datatype instead of the compiled mask, the reference
predicate of a datatype set is the minimized product of its members'
DFAs, accepting where any member accepts, DFA pairs are compared by a
breadth-first search of their product for a witness string, the
reference parser makes a new name object for every name it meets, as the
event parser first did, and the reference run names every event's state
for every document, as the learner did before it kept the runs of the
shapes it has walked, and the reference state-file writer encodes every
state name at every line that refers to it, as ``dump_state`` did before
it encoded each distinct name once.
"""

import re
import xml.parsers.expat
from collections import deque
from functools import cache, lru_cache
from random import Random
from urllib.parse import quote

from xvpa import events as ev
from xvpa.automata import Cxvpa, Dxvpa, Module, Verdict, compile_cxvpa, validate
from xvpa.datatypes import DEFAULT_PATH
from xvpa.dfa import Dfa, _boundaries
from xvpa.events import (CHARS, END, START, DoctypeRejectedError, DocumentEventStream,
                         EncodingError, Event, MalformedXmlError, QName)
from xvpa.learner import ANCESTOR, call_name, int_name, ret_name
from xvpa.persistence import FORMAT_NAME, FORMAT_VERSION
from xvpa.weighted import START_STATE


def member_accepts(dts, name: str, text: str) -> bool:
    """Membership of ``text`` in the lexical space of ``name``, by that
    datatype's own DFA rather than the shared product."""
    return dts.datatypes[name].dfa.accepts(text)


def order_edges(path: str, keyword: str) -> list[tuple[str, str]]:
    """The ``(lower, higher)`` pairs of a definition file's ``keyword``
    lines, ``lexorder`` or ``kindorder``, in file order."""
    with open(path, encoding="utf-8") as fh:
        return [(fields[1], fields[2]) for fields in map(str.split, fh)
                if fields[:1] == [keyword]]


def _closure(edges) -> dict[str, set[str]]:
    """Each node's strictly higher nodes over ``edges``, by fixpoint."""
    above: dict[str, set[str]] = {}
    for lower, higher in edges:
        above.setdefault(lower, set()).add(higher)
    changed = True
    while changed:
        changed = False
        for ups in above.values():
            more = set().union(*(above.get(k, ()) for k in ups)) - ups
            changed |= bool(more)
            ups |= more
    return above


def kinds_above(path: str) -> dict[str, set[str]]:
    """Each kind's strictly higher kinds: the transitive closure of the
    ``kindorder`` lines of a definition file."""
    return _closure(order_edges(path, "kindorder"))


@cache
def lex_above(path: str) -> dict[str, set[str]]:
    """Each datatype's strictly larger datatypes: the transitive closure
    of the ``lexorder`` lines of a definition file, read once per path."""
    return _closure(order_edges(path, "lexorder"))


def lex_lt(a: str, b: str) -> bool:
    """Strict lexical subsumption in the packaged definition file, the one
    every datatype system the tests check loads."""
    return b in lex_above(DEFAULT_PATH).get(a, ())


def brute_force_minimal(dts, text: str) -> frozenset:
    """Test every datatype, keep the accepting ones with no strictly
    smaller accepting datatype."""
    return pairwise_minimal([n for n in dts.datatypes if member_accepts(dts, n, text)])


def pairwise_minimal(types) -> frozenset:
    """The members of ``types`` with no other member below them, pair by
    pair through ``lex_lt``."""
    types = set(types)
    return frozenset(a for a in types if not any(b != a and lex_lt(b, a) for b in types))


def pairwise_maxima(types) -> frozenset:
    """The members of ``types`` with no other member above them, pair by
    pair through ``lex_lt``."""
    types = set(types)
    return frozenset(a for a in types if not any(b != a and lex_lt(a, b) for b in types))


def pairwise_prefer(dts, above: dict[str, set[str]], types) -> frozenset:
    """The members of ``types`` whose kind lies above no member's kind,
    pair by pair through the kind closure ``above``."""
    types = set(types)
    kind = {name: dts.datatypes[name].kind for name in types}
    return frozenset(b for b in types if not any(kind[b] in above.get(kind[a], ()) for a in types))


def is_antichain(types) -> bool:
    return not any(a != b and lex_lt(a, b) for a in types for b in types)


def unchecked_stream(events) -> DocumentEventStream:
    """The events' kinds and labels as a stream, unchecked, each at its
    position whatever index it carries."""
    return DocumentEventStream(tuple(e.kind for e in events), tuple(e.label for e in events))


def reference_run(learner, stream):
    """The keys a document's run takes in each counter table, named event
    by event: the call, text, return, state and final tables, each a dict
    from a key to ``[count, target state, index of the first event that
    takes it]`` in the order the walk first takes the keys."""
    scheme = learner.scheme
    infer = learner.dts.infer
    calls: dict = {}
    ints: dict = {}
    rets: dict = {}
    states: dict = {}
    stack = []
    q = START_STATE
    index = -1
    for index, kind, label in zip(stream.indices, stream.kinds, stream.labels):
        if kind == CHARS:
            q2 = int_name(scheme, q)
            for dt in sorted(infer(label)):
                ints.setdefault((q, dt), [0, q2, index])[0] += 1
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
    return calls, ints, rets, states, {q: [1, None, index]}


# ---------------------------------------------------------------------------
# hand-written conformance checker for the cardealer grammar

_GYEAR_RE = re.compile(r"-?([1-9][0-9]{3,}|0[0-9]{3})"
                       r"(Z|[+-](0[0-9]|1[0-3]):[0-5][0-9]|[+-]14:00)?")
_GYEARMONTH_RE = re.compile(r"-?([1-9][0-9]{3,}|0[0-9]{3})-(0[1-9]|1[0-2])"
                            r"(Z|[+-](0[0-9]|1[0-3]):[0-5][0-9]|[+-]14:00)?")


def structure(vpa):
    """Hashable view of a weighted VPA's states (with the implicit start
    state), finals, and transitions with their targets, without counts."""
    return (
        frozenset(vpa.states) | {START_STATE},
        frozenset(vpa.finals),
        *(frozenset((key, dst) for key, (dst, _w) in table.items())
          for table in (vpa.calls, vpa.ints, vpa.rets)),
    )


class Nonconforming(AssertionError):
    pass


def check_cardealer(stream) -> None:
    """dealer -> newcars usedcars; newcars -> (ad -> model)*;
    usedcars -> (ad -> model year)*; model: single-line text;
    year: gYear or gYearMonth."""
    evs = list(stream)
    pos = 0

    def fail(msg):
        raise Nonconforming(f"{msg} at event {pos}")

    def expect(kind, name=None):
        nonlocal pos
        if pos >= len(evs):
            fail("unexpected end")
        e = evs[pos]
        if e.kind != kind or (name is not None and e.label != ev.QName("", name)):
            fail(f"expected {kind} {name!r}, saw {e.kind} {e.label!r}")
        pos += 1
        return e

    def peek_start(name):
        return (pos < len(evs) and evs[pos].kind == ev.START
                and evs[pos].label == ev.QName("", name))

    def text_of(element, check):
        expect(ev.START, element)
        e = expect(ev.CHARS)
        if not check(str(e.label)):
            fail(f"bad {element} text {e.label!r}")
        expect(ev.END, element)

    expect(ev.START, "dealer")
    expect(ev.START, "newcars")
    while peek_start("ad"):
        expect(ev.START, "ad")
        text_of("model", lambda t: t != "" and not any(c in t for c in "\t\r\n"))
        expect(ev.END, "ad")
    expect(ev.END, "newcars")
    expect(ev.START, "usedcars")
    while peek_start("ad"):
        expect(ev.START, "ad")
        text_of("model", lambda t: t != "" and not any(c in t for c in "\t\r\n"))
        text_of("year", lambda t: bool(_GYEAR_RE.fullmatch(t) or _GYEARMONTH_RE.fullmatch(t)))
        expect(ev.END, "ad")
    expect(ev.END, "usedcars")
    expect(ev.END, "dealer")
    if pos != len(evs):
        fail("trailing events")


# ---------------------------------------------------------------------------
# exhaustive small streams

def enumerate_streams(labels, texts, depth: int, width: int):
    """Every well-nested stream whose element tree has the given maximum
    depth and sibling width, plus text decorations.

    Element shapes are exhaustive.  Each shape is emitted undecorated and,
    when texts are given, with every text slot filled by cycling through
    ``texts`` at two offsets (covering each text in each position without
    the exponential per-slot product).
    """
    import itertools

    def trees(d):
        if d == 0:
            return []
        smaller = trees(d - 1)
        out = list(smaller)
        for label in labels:
            for size in range(width + 1):
                for combo in itertools.product(smaller, repeat=size):
                    flat = [x for sub in combo for x in sub]
                    out.append([ev.start(label)] + flat + [ev.end(label)])
        return out

    pool = trees(depth - 1)

    def shapes():
        seen_small = set()
        for t in pool:
            key = tuple((e.kind, e.label) for e in t)
            seen_small.add(key)
            yield t
        for label in labels:
            for size in range(width + 1):
                for combo in itertools.product(pool, repeat=size):
                    flat = [x for sub in combo for x in sub]
                    shape = [ev.start(label)] + flat + [ev.end(label)]
                    if tuple((e.kind, e.label) for e in shape) in seen_small:
                        continue
                    yield shape

    for shape in shapes():
        yield ev.stream_from_events(list(shape), reindex=True)
        if not texts:
            continue
        offsets = (0, 1) if len(shape) > 2 and len(texts) > 1 else (0,)
        for offset in offsets:
            # every slot carries a text
            decorated = []
            slot = offset
            for i, e in enumerate(shape):
                decorated.append(e)
                if i < len(shape) - 1:
                    decorated.append(ev.text(texts[slot % len(texts)]))
                    slot += 1
            yield ev.stream_from_events(decorated, reindex=True)
        # texts only inside childless elements (the common XML shape),
        # uniformly per text so predicate acceptance and rejection both
        # get exercised on every valid shape
        for text_value in texts:
            leafy = []
            filled = False
            for i, e in enumerate(shape):
                leafy.append(e)
                if (e.kind == ev.START and i + 1 < len(shape)
                        and shape[i + 1].kind == ev.END):
                    leafy.append(ev.text(text_value))
                    filled = True
            if filled:
                yield ev.stream_from_events(leafy, reindex=True)


# ---------------------------------------------------------------------------
# sampling accepted streams from a compiled validator

def named_tables(model):
    """The compiled tables keyed by state names, read through ``names``:
    ``(calls, returns, texts)`` with ``calls[(q, element)]`` the callee's
    entry, ``returns[(popped, element)]`` the target (None for the root's)
    and the exits that take it, and ``texts[q]`` the target and the
    datatype set of its mask."""
    names = model.names
    key_of = {mask: key for key, mask in model.predicates.items()}
    calls = {(names[q], c): names[target]
             for q, row in enumerate(model.calls) for c, target in row.items()}
    returns = {(names[popped], c): (None if target is None else names[target],
                                     frozenset(names[x] for x in exits))
               for popped, row in enumerate(model.returns) for c, (target, exits) in row.items()}
    texts = {names[q]: (names[hit[1]], key_of[hit[0]])
             for q, hit in enumerate(model.texts) if hit is not None}
    return calls, returns, texts


def sample_accepted_stream(model, dts, rng: Random, dfa_sample, max_events: int = 80):
    """Random walk over a compiled automaton that ends in acceptance: the
    root's call from the start state, then random steps until its return.
    Texts are sampled from the reference predicates."""
    call_map, ret_map, int_map = named_tables(model)
    calls_by_state = {}
    for (q, c), target in call_map.items():
        calls_by_state.setdefault(q, []).append((c, target))
    rets_by_state = {}
    for (popped, c), (target, exits) in ret_map.items():
        for q in exits:
            rets_by_state.setdefault((q, popped), []).append((c, target))

    [(root, state)] = calls_by_state[START_STATE]
    events = [ev.start(root)]
    stack = [START_STATE]
    while True:
        if len(events) > 20 * max_events:
            raise AssertionError("walk failed to terminate")
        closing = len(events) >= max_events
        options = [("ret", c, target) for c, target in rets_by_state.get((state, stack[-1]), [])]
        if not closing or not options:
            for c, target in sorted(calls_by_state.get(state, [])):
                options.append(("call", c, target))
            hit = int_map.get(state)
            if hit is not None and events[-1].kind != ev.CHARS:
                options.append(("text", *hit))
        if not options:
            raise AssertionError(f"walk stuck in state {state}")
        kind, a, b = rng.choice(options if not closing else options[:1])
        if kind == "call":
            events.append(ev.start(a))
            stack.append(state)
            state = b
        elif kind == "ret":
            events.append(ev.end(a))
            stack.pop()
            if not stack:
                return ev.stream_from_events(events, reindex=True)
            state = b
        else:
            dst, key = a, b
            events.append(ev.text(dfa_sample(reference_predicate(dts, key), rng)))
            state = dst


def accepted_witness(model, dts, rng: Random | None = None):
    """A stream that ``validate`` accepts on ``model``, or None when it
    accepts none.

    A fixpoint over the compiled tables, seeded with every root's entry:
    ``found[e][(q, text)]`` is a run from entry ``e`` to ``q`` at the same
    stack height, where ``text`` says that the run ends in a text, so that
    no second text follows it.  A call from ``q`` on ``c`` into entry ``f``
    extends a run by any run of ``f`` that ends in an exit taking the
    return for ``(q, c)``.  Every ``(entry, state, text)`` is visited, so a
    stream is found whenever one exists: a run of some root's entry that
    ends in an exit taking that root's return.  Texts are sampled from the
    reference predicates.
    """
    rng = rng or Random(0)
    texts = {}

    def text_for(key):
        if key not in texts:
            samples = [sample_string(reference_predicate(dts, key), rng) for _ in range(10)]
            texts[key] = next((t for t in samples if t.strip()), samples[0])
        return ev.text(texts[key])

    call_map, ret_map, int_map = named_tables(model)
    calls_of = {}
    for (q, c), entry in call_map.items():
        calls_of.setdefault(q, []).append((c, entry))
    roots = calls_of.pop(START_STATE)
    found = {entry: {(entry, False): []} for _root, entry in roots}
    changed = True
    while changed:
        changed = False
        for e, runs in list(found.items()):
            for (q, text), run in list(runs.items()):
                steps = []
                hit = int_map.get(q)
                if hit is not None and not text:
                    steps.append((e, (hit[0], True), run + [text_for(hit[1])]))
                for c, entry in calls_of.get(q, ()):
                    steps.append((entry, (entry, False), []))
                    target, exits = ret_map.get((q, c), (None, ()))
                    for (x, _text), inner in list(found.get(entry, {}).items()):
                        if x in exits:
                            steps.append((e, (target, False),
                                          run + [ev.start(c), *inner, ev.end(c)]))
                for f, key, events in steps:
                    if key not in found.setdefault(f, {}):
                        found[f][key] = events
                        changed = True
    for root, entry in roots:
        finals = ret_map[(START_STATE, root)][1]
        for (q, _text), run in found[entry].items():
            if q in finals:
                return ev.stream_from_events([ev.start(root), *run, ev.end(root)], reindex=True)
    return None


# ---------------------------------------------------------------------------
# validation by datatype sets

def member_accept_mask(dts):
    """A stand-in for the product's ``accept_mask``: the datatypes in
    ``live`` whose own DFA accepts the text, tested one by one."""
    names = list(dts.datatypes)

    def accept_mask(text: str, live: int = -1) -> int:
        return sum(1 << i for i, name in enumerate(names)
                   if live >> i & 1 and member_accepts(dts, name, text))
    return accept_mask


def validate_dxvpa(dxvpa: Dxvpa, stream) -> Verdict:
    """Datatype-set semantics: a text moves along the internal transition
    when some member datatype accepts it.  Equivalent to the compiled
    form; exists as the slow reference route, and shares the validator's
    walk with member-by-member DFA runs in place of the product."""
    model = compile_cxvpa(dxvpa)
    return validate(Cxvpa(model.names, model.calls, model.returns, model.texts,
                          model.predicates, member_accept_mask(dxvpa.dts)), stream)


# ---------------------------------------------------------------------------
# pairwise module minimization

def minimize_pairwise(dxvpa: Dxvpa) -> Dxvpa:
    """Fold congruent modules mapped to the same element.

    Congruence is bisimilarity of the module graphs where internal edges
    compare by exact datatype choice and call edges by (element, callee
    module).  After each fold the scan restarts until no pair folds.  The
    input is not mutated.
    """
    modules = {k: _copy_module(m) for k, m in dxvpa.modules.items()}
    roots = dict(dxvpa.roots)

    changed = True
    while changed:
        changed = False
        keys = sorted(modules, key=repr)
        for i, key_m in enumerate(keys):
            for key_n in keys[i + 1:]:
                m, n = modules[key_m], modules[key_n]
                if m.element != n.element or not _bisimilar(modules, m, n):
                    continue
                _fold(modules, key_m, key_n)
                roots = {c: key_m if key == key_n else key for c, key in roots.items()}
                changed = True
                break
            if changed:
                break
    return Dxvpa(modules, roots, dxvpa.dts)


def _copy_module(m: Module) -> Module:
    return Module(element=m.element, states=set(m.states),
                  entry=m.entry, exits=set(m.exits), calls=dict(m.calls),
                  internals=dict(m.internals), returns=dict(m.returns))


def _module_edges(modules: dict, mod: Module, state):
    """Outgoing edges of a state in the module-graph view.

    A call edge is labeled (element, callee module) and leads to the state
    this module resumes in after the callee returns popping ``state``;
    root-module calls that never resume map to None."""
    edges = {}
    hit = mod.internals.get(state)
    if hit:
        dst, dtset = hit
        edges[("text", dtset)] = dst
    for (q, c), callee_key in mod.calls.items():
        if q != state:
            continue
        edges[("call", c, callee_key)] = modules[callee_key].returns.get((state, c))
    return edges


def _bisimilar(modules: dict, m: Module, n: Module) -> bool:
    """Whether the entries of two module graphs are bisimilar: every pair
    of states reached in step from them has the same exit status and the
    same edge labels.  Each label leads to one state, so the visited pairs
    form a bisimulation exactly when each of them passes."""
    seen = set()
    work = [(n.entry, m.entry)]
    while work:
        pair = work.pop()
        if pair in seen:
            continue
        seen.add(pair)
        qn, qm = pair
        if (qn in n.exits) != (qm in m.exits):
            return False
        edges_n = _module_edges(modules, n, qn)
        edges_m = _module_edges(modules, m, qm)
        if set(edges_n) != set(edges_m):
            return False
        for label, target_n in edges_n.items():
            target_m = edges_m[label]
            if (target_n is None) != (target_m is None):
                return False
            if target_n is not None:
                work.append((target_n, target_m))
    return True


def _fold(modules: dict, key_m: tuple, key_n: tuple):
    """Fold module n into m: callers of n call m, n's returns move to m's
    table (their targets live in the callers and stay valid), and every
    return that pops a state of n is dropped, since no call enters n."""
    n = modules.pop(key_n)
    for mod_i in modules.values():
        for (q, c), callee in mod_i.calls.items():
            if callee == key_n:
                mod_i.calls[(q, c)] = key_m
    modules[key_m].returns.update(n.returns)
    for mod_i in modules.values():
        mod_i.returns = {(popped, c): target for (popped, c), target in mod_i.returns.items()
                         if popped[0] != key_n}


# ---------------------------------------------------------------------------
# reference predicates: unions of member DFAs

def union_dfas(dfas) -> Dfa:
    """Language union as a single minimized DFA, by a walk over the
    product of the members: a state is a tuple of member states (None
    where a member is dead), its edges are the atomic intervals of its
    members' edges, and it accepts when any member accepts."""
    dfas = list(dfas)
    states = [tuple(d.start for d in dfas)]
    index = {states[0]: 0}
    tables = []
    for comps in states:  # grows as the walk meets new states
        edges = [(((lo, hi),), dst) for d, c in zip(dfas, comps) if c is not None
                 for lo, hi, dst in d.edges(c)]
        rows = []
        for lo, hi in atomic_intervals(edges):
            nxt = tuple(None if c is None else d.step(c, lo) for d, c in zip(dfas, comps))
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            rows.append((lo, hi, index[nxt]))
        tables.append(rows)
    accepting = {i for i, comps in enumerate(states)
                 if any(c in d.accepting for d, c in zip(dfas, comps))}
    return Dfa(len(states), 0, accepting, tables).minimized()


@lru_cache(maxsize=None)
def reference_predicate(dts, key: frozenset) -> Dfa:
    """The language a datatype set's mask checks, as one DFA: the member's
    own DFA for a single datatype, else the union of the members'."""
    members = [dts.datatypes[name].dfa for name in sorted(key)]
    return members[0] if len(members) == 1 else union_dfas(members)


# ---------------------------------------------------------------------------
# language queries on DFA pairs: witness strings and random members

def atomic_intervals(edges):
    """The maximal intervals on which every character set of ``edges``
    (``(intervals, target)`` pairs) is constant."""
    bounds = _boundaries(iv for cs, _ in edges for iv in cs)
    return [(bounds[i], bounds[i + 1] - 1) for i in range(len(bounds) - 1)]


def _product_witness(a: Dfa, b: Dfa, want) -> str | None:
    """BFS the product automaton; return the first string whose pair of
    acceptance flags satisfies ``want(acc_a, acc_b)``.  Missing transitions
    are modelled as a dead (non-accepting, absorbing) state ``None``."""

    def acc(d: Dfa, s):
        return s is not None and s in d.accepting

    start = (a.start, b.start)
    if want(acc(a, start[0]), acc(b, start[1])):
        return ""
    seen = {start}
    queue = deque([(start, "")])
    while queue:
        (sa, sb), prefix = queue.popleft()
        edges = []
        if sa is not None:
            edges.extend((lo, hi) for lo, hi, _ in a.edges(sa))
        if sb is not None:
            edges.extend((lo, hi) for lo, hi, _ in b.edges(sb))
        if not edges:
            continue
        for lo, hi in atomic_intervals([(((l, h),), 0) for l, h in edges]):
            ta = a.step(sa, lo) if sa is not None else None
            tb = b.step(sb, lo) if sb is not None else None
            if (ta, tb) in seen:
                continue
            seen.add((ta, tb))
            cp = _readable_cp(lo, hi)
            if want(acc(a, ta), acc(b, tb)):
                return prefix + chr(cp)
            queue.append(((ta, tb), prefix + chr(cp)))
    return None


def _readable_cp(lo: int, hi: int) -> int:
    for probe in (0x61, 0x30, 0x20):  # 'a', '0', space
        if lo <= probe <= hi:
            return probe
    return lo


def subset_counterexample(a: Dfa, b: Dfa) -> str | None:
    """A string in L(a) but not L(b), or None if L(a) is a subset of L(b)."""
    return _product_witness(a, b, lambda x, y: x and not y)


def distinguishing_string(a: Dfa, b: Dfa) -> str | None:
    """A string in exactly one of the two languages, or None if equal."""
    return _product_witness(a, b, lambda x, y: x != y)


def sample_string(dfa: Dfa, rng, max_len: int = 40) -> str:
    """Draw a random member of L(dfa).  Raises ValueError on the empty
    language.  The walk stops at accepting states with growing probability
    and falls back to a shortest path to acceptance near max_len."""
    if not dfa.accepting:
        raise ValueError("cannot sample from an empty language")
    dist = _distance_to_accept(dfa)
    out = []
    state = dfa.start
    while True:
        if state in dfa.accepting and (len(out) >= max_len or rng.random() < 0.35):
            return "".join(out)
        rows = list(dfa.edges(state))
        if not rows:
            return "".join(out)  # accepting by co-accessibility
        if len(out) >= max_len:
            rows = [r for r in rows if dist[r[2]] == dist[state] - 1] or rows
        lo, hi, dst = rng.choice(rows)
        out.append(chr(_pick_cp(lo, hi, rng)))
        state = dst


def _pick_cp(lo: int, hi: int, rng) -> int:
    # bias toward printable ASCII when the interval allows it
    plo, phi = max(lo, 0x20), min(hi, 0x7E)
    if plo <= phi:
        return rng.randint(plo, phi)
    return rng.randint(lo, hi)


def _distance_to_accept(dfa: Dfa) -> dict[int, int]:
    incoming: dict[int, list[int]] = {s: [] for s in range(dfa.n)}
    for s in range(dfa.n):
        for _, _, dst in dfa.edges(s):
            incoming[dst].append(s)
    dist = {s: 0 for s in dfa.accepting}
    queue = deque(dfa.accepting)
    while queue:
        s = queue.popleft()
        for p in incoming[s]:
            if p not in dist:
                dist[p] = dist[s] + 1
                queue.append(p)
    return dist


# ---------------------------------------------------------------------------
# reference parser: one object per name occurrence, the original handlers

_WS = set(" \t\r\n")


def reference_parse(data: bytes) -> DocumentEventStream:
    """``parse_document`` as it was before names were shared: a new QName
    for every start, end and attribute name, each text run tested for
    whitespace character by character, one handler call per expat
    callback.  Same events, same indices, same errors."""
    out: list[Event] = []
    _reference_events(data, out)
    return unchecked_stream(out)


def events_before_error(data: bytes):
    """``(events, error)``: the events ``reference_parse`` emits before its
    first error, and that error, or None when the document parses."""
    out: list[Event] = []
    try:
        _reference_events(data, out)
    except MalformedXmlError as exc:
        return out, exc
    return out, None


def _reference_events(data: bytes, out: list) -> None:
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("parse_document expects bytes")
    head = bytes(data[:4])
    if head[:2] in (b"\xff\xfe", b"\xfe\xff") or b"\x00" in head:
        raise EncodingError("only UTF-8 documents are accepted")

    buf: list[str] = []
    # newline as separator: a namespace URI can never contain a literal
    # newline (attribute-value normalization replaces it), spaces it can
    parser = xml.parsers.expat.ParserCreate(namespace_separator="\n")
    parser.buffer_text = True

    def flush_text():
        if not buf:
            return
        run = "".join(buf)
        buf.clear()
        if all(c in _WS for c in run):
            return
        out.append(Event(CHARS, run, len(out)))

    def split_name(name: str, is_attr=False) -> QName:
        ns, sep, local = name.rpartition("\n")
        return QName(ns if sep else "", local if sep else name, is_attr)

    def on_start(name, attrs):
        flush_text()
        out.append(Event(START, split_name(name), len(out)))
        pairs = [(split_name(attrs[i], True), attrs[i + 1]) for i in range(0, len(attrs), 2)]
        pairs.sort(key=lambda p: (p[0].ns, p[0].local))
        for qn, value in pairs:
            out.append(Event(START, qn, len(out)))
            out.append(Event(CHARS, value, len(out)))
            out.append(Event(END, qn, len(out)))

    def on_end(name):
        flush_text()
        out.append(Event(END, split_name(name), len(out)))

    def on_chars(data):
        buf.append(data)

    def on_doctype(*_args):
        raise DoctypeRejectedError(
            "inline DOCTYPE declarations are rejected",
            parser.ErrorLineNumber or parser.CurrentLineNumber,
            parser.ErrorColumnNumber or parser.CurrentColumnNumber)

    def on_decl(version, encoding, _standalone):
        if encoding is not None and encoding.lower() not in ("utf-8",):
            raise EncodingError(f"declared encoding {encoding!r} is not supported")

    parser.StartElementHandler = on_start
    parser.EndElementHandler = on_end
    parser.CharacterDataHandler = on_chars
    parser.StartDoctypeDeclHandler = on_doctype
    parser.XmlDeclHandler = on_decl
    parser.ordered_attributes = True

    try:
        parser.Parse(bytes(data), True)
    except xml.parsers.expat.ExpatError as exc:
        raise MalformedXmlError(
            xml.parsers.expat.errors.messages[exc.code] if hasattr(exc, "code") else str(exc),
            exc.lineno, exc.offset) from None
    finally:
        # the handlers hold the parser and the parser holds the handlers:
        # without this, the events live until the cyclic collector runs
        parser = None


def reference_dump(learner) -> str:
    """A learner's state file, each state name encoded at every line that
    refers to it and each token at every occurrence."""
    mode = learner.scheme.mode
    token = lambda t: quote(t, safe="")
    seg = lambda s: ",".join(map(token, s))

    def enc(q):
        ctx = seg(q[0]) if mode == ANCESTOR else "#".join(map(seg, q[0]))
        return ctx + "|" + seg(q[1])

    v = learner.vpa
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}", f"mode {mode}",
             f"k {learner.scheme.k}", f"l {learner.scheme.l}",
             f"datatypes {learner.dts_hash}", f"sanitized {1 if learner.sanitized else 0}",
             f"documents {learner.documents_learned}",
             "mindchanges " + (learner.mind_change_text() or "-")]
    body = [f"state {enc(q)} {w}" for q, w in v.states.items()]
    body += [f"final {enc(q)} {w}" for q, w in v.finals.items()]
    body += [f"call {enc(src)} {token(c)} {enc(dst)} {w}"
             for (src, c), (dst, w) in v.calls.items()]
    body += [f"int {enc(src)} {dt} {enc(dst)} {w}" for (src, dt), (dst, w) in v.ints.items()]
    body += [f"ret {enc(src)} {token(c)} {enc(p)} {enc(dst)} {w}"
             for (src, c, p), (dst, w) in v.rets.items()]
    return "\n".join(lines + sorted(body)) + "\n"
