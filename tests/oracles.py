"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths they check: minimality
is recomputed by brute force over all datatypes, cardealer conformance is
a hand-written recursive descent with stdlib regexes, the small-stream
enumerator produces every well-nested stream within depth/width bounds,
the accepted-stream witness is a fixpoint of its own over the compiled maps,
module minimization is the pairwise scan that restarts after each fold,
the datatype-set validator checks each text against every member
datatype instead of the compiled predicate, the reference predicate of a
datatype set is the determinized, minimized union of its members' DFAs,
and DFA pairs are compared by a breadth-first search of their product for
a witness string.
"""

import re
from collections import deque
from functools import lru_cache
from random import Random

from xvpa import events as ev
from xvpa.automata import Cxvpa, Dxvpa, Module, Verdict, validate
from xvpa.dfa import Dfa, _atomic_intervals, _Nfa
from xvpa.weighted import START_STATE


def brute_force_minimal(dts, text: str) -> frozenset:
    """Test every datatype, keep the accepting ones with no strictly
    smaller accepting datatype."""
    accepted = [n for n in dts.names() if dts.accepts(n, text)]
    return frozenset(
        a for a in accepted
        if not any(b != a and dts.lex_lt(b, a) for b in accepted))


def is_antichain(dts, types) -> bool:
    return not any(a != b and dts.lex_lt(a, b) for a in types for b in types)


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

def sample_accepted_stream(model, dts, rng: Random, dfa_sample, max_events: int = 80):
    """Random walk over a compiled automaton that ends in acceptance.
    Texts are sampled from the reference predicates."""
    calls_by_state = {}
    for (q, c), target in model.call_map.items():
        calls_by_state.setdefault(q, []).append((c, target))
    rets_by_state = {}
    for (popped, c), (target, exits) in model.ret_map.items():
        for q in exits:
            rets_by_state.setdefault((q, popped), []).append((c, target))

    events = [ev.start(model.root_element)]
    state = model.entry0
    stack = ["#root"]
    while True:
        if len(events) > 20 * max_events:
            raise AssertionError("walk failed to terminate")
        closing = len(events) >= max_events
        options = []
        top = stack[-1]
        if top == "#root":
            if state in model.finals:
                options.append(("close-root", None, None))
        else:
            for c, target in rets_by_state.get((state, top), []):
                options.append(("ret", c, target))
        if not closing or not options:
            for c, target in sorted(calls_by_state.get(state, [])):
                options.append(("call", c, target))
            hit = model.int_map.get(state)
            if hit is not None and events[-1].kind != ev.CHARS:
                options.append(("text", *hit))
        if not options:
            raise AssertionError(f"walk stuck in state {state}")
        kind, a, b = rng.choice(options if not closing else options[:1])
        if kind == "close-root":
            events.append(ev.end(model.root_element))
            return ev.stream_from_events(events, reindex=True)
        if kind == "call":
            events.append(ev.start(a))
            stack.append(state)
            state = b
        elif kind == "ret":
            events.append(ev.end(a))
            stack.pop()
            state = b
        else:
            dst, key = a, b
            events.append(ev.text(dfa_sample(reference_predicate(dts, key), rng)))
            state = dst


def accepted_witness(model, dts, rng: Random | None = None):
    """A stream that ``validate`` accepts on ``model``, or None when it
    accepts none.

    A fixpoint over the compiled maps: ``found[e][(q, text)]`` is a run
    from entry ``e`` to ``q`` at the same stack height, where ``text``
    says that the run ends in a text, so that no second text follows it.
    A call from ``q`` on ``c`` into entry ``f`` extends a run by any run of
    ``f`` that ends in an exit taking the return for ``(q, c)``.  Every
    ``(entry, state, text)`` is visited, so a stream is found whenever
    one exists.  Texts are sampled from the reference predicates.
    """
    rng = rng or Random(0)
    texts = {}

    def text_for(key):
        if key not in texts:
            samples = [sample_string(reference_predicate(dts, key), rng) for _ in range(10)]
            texts[key] = next((t for t in samples if t.strip()), samples[0])
        return ev.text(texts[key])

    calls_of = {}
    for (q, c), entry in model.call_map.items():
        calls_of.setdefault(q, []).append((c, entry))
    found = {model.entry0: {(model.entry0, False): []}}
    changed = True
    while changed:
        changed = False
        for e, runs in list(found.items()):
            for (q, text), run in list(runs.items()):
                steps = []
                hit = model.int_map.get(q)
                if hit is not None and not text:
                    steps.append((e, (hit[0], True), run + [text_for(hit[1])]))
                for c, entry in calls_of.get(q, ()):
                    steps.append((entry, (entry, False), []))
                    target, exits = model.ret_map.get((q, c), (None, ()))
                    for (x, _text), inner in list(found.get(entry, {}).items()):
                        if x in exits:
                            steps.append((e, (target, False),
                                          run + [ev.start(c), *inner, ev.end(c)]))
                for f, key, events in steps:
                    if key not in found.setdefault(f, {}):
                        found[f][key] = events
                        changed = True
    for (q, _text), run in found[model.entry0].items():
        if q in model.finals:
            return ev.stream_from_events(
                [ev.start(model.root_element), *run, ev.end(model.root_element)], reindex=True)
    return None


# ---------------------------------------------------------------------------
# validation by datatype sets

class _AnyOf:
    """Stands in for a compiled predicate: a text is accepted when some
    member datatype accepts it."""

    def __init__(self, dts, dtset):
        self.dts = dts
        self.dtset = dtset

    def accepts(self, text_: str) -> bool:
        return any(self.dts.accepts(name, text_) for name in self.dtset)


def validate_dxvpa(dxvpa: Dxvpa, stream) -> Verdict:
    """Datatype-set semantics: a text moves along the internal transition
    when some member datatype accepts it.  Equivalent to the compiled
    form; exists as the slow reference route, and shares the validator's
    walk with member-by-member predicates in place of the fused ones."""
    predicates = {}
    int_map = {}
    for mod in dxvpa.modules.values():
        for src, (dst, dtset) in mod.internals.items():
            key = frozenset(dtset)
            predicates.setdefault(key, _AnyOf(dxvpa.dts, key))
            int_map[src] = (dst, key)
    return validate(Cxvpa(dxvpa, predicates, int_map), stream)


# ---------------------------------------------------------------------------
# pairwise module minimization

def minimize_pairwise(dxvpa: Dxvpa) -> Dxvpa:
    """Fold congruent modules mapped to the same element.

    Congruence is bisimilarity of the module graphs where internal edges
    compare by exact datatype choice and call edges by (element, callee
    module); the pairing must be a bijection.  After each fold the scan
    restarts until no pair folds.  The input is not mutated.
    """
    modules = {k: _copy_module(m) for k, m in dxvpa.modules.items()}
    m0 = dxvpa.m0

    changed = True
    while changed:
        changed = False
        keys = sorted(modules, key=repr)
        for i, key_m in enumerate(keys):
            for key_n in keys[i + 1:]:
                m, n = modules[key_m], modules[key_n]
                if m.element != n.element:
                    continue
                pairing = _bisimulation(modules, m, n)
                if pairing is None:
                    continue
                _fold(modules, key_m, key_n, pairing)
                if m0 == key_n:
                    m0 = key_m
                changed = True
                break
            if changed:
                break
    return Dxvpa(modules, m0, dxvpa.root_element, dxvpa.dts)


def _copy_module(m: Module) -> Module:
    return Module(context=m.context, element=m.element, states=set(m.states),
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


def _bisimulation(modules: dict, m: Module, n: Module):
    """Entry-rooted pairing of two module graphs, or None.

    Requires identical edge labels at every paired state, identical
    exit status, and a bijective pairing.
    """
    pairing = {}
    reverse = {}
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
        edges_n = _module_edges(modules, n, qn)
        edges_m = _module_edges(modules, m, qm)
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


def _fold(modules: dict, key_m: tuple, key_n: tuple, pairing: dict):
    """Fold module n into m, rewriting calls and returns of its neighbors."""
    m, n = modules[key_m], modules[key_n]

    # callers of n now call m; n's returns move to m's table (their
    # targets live in the callers and stay valid)
    for key_i, mod_i in modules.items():
        if key_i == key_n:
            continue
        for (q, c), callee in list(mod_i.calls.items()):
            if callee == key_n:
                mod_i.calls[(q, c)] = key_m
    m.returns.update(n.returns)

    # callees of n: returns popping n-states are rewritten through the pairing
    callees = {callee for (_q, _c), callee in n.calls.items()}
    for callee_key in callees:
        # a call of n into n is now a call of m into m, and its returns are in m
        returns = modules[key_m if callee_key == key_n else callee_key].returns
        for (popped, c), target in list(returns.items()):
            if popped in n.states:
                del returns[(popped, c)]
                returns[(pairing[popped], c)] = pairing[target]

    del modules[key_n]


# ---------------------------------------------------------------------------
# reference predicates: unions of member DFAs

def union_dfas(dfas) -> Dfa:
    """Language union as a single minimized DFA."""
    nfa = _Nfa()
    start = nfa.new_state()
    accepts = set()
    for d in dfas:
        offset = len(nfa.eps)
        for _ in range(d.n):
            nfa.new_state()
        nfa.add_eps(start, offset + d.start)
        for s in range(d.n):
            for lo, hi, dst in d.edges(s):
                nfa.add_edge(offset + s, ((lo, hi),), offset + dst)
            if s in d.accepting:
                accepts.add(offset + s)
    return Dfa.from_nfa(nfa, start, accepts).minimized()


@lru_cache(maxsize=None)
def reference_predicate(dts, key: frozenset) -> Dfa:
    """The compiled predicate of a datatype set, as one DFA: the member's
    own DFA for a single datatype, else the union of the members'."""
    members = [dts.datatypes[name].dfa for name in sorted(key)]
    return members[0] if len(members) == 1 else union_dfas(members)


# ---------------------------------------------------------------------------
# language queries on DFA pairs: witness strings and random members

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
        for lo, hi in _atomic_intervals([(((l, h),), 0) for l, h in edges]):
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
