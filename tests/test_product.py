"""The lazy product classifier against its member DFAs: masks at every
prefix, bounded rows on any input, and concurrent validation."""

import sys
import threading
from collections import deque
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from xvpa.automata import build_xvpa, compile_cxvpa, validate
from xvpa.datatypes import load_datatype_system
from xvpa.dfa import ASCII, MAX_CP
from xvpa.harness import build_cardealer_scenario, cardealer_grammar, generate
from xvpa.learner import Learner, NamingScheme

from .conftest import MASTER_SEED
from .oracles import atomic_intervals, brute_force_minimal
from .samplers import mixed_corpus

CORPUS = mixed_corpus(Random(MASTER_SEED + 70), 300)


def _member_run(dfa, live_states, text):
    """(accepts, live) of one member DFA after ``text``, by its own steps."""
    state = dfa.start
    for ch in text:
        state = dfa.step(state, ord(ch))
        if state is None:
            return False, False
    return state in dfa.accepting, state in live_states


@given(st.one_of(st.text(), st.sampled_from(CORPUS)),
       st.sets(st.integers(0, 40), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_product_masks_equal_member_dfas(dts, text, picks):
    product = dts.product
    names = dts.names()
    dfas = [dts.datatypes[name].dfa for name in names]
    lives = [dfa._coaccessible() for dfa in dfas]
    everything = (1 << len(names)) - 1
    for end in range(len(text) + 1):
        prefix = text[:end]
        s = product.run(prefix, everything)
        accept, live = (s.accept, s.live) if s is not None else (0, 0)
        for i, (dfa, live_states) in enumerate(zip(dfas, lives)):
            member_accepts, member_live = _member_run(dfa, live_states, prefix)
            assert bool(accept >> i & 1) == member_accepts, (names[i], prefix)
            assert bool(live >> i & 1) == member_live, (names[i], prefix)
    key = frozenset(names[i % len(names)] for i in picks)
    expected = any(dts.accepts(name, text) for name in key)
    assert dts.predicate(key).accepts(text) == expected, (sorted(key), text)


def _reachable_product(dfas) -> set:
    """Every reachable tuple of member states, by breadth-first search over
    the atomic intervals of the members' edges."""
    start = tuple(d.start for d in dfas)
    seen = {start}
    queue = deque([start])
    while queue:
        comps = queue.popleft()
        edges = [(((lo, hi),), 0) for d, c in zip(dfas, comps) if c is not None
                 for lo, hi, _dst in d.edges(c)]
        for lo, _hi in atomic_intervals(edges):
            nxt = tuple(None if c is None else d.step(c, lo) for d, c in zip(dfas, comps))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def test_product_memory_is_bounded_by_member_intervals():
    """A text of every 97th codepoint fills no more states than the full
    product has, and no state's rows outgrow its members' intervals."""
    dts = load_datatype_system()
    product = dts.product
    text = "".join(chr(cp) for cp in range(0, MAX_CP + 1, 97))
    xml_chars = "".join(ch for ch in text if dts.accepts("string", ch))
    for key in ({"top"}, {"string", "token"}, {"top", "gYear"}):
        for t in (text, xml_chars):
            assert dts.predicate(key).accepts(t) == any(dts.accepts(n, t) for n in key)
    assert dts.minimal_datatypes(text) == {"top"}
    assert dts.minimal_datatypes(xml_chars) == brute_force_minimal(dts, xml_chars) == {"token"}
    reachable = _reachable_product([dts.datatypes[name].dfa for name in dts.names()])
    assert set(product.states) <= reachable
    for comps, s in product.states.items():
        assert s.comps == comps and len(s.ascii) == ASCII
        if s.wide is None:
            continue
        los, successors = s.wide
        bound = 1 + 2 * sum(len(list(d.edges(c)))
                            for d, c in zip(product.dfas, comps) if c is not None)
        assert len(los) == len(successors) <= bound
        assert los[0] == ASCII and los == sorted(set(los)) and los[-1] <= MAX_CP


def test_concurrent_validation_on_a_cold_product(master_seed):
    """Four threads validating the cardealer normals on a product that no
    text has touched give the verdicts of a sequential run."""
    learner = Learner(load_datatype_system(), NamingScheme("ancestor", 1, 2))
    for doc in generate(cardealer_grammar(), 50, master_seed):
        learner.learn(doc)
    normals = build_cardealer_scenario(master_seed, train_count=1,
                                       normal_count=150).test_normal
    sequential_dts = load_datatype_system()
    sequential = compile_cxvpa(build_xvpa(learner.snapshot(), sequential_dts))
    expected = [validate(sequential, doc) for doc in normals]

    cold_dts = load_datatype_system()
    model = compile_cxvpa(build_xvpa(learner.snapshot(), cold_dts))
    assert len(cold_dts.product.states) == 1
    results = [None] * 4
    barrier = threading.Barrier(4)

    def work(i):
        order = list(range(len(normals)))
        Random(i).shuffle(order)
        barrier.wait()
        verdicts = {j: validate(model, normals[j]) for j in order}
        results[i] = [verdicts[j] for j in range(len(normals))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)
    assert len(cold_dts.product.states) == len(sequential_dts.product.states)
