"""The lazy product classifier against its member DFAs: masks at every
prefix, bounded rows on any input, the text memo, and concurrent
validation."""

import gc
import sys
import threading
import tracemalloc
from collections import deque
from functools import cache
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from xvpa.automata import Validator, build_xvpa, compile_cxvpa, validate
from xvpa.datatypes import load_datatype_system
from xvpa.dfa import ASCII, CACHED_TEXT_MAX, CHUNK, MAX_CP, MEMO_MAX, Dfa, ProductDfa
from xvpa.events import parse_document
from xvpa.harness import build_cardealer_scenario, cardealer_grammar, generate
from xvpa.learner import Learner, NamingScheme

from .conftest import MASTER_SEED
from .oracles import atomic_intervals, brute_force_minimal, member_accepts
from .samplers import mixed_corpus
from .test_datatypes import NON_ASCII
from .test_validator import A12, batch, model_of, push

CORPUS = mixed_corpus(Random(MASTER_SEED + 70), 300)
ACCEPTED = (True, None, None)


def _cut_to(texts, n):
    """Each nonempty text repeated and cut to ``n`` characters."""
    return [(t * (n // len(t) + 1))[:n] for t in texts if t]


# texts at the memo's length bound and one character over it
EDGE = [n * "9" for n in (CACHED_TEXT_MAX, CACHED_TEXT_MAX + 1)] + [
    t for n in (CACHED_TEXT_MAX, CACHED_TEXT_MAX + 1) for t in _cut_to(CORPUS[:30] + NON_ASCII, n)]


def _member_state(dfa, text):
    """One member DFA's state after ``text``, by its own steps; None, as
    in a product state, once it is dead."""
    state = dfa.start if dfa.accepting else None
    for ch in text:
        if state is None:
            break
        state = dfa.step(state, ord(ch))
    return state


@cache
def _coaccessible(dfa) -> set:
    return dfa._coaccessible()


def _assert_member_masks(dts, prefix):
    """The product state after ``prefix``: its accept and live masks and
    its component states are the member DFAs'."""
    names = list(dts.datatypes)
    s = dts.product.run(prefix, -1)
    accept, live = (s.accept, s.live) if s is not None else (0, 0)
    for i, name in enumerate(names):
        dfa = dts.datatypes[name].dfa
        state = _member_state(dfa, prefix)
        assert bool(accept >> i & 1) == (state in dfa.accepting), (name, prefix)
        assert bool(live >> i & 1) == (state in _coaccessible(dfa)), (name, prefix)
        assert s is None or s.comps[i] == state, (name, prefix)
    return s


@given(st.one_of(st.text(), st.sampled_from(CORPUS)),
       st.sets(st.integers(0, 40), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_product_masks_equal_member_dfas(dts, text, picks):
    names = list(dts.datatypes)
    for end in range(len(text) + 1):
        _assert_member_masks(dts, text[:end])
    key = frozenset(names[i % len(names)] for i in picks)
    expected = any(member_accepts(dts, name, text) for name in key)
    mask = dts.mask(key)
    assert bool(dts.product.accept_mask(text, mask) & mask) == expected, (sorted(key), text)


# pieces that keep many datatypes live, and runs of either kind of character,
# repeated to any length up to 300
_PIECES = st.one_of(st.sampled_from(CORPUS + NON_ASCII), st.text("0123456789", max_size=90),
                    st.text(st.characters(max_codepoint=ASCII - 1), max_size=90),
                    st.text(st.characters(min_codepoint=ASCII), max_size=30))
_MIXED = st.builds(lambda pieces, n: "".join(_cut_to(["".join(pieces)], n)),
                   st.lists(_PIECES, min_size=1, max_size=8), st.integers(0, 300))


@given(_MIXED, st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_chunked_run_masks_at_chunk_edges(dts, text, pick):
    """Texts that mix ASCII chunks with chunks above ASCII: at prefix
    lengths next to each multiple of ``CHUNK``, the run's masks are the
    member DFAs', and a run for one datatype gives None exactly when that
    datatype is dead."""
    one = pick % len(list(dts.datatypes))
    ends = {len(text)} | {end for k in range(0, len(text) + CHUNK, CHUNK)
                          for end in (k - 1, k, k + 1) if 0 <= end <= len(text)}
    for end in sorted(ends):
        prefix = text[:end]
        s = _assert_member_masks(dts, prefix)
        alone = dts.product.run(prefix, 1 << one)
        if not prefix or s is not None and s.live >> one & 1:
            assert alone is s, (one, prefix)
        else:
            assert alone is None, (one, prefix)


def _rows(product) -> dict:
    """Each product state's filled transitions: ASCII characters taken and
    lower bounds of the intervals above ASCII taken."""
    return {comps: (set(s.next), {lo for lo, t in zip(*(s.wide or ((), ()))) if t is not None})
            for comps, s in product.states.items()}


def test_a_dead_run_reads_at_most_a_chunk_past_its_dead_character():
    """A text check whose datatype dies at some character stops within
    ``CHUNK`` characters of it, in an ASCII or a mixed chunk and at every
    offset into a chunk: characters placed ``CHUNK`` or more past it grow
    no product state and fill no row."""
    dfas = [Dfa.from_pattern("x*"), Dfa.from_pattern("[x-y\\u{e9}]*z*")]
    tail = "z" * CACHED_TEXT_MAX + "\u00fc"  # each would take a new state
    assert len(_run_all(dfas, "y" + tail).states) > len(_run_all(dfas, "y").states)
    for filler in ("y" * CHUNK, "y\u00e9" * CHUNK):
        for dead in range(2 * CHUNK + 1):
            head = "x" * dead + filler[:CHUNK]  # x* dies at head[dead]
            product = ProductDfa(dfas)
            assert not product.accept_mask(head + tail, 1) & 1
            assert product.run(head + tail, 1) is None
            taken, whole = _rows(product), _rows(_run_all(dfas, head))
            assert taken.keys() <= whole.keys(), (filler, dead)
            for comps, (chars, wide) in taken.items():
                assert chars <= whole[comps][0] and wide <= whole[comps][1], (filler, dead)


def _run_all(dfas, text) -> ProductDfa:
    """A fresh product after scanning ``text`` until every member is dead."""
    product = ProductDfa(dfas)
    product.run(text, -1)
    return product


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
    xml_chars = "".join(ch for ch in text if member_accepts(dts, "string", ch))
    for key in ({"top"}, {"string", "token"}, {"top", "gYear"}):
        mask = dts.mask(key)
        for t in (text, xml_chars):
            assert bool(product.accept_mask(t, mask) & mask) == any(member_accepts(dts, n, t)
                                                                    for n in key)
    assert dts.minimal_datatypes(text) == {"top"}
    assert dts.minimal_datatypes(xml_chars) == brute_force_minimal(dts, xml_chars) == {"token"}
    reachable = _reachable_product([dts.datatypes[name].dfa for name in list(dts.datatypes)])
    assert set(product.states) <= reachable
    for comps, s in product.states.items():
        assert s.comps == comps and len(s.next) <= ASCII
        assert all(len(ch) == 1 and ord(ch) < ASCII for ch in s.next)
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


# -- the text memo ---------------------------------------------------------------

def _member_mask(dts, text) -> int:
    return sum(1 << i for i, name in enumerate(list(dts.datatypes)) if member_accepts(dts, name, text))


def _cold(mask, product, text) -> bool:
    """The verdict of the early-exit run alone, which reads no memo."""
    s = product.run(text, mask)
    return s is not None and bool(s.accept & mask)


@given(st.one_of(st.text(), st.text(st.characters(min_codepoint=0x80)),
                 st.sampled_from(CORPUS + NON_ASCII + EDGE)),
       st.sets(st.integers(0, 40), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_memo_hit_equals_the_cold_run_and_member_dfas(dts, text, picks):
    """A short text's first answer fills the memo with its full-scan mask,
    and the answer from the memo then equals the early-exit run and the
    member DFAs; a text over the bound never enters the memo."""
    names = list(dts.datatypes)
    key = frozenset(names[i % len(names)] for i in picks)
    mask = dts.mask(key)
    product = dts.product
    product.memo.pop(text, None)
    expected = any(member_accepts(dts, name, text) for name in key)
    assert bool(product.accept_mask(text, mask) & mask) == _cold(mask, product, text) == expected
    assert (text in product.memo) == (len(text) <= CACHED_TEXT_MAX)
    assert bool(product.accept_mask(text, mask) & mask) == expected
    assert product.accept_mask(text) == _member_mask(dts, text)


def test_every_predicate_answers_from_the_memo_as_its_members():
    """Every single-datatype mask and every mask of a compiled cardealer
    model, on the mixed corpus, non-ASCII texts and texts of 256 and 257
    characters, with a warm memo."""
    dts = load_datatype_system()
    learner = Learner(dts, NamingScheme("ancestor", 1, 2))
    for doc in generate(cardealer_grammar(), 50, MASTER_SEED):
        learner.learn(doc)
    compiled = compile_cxvpa(build_xvpa(learner.snapshot(), dts)).predicates
    assert len(compiled) >= 2
    masks = [(frozenset([name]), dts.mask([name])) for name in list(dts.datatypes)]
    masks += compiled.items()
    texts = CORPUS + NON_ASCII + EDGE
    for text in texts:
        dts.product.accept_mask(text)
    assert all((text in dts.product.memo) == (len(text) <= CACHED_TEXT_MAX) for text in texts)
    for key, mask in masks:
        for text in texts:
            expected = any(member_accepts(dts, name, text) for name in key)
            assert bool(dts.product.accept_mask(text, mask) & mask) == \
                _cold(mask, dts.product, text) == expected, (sorted(key), text)


def _text_model(dts):
    """A model whose ``<a>`` holds NMTOKENS, so a long run of letters and
    many distinct short texts are all accepted."""
    return model_of(dts, A12, [b"<r><a>hello world</a></r>", b"<r><a>t1 x</a><a>t2 y</a></r>"])


def test_a_long_validated_text_leaves_nothing_in_the_memo():
    """Validating a 1 MB text through the batch route and through
    ``Validator`` adds nothing to the memo, and dropping the document
    retains less than 100 KB."""
    dts = load_datatype_system()
    model = _text_model(dts)
    raw = b"<r><a>" + b"x" * 1_000_000 + b"</a></r>"
    routes = {"batch": lambda doc: batch(model, doc),
              "push": lambda doc: push(model, [doc[at:at + 65536]
                                               for at in range(0, len(doc), 65536)])}
    for name, route in routes.items():
        assert route(b"<r><a>xxxx</a></r>") == ACCEPTED  # the states a run of x takes
        memo = dict(dts.product.memo)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert route(raw) == ACCEPTED, name
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 100_000, name
        assert dts.product.memo == memo, name


def test_the_memo_never_outgrows_its_bound():
    """Validating and learning more distinct short texts than the memo's
    bound clears it wholesale, and it never holds more than the bound."""
    dts = load_datatype_system()
    model = _text_model(dts)
    memo = dts.product.memo
    elements = [b"<a>t%d x</a>" % i for i in range(MEMO_MAX + 1000)]
    sizes = []
    validator = Validator(model)
    for chunk in [b"<r>", *elements, b"</r>"]:
        assert validator.feed(chunk)
        sizes.append(len(memo))
    assert validator.close()
    assert max(sizes) <= MEMO_MAX and sizes[-1] < max(sizes)
    raw = b"<r>" + b"".join(elements[::-1]) + b"</r>"
    assert validate(model, parse_document(raw))
    assert len(memo) <= MEMO_MAX
    Learner(dts, A12).learn(parse_document(raw))
    assert len(memo) <= MEMO_MAX


def test_concurrent_stores_keep_the_memo_bound_and_its_answers():
    """Four threads answering more distinct short texts than the memo's
    bound on one product, with frequent thread switches, get every answer
    right, and the memo never holds more than its bound plus one entry for
    each thread beyond the first (a switch between the bound check and the
    store)."""
    dts = load_datatype_system()
    mask = dts.mask(["unsignedShort", "NMTOKENS"])
    accept_mask = dts.product.accept_mask
    memo = dts.product.memo
    per_thread = MEMO_MAX // 3
    failures = []
    barrier = threading.Barrier(4)

    def work(i):
        barrier.wait()
        for n in range(per_thread):
            number = str(i * per_thread + n)
            if not accept_mask(number, mask) & mask or accept_mask(number + "!", mask) & mask:
                failures.append(number)
            if len(memo) > MEMO_MAX + 3:
                failures.append(len(memo))

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
    assert not failures, failures[:5]
