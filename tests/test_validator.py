"""Push-mode validation: ``Validator`` fed in chunks against the batch route
``validate(model, parse_document(raw))``."""

import gc
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xvpa import events as ev
from xvpa.automata import (DATATYPE_MISMATCH, UNEXPECTED_ELEMENT, UNEXPECTED_END, Cxvpa,
                           Validator, build_xvpa, compile_cxvpa, validate)
from xvpa.events import (CHARS, DoctypeRejectedError, EncodingError, MalformedXmlError, QName,
                         parse_document, serialize_xml)
from xvpa.harness import build_cardealer_scenario
from xvpa.learner import Learner, NamingScheme
from xvpa.persistence import dump_state, parse_state

from .oracles import events_before_error, unchecked_stream
from .test_automata import _load_benchmark_workloads
from .test_events import _names_shared, _raw_elements, _tables_bounded, fresh_tables  # noqa: F401

A12 = NamingScheme("ancestor", 1, 2)
A11 = NamingScheme("ancestor", 1, 1)
AS22 = NamingScheme("ancestor-sibling", 2, 2)

# one byte each for documents up to this size, larger steps beyond it
ONE_BYTE_MAX = 4096


def model_of(dts, scheme, docs):
    learner = Learner(dts, scheme)
    for raw in docs:
        learner.learn(parse_document(raw))
    return compile_cxvpa(build_xvpa(learner.snapshot(), dts))


def outcome(verdict):
    return verdict.accepted, verdict.reason, verdict.event_index


def batch(model, raw):
    """``(accepted, reason, index)`` of the batch route, or the type of
    the error it raises."""
    try:
        stream = parse_document(raw)
    except MalformedXmlError as exc:
        return type(exc)
    return outcome(validate(model, stream))


def push(model, chunks):
    """``(accepted, reason, index)`` of the push route over ``chunks``, or
    the type of the error it raises.  A chunk fed after the rejection
    changes nothing."""
    validator = Validator(model)
    try:
        for chunk in chunks:
            verdict = validator.feed(chunk)
            if not verdict:
                assert validator.feed(b"<junk") == verdict == validator.close()
                return outcome(verdict)
        return outcome(validator.close())
    except MalformedXmlError as exc:
        return type(exc)


def split(raw, cuts):
    bounds = [0, *sorted(set(cuts)), len(raw)]
    return [raw[a:b] for a, b in zip(bounds, bounds[1:])]


def _content_positions(raw):
    """Positions inside text runs and attribute values: outside a tag, or
    inside a quoted value within one (comments and CDATA count as tags)."""
    out = []
    in_tag = False
    quote = None
    for i, byte in enumerate(raw):
        if quote is not None:
            if byte == quote:
                quote = None
            else:
                out.append(i)
        elif in_tag:
            if byte in b"\"'":
                quote = byte
            elif byte == ord(">"):
                in_tag = False
        elif byte == ord("<"):
            in_tag = True
        else:
            out.append(i)
    return out


def chunkings(raw, rng, count=4):
    """Ways to cut ``raw``: one byte each (or a step of 61 bytes for a
    large document), each cut inside the first four bytes, and ``count``
    random sets of cuts that favour the inside of multi-byte UTF-8
    sequences, text runs and attribute values."""
    step = 1 if len(raw) <= ONE_BYTE_MAX else 61
    yield [raw[i:i + step] for i in range(0, len(raw), step)]
    for cut in range(1, min(4, len(raw))):
        yield split(raw, [cut])
    if len(raw) < 2:
        return
    inner = [i for i in range(1, len(raw)) if 0x80 <= raw[i] < 0xC0]
    content = [i for i in _content_positions(raw) if i > 0]
    for _ in range(count):
        pools = [p for p in (inner, content) if p] + [range(1, len(raw))]
        cuts = [rng.choice(rng.choice(pools)) for _ in range(rng.randint(1, 6))]
        yield split(raw, cuts)


def assert_push_matches_batch(model, raw, rng, count=4):
    want = batch(model, raw)
    for chunks in chunkings(raw, rng, count):
        assert push(model, chunks) == want, [bytes(c) for c in chunks][:8]
    return want


def assert_push_consistent(model, raw, rng):
    """On any input: an error the push route raises is the batch route's;
    a rejection is the one the events before the first parse error get; an
    acceptance is the batch route's."""
    events, error = events_before_error(raw)
    for chunks in chunkings(raw, rng, count=2):
        got = push(model, chunks)
        if isinstance(got, type):
            assert got is batch(model, raw)
        elif got[0]:
            assert error is None and got == batch(model, raw)
        else:
            assert got == outcome(validate(model, unchecked_stream(events)))


def corrupted_copies(raw, rng, count):
    """Truncated prefixes and copies with one byte replaced."""
    for _ in range(count):
        yield raw[:rng.randrange(len(raw))]
        at = rng.randrange(len(raw))
        yield raw[:at] + bytes([rng.choice(b"<>&/\"' x\x00\xc3\xff")]) + raw[at + 1:]


@pytest.fixture(scope="module")
def cardealer(dts):
    scenario = build_cardealer_scenario(7, train_count=50, normal_count=60)
    model = model_of(dts, A12, [serialize_xml(s).encode() for s in scenario.train])
    docs = [serialize_xml(s).encode() for s in scenario.test_normal]
    for _kind, streams in sorted(scenario.test_attacks.items()):
        docs += [serialize_xml(s).encode() for s in streams]
    return model, docs


@pytest.fixture(scope="module")
def benchmark_workloads():
    return _load_benchmark_workloads()


# -- the push verdict equals the batch verdict on parsed documents -------------

@given(_raw_elements(),
       st.sampled_from(["", '<?xml version="1.0" encoding="UTF-8"?>', "<!-- lead -->\n"]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_push_matches_batch_on_hypothesis_documents(dts, body, prolog, seed):
    """Namespaces, unsorted attributes, CDATA, comments and whitespace
    runs, cut anywhere: validated against a model learned from the document
    itself, which accepts it, against a model learned from another, and
    against one learned from both, which accepts both."""
    raw = (prolog + body).encode("utf-8")
    rng = random.Random(seed)
    own = model_of(dts, A11, [raw])
    assert assert_push_matches_batch(own, raw, rng) == (True, None, None)
    other_raw = b'<a xmlns:p="urn:p" p:z="1"><b>x</b></a>'
    assert_push_matches_batch(model_of(dts, A11, [other_raw]), raw, rng)
    # two roots whenever raw's root is not a: both documents are accepted
    both = model_of(dts, A11, [raw, other_raw])
    for doc in (raw, other_raw):
        assert assert_push_matches_batch(both, doc, rng) == (True, None, None)
    for copy in corrupted_copies(raw, rng, 2):
        assert_push_consistent(own, copy, rng)


def test_push_matches_batch_on_cardealer(cardealer, master_seed):
    """Normals and every attack kind of the detection scenario."""
    model, docs = cardealer
    rng = random.Random(master_seed + 81)
    verdicts = {assert_push_matches_batch(model, raw, rng) for raw in docs}
    assert (True, None, None) in verdicts and len(verdicts) > 2


def test_every_text_is_checked_exactly_once(dts, cardealer, master_seed):
    """Normals, attacks and attribute values, through ``validate`` and
    through ``Validator`` fed at random cuts: the texts that
    ``accept_mask`` is called with are the document's characters events up
    to and including the verdict's event, in order, each once.  A text in a
    state with no text transition is rejected unchecked."""
    model, docs = cardealer
    attributed = model_of(dts, A11, [b'<a x="1" y="b"><b>t</b></a>'])
    # (model, document, whether the verdict's event is a text left unchecked)
    cases = [(model, raw, False) for raw in docs]
    cases += [(model, b"<dealer><newcars>x</newcars><usedcars/></dealer>", True),
              (attributed, b'<a y="b" x="2"><b>t u</b></a>', False),
              (attributed, b'<a x="q" y="b"><b>t</b></a>', False),
              (attributed, b'<a x="1" y="b"><b>t</b>t</a>', True),
              (attributed, b'<a x="1" y="b"><c/></a>', False)]
    checked = []
    rng = random.Random(master_seed + 85)
    reasons = set()
    for target, raw, unchecked in cases:
        def accept_mask(text, live=-1, target=target):
            checked.append(text)
            return target.accept_mask(text, live)

        recording = Cxvpa(target.names, target.calls, target.returns, target.texts,
                          target.predicates, accept_mask)
        stream = parse_document(raw)
        verdict = validate(target, stream)
        reasons.add(verdict.reason)
        end = len(stream) if verdict.event_index is None else verdict.event_index
        want = [label for index, kind, label in zip(stream.indices, stream.kinds, stream.labels)
                if kind == CHARS and index <= end]
        if unchecked:
            assert verdict.reason == DATATYPE_MISMATCH and stream.kinds[end] == CHARS
            want.pop()
        checked.clear()
        assert validate(recording, stream) == verdict and checked == want, raw
        for chunks in chunkings(raw, rng, count=2):
            checked.clear()
            assert push(recording, chunks) == outcome(verdict) and checked == want, chunks
    assert reasons == {None, DATATYPE_MISMATCH, UNEXPECTED_ELEMENT}


@pytest.mark.parametrize("scheme", [AS22, A12], ids=["ancestor-sibling-2-2", "ancestor-1-2"])
def test_push_matches_batch_on_recursive_grammar(dts, benchmark_workloads, master_seed, scheme):
    """Training documents and structural-wrapping mutants."""
    train, mutants = benchmark_workloads.recursive(3, 3, 2, 30, wrapped=12)
    model = model_of(dts, scheme, train)
    rng = random.Random(master_seed + 82)
    for raw in train[:15]:
        assert assert_push_matches_batch(model, raw, rng, count=2) == (True, None, None)
    assert not any(assert_push_matches_batch(model, raw, rng, count=2)[0] for raw in mutants)


def test_push_matches_batch_on_hostile_documents(dts, benchmark_workloads, master_seed):
    """The four hostile documents, at a small size, against the model they
    were made for."""
    train, _stream = benchmark_workloads.cardealer(1, normals=1)
    model = model_of(dts, A12, train)
    rng = random.Random(master_seed + 83)
    for kind, size in (("deep", 300), ("oversize", 5000), ("longtext", 3000), ("flood", 40)):
        got = assert_push_matches_batch(model, benchmark_workloads.hostile(kind, size), rng, 2)
        assert all(w is None or w == g
                   for w, g in zip(benchmark_workloads.HOSTILE_VERDICTS[kind], got))


# -- names come from the tables parse_document shares ---------------------------

def test_five_thousand_attribute_names_detach_the_tables_partway(dts, fresh_tables, master_seed):
    """One element with 5,000 distinct attribute names, more than a table
    keeps: the push route gets the batch verdict from a model that accepts
    them all and from one that knows one of them, and every validator
    leaves fresh tables behind, each within its bounds."""
    raw = b"<r " + b" ".join(b'a%d="%d"' % (i, i) for i in range(5000)) + b"/>"
    models = [model_of(dts, A11, [raw]), model_of(dts, A11, [b'<r a0="0"/>'])]
    rng = random.Random(master_seed + 86)
    for model, want in zip(models, [(True, None, None), (False, UNEXPECTED_ELEMENT, 4)]):
        assert batch(model, raw) == want
        ev._shared = [{}, {}]  # the fixture restores the tables it replaced
        elements = ev._shared[0]
        for chunks in chunkings(raw, rng, count=1):
            assert push(model, chunks) == want
        assert ev._shared[0] is not elements and _tables_bounded()


def test_push_and_batch_routes_hold_the_same_names(dts, fresh_tables):
    """After a validator reads a document on fresh tables, parsing the same
    bytes returns the QNames the validator stored."""
    raw = b'<r xmlns="urn:r" xmlns:p="urn:p" p:z="1" y="2"><p:a x="3">t</p:a><b/></r>'
    model = model_of(dts, A11, [raw])
    ev._shared = [{}, {}]
    assert push(model, [raw]) == (True, None, None)
    held = {qn: qn for table in ev._shared for qn in table.values()}
    stream = parse_document(raw)
    names = [label for label in stream.labels if isinstance(label, QName)]
    assert len(held) == 6 and all(held[label] is label for label in names)
    assert _names_shared(stream)


def test_a_label_no_name_renders_to_gets_one_verdict(dts, master_seed):
    """A state file may name an element ``{}x`` or an attribute ``@{}a``,
    labels no parsed name renders to: the model built from it rejects
    where those names would be taken, on both routes alike."""
    learner = Learner(dts, A11)
    learner.learn(parse_document(b'<r a="1"><x>2</x></r>'))
    text = dump_state(learner).replace(" x ", " %7B%7Dx ").replace(" %40a ", " %40%7B%7Da ")
    model = compile_cxvpa(build_xvpa(parse_state(text, dts).snapshot(), dts))
    assert {"{}x", "@{}a"} <= set().union(*model.calls)
    rng = random.Random(master_seed + 87)
    for raw, want in [(b'<r a="1"><x>2</x></r>', (False, UNEXPECTED_ELEMENT, 1)),
                      (b'<r xmlns="" a="1"><x xmlns="">2</x></r>', (False, UNEXPECTED_ELEMENT, 1)),
                      (b"<r><x>2</x></r>", (False, UNEXPECTED_ELEMENT, 1)),
                      (b"<r/>", (False, UNEXPECTED_END, 1))]:
        assert assert_push_matches_batch(model, raw, rng) == want


def test_feed_after_close(dts):
    """``close`` ends the input: once it has accepted the document,
    ``feed`` raises ``ValueError`` and ``close`` accepts again.  A rejected
    document keeps its rejection through every later call."""
    model = model_of(dts, A11, [b"<r/>"])
    validator = Validator(model)
    assert validator.feed(b"<r/>") and validator.close()
    with pytest.raises(ValueError):
        validator.feed(b"<x/>")
    assert validator.close() and outcome(validator.close()) == (True, None, None)
    validator = Validator(model)
    rejected = validator.feed(b"<x/>")
    assert outcome(rejected) == (False, UNEXPECTED_ELEMENT, 0)
    assert validator.close() == rejected == validator.feed(b"<r/>") == validator.close()


def test_feed_and_close_after_a_parse_error(dts):
    """A parse error ends the document: later ``feed`` and ``close`` calls
    raise ``ValueError``, as the class docstring promises."""
    validator = Validator(model_of(dts, A11, [b"<r/>"]))
    with pytest.raises(MalformedXmlError):
        validator.feed(b"<r></x>")
    with pytest.raises(ValueError, match="^the document has ended in an error$"):
        validator.feed(b"<r/>")
    with pytest.raises(ValueError, match="^the document has ended in an error$"):
        validator.close()


# -- malformed input -------------------------------------------------------------

def test_push_on_truncated_and_corrupted_documents(cardealer, master_seed):
    """A rejection is the one the events before the parse error get, an
    error is the batch route's: the first rejection ends the document."""
    model, docs = cardealer
    rng = random.Random(master_seed + 84)
    for raw in docs[:40] + docs[-17:]:
        for copy in corrupted_copies(raw, rng, 3):
            assert_push_consistent(model, copy, rng)


def test_rejection_before_a_parse_error_ends_the_document(cardealer):
    model, _docs = cardealer
    raw = b"<dealer><pwned/><newcars/><oops></dealer>"
    assert batch(model, raw) is MalformedXmlError
    assert push(model, [raw]) == (False, UNEXPECTED_ELEMENT, 1)
    assert push(model, split(raw, [12])) == (False, UNEXPECTED_ELEMENT, 1)
    # a parse error before the first rejection is raised
    assert push(model, [b"<dealer><newcars></dealer><pwned/>"]) is MalformedXmlError


@pytest.mark.parametrize("raw, error", [
    (b"<!DOCTYPE r><r/>", DoctypeRejectedError),
    (b'<?xml version="1.0"?>\n<!DOCTYPE r [<!ENTITY e "x">]><r>&e;</r>', DoctypeRejectedError),
    ("<r/>".encode("utf-16"), EncodingError),
    ("﻿<r/>".encode("utf-16-be"), EncodingError),
    (b"<r\x00/>", EncodingError),
    (b"<a>\x00", EncodingError),
    (b"\x00", EncodingError),
    (b'<?xml version="1.0" encoding="ISO-8859-1"?><r>\xe9</r>', EncodingError),
], ids=["doctype", "doctype-entity", "utf16-le-bom", "utf16-be-bom", "nul", "nul-at-3",
        "short-nul", "latin1-declaration"])
def test_encoding_and_doctype_errors_in_every_chunking(cardealer, raw, error):
    model, _docs = cardealer
    assert batch(model, raw) is error
    head = range(1, min(len(raw), 9))
    for mask in range(1 << len(head)):
        cuts = [cut for bit, cut in enumerate(head) if mask >> bit & 1]
        assert push(model, split(raw, cuts)) is error, cuts
    assert push(model, [raw[i:i + 1] for i in range(len(raw))]) is error


# -- bounded memory and early stop ----------------------------------------------

def test_deep_foreign_nesting_stops_at_once_in_bounded_memory(dts, benchmark_workloads):
    """A 200k-deep foreign nesting fed in 4 KiB chunks is rejected at event
    1 after the first chunk: little memory, little time."""
    train, _stream = benchmark_workloads.cardealer(1, normals=1)
    model = model_of(dts, A12, train)
    raw = benchmark_workloads.hostile("deep", 200_000)
    view = memoryview(raw)

    def run():
        validator = Validator(model)
        for at in range(0, len(raw), 4096):
            if not validator.feed(view[at:at + 4096]):
                break
        return validator.close()

    gc.collect()
    tracemalloc.start()
    try:
        verdict = run()
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome(verdict) == (False, UNEXPECTED_ELEMENT, 1)
    assert peak < 2_000_000
    start = time.process_time()
    verdict = run()
    assert time.process_time() - start < 0.05
    assert outcome(verdict) == (False, UNEXPECTED_ELEMENT, 1)


def test_oversized_text_is_checked_once_its_run_ends(dts, benchmark_workloads):
    """A long non-numeric year is rejected, in chunks, where the batch
    route rejects it."""
    train, _stream = benchmark_workloads.cardealer(1, normals=1)
    model = model_of(dts, A12, train)
    raw = benchmark_workloads.hostile("oversize", 300_000)
    chunks = [raw[at:at + 4096] for at in range(0, len(raw), 4096)]
    got = push(model, chunks)
    assert got == batch(model, raw) and got[:2] == (False, DATATYPE_MISMATCH)
