"""Document event stream parsing, invariants, and serialization."""

import copy
import gc
import pickle
import sys
import threading
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xvpa import events as ev
from xvpa.events import (CHARS, END, START, DoctypeRejectedError, EncodingError,
                         InvariantViolation, MalformedXmlError, QName,
                         parse_document, serialize_xml,
                         stream_from_events)

from .oracles import reference_parse, unchecked_stream


def kinds_and_labels(stream):
    return [(e.kind, e.label) for e in stream]


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty shared name tables for one test, so no earlier test's names
    decide when they detach or what a detach frees."""
    monkeypatch.setattr(ev, "_shared", [{}, {}])


def _names_shared(stream):
    """Whether every start and end event of one name holds one object."""
    held = {}
    return all(held.setdefault(label, label) is label
               for kind, label in zip(stream.kinds, stream.labels) if kind != CHARS)


def _tables_bounded():
    return all(len(table) <= ev.NAMES_MAX and all(len(name) <= ev.NAME_MAX for name in table)
               for table in ev._shared)


def test_empty_element():
    assert kinds_and_labels(parse_document(b"<a/>")) == [
        (START, QName("", "a")), (END, QName("", "a"))]


def test_attribute_and_cdata_coalescing():
    stream = parse_document(b'<a b="1">x<![CDATA[<y>]]></a>')
    assert kinds_and_labels(stream) == [
        (START, QName("", "a")),
        (START, QName("", "b", True)),
        (CHARS, "1"),
        (END, QName("", "b", True)),
        (CHARS, "x<y>"),
        (END, QName("", "a")),
    ]


def test_attributes_sorted_alphabetically():
    stream = parse_document(b'<a c="2" b="1"/>')
    assert stream.debug_lines() == [
        "S a", "S @b", "C 1", "E @b", "S @c", "C 2", "E @c", "E a"]


def test_empty_attribute_value_still_yields_characters():
    stream = parse_document(b'<a b=""/>')
    assert kinds_and_labels(stream)[2] == (CHARS, "")


def test_whitespace_only_text_dropped_and_runs_coalesce():
    stream = parse_document(b"<r>\n  <a>1</a>\n  <b> x </b>\n</r>")
    assert stream.debug_lines() == [
        "S r", "S a", "C 1", "E a", "S b", "C  x ", "E b", "E r"]
    # comments are transparent inside a character run
    merged = parse_document(b"<a>x<!-- note -->y</a>")
    assert kinds_and_labels(merged)[1] == (CHARS, "xy")


def test_processing_instructions_and_comments_ignored():
    stream = parse_document(b"<?xml version='1.0'?><a><?php boom ?><!--c--><b/></a>")
    assert stream.debug_lines() == ["S a", "S b", "E b", "E a"]


def test_entity_unwrapping():
    stream = parse_document(b"<a>&lt;tag&gt; &amp; more</a>")
    assert kinds_and_labels(stream)[1] == (CHARS, "<tag> & more")


def test_namespaces_erase_prefixes():
    raw = b'<p:a xmlns:p="urn:x" xmlns:q="urn:x"><q:b p:c="1"/></p:a>'
    stream = parse_document(raw)
    assert stream.debug_lines() == [
        "S {urn:x}a", "S {urn:x}b", "S @{urn:x}c", "C 1", "E @{urn:x}c",
        "E {urn:x}b", "E {urn:x}a"]


def test_malformed_reports_position():
    with pytest.raises(MalformedXmlError) as info:
        parse_document(b"<a><b></a>")
    assert info.value.line == 1


def test_doctype_rejected():
    with pytest.raises(DoctypeRejectedError):
        parse_document(b"<!DOCTYPE a [<!ENTITY x 'y'>]><a>&x;</a>")


def test_non_utf8_rejected():
    with pytest.raises(EncodingError):
        parse_document('<?xml version="1.0" encoding="ISO-8859-1"?><a/>'.encode("latin-1"))
    with pytest.raises(EncodingError):
        parse_document("<a/>".encode("utf-16"))


def test_parsing_leaves_no_reference_cycle():
    """A dropped stream frees what it holds at once, and a failed parse
    leaves nothing for the cyclic collector.  The probe is a name longer
    than ``NAME_MAX``, which the shared tables do not keep."""
    long = b"b" * (ev.NAME_MAX + 1)
    gc.collect()
    gc.disable()
    try:
        stream = parse_document(b"<a>" + b"<%s>1</%s>" % (long, long) * 1000 + b"</a>")
        assert stream.labels[4] == QName("", long.decode())
        name = weakref.ref(stream.labels[4])
        del stream
        assert name() is None
        for bad in (b"<a><b>1</b><b></a>", b"<!DOCTYPE a><a/>"):
            with pytest.raises(MalformedXmlError):
                parse_document(bad)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_names_are_shared_within_one_stream(fresh_tables):
    raw = b'<r xmlns:p="urn:p" a="1"><a p:a="2"/><a a="3">x</a><p:a/></r>'
    stream = parse_document(raw)
    names = [e.label for e in stream if e.kind != CHARS]
    for name in names:
        assert all(other is name for other in names if other == name)
    element = next(n for n in names if n == QName("", "a"))
    attribute = next(n for n in names if n == QName("", "a", True))
    assert attribute is not element and attribute.local == element.local
    assert QName("urn:p", "a") in names and QName("urn:p", "a", True) in names
    # a second parse shares the names while the table holds them
    again = parse_document(raw)
    assert again == stream and again.events[0].label is stream.events[0].label


def test_rendered_label_is_computed_once_and_not_compared():
    name = QName("urn:x", "b", True)
    assert name.render() == "@{urn:x}b" and name.render() is name.render()
    assert repr(name) == "QName(ns='urn:x', local='b', is_attr=True)"
    assert name == QName("urn:x", "b", True) and hash(name) == hash(("urn:x", "b", True))
    assert QName("", "a") < QName("", "a", True) < QName("", "b") < QName("urn:x", "a")


def test_parsing_many_distinct_names_retains_none(fresh_tables):
    """A document with 20,000 distinct element names, more than the shared
    table keeps, leaves no QName behind once its stream is dropped.  The
    test starts on empty tables: a detach frees the names a table held
    before, which would offset the count of the names the parse made."""
    def qnames():
        return sum(isinstance(o, QName) for o in gc.get_objects())

    raw = (b"<retains-none>" + b"".join(b"<retains-none%d/>" % i for i in range(20_000))
           + b"</retains-none>")
    gc.collect()
    before = qnames()
    stream = parse_document(raw)
    assert len({id(e.label) for e in stream}) == 20_001
    assert qnames() >= before + 20_001
    probe = weakref.ref(stream.events[-2].label)
    del stream
    assert probe() is None
    gc.collect()
    assert qnames() <= before


def test_a_table_that_overflows_mid_parse_detaches(fresh_tables, monkeypatch):
    """A parse that takes a table past ``NAMES_MAX`` keeps its tables to
    the end, so its start and end events still share one object, and
    leaves fresh tables behind; a later parse fills them anew."""
    monkeypatch.setattr(ev, "NAMES_MAX", 2)
    elements, attributes = ev._shared
    parse_document(b"<r><a/></r>")
    assert elements.keys() == {"r", "a"} and ev._shared[0] is elements
    for raw in (b"<r><a/><b>1</b><c/><b/><a/></r>",
                b'<r z="1" y="2"><a x="3" z="4"/><b w="5">6</b></r>'):
        stream = parse_document(raw)
        assert stream == reference_parse(raw) and _names_shared(stream)
        assert ev._shared[0] is not elements and ev._shared == [{}, {}]
        # the detached tables kept every name of the parse that overflowed one
        assert all(label in elements.values() or label in attributes.values()
                   for label in stream.labels if isinstance(label, QName))
        again = parse_document(b"<r><a/></r>")
        assert again.labels[0] is not stream.labels[0] and _tables_bounded()
        elements, attributes = ev._shared


def test_an_over_long_name_detaches_the_tables(fresh_tables):
    """A name longer than ``NAME_MAX`` is shared within its parse and kept
    by no table afterwards; names of that parse are not kept either."""
    long = "x" * (ev.NAME_MAX + 1)
    parse_document(b"<r/>")
    held = ev._shared[0]["r"]
    for raw in (f"<r><{long}>1</{long}><{long}/></r>".encode(),
                f'<r><a {long}="1"/><b {long}="2"/></r>'.encode()):
        stream = parse_document(raw)
        assert stream == reference_parse(raw) and _names_shared(stream)
        assert stream.labels[0] is held
        assert ev._shared == [{}, {}]
        held = parse_document(b"<r/>").labels[0]
        assert held is not stream.labels[0] and _tables_bounded()


def test_threads_parsing_overlapping_names(fresh_tables, monkeypatch):
    """Four threads parse documents whose element and attribute names
    overlap.  First each builds a QName for one new name before any of
    them stores it: all four streams hold the one stored first.  Then,
    with tables small enough to detach under them, every stream equals the
    reference parser's and shares one object per name."""
    gate = threading.Barrier(4)

    def gated(ns, local, is_attr=False):
        name = QName(ns, local, is_attr)
        if local == "gate":
            gate.wait(timeout=10)
        return name

    monkeypatch.setattr(ev, "QName", gated)
    monkeypatch.setattr(ev, "NAMES_MAX", 6)
    docs = [b'<r%d a%d="1"><n%d b="2">t</n%d><n%d/></r%d>'
            % (i % 3, i % 4, i % 9, i % 9, (i + 1) % 9, i % 3) for i in range(40)]
    expected = [reference_parse(raw) for raw in docs]
    gated_streams = [None] * 4
    failures = []

    def work(k):
        gated_streams[k] = parse_document(b"<gate><gate/></gate>")
        for round_ in range(25):
            for i in range(k * 10, k * 10 + len(docs)):
                raw = docs[(i + round_) % len(docs)]
                stream = parse_document(raw)
                if stream != expected[(i + round_) % len(docs)] or not _names_shared(stream):
                    failures.append(raw)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    first = gated_streams[0].labels[0]
    assert all(stream == reference_parse(b"<gate><gate/></gate>") and _names_shared(stream)
               and stream.labels[0] is first for stream in gated_streams)
    assert failures == [] and _tables_bounded()


def test_parsed_stream_holds_no_events():
    """A parsed stream keeps only its kind and label sequences and a range
    of indices: a 50,000-deep document retains at most 24 bytes per event
    beyond its names."""
    raw = b"<a>" * 50_000 + b"</a>" * 50_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stream = parse_document(raw)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(stream) == 100_000 and isinstance(stream.indices, range)
    names = sys.getsizeof(stream.labels[0]) + sys.getsizeof(stream.labels[0].__dict__) + 200
    assert retained <= 24 * len(stream) + names


def test_events_are_built_on_demand_and_compare_as_before():
    raw = b'<r a="1"><c>x</c></r>'
    stream = parse_document(raw)
    assert stream.events == tuple(stream) and stream.events is not stream.events
    assert stream.events[0] is not stream.events[0]
    assert [e.index for e in stream] == list(stream.indices) == list(range(len(stream)))
    assert stream.kinds == (START, START, CHARS, END, START, CHARS, END, END)
    # a stream of the same events compares and hashes alike, however built
    again = unchecked_stream(stream.events)
    assert again == stream and hash(again) == hash(stream) and again.events == stream.events
    assert stream_from_events(list(stream)) == stream
    assert stream != unchecked_stream(stream.events[:-1])
    # an event's index is its position: any other is refused, or renumbered
    gapped = [ev.Event(e.kind, e.label, 2 * e.index) for e in stream]
    with pytest.raises(InvariantViolation) as info:
        stream_from_events(gapped)
    assert info.value.index == 1 and "not its position" in str(info.value)
    assert stream_from_events(gapped, reindex=True) == stream
    assert unchecked_stream(gapped) == stream
    assert pickle.loads(pickle.dumps(stream)) == stream
    with pytest.raises(FrozenInstanceError):
        stream.kinds = ()


def test_event_round_trips_and_stays_frozen():
    """An Event survives pickle and deepcopy equal and with its hash, keeps
    its repr, and refuses assignment to any field."""
    event = ev.Event(START, QName("urn:x", "a", True), 3)
    for again in (pickle.loads(pickle.dumps(event)), copy.deepcopy(event)):
        assert again == event and hash(again) == hash(event)
    assert repr(event) == ("Event(kind='start', label=QName(ns='urn:x', local='a', "
                           "is_attr=True), index=3)")
    assert repr(ev.text("5")) == "Event(kind='chars', label='5', index=-1)"
    for field in ("kind", "label", "index"):
        with pytest.raises(FrozenInstanceError):
            setattr(event, field, None)


def test_parse_determinism():
    raw = b'<r a="1" b="2">text<c/>more</r>'
    assert parse_document(raw) == parse_document(raw)


def test_stream_from_events_accepts_valid():
    stream = stream_from_events([ev.start("a"), ev.end("a")])
    assert len(stream) == 2
    assert [e.index for e in stream] == [0, 1]


@pytest.mark.parametrize("events,invariant", [
    ([ev.start("a"), ev.text("x"), ev.text("y"), ev.end("a")], "consecutive characters"),
    ([ev.start("a"), ev.end("b")], "mismatched nesting"),
    ([ev.start("a")], "unclosed"),
    ([ev.end("a")], "end-element without matching start"),
    ([ev.start("a"), ev.end("a"), ev.start("b"), ev.end("b")], "trailing content"),
    ([ev.start("a"), ev.start("b", is_attr=True), ev.end("b", is_attr=True), ev.end("a")],
     "exactly one characters"),
    ([ev.start("a"), ev.text("t"), ev.start("b", is_attr=True), ev.text("1"),
      ev.end("b", is_attr=True), ev.end("a")], "immediately after"),
    ([ev.start("a"), ev.start("c", is_attr=True), ev.text("1"), ev.end("c", is_attr=True),
      ev.start("b", is_attr=True), ev.text("2"), ev.end("b", is_attr=True), ev.end("a")],
     "ascending order"),
    ([ev.start("a"), ev.start("b", is_attr=True), ev.start("c"), ev.end("c"),
      ev.end("b", is_attr=True), ev.end("a")], "nested inside attribute"),
])
def test_stream_invariant_violations(events, invariant):
    with pytest.raises(InvariantViolation) as info:
        stream_from_events(events)
    assert invariant in str(info.value)


def test_round_trip_of_parsed_streams():
    raw = b'<r a="v1" b=""><item>5</item><item>x &amp; y</item>mixed</r>'
    stream = parse_document(raw)
    assert stream_from_events(list(stream)) == stream


def test_balance_property():
    stream = parse_document(b"<a><b><c/></b><b/></a>")
    depth = 0
    for e in stream:
        if e.kind == START:
            depth += 1
        elif e.kind == END:
            depth -= 1
        assert depth >= 0
    assert depth == 0


# -- hypothesis: serialize/parse round trip --------------------------------

_text_alphabet = st.characters(
    codec="utf-8",
    categories=("L", "N", "P", "S", "Z"),
    include_characters=" \t\n",
)
_texts = st.text(_text_alphabet, min_size=1, max_size=12).filter(
    lambda s: s.strip(" \t\r\n") != "" and "]]>" not in s)
_names = st.sampled_from(["a", "b", "item", "x1"])
# namespace URIs with markup characters, and the predeclared XML namespace
_namespaces = st.sampled_from(["", "", "urn:a", 'a"b&c<d', "http://www.w3.org/XML/1998/namespace"])
_attr_values = st.text(_text_alphabet, max_size=8).filter(lambda s: "]]>" not in s)


@st.composite
def small_documents(draw, depth=0):
    name, ns = draw(_names), draw(_namespaces)
    attr_names = draw(st.lists(st.tuples(_namespaces, st.sampled_from(["p", "q", "r"])),
                               max_size=2, unique=True))
    events = [ev.start(name, ns)]
    for attr_ns, attr in sorted(attr_names):
        events += [ev.start(attr, attr_ns, is_attr=True), ev.text(draw(_attr_values)),
                   ev.end(attr, attr_ns, is_attr=True)]
    n_children = draw(st.integers(0, 2 if depth < 2 else 0))
    if draw(st.booleans()):
        events.append(ev.text(draw(_texts)))
    for _ in range(n_children):
        events += draw(small_documents(depth=depth + 1))
        if draw(st.booleans()):
            events.append(ev.text(draw(_texts)))
    events.append(ev.end(name, ns))
    return events


@given(small_documents())
@settings(max_examples=120, deadline=None)
def test_serialize_parse_round_trip(events):
    stream = stream_from_events(events)
    xml_text = serialize_xml(stream)
    assert parse_document(xml_text.encode("utf-8")) == stream


def test_serialize_reads_only_streams():
    """A list or an iterator of events raises TypeError, as in validate
    and learning; the stream they came from serializes."""
    stream = parse_document(b'<a x="1"><b>t</b></a>')
    for form in (list(stream), iter(stream), ()):
        with pytest.raises(TypeError):
            serialize_xml(form)
    assert parse_document(serialize_xml(stream).encode()) == stream


# -- hypothesis: the parser against the reference parser ---------------------

_XML_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}
# element prefixes; p and q are declared on the root, and the default
# namespace sometimes is
_prefixes = st.sampled_from(["", "p:", "q:"])
# whitespace runs, with spaces that are not XML whitespace and must survive
_space_runs = st.text(st.sampled_from(" \t\n\r\u00a0\u2003\u3000"), min_size=1, max_size=6)


def _escaped(text):
    return "".join(_XML_ESCAPES.get(c, c) for c in text)


@st.composite
def _raw_content(draw):
    kind = draw(st.sampled_from(["text", "space", "cdata", "ref", "comment", "pi", "long"]))
    if kind == "text":
        return _escaped(draw(st.text(_text_alphabet, max_size=8)))
    if kind == "space":
        return draw(_space_runs)
    if kind == "cdata":
        return "<![CDATA[" + draw(st.text(_text_alphabet, max_size=8)).replace("]]>", "") + "]]>"
    if kind == "ref":
        return draw(st.sampled_from(["&#32;", "&#160;", "&#xA;", "&#13;", "&amp;", "&lt;"]))
    if kind == "comment":
        return "<!-- note -->"
    if kind == "pi":
        return "<?pi data?>"
    # thousands of pieces, more than expat's text buffer (8192 characters)
    # holds, so one run reaches the parser in several callbacks
    unit = draw(st.sampled_from(["<![CDATA[ ]]>", " <!---->", "&#13;&#10;", "&#32;&#160;",
                                 "x&amp;"]))
    return unit * draw(st.integers(4200, 9000))


@st.composite
def _raw_elements(draw, depth=0):
    name = draw(_prefixes) + draw(st.sampled_from(["a", "b", "item"]))
    # unique by prefix and name, so unique by expanded name; left in the
    # order drawn, which the parser must sort
    attrs = draw(st.lists(st.tuples(_prefixes, st.sampled_from(["z", "c", "a", "m"])),
                          max_size=4, unique=True))
    parts = ["<", name]
    if depth == 0:
        parts.append(' xmlns:p="urn:p" xmlns:q="urn:q&amp;r"')
        if draw(st.booleans()):
            parts.append(' xmlns="urn:d"')
    for prefix, attr in attrs:
        parts.append(f' {prefix}{attr}="{_escaped(draw(_attr_values))}"')
    content = []
    for _ in range(draw(st.integers(0, 4))):
        if depth < 3 and draw(st.booleans()):
            content.append(draw(_raw_elements(depth + 1)))
        else:
            content.append(draw(_raw_content()))
    if not content and draw(st.booleans()):
        return "".join(parts) + "/>"
    return "".join(parts) + ">" + "".join(content) + f"</{name}>"


def _outcome(parse, data):
    try:
        stream = parse(data)
    except MalformedXmlError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return [(e.kind, type(e.label), e.label, e.index) for e in stream]


@given(_raw_elements(), st.sampled_from(["", '<?xml version="1.0" encoding="UTF-8"?>',
                                         "<!-- lead -->\n", "<!DOCTYPE r>"]),
       st.floats(0, 1))
@settings(max_examples=150, deadline=None)
def test_parser_matches_reference_parser(body, prolog, cut):
    """Same events, labels and indices as the reference parser, on
    namespaced, attribute-bearing, CDATA and long-text documents; on a
    truncated copy, the same error at the same position."""
    data = (prolog + body).encode("utf-8")
    outcome = _outcome(parse_document, data)
    assert outcome == _outcome(reference_parse, data)
    if prolog != "<!DOCTYPE r>":
        assert isinstance(outcome, list)
    truncated = data[:int(len(data) * cut)]
    assert _outcome(parse_document, truncated) == _outcome(reference_parse, truncated)


@given(st.lists(st.tuples(_raw_elements(), st.floats(0, 1)), min_size=1, max_size=6),
       st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_parser_matches_reference_parser_across_documents(docs, names_max):
    """A sequence of documents parsed in one process, under a table bound
    small enough that some of them detach the tables: each document, and
    a truncated copy, gets the reference parser's events or its error at
    its position."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ev, "_shared", [{}, {}])
        patch.setattr(ev, "NAMES_MAX", names_max)
        for body, cut in docs:
            data = body.encode("utf-8")
            for raw in (data, data[:int(len(data) * cut)]):
                assert _outcome(parse_document, raw) == _outcome(reference_parse, raw)
                assert _tables_bounded()


def test_parser_total_over_garbage(master_seed):
    """Arbitrary bytes either parse or raise the malformed-input family,
    never anything else."""
    import random
    rng = random.Random(master_seed + 60)
    for _ in range(1500):
        n = rng.randint(0, 40)
        if rng.random() < 0.5:
            data = bytes(rng.randrange(256) for _ in range(n))
        else:
            data = "".join(rng.choice('<>ab/"= &;!x?-') for _ in range(n)).encode()
        try:
            parse_document(data)
        except MalformedXmlError:
            pass
