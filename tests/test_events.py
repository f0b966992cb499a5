"""Document event stream parsing, invariants, and serialization."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xvpa import events as ev
from xvpa.events import (CHARS, END, START, DoctypeRejectedError, EncodingError,
                         InvariantViolation, MalformedXmlError, QName,
                         parse_document, serialize_xml,
                         stream_from_events)


def kinds_and_labels(stream):
    return [(e.kind, e.label) for e in stream]


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
    """A dropped stream frees its events at once, and a failed parse leaves
    nothing for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        stream = parse_document(b"<a>" + b"<b>1</b>" * 1000 + b"</a>")
        event = weakref.ref(stream.events[5])
        del stream
        assert event() is None
        for bad in (b"<a><b>1</b><b></a>", b"<!DOCTYPE a><a/>"):
            with pytest.raises(MalformedXmlError):
                parse_document(bad)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
