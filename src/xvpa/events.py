"""Document event streams: the canonical linearization of XML documents.

A document becomes a flat sequence of start-element, end-element, and
characters events.  Processing instructions, comments, and entity-reference
nodes are dropped, CDATA sections are unwrapped, namespace prefixes are
erased (qualified names compare by namespace URI and local name), and
attributes are expanded into alphabetically sorted pseudo-element triples
``start(@name), characters(value), end(@name)``.

Whitespace-only character runs between element tags are discarded before
coalescing; surviving adjacent text becomes a single characters event, so a
stream never contains two consecutive characters events.

A stream is compact: two parallel tuples hold each event's kind and
label, an event's index is its position, and ``Event`` objects are built
only when the stream is iterated.  Validation and learning read the tuples
directly, so the route from bytes to verdict builds none.  Every stream
comes from one constructor, ``DocumentEventStream(kinds, labels)``, which
checks nothing; ``parse_document`` and ``stream_from_events`` call it.

Names are shared across documents: ``parse_document`` keeps element and
attribute names in two bounded process-wide tables, so every start and
end event of a name holds the same QName, and a name seen before builds
none.  A QName renders its label (``{ns}local``, ``@`` for attributes)
once, when it is made, so the learner and the validator read it without
formatting.  The push route (``automata.Validator``) takes its expat
parser, with its handlers and DOCTYPE refusal, from the same setup, reads
names through the same tables and orders attributes with the same helper,
so this module alone wires expat and turns expat names into labels.

Streams are immutable and safe to share across threads; distinct documents
may be parsed concurrently.
"""

from __future__ import annotations

import xml.parsers.expat
from dataclasses import dataclass, field

START = "start"
END = "end"
CHARS = "chars"


class MalformedXmlError(ValueError):
    """Input is not a well-formed (namespace-well-formed) XML document."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DoctypeRejectedError(MalformedXmlError):
    """Inline DOCTYPE declarations are refused outright: entity expansion
    and external references are a parsing-attack class, not content."""


class EncodingError(MalformedXmlError):
    """Only UTF-8 input is accepted."""


class InvariantViolation(ValueError):
    """A synthesized event sequence breaks a stream invariant."""

    def __init__(self, invariant, index, message=""):
        self.invariant = invariant
        self.index = index
        super().__init__(f"{invariant} at event {index}" + (f": {message}" if message else ""))


@dataclass(frozen=True, order=True)
class QName:
    """Qualified name: namespace URI (may be empty) plus local name.

    Attribute-derived names carry the ``@`` marker via ``is_attr`` and
    render with a leading ``@``.  The rendered label is computed once, when
    the name is made; it takes no part in equality, ordering, hashing or
    the repr.  A parsed stream holds one QName per distinct name, so the
    automata read each label without formatting it again.
    """

    ns: str
    local: str
    is_attr: bool = False
    _rendered: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = "{%s}%s" % (self.ns, self.local) if self.ns else self.local
        object.__setattr__(self, "_rendered", "@" + base if self.is_attr else base)

    def render(self) -> str:
        return self._rendered


@dataclass(frozen=True, slots=True)
class Event:
    """One stream event.  ``label`` is a QName for start/end events, the
    text for characters events (or an inferred datatype set after the
    datatyped mapping).  ``index`` is the position in the stream; -1 marks
    an event not yet placed in a stream.

    Immutable, hashable and equal by value.  A stream holds no events:
    iterating it builds one per event, which the caller may keep or drop.
    """

    kind: str
    label: object
    index: int = -1


def start(name, ns="", is_attr=False) -> Event:
    return Event(START, QName(ns, name, is_attr))


def end(name, ns="", is_attr=False) -> Event:
    return Event(END, QName(ns, name, is_attr))


def text(value: str) -> Event:
    return Event(CHARS, value)


@dataclass(frozen=True, slots=True, repr=False)
class DocumentEventStream:
    """An immutable sequence of events for one document.

    The events are stored as two parallel tuples, ``kinds`` and ``labels``;
    an event's index is its position, and ``indices`` is the ``range`` of
    them.  Iterating the stream, or reading ``events``, builds the ``Event``
    objects on demand and keeps none of them.  Equality and hashing are
    those of the event sequence.  ``DocumentEventStream(kinds, labels)``
    takes the tuples as they are, unchecked; ``stream_from_events`` and
    ``parse_document`` make checked streams.
    """

    kinds: tuple
    labels: tuple

    @property
    def indices(self) -> range:
        return range(len(self.kinds))

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(self)

    def __iter__(self):
        return map(Event, self.kinds, self.labels, self.indices)

    def __len__(self):
        return len(self.kinds)

    def __repr__(self):
        return f"DocumentEventStream(events={self.events!r})"

    def __reduce__(self):
        return DocumentEventStream, (self.kinds, self.labels)

    def debug_lines(self):
        """Line-oriented debug form: ``K label`` with K in {S,E,C}."""
        out = []
        for kind, label in zip(self.kinds, self.labels):
            if kind == START:
                out.append("S " + label.render())
            elif kind == END:
                out.append("E " + label.render())
            else:
                escaped = (str(label).replace("\\", "\\\\")
                           .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))
                out.append("C " + escaped)
        return out


def stream_from_events(events, reindex: bool = False) -> DocumentEventStream:
    """Build a stream from raw events, checking every stream invariant.

    The events are numbered 0..n-1.  With ``reindex=True`` the indices they
    carry are ignored; otherwise each must be unplaced (-1) or its position,
    and any other raises ``InvariantViolation``.
    """
    events = list(events)
    if not reindex:
        for pos, e in enumerate(events):
            if e.index != pos and e.index != -1:
                raise InvariantViolation("event index is not its position", pos,
                                         f"index {e.index}")
    _check_invariants(events)
    return DocumentEventStream(tuple(e.kind for e in events), tuple(e.label for e in events))


def _check_invariants(events):
    if not events:
        raise InvariantViolation("empty stream", 0)
    stack: list[QName] = []
    root_seen = False
    prev_kind = None
    in_attr = False            # between start(@a) and end(@a)
    attr_allowed = False       # an attribute start may occur here
    attr_last: tuple[str, str] | None = None

    for pos, e in enumerate(events):
        if root_seen:
            raise InvariantViolation("trailing content after root element", pos)
        if e.kind == START:
            if not isinstance(e.label, QName):
                raise InvariantViolation("start-element label is not a qualified name", pos)
            if in_attr:
                raise InvariantViolation("element nested inside attribute", pos)
            if e.label.is_attr:
                if not attr_allowed:
                    raise InvariantViolation(
                        "attribute not immediately after its parent start-element", pos)
                key = (e.label.ns, e.label.local)
                if attr_last is not None and key <= attr_last:
                    raise InvariantViolation("attributes not in ascending order", pos)
                attr_last = key
                in_attr = True
            else:
                attr_allowed = True
                attr_last = None
            stack.append(e.label)
        elif e.kind == END:
            if not isinstance(e.label, QName):
                raise InvariantViolation("end-element label is not a qualified name", pos)
            if not stack:
                raise InvariantViolation("end-element without matching start", pos)
            if stack[-1] != e.label:
                raise InvariantViolation(
                    "mismatched nesting", pos,
                    f"expected {stack[-1].render()}, got {e.label.render()}")
            if e.label.is_attr:
                if prev_kind != CHARS:
                    raise InvariantViolation(
                        "attribute must contain exactly one characters event", pos)
                in_attr = False
                # further attributes of the same parent may follow
            else:
                attr_allowed = False
                attr_last = None
            stack.pop()
            if not stack:
                root_seen = True
        elif e.kind == CHARS:
            if not isinstance(e.label, str):
                raise InvariantViolation("characters label is not a string", pos)
            if prev_kind == CHARS:
                raise InvariantViolation("consecutive characters events", pos)
            if not stack:
                raise InvariantViolation("characters outside the root element", pos)
            if not in_attr:
                attr_allowed = False
                attr_last = None
        else:
            raise InvariantViolation(f"unknown event kind {e.kind!r}", pos)
        prev_kind = e.kind

    if stack:
        raise InvariantViolation("unclosed elements at end of stream", len(events) - 1)
    if not root_seen:
        raise InvariantViolation("no root element", 0)


# ---------------------------------------------------------------------------
# parsing

# the kinds of one attribute triple: start(@name), characters(value), end(@name)
_ATTRIBUTE_KINDS = (START, CHARS, END)

NAMES_MAX = 4096  # the most names each shared table keeps
NAME_MAX = 256  # the longest name it keeps
_shared = [{}, {}]  # expat name -> QName: element names, attribute names


def parse_document(data: bytes) -> DocumentEventStream:
    """Parse XML bytes into the canonical event stream.

    Raises MalformedXmlError (with position), DoctypeRejectedError for any
    inline DOCTYPE, and EncodingError for non-UTF-8 input.

    Names come from the two shared tables, bound once per parse.  A parse
    that takes a table past ``NAMES_MAX`` names, or adds a name longer
    than ``NAME_MAX`` characters, detaches both: it keeps them to its end,
    and later parses start on fresh ones.  So once a call returns, each
    table holds at most ``NAMES_MAX`` names of at most ``NAME_MAX``
    characters.  Threads may parse at once; a name two of them add
    together is stored once, and both streams hold that one QName.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("parse_document expects bytes")
    _check_head(data[:4])

    kinds: list[str] = []
    labels: list = []
    buf: list[str] = []
    # bound once: a detach partway through leaves this parse its tables
    elements, attributes = _shared

    def flush_text():
        run = "".join(buf)
        buf.clear()
        if run.strip(" \t\r\n"):
            kinds.append(CHARS)
            labels.append(run)

    def on_start(name, attrs):
        if buf:
            flush_text()
        kinds.append(START)
        labels.append(elements.get(name) or _qname(elements, name, False))
        if attrs:
            for _ns, _local, qn, value in _attributes(attributes, attrs):
                kinds.extend(_ATTRIBUTE_KINDS)
                labels.extend((qn, value, qn))

    def on_end(name):
        if buf:
            flush_text()
        kinds.append(END)
        labels.append(elements[name])

    parser = _expat_parser(on_start, on_end, buf)
    try:
        parser.Parse(bytes(data), True)
    except xml.parsers.expat.ExpatError as exc:
        raise _malformed(exc) from None
    finally:
        # the DOCTYPE handler holds the parser, which holds the handlers:
        # without this, the names and texts live until the cyclic collector runs
        parser.StartDoctypeDeclHandler = None
    return DocumentEventStream(tuple(kinds), tuple(labels))


def _check_head(head: bytes) -> None:
    """Refuse a document whose first four bytes show it is not UTF-8."""
    if head[:2] in (b"\xff\xfe", b"\xfe\xff") or b"\x00" in head:
        raise EncodingError("only UTF-8 documents are accepted")


def _expat_parser(on_start, on_end, buf: list):
    """A namespace-aware expat parser that buffers text into ``buf``, calls
    ``on_start`` (attributes in document order) and ``on_end``, and refuses
    a declared encoding other than UTF-8 and, at its position, any inline
    DOCTYPE.  That handler holds the parser: clear it when the parse ends."""
    # newline as separator: a namespace URI can never contain a literal
    # newline (attribute-value normalization replaces it), spaces it can
    parser = xml.parsers.expat.ParserCreate(namespace_separator="\n")
    parser.buffer_text = True
    parser.ordered_attributes = True
    parser.XmlDeclHandler = _check_declaration

    def on_doctype(*_args):
        raise DoctypeRejectedError(
            "inline DOCTYPE declarations are rejected",
            parser.ErrorLineNumber or parser.CurrentLineNumber,
            parser.ErrorColumnNumber or parser.CurrentColumnNumber)

    parser.StartElementHandler = on_start
    parser.EndElementHandler = on_end
    parser.CharacterDataHandler = buf.append
    parser.StartDoctypeDeclHandler = on_doctype
    return parser


def _check_declaration(version, encoding, _standalone):
    if encoding is not None and encoding.lower() not in ("utf-8",):
        raise EncodingError(f"declared encoding {encoding!r} is not supported")


def _malformed(exc: xml.parsers.expat.ExpatError) -> MalformedXmlError:
    return MalformedXmlError(
        xml.parsers.expat.errors.messages[exc.code] if hasattr(exc, "code") else str(exc),
        exc.lineno, exc.offset)


def _qname(names: dict, name: str, is_attr: bool) -> QName:
    """Split an expat name (``ns\\nlocal`` or ``local``) into a QName and
    remember it in ``names``, one of the tables a parse bound; detach both
    shared tables when ``names`` is the shared one and passes a bound."""
    ns, _, local = name.rpartition("\n")
    qn = names.setdefault(name, QName(ns, local, is_attr))
    if (len(names) > NAMES_MAX or len(name) > NAME_MAX) and names is _shared[is_attr]:
        _shared[:] = [{}, {}]
    return qn


def _attributes(names: dict, attrs: list) -> list:
    """A start tag's expat ``[name, value, ...]`` list as ``(ns, local, QName,
    value)`` tuples sorted by ``(ns, local)``, names from the bound table
    ``names``.  A tag's names are unique, so the sort compares no QName."""
    pairs = []
    for i in range(0, len(attrs), 2):
        qn = names.get(attrs[i]) or _qname(names, attrs[i], True)
        pairs.append((qn.ns, qn.local, qn, attrs[i + 1]))
    pairs.sort()
    return pairs


# ---------------------------------------------------------------------------
# serialization back to XML (used by the corpus harness)

_XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#xD;"})
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", '"': "&quot;",
                               "\t": "&#x9;", "\n": "&#xA;", "\r": "&#xD;"})


def serialize_xml(stream, declaration: bool = False) -> str:
    """Render a stream as an XML document.

    Text containing markup characters is emitted as CDATA when possible
    (the usual carrier of injection payloads); attribute values escape
    whitespace as character references so values survive attribute-value
    normalization on re-parse.  Namespaced names get generated prefixes
    declared on the root element; the XML namespace keeps its predeclared
    ``xml`` prefix.  Anything but a DocumentEventStream raises TypeError.
    """
    if not isinstance(stream, DocumentEventStream):
        raise TypeError("serialize_xml requires a DocumentEventStream")
    kinds, labels = stream.kinds, stream.labels
    namespaces = sorted({label.ns for label in labels
                         if isinstance(label, QName) and label.ns} - {_XML_NAMESPACE})
    prefix = {ns: f"n{i + 1}" for i, ns in enumerate(namespaces)}
    prefix[_XML_NAMESPACE] = "xml"  # predeclared; declaring it is an error

    def name_of(qn: QName) -> str:
        return f"{prefix[qn.ns]}:{qn.local}" if qn.ns else qn.local

    out = []
    if declaration:
        out.append('<?xml version="1.0" encoding="UTF-8"?>')
    n = len(kinds)
    i = 0
    root_done = False
    while i < n:
        kind = kinds[i]
        label = labels[i]
        if kind == START and not label.is_attr:
            parts = ["<", name_of(label)]
            if not root_done:
                for ns in namespaces:
                    parts.append(f' xmlns:{prefix[ns]}="{ns.translate(_ATTR_ESCAPES)}"')
                root_done = True
            # attribute triples directly after a start tag fold into the tag
            j = i + 1
            while (j + 2 < n and kinds[j] == START
                   and isinstance(labels[j], QName) and labels[j].is_attr):
                parts.append(f' {name_of(labels[j])}="{labels[j + 1].translate(_ATTR_ESCAPES)}"')
                j += 3
            if j < n and kinds[j] == END and labels[j] == label:
                parts.append("/>")
                out.append("".join(parts))
                i = j + 1
                continue
            parts.append(">")
            out.append("".join(parts))
            i = j
        elif kind == END:
            out.append(f"</{name_of(label)}>")
            i += 1
        elif kind == CHARS:
            out.append(_render_text(str(label)))
            i += 1
        else:  # start of an attribute outside a tag cannot occur in valid streams
            raise InvariantViolation("attribute event outside a start tag", i)
    return "".join(out)


def _render_text(value: str) -> str:
    if ("<" in value or "&" in value) and "]]>" not in value and "\r" not in value:
        return f"<![CDATA[{value}]]>"
    return value.translate(_TEXT_ESCAPES)
