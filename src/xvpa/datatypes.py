"""Lexical datatype system and datatype inference from text.

The system is a set of named datatypes whose lexical spaces are regular
languages over Unicode, a strict partial order by lexical subsumption, and
a coarser preference order over datatype *kinds*.  Inference maps a text
to the antichain of minimal datatypes that accept it and then drops the
semantically least informative members.

Everything is loaded from a versioned definition file (see
``data/xsd-datatypes.txt``).  The file is the normative description of
the lexical spaces; its content hash travels with persisted learner state
so that models and definitions cannot drift apart silently.

Building the datatypes' DFAs from their patterns is most of a load, so the
packaged DFAs also ship as derived data: ``data/xsd-datatypes-dfa.txt``
holds each DFA exactly as ``Dfa.from_pattern`` builds it, under a header
with the SHA-256 of the definition file it was derived from and of its
own body.  ``write_dfa_table`` writes it (``scripts/write_dfa_table.py``
runs it, after any edit of the definition file).  The loader takes the
DFAs from the table only for a definition file with that hash; any other
file builds them from its patterns, and the table is ignored.  A table
whose recorded hash matches but whose body is corrupt is an error.

The datatypes and both orders are immutable once loaded.  Each order is
held only as closure bitmasks, so the minimal, preferred and maximal
members of a set are mask operations.  One lazily determinized product of
all the datatypes' acceptors classifies a text in a single scan, for
inference and for every compiled text check, a bitmask of datatypes
(``mask``); its states are built on first use, under a lock taken only
when a transition is new, so concurrent reads stay safe.  Its bounded memo
keeps the accept mask of each short text, so a recurring short text is
scanned once.  Inference depends only on that mask: its result is computed
once per mask and shared by every text with that mask, in a table meant
for the single thread that learns.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field

from .dfa import Dfa, ProductDfa

ENV_DATATYPE_FILE = "XVPA_DATATYPES"
DEFAULT_PATH = os.path.join(os.path.dirname(__file__), "data", "xsd-datatypes.txt")
# the packaged DFAs, derived from the definition file by write_dfa_table
DFA_TABLE_PATH = os.path.join(os.path.dirname(__file__), "data", "xsd-datatypes-dfa.txt")
_TABLE_TITLE = b"# xvpa DFA table, derived from xsd-datatypes.txt by scripts/write_dfa_table.py"

TOP = "top"

_REF = re.compile(r"\$(?:\{([A-Za-z0-9_]+)\}|([A-Za-z0-9_]+))")


class DatatypeFileError(ValueError):
    """Malformed or inconsistent datatype definition file."""


@dataclass(frozen=True)
class Datatype:
    name: str
    kind: str
    dfa: Dfa = field(repr=False, compare=False)


class LexicalDatatypeSystem:
    """Datatypes, lexical-subsumption order, and kind preference order.

    The lexical order is strict subsumption: the transitive closure of the
    definition file's ``lexorder`` edges.  It is sound (every edge is a true
    language inclusion, checked by the test suite) but deliberately not
    complete; minimality is always relative to this declared order.  Both
    orders are closure bitmasks per datatype: ``_up`` in the lexical order
    and ``_kind_above``, the datatypes of strictly higher kinds.
    """

    def __init__(self, datatypes, lex_edges, kind_edges, content_hash):
        self.content_hash = content_hash
        self.datatypes: dict[str, Datatype] = {d.name: d for d in datatypes}
        if TOP not in self.datatypes:
            raise DatatypeFileError("definition file lacks the top datatype")
        self._index = {d.name: i for i, d in enumerate(datatypes)}
        self._names = [d.name for d in datatypes]
        self._up = _closure_masks(self._index, lex_edges)
        if any(up >> i & 1 for i, up in enumerate(self._up)):
            raise DatatypeFileError("lexical order is cyclic")
        kinds = sorted({d.kind for d in datatypes})
        self._kind_index = {k: i for i, k in enumerate(kinds)}
        for a, b in kind_edges:
            if a not in self._kind_index or b not in self._kind_index:
                raise DatatypeFileError(f"kind order mentions unknown kind {a!r}/{b!r}")
        self._kind_up = _closure_masks(self._kind_index, kind_edges)
        self._validate()
        kind_of = [self._kind_index[d.kind] for d in datatypes]
        # per kind, the datatypes of strictly higher kinds
        above = [sum(1 << i for i, k in enumerate(kind_of) if up >> k & 1) for up in self._kind_up]
        self._kind_above = [above[k] for k in kind_of]
        self.product = ProductDfa(d.dfa for d in datatypes)
        self._by_mask: dict[int, frozenset[str]] = {}

    def _validate(self):
        if not self.datatypes[TOP].dfa.is_universal():
            raise DatatypeFileError("the top datatype does not accept every string")
        top_i = self._index[TOP]
        for name, i in self._index.items():
            if name != TOP and not self._up[i] & (1 << top_i):
                raise DatatypeFileError(f"{name!r} is not below the top datatype")
        for k, i in self._kind_index.items():
            if self._kind_up[i] & (1 << i):
                raise DatatypeFileError(f"kind order has a cycle through {k!r}")

    # -- basic queries -------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self.datatypes

    def mask(self, names) -> int:
        """The bitmask of a collection of datatype names; a text is in their
        union when ``product.accept_mask(text, mask) & mask`` is nonzero."""
        return sum(1 << self._index[name] for name in set(names))

    def _unshadowed(self, mask: int, up: list[int]) -> frozenset[str]:
        """The members of ``mask`` that lie in no member's up-set."""
        shadow = 0
        for i in _bits(mask):
            shadow |= up[i]
        return frozenset(self._names[i] for i in _bits(mask & ~shadow))

    # -- inference pipeline ---------------------------------------------------

    def minimal_datatypes(self, text: str) -> frozenset[str]:
        """The nonempty antichain of minimal datatypes accepting ``text``.

        One product scan gives the mask of accepting datatypes.  A match
        is kept exactly when it lies in no match's lexical up-set, that
        is, when no other match is below it.  The top datatype accepts
        everything, hence the result is never empty.
        """
        return self._unshadowed(self.product.accept_mask(text), self._up)

    def prefer(self, types) -> frozenset[str]:
        """Drop every member whose kind is strictly above another member's
        kind.  Input must be nonempty; the result stays a nonempty
        antichain of the lexical order."""
        mask = self.mask(types)
        if not mask:
            raise ValueError("prefer() requires a nonempty set")
        return self._unshadowed(mask, self._kind_above)

    def infer(self, text: str) -> frozenset[str]:
        """Minimally required datatypes of a text: prefer(minimal(text)).

        That is a function of the accept mask the product ends in, so a
        text costs the product's memoized scan plus one lookup per mask,
        and every text with that mask shares one result.  Only a new mask
        computes the definition.
        """
        mask = self.product.accept_mask(text)
        result = self._by_mask.get(mask)
        if result is None:
            result = self._by_mask[mask] = self.prefer(self.minimal_datatypes(text))
        return result

    def maxima(self, types) -> frozenset[str]:
        """Maximal elements of a datatype set w.r.t. lexical subsumption:
        the members whose up-set misses the set."""
        mask = self.mask(types)
        return frozenset(self._names[i] for i in _bits(mask) if not self._up[i] & mask)


# ---------------------------------------------------------------------------
# definition file loading

def load_datatype_system(path: str | None = None) -> LexicalDatatypeSystem:
    """Load a datatype system from ``path``, the ``XVPA_DATATYPES``
    environment override, or the packaged default file.

    A malformed file raises ``DatatypeFileError``, naming the line where
    one line is at fault; an unreadable one raises ``OSError``.  The DFAs
    come from the packaged DFA table when it was derived from a file with
    this file's hash, and are built from the patterns otherwise.
    """
    if path is None:
        path = os.environ.get(ENV_DATATYPE_FILE) or DEFAULT_PATH
    with open(path, "rb") as fh:
        raw = fh.read()
    content_hash = hashlib.sha256(raw).hexdigest()
    return _parse_definitions(raw, content_hash, _table_dfas(content_hash))


def _parse_definitions(raw: bytes, content_hash: str,
                       table: dict[str, Dfa] | None) -> LexicalDatatypeSystem:
    """Parse a definition file; each datatype's DFA is ``table``'s, which
    must name the file's datatypes in order, or without a table is built
    from its pattern."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw[:exc.start].count(b"\n") + 1
        raise DatatypeFileError(f"line {lineno}: not UTF-8 text") from None

    defs: dict[str, str] = {}
    datatypes: list[Datatype] = []
    lex_edges: list[tuple[str, str]] = []
    kind_edges: list[tuple[str, str]] = []
    versioned = False
    seen = set()

    def expand(pattern: str) -> str:
        def repl(m):
            name = m.group(1) or m.group(2)
            if name not in defs:
                raise DatatypeFileError(f"unknown fragment ${name}")
            return "(" + defs[name] + ")"
        return _REF.sub(repl, pattern)

    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 1)
        keyword, rest = fields[0], (fields[1] if len(fields) > 1 else "")
        try:
            if keyword == "version":
                versioned = True
            elif keyword == "def":
                name, pattern = _fields(keyword, rest, 2)
                defs[name] = expand(pattern)
            elif keyword == "datatype":
                name, kind, pattern = _fields(keyword, rest, 3)
                if name in seen:
                    raise DatatypeFileError(f"duplicate datatype {name!r}")
                seen.add(name)
                dfa = table.get(name) if table is not None else Dfa.from_pattern(expand(pattern))
                datatypes.append(Datatype(name, kind, dfa))
            elif keyword in ("lexorder", "kindorder"):
                edge = tuple(rest.split())
                if len(edge) != 2:
                    raise DatatypeFileError(f"{keyword} line needs 2 names, has {len(edge)}")
                (lex_edges if keyword == "lexorder" else kind_edges).append(edge)
            else:
                raise DatatypeFileError(f"unknown keyword {keyword!r}")
        except ValueError as exc:  # a bad pattern (PatternError) among them
            raise DatatypeFileError(f"line {lineno}: {exc}") from None
        except RecursionError:
            raise DatatypeFileError(f"line {lineno}: pattern nests too deeply") from None

    if not versioned:
        raise DatatypeFileError("definition file lacks a version line")
    if table is not None and list(table) != [d.name for d in datatypes]:
        raise DatatypeFileError(
            f"{DFA_TABLE_PATH}: DFA table names other datatypes than the definition file")
    for a, b in lex_edges:
        if a not in seen or b not in seen:
            raise DatatypeFileError(f"lexorder mentions unknown datatype {a!r}/{b!r}")
    return LexicalDatatypeSystem(datatypes, lex_edges, kind_edges, content_hash)


def _fields(keyword: str, rest: str, n: int) -> list[str]:
    """The n fields after a line's keyword; the last one, a pattern, may
    hold spaces."""
    fields = rest.split(None, n - 1)
    if len(fields) != n:
        raise DatatypeFileError(f"{keyword} line needs {n} fields, has {len(fields)}")
    return fields


def _table_dfas(content_hash: str) -> dict[str, Dfa] | None:
    """The DFAs of the packaged table, by datatype name in table order, if
    it was derived from a definition file with ``content_hash``; None if
    it was not, or is absent.  A table with that hash whose body fails its
    own hash or does not parse raises ``DatatypeFileError``."""
    try:
        with open(DFA_TABLE_PATH, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    head = data.split(b"\n", 3)  # title, source hash, body hash, body
    if len(head) < 2 or head[1] != b"source " + content_hash.encode():
        return None
    try:
        if len(head) < 4 or head[2] != b"body " + hashlib.sha256(head[3]).hexdigest().encode():
            raise ValueError("body does not match its hash")
        return _parse_table(head[3].decode("ascii"))
    except ValueError as exc:  # UnicodeDecodeError among them
        raise DatatypeFileError(f"{DFA_TABLE_PATH}: corrupt DFA table: {exc}") from None


def _parse_table(body: str) -> dict[str, Dfa]:
    """Read the entries ``_table_entry`` writes: a line ``dfa NAME N START
    ACCEPTING...``, then one line per state of its rows, each flattened to
    ``lo hi dst ...``."""
    lines = body.split("\n")
    if lines.pop() != "":
        raise ValueError("last line is unterminated")
    dfas: dict[str, Dfa] = {}
    i = 0
    while i < len(lines):
        tag, name, n, start, *accepting = lines[i].split()
        n, start = int(n), int(start)
        states = [list(map(int, line.split())) for line in lines[i + 1:i + 1 + n]]
        if tag != "dfa" or name in dfas or len(states) != n or not 0 <= start < n:
            raise ValueError(f"bad entry at line {i + 1}")
        accepting = [int(q) for q in accepting]
        for targets in [accepting, *(flat[2::3] for flat in states)]:
            if min(targets, default=0) < 0 or max(targets, default=0) >= n:
                raise ValueError(f"state out of range in {name!r}")
        if any(len(flat) % 3 for flat in states):
            raise ValueError(f"bad rows in {name!r}")
        dfas[name] = Dfa(n, start, accepting,
                         [zip(f[0::3], f[1::3], f[2::3]) for f in states])
        i += 1 + n
    return dfas


def _table_entry(name: str, dfa: Dfa) -> str:
    head = ["dfa", name, str(dfa.n), str(dfa.start), *map(str, sorted(dfa.accepting))]
    lines = [" ".join(head)]
    for q in range(dfa.n):
        lines.append(" ".join(str(x) for row in dfa.edges(q) for x in row))
    return "\n".join(lines) + "\n"


def write_dfa_table(target: str) -> None:
    """Write the DFA table of the packaged definition file to ``target``:
    every datatype's DFA as ``Dfa.from_pattern`` builds it, in file order,
    under the file's hash and the body's own."""
    with open(DEFAULT_PATH, "rb") as fh:
        raw = fh.read()
    content_hash = hashlib.sha256(raw).hexdigest()
    system = _parse_definitions(raw, content_hash, None)
    body = "".join(_table_entry(d.name, d.dfa) for d in system.datatypes.values()).encode("ascii")
    head = [_TABLE_TITLE, b"source " + content_hash.encode(),
            b"body " + hashlib.sha256(body).hexdigest().encode()]
    with open(target, "wb") as fh:
        fh.write(b"\n".join(head) + b"\n" + body)


_default: LexicalDatatypeSystem | None = None


def default_system() -> LexicalDatatypeSystem:
    """The packaged datatype system, loaded once per process."""
    global _default
    if _default is None:
        _default = load_datatype_system()
    return _default


def _closure_masks(index: dict[str, int], edges) -> list[int]:
    """Transitive closure as per-node bitmasks of the nodes reachable by
    one or more edges, by Warshall's algorithm on bitmask rows.  A node's
    own bit is set exactly when it lies on a cycle."""
    rows = [0] * len(index)
    for a, b in edges:
        rows[index[a]] |= 1 << index[b]
    for k in range(len(rows)):
        bit = 1 << k
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | rows[k]
    return rows


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
