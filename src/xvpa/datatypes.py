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

The datatypes and both orders are immutable once loaded.  One lazily
determinized product of all the datatypes' acceptors classifies a text in
a single scan, for inference and for every compiled text predicate; its
states are built on first use, under a lock taken only when a transition
is new, so concurrent reads stay safe.  The inference cache is meant for
the single thread that learns.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field

from .dfa import Dfa, ProductDfa, ProductPredicate

ENV_DATATYPE_FILE = "XVPA_DATATYPES"
DEFAULT_PATH = os.path.join(os.path.dirname(__file__), "data", "xsd-datatypes.txt")

TOP = "top"

_REF = re.compile(r"\$(?:\{([A-Za-z0-9_]+)\}|([A-Za-z0-9_]+))")


class DatatypeFileError(ValueError):
    """Malformed or inconsistent datatype definition file."""


@dataclass(frozen=True)
class Datatype:
    name: str
    kind: str
    pattern: str
    dfa: Dfa = field(repr=False, compare=False)


class LexicalDatatypeSystem:
    """Datatypes, lexical-subsumption order, and kind preference order.

    ``lex_lt(a, b)`` is the strict subsumption order (transitive closure of
    the definition file's edges).  It is sound (every edge is a true
    language inclusion, checked by the test suite) but deliberately not
    complete; minimality is always relative to this declared order.
    """

    def __init__(self, datatypes, lex_edges, kind_edges, version, content_hash):
        self.version = version
        self.content_hash = content_hash
        self.datatypes: dict[str, Datatype] = {d.name: d for d in datatypes}
        if TOP not in self.datatypes:
            raise DatatypeFileError("definition file lacks the top datatype")
        self._index = {d.name: i for i, d in enumerate(datatypes)}
        self._names = [d.name for d in datatypes]
        self.lex_edges = tuple(lex_edges)
        self._up = _closure_masks(self._index, lex_edges)
        self._topo = _topological(self._names, lex_edges)
        kinds = sorted({d.kind for d in datatypes})
        self._kind_index = {k: i for i, k in enumerate(kinds)}
        for a, b in kind_edges:
            if a not in self._kind_index or b not in self._kind_index:
                raise DatatypeFileError(f"kind order mentions unknown kind {a!r}/{b!r}")
        self._kind_up = _closure_masks(self._kind_index, kind_edges)
        self._validate()
        self.product = ProductDfa(d.dfa for d in datatypes)
        self._all = (1 << len(datatypes)) - 1
        self._infer_cache: dict[str, frozenset[str]] = {}

    def _validate(self):
        top_i = self._index[TOP]
        for name, i in self._index.items():
            if self._up[i] & (1 << i):
                raise DatatypeFileError(f"lexical order has a cycle through {name!r}")
            if name != TOP and not self._up[i] & (1 << top_i):
                raise DatatypeFileError(f"{name!r} is not below the top datatype")
        for k, i in self._kind_index.items():
            if self._kind_up[i] & (1 << i):
                raise DatatypeFileError(f"kind order has a cycle through {k!r}")

    # -- basic queries -------------------------------------------------------

    def names(self):
        return list(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self.datatypes

    def kind_of(self, name: str) -> str:
        return self.datatypes[name].kind

    def accepts(self, name: str, text: str) -> bool:
        """Membership of ``text`` in the lexical space of ``name``."""
        return self.datatypes[name].dfa.accepts(text)

    def predicate(self, names) -> ProductPredicate:
        """Membership in the union of the named lexical spaces, run on the
        shared product."""
        return ProductPredicate(self.product, sum(1 << self._index[name] for name in names))

    def lex_lt(self, a: str, b: str) -> bool:
        """Strict lexical subsumption per the declared order."""
        return bool(self._up[self._index[a]] & (1 << self._index[b]))

    def kind_lt(self, a: str, b: str) -> bool:
        return bool(self._kind_up[self._kind_index[a]] & (1 << self._kind_index[b]))

    # -- inference pipeline ---------------------------------------------------

    def minimal_datatypes(self, text: str) -> frozenset[str]:
        """The nonempty antichain of minimal datatypes accepting ``text``.

        One product scan gives the mask of accepting datatypes.  Walking
        them in topological order of the subsumption order prunes the
        up-set of every match, so each one kept is minimal by construction.
        The top datatype accepts everything, hence the result is never
        empty.
        """
        s = self.product.run(text, self._all)
        cand = s.accept if s is not None else 0
        found = []
        for i in self._topo:
            if not cand:
                break
            bit = 1 << i
            if cand & bit:
                found.append(self._names[i])
                cand &= ~(bit | self._up[i])
        return frozenset(found)

    def prefer(self, types) -> frozenset[str]:
        """Drop every member whose kind is strictly above another member's
        kind.  Input must be nonempty; the result stays a nonempty
        antichain of the lexical order."""
        types = set(types)
        if not types:
            raise ValueError("prefer() requires a nonempty set")
        dropped = set()
        for a in types:
            for b in types:
                if a != b and self.kind_lt(self.kind_of(a), self.kind_of(b)):
                    dropped.add(b)
        return frozenset(types - dropped)

    def infer(self, text: str) -> frozenset[str]:
        """Minimally required datatypes of a text: prefer(minimal(text))."""
        hit = self._infer_cache.get(text)
        if hit is not None:
            return hit
        result = self.prefer(self.minimal_datatypes(text))
        if len(self._infer_cache) > 100_000:
            self._infer_cache.clear()
        self._infer_cache[text] = result
        return result

    def maxima(self, types) -> frozenset[str]:
        """Maximal elements of a datatype set w.r.t. lexical subsumption."""
        types = set(types)
        return frozenset(
            a for a in types
            if not any(a != b and self.lex_lt(a, b) for b in types)
        )

    def merge(self, left, right) -> frozenset[str]:
        """Aggregate two inferred antichains: the maxima of their union.

        The result covers every string covered by either input, stays an
        antichain, and is commutative/associative/idempotent.
        """
        return self.maxima(set(left) | set(right))


# ---------------------------------------------------------------------------
# definition file loading

def load_datatype_system(path: str | None = None) -> LexicalDatatypeSystem:
    """Load a datatype system from ``path``, the ``XVPA_DATATYPES``
    environment override, or the packaged default file."""
    if path is None:
        path = os.environ.get(ENV_DATATYPE_FILE) or DEFAULT_PATH
    with open(path, "rb") as fh:
        raw = fh.read()
    content_hash = hashlib.sha256(raw).hexdigest()
    text = raw.decode("utf-8")

    defs: dict[str, str] = {}
    datatypes: list[Datatype] = []
    lex_edges: list[tuple[str, str]] = []
    kind_edges: list[tuple[str, str]] = []
    version = None
    seen = set()

    def expand(pattern: str, lineno: int) -> str:
        def repl(m):
            name = m.group(1) or m.group(2)
            if name not in defs:
                raise DatatypeFileError(f"line {lineno}: unknown fragment ${name}")
            return "(" + defs[name] + ")"
        return _REF.sub(repl, pattern)

    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 1)
        keyword, rest = fields[0], (fields[1] if len(fields) > 1 else "")
        if keyword == "version":
            version = rest.strip()
        elif keyword == "def":
            name, pattern = rest.split(None, 1)
            defs[name] = expand(pattern.strip(), lineno)
        elif keyword == "datatype":
            try:
                name, kind, pattern = rest.split(None, 2)
            except ValueError:
                raise DatatypeFileError(f"line {lineno}: bad datatype line") from None
            if name in seen:
                raise DatatypeFileError(f"line {lineno}: duplicate datatype {name!r}")
            seen.add(name)
            dfa = Dfa.from_pattern(expand(pattern.strip(), lineno))
            datatypes.append(Datatype(name, kind, pattern.strip(), dfa))
        elif keyword == "lexorder":
            a, b = rest.split()
            lex_edges.append((a, b))
        elif keyword == "kindorder":
            a, b = rest.split()
            kind_edges.append((a, b))
        else:
            raise DatatypeFileError(f"line {lineno}: unknown keyword {keyword!r}")

    if version is None:
        raise DatatypeFileError("definition file lacks a version line")
    for a, b in lex_edges:
        if a not in seen or b not in seen:
            raise DatatypeFileError(f"lexorder mentions unknown datatype {a!r}/{b!r}")
    return LexicalDatatypeSystem(datatypes, lex_edges, kind_edges, version, content_hash)


_default: LexicalDatatypeSystem | None = None


def default_system() -> LexicalDatatypeSystem:
    """The packaged datatype system, loaded once per process."""
    global _default
    if _default is None:
        _default = load_datatype_system()
    return _default


def _closure_masks(index: dict[str, int], edges) -> list[int]:
    """Strict transitive closure as per-node bitmasks of reachable nodes."""
    n = len(index)
    direct = [0] * n
    for a, b in edges:
        direct[index[a]] |= 1 << index[b]
    masks = [0] * n
    for i in range(n):
        seen = 0
        work = [j for j in range(n) if direct[i] & (1 << j)]
        while work:
            j = work.pop()
            bit = 1 << j
            if seen & bit:
                continue
            seen |= bit
            work.extend(k for k in range(n) if direct[j] & (1 << k) and not seen & (1 << k))
        masks[i] = seen
    return masks


def _topological(names, edges) -> list[int]:
    """Indices in topological order: subsumed datatypes before subsuming."""
    index = {name: i for i, name in enumerate(names)}
    out: dict[int, list[int]] = {i: [] for i in range(len(names))}
    indeg = [0] * len(names)
    for a, b in edges:
        out[index[a]].append(index[b])
        indeg[index[b]] += 1
    queue = sorted(i for i in range(len(names)) if indeg[i] == 0)
    order = []
    while queue:
        i = queue.pop(0)
        order.append(i)
        ready = []
        for j in out[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
        queue = sorted(queue + ready)
    if len(order) != len(names):
        raise DatatypeFileError("lexical order is cyclic")
    return order
