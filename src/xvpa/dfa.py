"""Regular-language machinery over Unicode codepoints.

Lexical spaces of datatypes are plain regular languages.  This module
supplies everything needed to treat them as first-class objects: a small
pattern dialect, its position automaton, subset-construction
determinization, DFA minimization by ``refine`` (which also folds the
modules of automata) and membership, and a lazily determinized product of
several DFAs whose ``accept_mask`` classifies a text against all of them
in one scan, for inference and every compiled text check.

Character sets are kept as sorted, disjoint, inclusive codepoint intervals
so that full Unicode classes (e.g. XML NameChar) stay tiny.

Pattern dialect
---------------
Concatenation by juxtaposition, alternation ``|``, grouping ``( )``,
postfix ``* + ? {m} {m,} {m,n}``, character classes ``[...]`` with ranges
and ``^`` negation, ``.`` for any codepoint, escapes ``\\\\ \\n \\r \\t
\\d \\u{HEX}`` plus escaped metacharacters, and a numeric-range atom
``\\num{lo,hi}`` that matches decimal digit strings (leading zeros
allowed) whose integer value lies in [lo, hi].  The range atom exists
because value-bounded types (byte, unsignedShort, ...) are regular but
painful to spell as digit alternations.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import deque

MAX_CP = 0x10FFFF

Interval = tuple[int, int]


class PatternError(ValueError):
    """Raised for syntax errors in the pattern dialect."""


# ---------------------------------------------------------------------------
# character sets: tuples of sorted, disjoint, inclusive (lo, hi) intervals

def cs_normalize(intervals) -> tuple[Interval, ...]:
    ivs = sorted((lo, hi) for lo, hi in intervals if lo <= hi)
    out: list[Interval] = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def cs_single(ch: str) -> tuple[Interval, ...]:
    cp = ord(ch)
    return ((cp, cp),)


def cs_negate(cs) -> tuple[Interval, ...]:
    out = []
    prev = 0
    for lo, hi in cs:
        if lo > prev:
            out.append((prev, lo - 1))
        prev = hi + 1
    if prev <= MAX_CP:
        out.append((prev, MAX_CP))
    return tuple(out)


ANY_CS = ((0, MAX_CP),)
DIGIT_CS = ((ord("0"), ord("9")),)


# ---------------------------------------------------------------------------
# pattern parsing -> AST
#
# AST nodes are tuples:
#   ("set", cs) ("cat", children) ("alt", children) ("star", child)
#   ("rep", child, lo, hi_or_None) ("eps",) ("num", lo, hi)

_ESCAPES = {"n": "\n", "r": "\r", "t": "\t"}

# The most atoms a pattern may unroll to.  A repetition count copies its
# operand and a \num range makes positions for every digit of its upper bound,
# so a short pattern such as a{99999} or (a{1000}){1000} would otherwise
# build an automaton that determinization and minimization do not finish.
# The packaged datatype file's largest pattern (long) unrolls to 349; at
# the bound, a{1000} builds in a few hundredths of a second.
MAX_EXPANSION = 1000

# The most states subset construction may make.  A pattern within the
# expansion bound can still determinize to exponentially many states:
# (a|b)*a(a|b){k} has 2**(k+1).  The packaged datatype file's largest
# DFA (long) has 113 states before minimization.
MAX_DFA_STATES = 4096


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.sizes: dict[int, int] = {}  # id of an AST node -> its expansion

    def error(self, msg: str):
        raise PatternError(f"{msg} at position {self.pos} in pattern {self.src!r}")

    def peek(self):
        return self.src[self.pos] if self.pos < len(self.src) else None

    def take(self):
        ch = self.peek()
        if ch is None:
            self.error("unexpected end of pattern")
        self.pos += 1
        return ch

    def parse(self):
        node = self.alt()
        if self.pos != len(self.src):
            self.error("unbalanced ')'")
        self.check_expansion(node)
        return node

    def check_expansion(self, node):
        if self.expansion(node) > MAX_EXPANSION:
            self.error(f"pattern expands to more than {MAX_EXPANSION} atoms")

    def expansion(self, node) -> int:
        """How many atoms ``node`` unrolls to, a bound on its positions: a
        set or an empty match is one, a \\num range one per key its digit
        automaton may have, and a repetition its operand times its largest
        count.  Memoized, since ``+`` shares its operand between two places."""
        size = self.sizes.get(id(node))
        if size is None:
            kind = node[0]
            if kind in ("cat", "alt"):
                size = sum(self.expansion(child) for child in node[1])
            elif kind == "star":
                size = self.expansion(node[1])
            elif kind == "rep":
                _, child, lo, hi = node
                size = self.expansion(child) * max(1, lo + 1 if hi is None else hi)
            elif kind == "num":
                # a state per digit count and relation (<, =, >) to each bound
                size = 2 + 9 * len(str(node[2]))
            else:
                size = 1
            self.sizes[id(node)] = size
        return size

    def alt(self):
        branches = [self.cat()]
        while self.peek() == "|":
            self.take()
            branches.append(self.cat())
        if len(branches) == 1:
            return branches[0]
        return ("alt", tuple(branches))

    def cat(self):
        items = []
        while True:
            ch = self.peek()
            if ch is None or ch in "|)":
                break
            items.append(self.repeat())
        if not items:
            return ("eps",)
        if len(items) == 1:
            return items[0]
        return ("cat", tuple(items))

    def repeat(self):
        node = self.atom()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
                node = ("star", node)
            elif ch == "+":
                self.take()
                node = ("cat", (node, ("star", node)))
            elif ch == "?":
                self.take()
                node = ("alt", (node, ("eps",)))
            elif ch == "{":
                node = self.bounds(node)
            else:
                return node
            self.check_expansion(node)

    def bounds(self, node):
        self.take()  # '{'
        lo = self.int_until(",}")
        if self.peek() == "}":
            self.take()
            return ("rep", node, lo, lo)
        self.take()  # ','
        if self.peek() == "}":
            self.take()
            return ("rep", node, lo, None)
        hi = self.int_until("}")
        self.take()
        if hi < lo:
            self.error("bad repetition bounds")
        return ("rep", node, lo, hi)

    def int_until(self, stops: str) -> int:
        digits = ""
        while self.peek() is not None and self.peek() not in stops:
            digits += self.take()
        if not (digits.isascii() and digits.isdigit()):
            self.error("expected integer")
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            self.error("integer too large")

    def atom(self):
        ch = self.take()
        if ch == "(":
            node = self.alt()
            if self.peek() != ")":
                self.error("missing ')'")
            self.take()
            return node
        if ch == "[":
            return ("set", self.char_class())
        if ch == ".":
            return ("set", ANY_CS)
        if ch == "\\":
            return self.escape()
        if ch in "*+?{":
            self.error(f"dangling quantifier {ch!r}")
        return ("set", cs_single(ch))

    def escape(self):
        """An escape outside a class: ``\\num{lo,hi}``, or any escape a
        class admits, decoded by ``class_escape``."""
        if self.src.startswith("num{", self.pos):
            self.pos += 4
            lo = self.int_until(",")
            self.take()
            hi = self.int_until("}")
            self.take()
            if hi < lo:
                self.error(r"bad \num bounds")
            return ("num", lo, hi)
        item = self.class_escape()
        return ("set", item if isinstance(item, tuple) else ((item, item),))

    def codepoint(self) -> int:
        if self.take() != "{":
            self.error(r"expected '{' after \u")
        digits = ""
        while self.peek() != "}":
            digits += self.take()
        self.take()
        try:
            cp = int(digits, 16)
        except ValueError:
            self.error(r"bad \u{...} escape")
        if not 0 <= cp <= MAX_CP:
            self.error("codepoint out of range")
        return cp

    def class_escape(self) -> int | tuple[Interval, ...]:
        ch = self.take()
        if ch == "n" and self.src.startswith("um{", self.pos):
            self.error(r"\num in a character class")
        if ch == "d":
            return DIGIT_CS
        if ch == "u":
            return self.codepoint()
        if ch in _ESCAPES:
            return ord(_ESCAPES[ch])
        return ord(ch)

    def class_member(self) -> int | tuple[Interval, ...]:
        """One raw or escaped member of a class, for either end of a range:
        a codepoint, or the intervals of a shorthand such as ``\\d``."""
        if self.peek() is None:
            self.error("unterminated character class")
        ch = self.take()
        return self.class_escape() if ch == "\\" else ord(ch)

    def char_class(self) -> tuple[Interval, ...]:
        """The members up to ``]``, after an optional ``^``.  A member
        followed by a raw ``-`` that does not end the class starts a range;
        any other ``-`` is a literal."""
        negate = self.peek() == "^"
        if negate:
            self.take()
        intervals: list[Interval] = []
        while self.peek() != "]":
            lo = hi = self.class_member()
            if isinstance(lo, tuple):
                intervals.extend(lo)
                continue
            if self.peek() == "-" and self.src[self.pos + 1:self.pos + 2] not in ("", "]"):
                self.take()  # '-'
                hi = self.class_member()
                if isinstance(hi, tuple):
                    self.error("class shorthand cannot end a range")
                if hi < lo:
                    self.error("reversed range in character class")
            intervals.append((lo, hi))
        self.take()  # ']'
        cs = cs_normalize(intervals)
        return cs_negate(cs) if negate else cs


def parse_pattern(src: str):
    """Parse a pattern into an AST."""
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# position automaton (Glushkov 1961; McNaughton & Yamada 1960)

class _Positions:
    """The positions of a pattern's AST: each character set it reads,
    with repetitions unrolled, is one position.  ``sets[p]`` is the set
    position p reads and ``follow[p]`` the positions that may be read after
    it; the position ``end`` reads nothing and follows each position the
    text may stop after.  ``start`` holds the positions that may be read
    first, and ``end`` too if the pattern matches the empty text."""

    def __init__(self, tree):
        self.sets: list[tuple[Interval, ...]] = []
        self.follow: list = []
        nullable, first, last = self.walk(tree)
        self.end = self.position(())
        for p in last:
            self.follow[p].add(self.end)
        self.start = frozenset(first | {self.end} if nullable else first)
        self.follow = [frozenset(f) for f in self.follow]

    def position(self, cs) -> int:
        self.sets.append(cs)
        self.follow.append(set())
        return len(self.sets) - 1

    def walk(self, node) -> tuple[bool, set[int], set[int]]:
        """Whether ``node`` matches the empty text, and the positions it may
        start and end with; fills the follow sets of its own positions."""
        kind = node[0]
        if kind == "set":
            p = self.position(node[1])
            return False, {p}, {p}
        if kind == "eps":
            return True, set(), set()
        if kind == "cat":
            nullable, first, last = True, set(), set()
            for child in node[1]:
                n, f, l = self.walk(child)
                for p in last:
                    self.follow[p] |= f
                if nullable:
                    first = first | f
                last = last | l if n else l
                nullable = nullable and n
            return nullable, first, last
        if kind == "alt":
            parts = [self.walk(child) for child in node[1]]
            return (any(n for n, _, _ in parts), set().union(*(f for _, f, _ in parts)),
                    set().union(*(l for _, _, l in parts)))
        if kind == "star":
            _, first, last = self.walk(node[1])
            for p in last:
                self.follow[p] |= first
            return True, first, last
        if kind == "rep":
            _, child, lo, hi = node
            tail = [("star", child)] if hi is None else [("alt", (child, ("eps",)))] * (hi - lo)
            return self.walk(("cat", (child,) * lo + tuple(tail)))
        if kind == "num":
            return self.num(node[1], node[2])
        raise AssertionError(f"unknown AST node {kind}")

    def num(self, lo: int, hi: int) -> tuple[bool, set[int], set[int]]:
        """The digit automaton for decimal strings whose value lies in
        [lo, hi], leading zeros allowed, walked from its start ``"S"``:
        ``"Z"`` has read only zeros, and ``("sig", m, rl, rh)`` m
        significant digits, whose relations to the first m digits of lo and
        of hi are ``rl`` and ``rh``.  The digits on which a key steps to the
        same next key are one position."""
        los, his = str(lo), str(hi)

        def step(key, digit):
            if key in ("S", "Z"):
                if digit == 0:
                    return "Z"
                return ("sig", 1, _cmp(digit, int(los[0])), _cmp(digit, int(his[0])))
            _, m, rl, rh = key
            if m == len(his):
                return None  # value exceeds hi, no recovery
            if m >= len(los):
                rl = "gt"
            elif rl == "eq":
                rl = _cmp(digit, int(los[m]))
            if rh == "eq":
                rh = _cmp(digit, int(his[m]))
            return ("sig", m + 1, rl, rh)

        def accepts(key):
            if key == "S":
                return False
            if key == "Z":
                return lo == 0
            _, m, rl, rh = key
            ge_lo = m > len(los) or (m == len(los) and rl in ("eq", "gt"))
            le_hi = m < len(his) or (m == len(his) and rh in ("lt", "eq"))
            return ge_lo and le_hi

        rows: dict = {"S": {}}  # key -> {next key: the digits stepping there, as codepoints}
        keys = ["S"]
        for key in keys:  # grows as the walk meets new keys
            for digit in range(10):
                nxt = step(key, digit)
                if nxt is not None:
                    rows[key].setdefault(nxt, []).append(ord("0") + digit)
                    if nxt not in rows:
                        rows[nxt] = {}
                        keys.append(nxt)
        # step is monotone in the digit: the digits stepping to one key are a range
        groups = {key: [(self.position(((cps[0], cps[-1]),)), nxt) for nxt, cps in row.items()]
                  for key, row in rows.items()}
        heads = {key: {p for p, _ in group} for key, group in groups.items()}
        for group in groups.values():
            for p, nxt in group:
                self.follow[p] |= heads[nxt]
        last = {p for group in groups.values() for p, nxt in group if accepts(nxt)}
        return False, heads["S"], last


def _cmp(a: int, b: int) -> str:
    return "lt" if a < b else ("eq" if a == b else "gt")


# ---------------------------------------------------------------------------
# DFA

class Dfa:
    """Deterministic, partial automaton over codepoint intervals.

    Transitions per state are parallel sorted arrays (los, his, targets);
    a codepoint with no covering interval rejects immediately.  Instances
    are immutable once built and safe to share between threads.
    """

    __slots__ = ("n", "start", "accepting", "_los", "_his", "_dst")

    def __init__(self, n, start, accepting, tables):
        self.n = n
        self.start = start
        self.accepting = frozenset(accepting)
        self._los = []
        self._his = []
        self._dst = []
        for rows in tables:
            rows = sorted(rows)
            self._los.append([r[0] for r in rows])
            self._his.append([r[1] for r in rows])
            self._dst.append([r[2] for r in rows])

    # -- membership ---------------------------------------------------------

    def step(self, state: int, cp: int) -> int | None:
        los = self._los[state]
        i = bisect_right(los, cp) - 1
        if i >= 0 and cp <= self._his[state][i]:
            return self._dst[state][i]
        return None

    def accepts(self, text: str) -> bool:
        state = self.start
        step = self.step
        for ch in text:
            state = step(state, ord(ch))
            if state is None:
                return False
        return state in self.accepting

    def edges(self, state: int):
        return zip(self._los[state], self._his[state], self._dst[state])

    def is_universal(self) -> bool:
        """Whether every string is accepted: the minimal DFA is one
        accepting state whose only row takes every codepoint back to it."""
        m = self.minimized()
        return m.accepting == {0} and list(m.edges(0)) == [(0, MAX_CP, 0)]

    # -- construction -------------------------------------------------------

    @classmethod
    def from_pattern(cls, pattern: str) -> "Dfa":
        return cls.from_positions(_Positions(parse_pattern(pattern))).minimized()

    @classmethod
    def from_positions(cls, positions: _Positions) -> "Dfa":
        """Subset construction.  A DFA state is the set of positions that
        may be read next, holding ``end`` when the text so far is accepted.
        A state's positions with the same follow set merge into one
        character set first; each such set finds the atoms it covers by
        bisection over the merged sets' boundaries, so a state costs its
        atoms plus its intervals, not their product."""
        index = {positions.start: 0}
        tables: list[list[tuple[int, int, int]]] = [[]]
        work = deque([positions.start])
        while work:
            cur = work.popleft()
            moves: dict[frozenset[int], list[Interval]] = {}  # follow set -> its intervals
            for p in cur:
                moves.setdefault(positions.follow[p], []).extend(positions.sets[p])
            merged = [(cs_normalize(ivs), tgt) for tgt, ivs in moves.items()]
            bounds = _boundaries(iv for cs, _ in merged for iv in cs)
            covering: list[list[frozenset[int]]] = [[] for _ in range(len(bounds) - 1)]
            for cs, tgt in merged:
                for lo, hi in cs:
                    for atom in range(bisect_left(bounds, lo), bisect_left(bounds, hi + 1)):
                        covering[atom].append(tgt)
            rows = []
            for atom, tgts in enumerate(covering):
                if not tgts:
                    continue
                tgt = tgts[0] if len(tgts) == 1 else frozenset().union(*tgts)
                if tgt not in index:
                    if len(tables) == MAX_DFA_STATES:
                        raise PatternError(
                            f"pattern determinizes to more than {MAX_DFA_STATES} states")
                    index[tgt] = len(tables)
                    tables.append([])
                    work.append(tgt)
                rows.append((bounds[atom], bounds[atom + 1] - 1, index[tgt]))
            tables[index[cur]] = _merge_rows(rows)
        accepting = {i for state, i in index.items() if positions.end in state}
        return cls(len(tables), 0, accepting, tables)

    # -- transformations ----------------------------------------------------

    def minimized(self) -> "Dfa":
        """The minimal DFA: ``refine`` over the coaccessible states, keyed by
        acceptance, with edges labelled by atomic interval; its blocks are
        numbered breadth-first from the start's, and unreached ones dropped."""
        live = self._coaccessible()
        if self.start not in live:
            return Dfa(1, 0, set(), [[]])
        atom = {cp: i for i, cp in enumerate(_boundaries(
            (lo, hi) for s in live for lo, hi, dst in self.edges(s) if dst in live))}
        labelled = ((s, label, dst) for s in live for lo, hi, dst in self.edges(s)
                    if dst in live for label in range(atom[lo], atom[hi + 1]))
        block = refine({s: s in self.accepting for s in live}, labelled)
        rep = {block[s]: s for s in live}
        blocks = [block[self.start]]
        order = {blocks[0]: 0}
        tables = []
        for b in blocks:
            rows = _merge_rows([(lo, hi, block[dst]) for lo, hi, dst in self.edges(rep[b])
                                if dst in live])
            for _, _, dst in rows:
                if dst not in order:
                    order[dst] = len(blocks)
                    blocks.append(dst)
            tables.append([(lo, hi, order[dst]) for lo, hi, dst in rows])
        accepting = {i for i, b in enumerate(blocks) if rep[b] in self.accepting}
        return Dfa(len(tables), 0, accepting, tables)

    def _coaccessible(self) -> set[int]:
        incoming: dict[int, set[int]] = {s: set() for s in range(self.n)}
        for s in range(self.n):
            for _, _, dst in self.edges(s):
                incoming[dst].add(s)
        live = set(self.accepting)
        work = list(live)
        while work:
            s = work.pop()
            for p in incoming[s]:
                if p not in live:
                    live.add(p)
                    work.append(p)
        return live


def _merge_rows(rows):
    rows = sorted(rows)
    merged = []
    for lo, hi, dst in rows:
        if merged and merged[-1][2] == dst and merged[-1][1] + 1 == lo:
            merged[-1] = (merged[-1][0], hi, dst)
        else:
            merged.append((lo, hi, dst))
    return merged


def _boundaries(intervals) -> list[int]:
    """The sorted codepoints at which some interval starts or after which
    one ends: between two consecutive boundaries, each interval covers
    every codepoint or none."""
    points = set()
    for lo, hi in intervals:
        points.add(lo)
        points.add(hi + 1)
    return sorted(points)


# ---------------------------------------------------------------------------
# partition refinement

def refine(initial: dict, edges) -> dict:
    """The block of each state in the coarsest partition that refines the
    ``initial`` keys and in which the states of one block have edges on the
    same labels into the same blocks.  ``edges`` yields ``(source, label,
    target)``, at most one target per source and label.  As transitions may
    be partial, every initial block starts queued; a split then queues only
    its smaller half unless the block is still queued, so the cost is
    O(m log n) (Hopcroft 1971; Valmari & Lehtinen, STACS 2008)."""
    by_key: dict = {}
    for q, key in initial.items():
        by_key.setdefault(key, set()).add(q)
    members = list(by_key.values())
    block = {q: b for b, states in enumerate(members) for q in states}
    incoming: dict = {}  # target -> [(label, source)]
    for src, label, dst in edges:
        incoming.setdefault(dst, []).append((label, src))
    queue = dict.fromkeys(range(len(members)))  # an ordered set of blocks
    while queue:
        splitter = members[queue.popitem()[0]]
        sources: dict = {}  # label -> the states whose edge on it enters splitter
        for t in splitter:
            for label, s in incoming.get(t, ()):
                sources.setdefault(label, []).append(s)
        for group in sources.values():
            hits: dict[int, set] = {}
            for s in group:
                hits.setdefault(block[s], set()).add(s)
            for b, hit in hits.items():
                rest = members[b]
                if len(hit) == len(rest):
                    continue
                rest -= hit
                new = len(members)
                members.append(hit)
                for s in hit:
                    block[s] = new
                queue[new if b in queue or len(hit) <= len(rest) else b] = None
    return block


# ---------------------------------------------------------------------------
# lazily determinized product

ASCII = 128
CHUNK = 64  # a run tests liveness once per this many characters

CACHED_TEXT_MAX = 256  # the longest text the product's memo keeps
MEMO_MAX = 2**14  # the most texts it keeps; it is cleared when full


class _ProductState:
    """One product state: its component states (None where a component is
    dead), the accept and live bitmasks, and its transition rows.

    ``next`` maps each ASCII character a run has taken from this state to
    its successor; ``wide`` is None until a codepoint above ASCII arrives,
    then the state's atomic intervals above ASCII (the merged boundaries
    of its components' intervals) as ``(los, successors)``, a successor
    slot being None until a run first needs it.
    """

    __slots__ = ("comps", "accept", "live", "next", "wide")

    def __init__(self, comps, accept, live):
        self.comps = comps
        self.accept = accept
        self.live = live
        self.next: dict[str, _ProductState] = {}
        self.wide = None


class ProductDfa:
    """The product of minimized DFAs, determinized lazily.

    Bit ``i`` of a state's ``accept`` mask is set when component ``i``
    accepts there, and of its ``live`` mask when component ``i`` is not
    dead.  The components are minimized, so each of their states reaches
    acceptance and the live mask is exact.

    Nothing is built up front: a transition is computed the first time a
    run takes it.  Memory is bounded by the reachable product states and
    their rows (one dict entry per ASCII character taken, at most 128,
    plus one slot per atomic interval above ASCII) and by the memo's,
    never by the input.  A run reads a chunk of ASCII text with one dict
    lookup per character, as a lazy DFA cache does; a chunk holding a
    codepoint above ASCII tests each character, and only those above
    ASCII pay for ``ord`` and the bisect over intervals.  Those
    codepoints stay out of the dict, so that a row grows with its
    members' intervals and not with the alphabet of the input (CJK text
    alone has thousands of characters).  Runs read without locking; a
    miss takes the lock, and a successor is published only once its masks
    and rows exist, so concurrent runs are safe.

    ``memo`` maps a text of at most ``CACHED_TEXT_MAX`` characters to the
    accept mask of its full scan, the int its final state holds, so a
    recurring short text is scanned once.  At ``MEMO_MAX`` texts it is
    cleared wholesale: 5.2 MiB at most for ASCII texts.  It takes no lock:
    a dict get, set or clear is atomic, and every value is its text's
    full-scan mask, so a race can lose entries but never gives a wrong
    answer, and concurrent stores can pass the bound by at most one entry
    per further thread until the next store clears it.
    """

    def __init__(self, dfas):
        self.dfas = tuple(dfas)
        self.states: dict[tuple, _ProductState] = {}
        self.memo: dict[str, int] = {}
        self._lock = threading.Lock()
        self.start = self._state(tuple(d.start if d.accepting else None for d in self.dfas))

    def accept_mask(self, text: str, live: int = -1) -> int:
        """The components accepting ``text``, as a bitmask.  A short text
        is scanned in full once and then read from the memo; a longer one
        is run each time, and only until no component in ``live`` (all, by
        default) is live, so only the bits in ``live`` are exact."""
        if len(text) > CACHED_TEXT_MAX:
            s = self.run(text, live)
            return 0 if s is None else s.accept
        mask = self.memo.get(text)
        if mask is None:
            s = self.run(text, -1)
            mask = 0 if s is None else s.accept
            if len(self.memo) >= MEMO_MAX:
                self.memo.clear()
            self.memo[text] = mask
        return mask

    def run(self, text: str, mask: int) -> _ProductState | None:
        """The state after ``text``, or None once no component in ``mask``
        is live.  The text is read in chunks of ``CHUNK`` characters and
        liveness tested after each, so a dead run stops within ``CHUNK``
        characters of the one that killed it.  An ASCII chunk steps by
        ``next`` alone; a chunk holding any codepoint above ASCII bisects
        ``wide`` for those."""
        s = self.start
        for at in range(0, len(text), CHUNK):
            chunk = text[at:at + CHUNK]
            if chunk.isascii():
                chars = iter(chunk)
                while True:
                    try:
                        for ch in chars:
                            s = s.next[ch]
                        break
                    except KeyError:
                        s = self._miss(s, ch)
            else:
                for ch in chunk:
                    if ch < "\x80":  # ASCII
                        try:
                            s = s.next[ch]
                            continue
                        except KeyError:
                            pass
                    else:
                        wide = s.wide
                        t = wide and wide[1][bisect_right(wide[0], ord(ch)) - 1]
                        if t is not None:
                            s = t
                            continue
                    s = self._miss(s, ch)
            if not s.live & mask:
                return None
        return s

    def _miss(self, s: _ProductState, ch: str) -> _ProductState:
        cp = ord(ch)
        with self._lock:
            if cp < ASCII:
                t = s.next.get(ch)
                if t is None:
                    t = s.next[ch] = self._successor(s, cp)
                return t
            if s.wide is None:
                s.wide = self._partition(s)
            los, successors = s.wide
            i = bisect_right(los, cp) - 1
            t = successors[i]
            if t is None:
                t = successors[i] = self._successor(s, los[i])
            return t

    def _successor(self, s: _ProductState, cp: int) -> _ProductState:
        return self._state(tuple(None if c is None else d.step(c, cp)
                                 for d, c in zip(self.dfas, s.comps)))

    def _state(self, comps: tuple) -> _ProductState:
        s = self.states.get(comps)
        if s is None:
            accept = live = 0
            for i, (d, c) in enumerate(zip(self.dfas, comps)):
                if c is not None:
                    live |= 1 << i
                    if c in d.accepting:
                        accept |= 1 << i
            s = self.states[comps] = _ProductState(comps, accept, live)
        return s

    def _partition(self, s: _ProductState):
        """Atomic intervals above ASCII: every component steps the same
        way on each, so one codepoint stands for all of it."""
        bounds = _boundaries((lo, hi) for d, c in zip(self.dfas, s.comps) if c is not None
                             for lo, hi, _dst in d.edges(c))
        los = [ASCII] + [p for p in bounds if ASCII < p <= MAX_CP]
        return los, [None] * len(los)

