"""Regular-language machinery over Unicode codepoints.

Lexical spaces of datatypes and the text predicates of compiled validators
are plain regular languages.  This module supplies everything needed to
treat them as first-class objects: a small pattern dialect, Thompson NFA
construction, subset-construction determinization, DFA minimization and
membership, and a lazily determinized product of several DFAs that
classifies a text against all of them in one scan.

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
from bisect import bisect_right
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


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

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
        return node

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
        if not digits.isdigit():
            self.error("expected integer in repetition")
        return int(digits)

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
        ch = self.take()
        if ch == "d":
            return ("set", DIGIT_CS)
        if ch == "u":
            cp = self.codepoint()
            return ("set", ((cp, cp),))
        if ch in _ESCAPES:
            return ("set", cs_single(_ESCAPES[ch]))
        return ("set", cs_single(ch))

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
        if ch == "d":
            return DIGIT_CS
        if ch == "u":
            return self.codepoint()
        if ch in _ESCAPES:
            return ord(_ESCAPES[ch])
        return ord(ch)

    def char_class(self) -> tuple[Interval, ...]:
        negate = False
        if self.peek() == "^":
            self.take()
            negate = True
        intervals: list[Interval] = []
        pending: int | None = None  # candidate range start

        def flush():
            nonlocal pending
            if pending is not None:
                intervals.append((pending, pending))
                pending = None

        while True:
            ch = self.peek()
            if ch is None:
                self.error("unterminated character class")
            if ch == "]":
                self.take()
                flush()
                break
            if ch == "\\":
                self.take()
                item = self.class_escape()
                if isinstance(item, tuple):
                    flush()
                    intervals.extend(item)
                    continue
                flush()
                pending = item  # escaped char is always literal
                continue
            cp = ord(self.take())
            # only a raw dash between two members forms a range
            if cp == ord("-") and pending is not None and self.peek() not in (None, "]"):
                lo = pending
                pending = None
                if self.peek() == "\\":
                    self.take()
                    item = self.class_escape()
                    if isinstance(item, tuple):
                        self.error("class shorthand cannot end a range")
                    hi = item
                else:
                    hi = ord(self.take())
                if hi < lo:
                    self.error("reversed range in character class")
                intervals.append((lo, hi))
                continue
            flush()
            pending = cp
        cs = cs_normalize(intervals)
        return cs_negate(cs) if negate else cs


def parse_pattern(src: str):
    r"""Parse a pattern into an AST, handling the \num{lo,hi} atom."""
    # \num{...} is lexically awkward inside the char-by-char parser, so it
    # is replaced with a placeholder character from a private-use plane and
    # restored during NFA construction.
    ranges = []
    out = []
    i = 0
    while i < len(src):
        if src.startswith(r"\num{", i):
            j = src.index("}", i)
            body = src[i + 5:j]
            try:
                lo_s, hi_s = body.split(",")
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise PatternError(f"bad \\num atom in {src!r}") from None
            if lo < 0 or hi < lo:
                raise PatternError(f"bad \\num bounds in {src!r}")
            placeholder = chr(0xF0000 + len(ranges))
            ranges.append((lo, hi))
            out.append(placeholder)
            i = j + 1
        else:
            if src[i] == "\\" and i + 1 < len(src):
                out.append(src[i:i + 2])
                i += 2
            else:
                out.append(src[i])
                i += 1
    ast = _Parser("".join(out)).parse()

    def restore(node):
        kind = node[0]
        if kind == "set":
            cs = node[1]
            if len(cs) == 1 and cs[0][0] == cs[0][1] and 0xF0000 <= cs[0][0] < 0xF0000 + len(ranges):
                lo, hi = ranges[cs[0][0] - 0xF0000]
                return ("num", lo, hi)
            return node
        if kind in ("cat", "alt"):
            return (kind, tuple(restore(c) for c in node[1]))
        if kind == "star":
            return ("star", restore(node[1]))
        if kind == "rep":
            return ("rep", restore(node[1]), node[2], node[3])
        return node

    return restore(ast) if ranges else ast


# ---------------------------------------------------------------------------
# NFA with epsilon transitions

class _Nfa:
    def __init__(self):
        self.eps: list[set[int]] = []
        self.edges: list[list[tuple[tuple[Interval, ...], int]]] = []

    def new_state(self) -> int:
        self.eps.append(set())
        self.edges.append([])
        return len(self.eps) - 1

    def add_edge(self, src: int, cs, dst: int):
        self.edges[src].append((cs, dst))

    def add_eps(self, src: int, dst: int):
        self.eps[src].add(dst)

    def fragment(self, node) -> tuple[int, int]:
        kind = node[0]
        if kind == "eps":
            s = self.new_state()
            return s, s
        if kind == "set":
            s, t = self.new_state(), self.new_state()
            self.add_edge(s, node[1], t)
            return s, t
        if kind == "cat":
            first, last = None, None
            for child in node[1]:
                cs, ct = self.fragment(child)
                if first is None:
                    first = cs
                else:
                    self.add_eps(last, cs)
                last = ct
            return first, last
        if kind == "alt":
            s, t = self.new_state(), self.new_state()
            for child in node[1]:
                cs, ct = self.fragment(child)
                self.add_eps(s, cs)
                self.add_eps(ct, t)
            return s, t
        if kind == "star":
            s, t = self.new_state(), self.new_state()
            cs, ct = self.fragment(node[1])
            self.add_eps(s, cs)
            self.add_eps(ct, cs)
            self.add_eps(s, t)
            self.add_eps(ct, t)
            return s, t
        if kind == "rep":
            _, child, lo, hi = node
            parts = []
            for _ in range(lo):
                parts.append(child)
            if hi is None:
                parts.append(("star", child))
            else:
                for _ in range(hi - lo):
                    parts.append(("alt", (child, ("eps",))))
            if not parts:
                return self.fragment(("eps",))
            return self.fragment(("cat", tuple(parts)))
        if kind == "num":
            return self._num_fragment(node[1], node[2])
        raise AssertionError(f"unknown AST node {kind}")

    def _num_fragment(self, lo: int, hi: int) -> tuple[int, int]:
        table, start_key, accepting = _num_range_table(lo, hi)
        ids = {key: self.new_state() for key in table}
        accept = self.new_state()
        for key, moves in table.items():
            for digit, target in moves.items():
                cp = ord("0") + digit
                self.add_edge(ids[key], ((cp, cp),), ids[target])
        for key in accepting:
            self.add_eps(ids[key], accept)
        return ids[start_key], accept


def _num_range_table(lo: int, hi: int):
    """Digit automaton for decimal strings with value in [lo, hi].

    Leading zeros are allowed.  States track the length of the significant
    part (after zeros) and its lexicographic relation to both bounds.
    """
    los, his = str(lo), str(hi)

    def step(key, digit):
        if key in ("S", "Z"):
            if digit == 0:
                return "Z"
            m = 1
            rl = _cmp(digit, int(los[0])) if len(los) >= 1 else "gt"
            rh = _cmp(digit, int(his[0]))
            return ("sig", m, rl, rh)
        _, m, rl, rh = key
        m2 = m + 1
        if m2 > len(his):
            return None  # value exceeds hi, no recovery
        if m2 > len(los):
            rl2 = "gt"
        elif rl != "eq":
            rl2 = rl
        else:
            rl2 = _cmp(digit, int(los[m2 - 1]))
        rh2 = rh if rh != "eq" else _cmp(digit, int(his[m2 - 1]))
        return ("sig", m2, rl2, rh2)

    def accepts(key):
        if key == "S":
            return False
        if key == "Z":
            return lo == 0
        _, m, rl, rh = key
        ge_lo = m > len(los) or (m == len(los) and rl in ("eq", "gt"))
        le_hi = m < len(his) or (m == len(his) and rh in ("lt", "eq"))
        return ge_lo and le_hi

    table: dict = {}
    work = deque(["S"])
    seen = {"S"}
    while work:
        key = work.popleft()
        moves = {}
        for digit in range(10):
            nxt = step(key, digit)
            if nxt is None:
                continue
            moves[digit] = nxt
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
        table[key] = moves
    accepting = {key for key in table if accepts(key)}
    return table, "S", accepting


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
        for lo, hi, dst in zip(self._los[state], self._his[state], self._dst[state]):
            yield lo, hi, dst

    # -- construction -------------------------------------------------------

    @classmethod
    def from_pattern(cls, pattern: str) -> "Dfa":
        nfa = _Nfa()
        start, accept = nfa.fragment(parse_pattern(pattern))
        return cls.from_nfa(nfa, start, {accept}).minimized()

    @classmethod
    def from_nfa(cls, nfa: _Nfa, start: int, accepts: set[int]) -> "Dfa":
        def closure(states: frozenset[int]) -> frozenset[int]:
            seen = set(states)
            work = list(states)
            while work:
                s = work.pop()
                for t in nfa.eps[s]:
                    if t not in seen:
                        seen.add(t)
                        work.append(t)
            return frozenset(seen)

        start_set = closure(frozenset([start]))
        index = {start_set: 0}
        tables: list[list[tuple[int, int, int]]] = [[]]
        accepting = set()
        if start_set & accepts:
            accepting.add(0)
        work = deque([start_set])
        while work:
            cur = work.popleft()
            cur_id = index[cur]
            edges = []
            for s in cur:
                edges.extend(nfa.edges[s])
            rows = []
            for lo, hi in _atomic_intervals(edges):
                targets = set()
                for cs, dst in edges:
                    for elo, ehi in cs:
                        if elo <= lo and hi <= ehi:
                            targets.add(dst)
                            break
                if not targets:
                    continue
                tgt = closure(frozenset(targets))
                if tgt not in index:
                    index[tgt] = len(tables)
                    tables.append([])
                    if tgt & accepts:
                        accepting.add(index[tgt])
                    work.append(tgt)
                rows.append((lo, hi, index[tgt]))
            tables[cur_id] = _merge_rows(rows)
        return cls(len(tables), 0, accepting, tables)

    # -- transformations ----------------------------------------------------

    def minimized(self) -> "Dfa":
        live = self._coaccessible()
        if self.start not in live:
            return Dfa(1, 0, set(), [[]])
        # Moore partition refinement over full-range signatures.
        block = {s: (1 if s in self.accepting else 0) for s in live}
        while True:
            signatures = {}
            for s in live:
                rows = []
                prev = 0
                for lo, hi, dst in self.edges(s):
                    if dst not in live:
                        continue
                    if lo > prev:
                        rows.append((prev, lo - 1, -1))
                    rows.append((lo, hi, block[dst]))
                    prev = hi + 1
                if prev <= MAX_CP:
                    rows.append((prev, MAX_CP, -1))
                signatures[s] = (block[s], *_merge_rows(rows))
            new_ids = {}
            new_block = {}
            for s in sorted(live):
                key = signatures[s]
                if key not in new_ids:
                    new_ids[key] = len(new_ids)
                new_block[s] = new_ids[key]
            if len(set(new_block.values())) == len(set(block.values())):
                block = new_block
                break
            block = new_block
        # rebuild with BFS numbering from the start block
        rep_edges: dict[int, list[tuple[int, int, int]]] = {}
        block_accepting = set()
        for s in live:
            b = block[s]
            if b in rep_edges:
                continue
            rows = [(lo, hi, block[dst]) for lo, hi, dst in self.edges(s) if dst in live]
            rep_edges[b] = _merge_rows(rows)
            if s in self.accepting:
                block_accepting.add(b)
        order = {}
        queue = deque([block[self.start]])
        order[block[self.start]] = 0
        while queue:
            b = queue.popleft()
            for _, _, dst in rep_edges[b]:
                if dst not in order:
                    order[dst] = len(order)
                    queue.append(dst)
        tables = [[] for _ in order]
        accepting = set()
        for b, rows in rep_edges.items():
            if b not in order:
                continue
            tables[order[b]] = [(lo, hi, order[dst]) for lo, hi, dst in rows if dst in order]
            if b in block_accepting:
                accepting.add(order[b])
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
        # keep only states also reachable from start
        reach = {self.start}
        work = [self.start]
        while work:
            s = work.pop()
            for _, _, dst in self.edges(s):
                if dst not in reach:
                    reach.add(dst)
                    work.append(dst)
        return live & reach


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


def _atomic_intervals(edges):
    bounds = _boundaries(iv for cs, _ in edges for iv in cs)
    return [(bounds[i], bounds[i + 1] - 1) for i in range(len(bounds) - 1)]


# ---------------------------------------------------------------------------
# lazily determinized product

ASCII = 128


class _ProductState:
    """One product state: its component states (None where a component is
    dead), the accept and live bitmasks, and its transition rows.

    ``ascii`` holds the successor of each ASCII codepoint; ``wide`` is
    None until a codepoint above ASCII arrives, then the state's atomic
    intervals above ASCII (the merged boundaries of its components'
    intervals) as ``(los, successors)``.  A successor slot is None until a
    run first needs it.
    """

    __slots__ = ("comps", "accept", "live", "ascii", "wide")

    def __init__(self, comps, accept, live):
        self.comps = comps
        self.accept = accept
        self.live = live
        self.ascii = [None] * ASCII
        self.wide = None


class ProductDfa:
    """The product of minimized DFAs, determinized lazily.

    Bit ``i`` of a state's ``accept`` mask is set when component ``i``
    accepts there, and of its ``live`` mask when component ``i`` is not
    dead.  The components are minimized, so each of their states reaches
    acceptance and the live mask is exact.

    Nothing is built up front: a transition is computed the first time a
    run takes it.  Memory is bounded by the reachable product states and
    their rows (128 ASCII slots plus one slot per atomic interval above
    ASCII), never by the input.  The dense ASCII row spares ASCII text the
    bisect over intervals that every codepoint above ASCII takes; on the
    ASCII workloads of the benchmark, one interval row over the whole
    range ran measurably slower.  Runs read without locking; a miss takes
    the lock, and a successor is published only once its masks and rows
    exist, so concurrent runs are safe.
    """

    def __init__(self, dfas):
        self.dfas = tuple(dfas)
        self.states: dict[tuple, _ProductState] = {}
        self._lock = threading.Lock()
        self.start = self._state(tuple(d.start if d.accepting else None for d in self.dfas))

    def run(self, text: str, mask: int) -> _ProductState | None:
        """The state after ``text``, or None as soon as no component in
        ``mask`` is live."""
        s = self.start
        for ch in text:
            cp = ord(ch)
            if cp < ASCII:
                t = s.ascii[cp]
            else:
                wide = s.wide
                t = wide and wide[1][bisect_right(wide[0], cp) - 1]
            if t is None:
                t = self._miss(s, cp)
            s = t
            if not s.live & mask:
                return None
        return s

    def _miss(self, s: _ProductState, cp: int) -> _ProductState:
        with self._lock:
            if cp < ASCII:
                t = s.ascii[cp]
                if t is None:
                    t = s.ascii[cp] = self._successor(s, cp)
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


class ProductPredicate:
    """Membership in the union of the product components named by a mask.

    A run stops at the first character after which none of them is live.
    """

    __slots__ = ("_run", "mask")

    def __init__(self, product: ProductDfa, mask: int):
        self._run = product.run
        self.mask = mask

    def accepts(self, text: str) -> bool:
        s = self._run(text, self.mask)
        return s is not None and bool(s.accept & self.mask)
