"""Finitely presented groups: relator checking, coset enumeration, abelianization.

Abstract words are tuples of (generator name, sign) letters, relators are
stored fully expanded so scanning is a plain walk.  Text syntax:
``gens: a, b ; rels: a b a B A B`` -- capitalised first letter means the
inverse letter, relators are comma-separated.

Each builtin presentation is one row of ``_BUILTINS``: its alphabet (Artin
``s{i}`` or pure ``a{i}_{j}``, each with its letter table and own relators),
the relators it adds, and their letter count in closed form.  Each call makes
the letter table once; every relator is one flat tuple of its shared letters.

Coset tables have one column per letter, generator t at 2t and its inverse at
2t+1 (so ``c ^ 1`` is the inverse column); ``_columns`` is the one encoder and
rejects any letter but (generator, +1 or -1).  A Presentation encodes its
relators once, when it is built, as ``_rel_cols``, which the relator matrix
(its rows whose exponent sums cancel are one shared zero row), the enumeration
and the closing check read.  Coset enumeration is plain HLT
(scan-and-fill every relator from every live coset in creation order).  Each
relator is first walked from the coset in a plain loop that writes nothing and
stops at a gap; a walk that closes would have scanned without writing, so only
a walk that meets a gap or ends at another coset goes to scan-and-fill, from
the start, and the definitions, coincidences and coset numbers are HLT's.
Only the coincidence queue sees merged cosets: it moves a dead coset's edges
to its union-find representative, so every other reader takes live rows as
they stand.  Hitting the coset cap is a normal outcome reported in the table
status, not an error.  A complete table is returned only after a closing check
of the table: it holds coset 0, every entry is a coset index, column c^1
inverts column c, every relator closes from every coset, the subgroup words
fix coset 0.  The check transposes the rows once and walks every coset at once
by composing columns with operator.itemgetter.
Smith normal form is one re-pivoting loop over the nonzero rows held as
{column: entry}, in unbounded Python integers.  Its pick, least |value| on a
shortest row, takes the units of a sparse relator matrix first (Tietze
elimination of a generator); the invariant factors are unique, so any pivot
order gives the same answer.
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass, field
from itertools import chain
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .braids import _MAX_LETTERS, _delta_letters, pure_generator_order

Word = tuple[tuple[str, int], ...]

T = TypeVar("T")


class PresentationError(ValueError):
    """Malformed presentation, word, or enumeration input."""


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    _rel_cols: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("generator names must be distinct")
        for name in self.generators:
            if not name or not name[0].islower():
                raise PresentationError(
                    f"generator name {name!r} must start with a lowercase letter"
                )
        object.__setattr__(self, "_rel_cols", tuple(_columns(self.generators, self.relators)))


def _columns(generators: tuple[str, ...], words: tuple[Word, ...]) -> list[tuple[int, ...]]:
    """Each word as table columns: generator t is column 2t, its inverse 2t+1.

    Raises PresentationError on a letter that is not (generator, +1 or -1)."""
    index = {name: 2 * t for t, name in enumerate(generators)}
    offset = {1: 0, -1: 1}
    out = []
    for word in words:
        cols = []
        for letter in word:
            try:
                name, sign = letter
                cols.append(index[name] + offset[sign])
            except (KeyError, TypeError, ValueError):
                raise PresentationError(f"letter {letter!r} is not (generator, +1 or -1)") from None
        out.append(tuple(cols))
    return out


def inverse_word(w: Word) -> Word:
    return tuple((name, -sign) for name, sign in reversed(w))


def commutator_word(u: Word, v: Word) -> Word:
    return u + v + inverse_word(u) + inverse_word(v)


def parse_abstract_word(text: str, generators: tuple[str, ...]) -> Word:
    letters: list[tuple[str, int]] = []
    for token in text.split():
        if token in generators:
            letters.append((token, 1))
            continue
        lowered = token[0].lower() + token[1:] if token else token
        if lowered in generators and token[0].isupper():
            letters.append((lowered, -1))
            continue
        raise PresentationError(f"unknown letter {token!r}")
    return tuple(letters)


def format_abstract_word(w: Word) -> str:
    if not w:
        return "(empty)"
    return " ".join(name if sign > 0 else name[0].upper() + name[1:] for name, sign in w)


def parse_presentation(text: str) -> Presentation:
    parts = text.split(";")
    if len(parts) != 2:
        raise PresentationError("expected 'gens: ... ; rels: ...'")
    head, tail = parts[0].strip(), parts[1].strip()
    if not head.startswith("gens:") or not tail.startswith("rels:"):
        raise PresentationError("expected 'gens: ... ; rels: ...'")
    gens = tuple(g.strip() for g in head[len("gens:"):].split(",") if g.strip())
    rel_text = tail[len("rels:"):].strip()
    rels = tuple(
        parse_abstract_word(chunk, gens) for chunk in rel_text.split(",") if chunk.strip()
    )
    return Presentation(gens, rels)


def format_presentation(p: Presentation) -> str:
    gens = ", ".join(p.generators)
    rels = ", ".join(format_abstract_word(r) for r in p.relators)
    return f"gens: {gens} ; rels: {rels}"


# ---------------------------------------------------------------------------
# built-in presentations


def _artin_relators(k: int, pos: dict, neg: dict) -> Iterator[Word]:
    for x in range(1, k):
        a, A = pos[x], neg[x]
        for y in range(x + 1, k):
            b, B = pos[y], neg[y]
            yield (a, b, A, B) if y - x >= 2 else (a, b, a, B, A, B)


def _yang_baxter_relators(k: int, pos: dict, neg: dict) -> list[Word]:
    """Every triple relator (the three cyclic products a_ij a_ik a_jk agree),
    then for each i < j < kk < l the commutators [a_kl, a_ij], [a_il, a_jk],
    [a_jl, a_jk^-1 a_ik a_jk] and [a_jl, a_kl a_ik a_kl^-1]."""
    triples, quadruples = [], []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            ij, IJ = pos[i, j], neg[i, j]
            for kk in range(j + 1, k + 1):
                ik, jk, IK, JK = pos[i, kk], pos[j, kk], neg[i, kk], neg[j, kk]
                triples += (ij, ik, jk, IJ, JK, IK), (ik, jk, ij, IK, IJ, JK)
                for l in range(kk + 1, k + 1):
                    il, jl, kl = pos[i, l], pos[j, l], pos[kk, l]
                    IL, JL, KL = neg[i, l], neg[j, l], neg[kk, l]
                    quadruples += (
                        (kl, ij, KL, IJ), (il, jk, IL, JK),
                        (jl, JK, ik, jk, JL, JK, IK, jk), (jl, kl, ik, KL, JL, kl, IK, KL),
                    )
    return triples + quadruples


# An alphabet: its generators at size k as their letters (name, +1), keyed by
# index (i for s_i, (i, j) for a{i}_{j}) in generator order, the pure ones in
# the full twist's order; its own relators; and their letter count in closed
# form, 4 letters per commuting pair and 6 per braid relation of the Artin
# relators, 12 per triple and 24 per quadruple of the Yang-Baxter relators.
_Alphabet = namedtuple("_Alphabet", "generators relators letters")
_ARTIN = _Alphabet(lambda k: {i: (f"s{i}", 1) for i in range(1, k)},
                   _artin_relators, lambda k: 4 * comb(k - 1, 2) + 2 * (k - 2))
_PURE = _Alphabet(lambda k: {(g.i, g.j): (f"a{g.i}_{g.j}", 1) for g in pure_generator_order(k)},
                  _yang_baxter_relators, lambda k: 12 * comb(k, 3) + 24 * comb(k, 4))


@dataclass(frozen=True)
class _Builtin:
    alphabet: _Alphabet
    relators: Callable[[int, dict, dict], Iterable[Word]] = lambda k, pos, neg: ()  # added
    letters: Callable[[int], int] = lambda k: 0  # of the added relators, in closed form


_BUILTINS = {
    "artin": _Builtin(_ARTIN),
    "braid_mod_delta_sq": _Builtin(  # the half twist, twice
        _ARTIN, lambda k, pos, neg: [2 * tuple(pos[i] for i, _ in _delta_letters(k))],
        lambda k: k * (k - 1),
    ),
    "unordered_top": _Builtin(  # s_i^2 = s_(i+1)^2
        _ARTIN,
        lambda k, pos, neg: ((pos[i], pos[i], neg[i + 1], neg[i + 1]) for i in range(1, k - 1)),
        lambda k: 4 * (k - 2),
    ),
    "symmetric": _Builtin(  # s_i^2 = 1
        _ARTIN, lambda k, pos, neg: ((pos[i], pos[i]) for i in range(1, k)), lambda k: 2 * (k - 1)
    ),
    "pure_braid": _Builtin(_PURE),
    "pure_braid_mod_D": _Builtin(  # the full twist
        _PURE, lambda k, pos, neg: [tuple(pos.values())], lambda k: comb(k, 2)
    ),
}


def builtin_presentation(name: str, size: int) -> Presentation:
    """Named presentations; size is the strand count (artin, symmetric,
    pure_braid and their quotients) or the point count n+1 (unordered_top).

    The relators may hold at most braids._MAX_LETTERS letters in all; their
    count is known in closed form, so an oversized request raises
    PresentationError before any relator is generated (pure_braid allows
    size <= 32, artin size <= 708, symmetric size <= 707)."""
    if size < 2:
        raise PresentationError(f"{name} needs size >= 2, got {size}")
    row = _BUILTINS.get(name)
    if row is None:
        raise PresentationError(f"unknown presentation name {name!r}")
    alphabet = row.alphabet
    if alphabet.letters(size) + row.letters(size) > _MAX_LETTERS:
        raise PresentationError(f"{name}:{size} has over {_MAX_LETTERS} relator letters")
    pos = alphabet.generators(size)
    neg = {key: (g, -1) for key, (g, _) in pos.items()}  # every relator spells from pos and neg
    relators = (*alphabet.relators(size, pos, neg), *row.relators(size, pos, neg))
    return Presentation(tuple(g for g, _ in pos.values()), relators)


# ---------------------------------------------------------------------------
# homomorphism checking


@dataclass(frozen=True)
class HomReport:
    """Per-relator outcome of mapping a presentation into a target group."""

    results: tuple[tuple[str, bool], ...]

    @property
    def passes(self) -> bool:
        return all(ok for _, ok in self.results)

    def failed_relators(self) -> tuple[str, ...]:
        return tuple(rel for rel, ok in self.results if not ok)


def verify_homomorphism(
    source: Presentation,
    images: Mapping[str, T],
    *,
    multiply: Callable[[T, T], T],
    inverse: Callable[[T], T],
    identity: T,
    equals: Callable[[T, T], bool],
) -> HomReport:
    """Check that the generator images satisfy every relator of the source."""
    for name in source.generators:
        if name not in images:
            raise PresentationError(f"missing image for generator {name!r}")
    results = []
    for rel in source.relators:
        acc = identity
        for name, sign in rel:
            img = images[name]
            acc = multiply(acc, img if sign > 0 else inverse(img))
        results.append((format_abstract_word(rel), equals(acc, identity)))
    return HomReport(tuple(results))


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration (HLT)


@dataclass(frozen=True)
class CosetTable:
    presentation: Presentation
    subgroup: tuple[Word, ...]
    status: str  # "complete" | "capped"
    table: tuple[tuple[int | None, ...], ...]

    @property
    def num_cosets(self) -> int:
        return len(self.table)

    def trace(self, word: Word, start: int = 0) -> int | None:
        """Follow the word through the table; None if it runs off a gap.

        Raises PresentationError when the walk meets something that is not a
        coset index, or a row without one entry per column."""
        cur = start
        for c in _columns(self.presentation.generators, (word,))[0]:
            cur = self._row(cur)[c]
            if cur is None:
                return None
        self._row(cur)
        return cur

    def _row(self, x: object) -> tuple[int | None, ...]:
        if type(x) is not int or not 0 <= x < self.num_cosets:
            raise PresentationError(f"{x!r} is not a coset index of this table")
        if len(self.table[x]) != 2 * len(self.presentation.generators):
            raise PresentationError(f"row {x} does not have one entry per column")
        return self.table[x]

    def verify(self) -> bool:
        """Full consistency check: the table holds coset 0, every row holds
        one coset index per column, column c^1 inverts column c, every
        relator scans to closure from every coset, and the subgroup words fix
        coset 0."""
        rows = self.table
        cosets = tuple(range(self.num_cosets))
        width = 2 * len(self.presentation.generators)
        if (
            self.status != "complete"
            or not rows
            or any(len(row) != width for row in rows)
            or not {int}.issuperset(map(type, chain.from_iterable(rows)))
            or not set(cosets).issuperset(chain.from_iterable(rows))
        ):
            return False
        if len(rows) > 1:  # in one row every entry is 0, and every walk closes
            # step[c](ends) is x -> ends[column c at x]: composing the columns
            # of a word from its last letter walks it from every coset at once
            # (itemgetter of one index would return a scalar, not a tuple)
            columns = list(zip(*rows))
            step = [itemgetter(*column) for column in columns]
            if any(step[c](columns[c ^ 1]) != cosets for c in range(width)):
                return False
            for cols in self.presentation._rel_cols:
                ends = cosets
                for c in reversed(cols):
                    ends = step[c](ends)
                if ends != cosets:
                    return False
        return all(self.trace(w) == 0 for w in self.subgroup)


# Each definition first checks the coset table against this many entries,
# counting a row as its 2g entries plus 16 for its list, index and final
# renumbering: about 16 bytes an entry, so whatever max_cosets allows, an
# enumeration raises PresentationError before it can exhaust memory.  The
# default cap of 10**5 cosets fits up to 184 columns (pure_braid:12 has 132).
_MAX_TABLE_ENTRIES = 2 * 10**7


def todd_coxeter(
    p: Presentation, subgroup: tuple[Word, ...] = (), max_cosets: int = 10**5
) -> CosetTable:
    """HLT enumeration of the cosets of the given subgroup.

    If the table closes within max_cosets total definitions the status is
    "complete" and the coset count is the subgroup index; otherwise the status
    is "capped" and the table is the (compressed) partial table.  A table
    that would outgrow _MAX_TABLE_ENTRIES raises PresentationError.
    """
    if max_cosets < 1:
        raise PresentationError("max_cosets must be at least 1")
    g = len(p.generators)
    sub_cols = _columns(p.generators, subgroup)

    tab: list[list[int | None]] = [[None] * (2 * g)]
    parent = [0]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def define(a: int, c: int) -> bool:
        b = len(tab)
        if b >= max_cosets:
            return False  # at the cap: define nothing
        if (b + 1) * (2 * g + 16) > _MAX_TABLE_ENTRIES:
            raise PresentationError(
                f"coset table of {b + 1} cosets x {2 * g} columns is over the limit "
                f"of {_MAX_TABLE_ENTRIES} entries (16 per row for overhead)"
            )
        tab.append([None] * (2 * g))
        parent.append(b)
        tab[a][c] = b
        tab[b][c ^ 1] = a
        return True

    def coincidence(x: int, y: int) -> None:
        """Merge x and y and every pair that merge forces, the smaller index
        surviving.  Each dead coset's edges move to its representative or are
        queued, so live rows name only live cosets and columns stay inverse."""
        queue = deque([(x, y)])
        while queue:
            u, v = queue.popleft()
            u, v = find(u), find(v)
            if u == v:
                continue
            if v < u:
                u, v = v, u
            parent[v] = u
            for c in range(2 * g):
                z = tab[v][c]
                if z is None:
                    continue
                tab[z][c ^ 1] = None  # the back-pointer to v
                z = find(z)  # u when this is a loop edge at v
                if tab[u][c] is not None:
                    queue.append((tab[u][c], z))
                elif tab[z][c ^ 1] is not None:
                    queue.append((tab[z][c ^ 1], u))
                else:
                    tab[u][c] = z
                    tab[z][c ^ 1] = u

    def scan_and_fill(word_cols: tuple[int, ...], start: int) -> bool:
        """Scan the word from start back to start, defining cosets to bridge
        gaps; returns False when the definition cap is hit."""
        f = b = start
        fi, bi = 0, len(word_cols)
        while True:
            row = tab[f]
            while fi < bi and (x := row[word_cols[fi]]) is not None:
                f, row = x, tab[x]
                fi += 1
            row = tab[b]
            while bi > fi and (x := row[word_cols[bi - 1] ^ 1]) is not None:
                b, row = x, tab[x]
                bi -= 1
            if fi == bi:
                if f != b:
                    coincidence(f, b)
                return True
            if fi == bi - 1:  # both scans stopped at this one empty entry
                tab[f][word_cols[fi]] = b
                tab[b][word_cols[fi] ^ 1] = f
                return True
            if not define(f, word_cols[fi]):
                return False

    def enumerate_cosets() -> bool:
        """HLT to closure; False when the definition cap is hit."""
        for w in sub_cols:
            if not scan_and_fill(w, 0):
                return False
        i = 0
        while i < len(tab):
            if parent[i] == i:
                for rel in p._rel_cols:
                    f = i  # a walk that closes would scan without writing: skip it
                    for c in rel:
                        f = tab[f][c]
                        if f is None:
                            break
                    if f == i:
                        continue
                    if not scan_and_fill(rel, i):
                        return False
                    if parent[i] != i:
                        break
                else:  # i survived every relator: fill its row
                    for c in range(2 * g):
                        if tab[i][c] is None and not define(i, c):
                            return False
            i += 1
        return True

    capped = not enumerate_cosets()
    live = [x for x in range(len(tab)) if parent[x] == x]
    for t, x in enumerate(live):
        parent[x] = t  # live rows name only live cosets, renumbered here
    rows = []
    for x in live:
        row = tab[x]
        if None in row:
            rows.append(tuple(None if e is None else parent[e] for e in row))
        else:
            rows.append(tuple(map(parent.__getitem__, row)))
        tab[x] = None  # so the table and its copy are not both held
    result = CosetTable(p, tuple(subgroup), "capped" if capped else "complete", tuple(rows))
    if not capped and not result.verify():
        raise RuntimeError("coset table failed its closing consistency check")
    return result


# ---------------------------------------------------------------------------
# Smith normal form and abelianization


@dataclass(frozen=True)
class IntegerMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        distinct = {id(r): r for r in self.entries}.values()  # each shared row once
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in distinct):
            raise PresentationError("matrix dimensions do not match the entry grid")
        for x in chain.from_iterable(distinct):
            if type(x) is not int:
                raise PresentationError(f"matrix entry {x!r} is not an int")

    @staticmethod
    def from_rows(rows: list[list[int]], cols: int | None = None) -> IntegerMatrix:
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return IntegerMatrix(len(rows), cols, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class AbelianInvariants:
    """Isomorphism type Z^rank x Z/t1 x Z/t2 x ... with t1 | t2 | ..."""

    rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise PresentationError("rank must be nonnegative")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise PresentationError("torsion coefficients must form a divisibility chain")
        if any(t < 2 for t in self.torsion):
            raise PresentationError("torsion coefficients must be at least 2")

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append(f"Z^{self.rank}")
        parts += [f"Z/{t}" for t in self.torsion]
        return " x ".join(parts) if parts else "1"


def smith_normal_form(m: IntegerMatrix) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of the integer matrix.

    One re-pivoting loop over the nonzero rows, each held as {column: entry}
    (each distinct row object once: equal rows span the same lattice), in
    unbounded integers.  Pick an entry p of least |value|, on a shortest row,
    so the units of a sparse relator matrix go first (Tietze elimination;
    Havas-Holt-Rees 1993).  Reduce p's column in the other rows, touching only
    their nonzeros; then, with no other row in that column, reduce the pivot
    row's other entries mod p.  A remainder left is smaller than p, so put
    the row back and pick again.  If p does not divide some entry left, the
    pivot row becomes that entry's row plus p, whose remainder the next picks
    bring out.  Otherwise |p| is the next invariant factor, and its row and
    column go.
    """
    rows = [{j: x for j, x in enumerate(r) if x}
            for r in {id(r): r for r in m.entries}.values() if any(r)]
    invariants = []
    while rows:
        _, _, i, j = min((abs(x), len(r), i, j) for i, r in enumerate(rows) for j, x in r.items())
        top = rows.pop(i)
        p = top[j]
        hit = [r for r in rows if j in r]
        for row in hit:
            q = row[j] // p
            for c, y in top.items():
                if z := row.get(c, 0) - q * y:
                    row[c] = z
                else:
                    del row[c]
        rows = [r for r in rows if r]
        if any(j in r for r in hit):
            rows.append(top)
            continue
        for c in [c for c in top if c != j]:
            if y := top[c] % p:
                top[c] = y
            else:
                del top[c]
        if len(top) > 1:
            rows.append(top)
            continue
        # a unit divides every entry; otherwise find a row holding one p does not
        offender = abs(p) > 1 and next((r for r in rows for x in r.values() if x % p), None)
        if offender:
            rows.append({**offender, j: p})
            continue
        invariants.append(abs(p))
    return tuple(invariants)


def relator_matrix(p: Presentation) -> IntegerMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator;
    the relators whose exponent sums all cancel share one zero row."""
    g = len(p.generators)
    rows, zero = [], (0,) * g
    for cols in p._rel_cols:
        row = [0] * g
        for c in cols:
            row[c >> 1] += -1 if c & 1 else 1
        rows.append(tuple(row) if any(row) else zero)
    return IntegerMatrix(len(rows), g, tuple(rows))


def abelianization(p: Presentation) -> AbelianInvariants:
    invariants = smith_normal_form(relator_matrix(p))
    rank = len(p.generators) - len(invariants)
    return AbelianInvariants(rank, tuple(d for d in invariants if d != 1))
