"""Finitely presented groups: relator checking, coset enumeration, abelianization.

Abstract words are tuples of (generator name, sign) letters, relators are
stored fully expanded so scanning is a plain walk.  Text syntax:
``gens: a, b ; rels: a b a B A B`` -- capitalised first letter means the
inverse letter, relators are comma-separated.

Coset tables have one column per letter, generator t at 2t and its inverse at
2t+1 (so ``c ^ 1`` is the inverse column); ``_columns`` is the one encoder and
rejects any letter but (generator, +1 or -1).  Coset enumeration is plain HLT
(scan-and-fill every relator from every live coset in creation order).  Only
the coincidence queue sees merged cosets: it moves a dead coset's edges to its
union-find representative, so every other reader takes live rows as they
stand.  Hitting the coset cap is a normal outcome reported in the table
status, not an error.  A complete table is returned only after a closing check
walks its rows: every entry is a coset index, column c^1 inverts column c,
every relator closes from every coset, the subgroup words fix coset 0.
Smith normal form is one re-pivoting loop over unbounded Python integers:
the invariant factors are unique, so any pivot order gives the same answer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from math import comb
from typing import Callable, Iterator, Mapping, TypeVar

from .braids import _MAX_LETTERS

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

    def __post_init__(self) -> None:
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("generator names must be distinct")
        for name in self.generators:
            if not name or not name[0].islower():
                raise PresentationError(
                    f"generator name {name!r} must start with a lowercase letter"
                )
        _columns(self.generators, self.relators)


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


def _artin_names(k: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(1, k))


def _pure_names(k: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(2, k + 1) for i in range(1, j)]


def _pure_name(i: int, j: int) -> str:
    return f"a{i}_{j}"


def _artin_relators(k: int) -> Iterator[Word]:
    for x in range(1, k):
        for y in range(x + 1, k):
            a, b = f"s{x}", f"s{y}"
            if y - x >= 2:
                yield commutator_word(((a, 1),), ((b, 1),))
            else:
                yield ((a, 1), (b, 1), (a, 1), (b, -1), (a, -1), (b, -1))


def _yang_baxter_relators(k: int) -> Iterator[Word]:
    def gen(i: int, j: int) -> Word:
        return ((_pure_name(i, j), 1),)

    # triple relators: the three cyclic products a_ij a_ik a_jk agree
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            for kk in range(j + 1, k + 1):
                p1 = gen(i, j) + gen(i, kk) + gen(j, kk)
                p2 = gen(i, kk) + gen(j, kk) + gen(i, j)
                p3 = gen(j, kk) + gen(i, j) + gen(i, kk)
                yield p1 + inverse_word(p2)
                yield p2 + inverse_word(p3)
    # quadruple relators: four commutators per i < j < kk < l
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            for kk in range(j + 1, k + 1):
                for l in range(kk + 1, k + 1):
                    a_kl, a_ij = gen(kk, l), gen(i, j)
                    a_il, a_jk = gen(i, l), gen(j, kk)
                    a_jl = gen(j, l)
                    a_ik = gen(i, kk)
                    yield commutator_word(a_kl, a_ij)
                    yield commutator_word(a_il, a_jk)
                    yield commutator_word(a_jl, inverse_word(a_jk) + a_ik + a_jk)
                    yield commutator_word(a_jl, a_kl + a_ik + inverse_word(a_kl))


def _relator_letters(name: str, k: int) -> int:
    """The letter count of _relators(name, k), in closed form: 4 letters per
    commuting pair and 6 per braid relation of the Artin relators, 12 per
    triple and 24 per quadruple of the Yang-Baxter relators, then the extra
    relators of the quotients."""
    artin = 4 * comb(k - 1, 2) + 2 * (k - 2)
    pure = 12 * comb(k, 3) + 24 * comb(k, 4)
    counts = {
        "artin": artin,
        "braid_mod_delta_sq": artin + k * (k - 1),
        "unordered_top": artin + 4 * (k - 2),
        "pure_braid": pure,
        "pure_braid_mod_D": pure + comb(k, 2),
    }
    if name not in counts:
        raise PresentationError(f"unknown presentation name {name!r}")
    return counts[name]


def _relators(name: str, k: int) -> Iterator[Word]:
    """The relators of a builtin presentation (a name _relator_letters
    accepts), generated one at a time."""
    if name in ("artin", "braid_mod_delta_sq", "unordered_top"):
        yield from _artin_relators(k)
    else:
        yield from _yang_baxter_relators(k)
    if name == "pure_braid_mod_D":  # the full twist
        yield tuple((_pure_name(i, j), 1) for i, j in _pure_names(k))
    if name == "braid_mod_delta_sq":  # the staircase Delta, twice
        yield 2 * tuple((f"s{i}", 1) for top in range(1, k) for i in range(top, 0, -1))
    if name == "unordered_top":  # s_i^2 = s_(i+1)^2
        for i in range(1, k - 1):
            yield ((f"s{i}", 1), (f"s{i}", 1), (f"s{i + 1}", -1), (f"s{i + 1}", -1))


def builtin_presentation(name: str, size: int) -> Presentation:
    """Named presentations; size is the strand count (artin, pure_braid and
    their quotients) or the point count n+1 (unordered_top).

    The relators may hold at most braids._MAX_LETTERS letters in all; their
    count is known in closed form, so an oversized request raises
    PresentationError before any relator is generated (pure_braid allows
    size <= 32, artin size <= 708)."""
    if size < 2:
        raise PresentationError(f"{name} needs size >= 2, got {size}")
    if _relator_letters(name, size) > _MAX_LETTERS:
        raise PresentationError(f"{name}:{size} has over {_MAX_LETTERS} relator letters")
    if name.startswith("pure"):
        gens = tuple(_pure_name(i, j) for i, j in _pure_names(size))
    else:
        gens = _artin_names(size)
    return Presentation(gens, tuple(_relators(name, size)))


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
        """Full consistency check: every row holds one coset index per column,
        column c^1 inverts column c, every relator scans to closure from
        every coset, and the subgroup words fix coset 0."""
        rows = self.table
        cosets = list(range(self.num_cosets))
        width = 2 * len(self.presentation.generators)
        if (
            self.status != "complete"
            or any(len(row) != width for row in rows)
            or not {int}.issuperset(map(type, chain.from_iterable(rows)))
            or not set(cosets).issuperset(chain.from_iterable(rows))
            or any([rows[rows[x][c]][c ^ 1] for x in cosets] != cosets for c in range(width))
        ):
            return False
        for cols in _columns(self.presentation.generators, self.presentation.relators):
            ends = cosets  # walk every coset at once, one column per letter
            for c in cols:
                ends = [rows[x][c] for x in ends]
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
    rel_cols = _columns(p.generators, p.relators)
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
            while fi < bi and tab[f][word_cols[fi]] is not None:
                f = tab[f][word_cols[fi]]
                fi += 1
            while bi > fi and tab[b][word_cols[bi - 1] ^ 1] is not None:
                b = tab[b][word_cols[bi - 1] ^ 1]
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
                for rel in rel_cols:
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
        rows.append(tuple(None if e is None else parent[e] for e in tab[x]))
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
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise PresentationError("matrix dimensions do not match the entry grid")

    @staticmethod
    def from_rows(rows: list[list[int]], cols: int | None = None) -> IntegerMatrix:
        if rows:
            cols = len(rows[0])
        elif cols is None:
            cols = 0
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

    One re-pivoting loop over the nonzero rows, in unbounded integers: move
    an entry of least |value| to the pivot (0, 0) and reduce the pivot's
    column and row by it.  A remainder left is smaller than the pivot, so
    pick again; if the pivot does not divide a later row, add that row to
    the pivot row, whose remainder the next pick then brings out.  Otherwise
    the pivot is the next invariant factor and its row and column go.
    """
    a = [list(row) for row in m.entries if any(row)]
    invariants: list[int] = []
    while a:
        _, i, j = min((abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        top, p = a[0], a[0][0]
        for row in a[1:]:
            q = row[0] // p
            row[:] = [x - q * y for x, y in zip(row, top)]
        for c in range(1, len(top)):
            q = top[c] // p
            for row in a:
                row[c] -= q * row[0]
        if any(top[1:]) or any(row[0] for row in a[1:]):
            continue
        offender = next((row for row in a[1:] if any(x % p for x in row)), None)
        if offender is not None:
            top[:] = [x + y for x, y in zip(top, offender)]
            continue
        invariants.append(abs(p))
        a = [row[1:] for row in a[1:] if any(row[1:])]
    return tuple(invariants)


def relator_matrix(p: Presentation) -> IntegerMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    rows = []
    for cols in _columns(p.generators, p.relators):
        row = [0] * len(p.generators)
        for c in cols:
            row[c >> 1] += -1 if c & 1 else 1
        rows.append(row)
    return IntegerMatrix.from_rows(rows, cols=len(p.generators))


def abelianization(p: Presentation) -> AbelianInvariants:
    invariants = smith_normal_form(relator_matrix(p))
    rank = len(p.generators) - len(invariants)
    return AbelianInvariants(rank, tuple(d for d in invariants if d != 1))
