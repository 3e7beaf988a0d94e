"""Finitely presented groups: relator checking, coset enumeration, abelianization.

Abstract words are tuples of (generator name, sign) letters, relators are
stored fully expanded so scanning is a plain walk.  Text syntax:
``gens: a, b ; rels: a b a B A B`` -- capitalised first letter means the
inverse letter, relators are comma-separated.

Coset enumeration is plain HLT (scan-and-fill every relator from every live
coset in creation order) with a union-find coincidence queue; hitting the
coset cap is a normal outcome reported in the table status, not an error.
Smith normal form works over unbounded Python integers with
minimal-absolute-value pivoting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
        known = set(self.generators)
        for rel in self.relators:
            for name, sign in rel:
                if name not in known:
                    raise PresentationError(f"relator letter {name!r} is not a generator")
                if sign not in (1, -1):
                    raise PresentationError("letter sign must be +1 or -1")


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
    def gen(i: int, j: int, s: int = 1) -> Word:
        return ((_pure_name(i, j), s),)

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


def _relators(name: str, k: int) -> Iterator[Word]:
    """The relators of a builtin presentation, generated one at a time."""
    if name in ("artin", "braid_mod_delta_sq", "unordered_top"):
        yield from _artin_relators(k)
    elif name in ("pure_braid", "pure_braid_mod_D"):
        yield from _yang_baxter_relators(k)
    else:
        raise PresentationError(f"unknown presentation name {name!r}")
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

    The relators may hold at most braids._MAX_LETTERS letters in all; the
    count is kept while they are generated, so an oversized request raises
    PresentationError before it is built (pure_braid allows size <= 32,
    artin size <= 708)."""
    if size < 2:
        raise PresentationError(f"{name} needs size >= 2, got {size}")
    rels: list[Word] = []
    letters = 0
    for rel in _relators(name, size):
        letters += len(rel)
        if letters > _MAX_LETTERS:
            raise PresentationError(
                f"{name}:{size} has over {_MAX_LETTERS} relator letters"
            )
        rels.append(rel)
    if name.startswith("pure"):
        gens = tuple(_pure_name(i, j) for i, j in _pure_names(size))
    else:
        gens = _artin_names(size)
    return Presentation(gens, tuple(rels))


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

    def _col(self, name: str, sign: int) -> int:
        idx = self.presentation.generators.index(name)
        return 2 * idx + (0 if sign > 0 else 1)

    def trace(self, word: Word, start: int = 0) -> int | None:
        """Follow the word through the table; None if it runs off a gap."""
        cur: int | None = start
        for name, sign in word:
            if cur is None:
                return None
            step = self.table[cur][self._col(name, sign)]
            cur = step
        return cur

    def verify(self) -> bool:
        """Full consistency check: the table is closed, every relator scans to
        closure from every coset, and the subgroup words fix coset 0."""
        if self.status != "complete":
            return False
        for row in self.table:
            if any(entry is None for entry in row):
                return False
        for c in range(self.num_cosets):
            for rel in self.presentation.relators:
                if self.trace(rel, c) != c:
                    return False
        return all(self.trace(w, 0) == 0 for w in self.subgroup)


def todd_coxeter(
    p: Presentation, subgroup: tuple[Word, ...] = (), max_cosets: int = 10**5
) -> CosetTable:
    """HLT enumeration of the cosets of the given subgroup.

    If the table closes within max_cosets total definitions the status is
    "complete" and the coset count is the subgroup index; otherwise the status
    is "capped" and the table is the (compressed) partial table.
    """
    if max_cosets < 1:
        raise PresentationError("max_cosets must be at least 1")
    gens = p.generators
    g = len(gens)
    idx = {name: t for t, name in enumerate(gens)}

    def cols(word: Word) -> tuple[int, ...]:
        return tuple(2 * idx[name] + (0 if sign > 0 else 1) for name, sign in word)

    rel_cols = [cols(r) for r in p.relators]
    sub_cols = [cols(w) for w in subgroup]

    tab: list[list[int | None]] = [[None] * (2 * g)]
    parent = [0]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def define(a: int, c: int) -> int:
        b = len(tab)
        tab.append([None] * (2 * g))
        parent.append(b)
        tab[a][c] = b
        tab[b][c ^ 1] = a
        return b

    def coincidence(x: int, y: int) -> None:
        queue = deque([(x, y)])
        while queue:
            u, v = queue.popleft()
            u, v = find(u), find(v)
            if u == v:
                continue
            if v < u:
                u, v = v, u
            parent[v] = u  # merge v into u; v's row is now stale
            for c in range(2 * g):
                raw = tab[v][c]
                if raw is None:
                    continue
                z = find(raw)
                if tab[u][c] is None:
                    tab[u][c] = z
                else:
                    zz = find(tab[u][c])
                    if zz != z:
                        queue.append((zz, z))
                back = tab[z][c ^ 1]
                if back is None:
                    tab[z][c ^ 1] = u
                else:
                    bb = find(back)
                    if bb == v:
                        tab[z][c ^ 1] = u
                    elif bb != u:
                        queue.append((bb, u))

    def set_edge(a: int, c: int, b: int) -> None:
        t = tab[a][c]
        if t is not None:
            tt = find(t)
            if tt != b:
                coincidence(tt, b)
            return
        tab[a][c] = b
        back = tab[b][c ^ 1]
        if back is None:
            tab[b][c ^ 1] = a
        elif find(back) != a:
            coincidence(find(back), a)

    def scan_and_fill(word_cols: tuple[int, ...], start: int) -> bool:
        """Scan the word from start back to start, defining cosets to bridge
        gaps; returns False when the definition cap is hit."""
        f = find(start)
        b = f
        fi, bi = 0, len(word_cols)
        while True:
            while fi < bi and tab[f][word_cols[fi]] is not None:
                f = find(tab[f][word_cols[fi]])
                fi += 1
            while bi > fi and tab[b][word_cols[bi - 1] ^ 1] is not None:
                b = find(tab[b][word_cols[bi - 1] ^ 1])
                bi -= 1
            if fi == bi:
                if f != b:
                    coincidence(f, b)
                return True
            if fi == bi - 1:
                set_edge(f, word_cols[fi], b)
                return True
            if len(tab) >= max_cosets:
                return False
            define(f, word_cols[fi])

    capped = False
    for w in sub_cols:
        if not scan_and_fill(w, 0):
            capped = True
            break
    if not capped:
        i = 0
        while i < len(tab):
            if find(i) != i:
                i += 1
                continue
            dead = False
            for rel in rel_cols:
                if not scan_and_fill(rel, i):
                    capped = True
                    break
                if find(i) != i:
                    dead = True
                    break
            if capped:
                break
            if not dead:
                for c in range(2 * g):
                    if tab[i][c] is None:
                        if len(tab) >= max_cosets:
                            capped = True
                            break
                        define(i, c)
                if capped:
                    break
            i += 1

    live = [x for x in range(len(tab)) if find(x) == x]
    renum = {x: t for t, x in enumerate(live)}
    rows = []
    for x in live:
        row = tuple(
            renum[find(entry)] if entry is not None else None for entry in tab[x]
        )
        rows.append(row)
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

    Minimal-absolute-value pivoting with Euclidean row/column elimination over
    unbounded integers; a final pass per pivot enforces that it divides the
    remaining submatrix.
    """
    a = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    invariants: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        piv = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, piv = v, (i, j)
        if piv is None:
            break
        pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            swapped = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, ncols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:  # remainder beats the pivot
                        a[t], a[i] = a[i], a[t]
                        swapped = True
                        break
            if swapped:
                continue
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, nrows):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        swapped = True
                        break
            if swapped:
                continue
            offender = None
            for i in range(t + 1, nrows):
                if any(a[i][j] % a[t][t] for j in range(t + 1, ncols)):
                    offender = i
                    break
            if offender is None:
                break
            for j in range(t, ncols):
                a[t][j] += a[offender][j]
        if a[t][t] < 0:
            for j in range(t, ncols):
                a[t][j] = -a[t][j]
        invariants.append(a[t][t])
        t += 1
    return tuple(invariants)


def relator_matrix(p: Presentation) -> IntegerMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    rows = []
    for rel in p.relators:
        row = [0] * len(p.generators)
        for name, sign in rel:
            row[p.generators.index(name)] += sign
        rows.append(row)
    return IntegerMatrix.from_rows(rows, cols=len(p.generators))


def abelianization(p: Presentation) -> AbelianInvariants:
    invariants = smith_normal_form(relator_matrix(p))
    rank = len(p.generators) - len(invariants)
    return AbelianInvariants(rank, tuple(d for d in invariants if d != 1))
