"""Facts the benchmark checks answers against, computed without confgroups.

Nothing here imports the package under test.  Braid words are lists of
(index, sign) letters on ``k`` strands; permutations are 0-indexed tuples
composed left to right, the convention of the package's text output: the
image of ``u v`` is the image of ``u`` followed by the image of ``v``.

The Artin action of B_k on the free group F_k is faithful, so two braid
words are equal exactly when they act identically.  The benchmark uses it
to prove its relators and the braids read off loops; it is never run on the
long random words, whose images grow exponentially.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# permutations


def identity(k: int) -> tuple[int, ...]:
    return tuple(range(k))


def reversal(k: int) -> tuple[int, ...]:
    return tuple(range(k - 1, -1, -1))


def swap(k: int, a: int, b: int) -> tuple[int, ...]:
    p = list(range(k))
    p[a], p[b] = p[b], p[a]
    return tuple(p)


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a followed by b."""
    return tuple(b[x] for x in a)


def inversions(p: tuple[int, ...]) -> int:
    return sum(1 for x in range(len(p)) for y in range(x + 1, len(p)) if p[x] > p[y])


def perm_image(letters, k: int) -> tuple[int, ...]:
    """Permutation image of a braid word; s_i swaps positions i-1 and i."""
    p = identity(k)
    for i, _ in letters:
        p = compose(p, swap(k, i - 1, i))
    return p


def star_image(letters, size: int) -> tuple[int, ...]:
    """Image under the top unordered case's geometric generators: s_i swaps 0 and i."""
    p = identity(size)
    for i, _ in letters:
        p = compose(p, swap(size, 0, i))
    return p


def exponent_sum(letters) -> int:
    return sum(s for _, s in letters)


# ---------------------------------------------------------------------------
# braid words of named elements, spelled as the package's text syntax defines them


def staircase(k: int) -> list[tuple[int, int]]:
    """Delta_k = (s1)(s2 s1)...(s(k-1) ... s1)."""
    return [(i, 1) for top in range(1, k) for i in range(top, 0, -1)]


def pure_letters(i: int, j: int) -> list[tuple[int, int]]:
    """a[i,j] = s(j-1) ... s(i+1) s_i^2 s(i+1)^-1 ... s(j-1)^-1."""
    return (
        [(t, 1) for t in range(j - 1, i, -1)]
        + [(i, 1), (i, 1)]
        + [(t, -1) for t in range(i + 1, j)]
    )


def inverse(letters) -> list[tuple[int, int]]:
    return [(i, -s) for i, s in reversed(letters)]


def power(letters, e: int) -> list[tuple[int, int]]:
    return list(letters) * e if e >= 0 else inverse(letters) * -e


# ---------------------------------------------------------------------------
# the Artin action on the free group


def _reduce_into(out: list[int], word) -> None:
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)


def _product(*words) -> tuple[int, ...]:
    out: list[int] = []
    for w in words:
        _reduce_into(out, w)
    return tuple(out)


def _inv(w) -> tuple[int, ...]:
    return tuple(-x for x in reversed(w))


def artin_action(letters, k: int) -> tuple[tuple[int, ...], ...]:
    """Images of the free generators x_1..x_k under the braid word.

    s_i sends x_i to x_i x_(i+1) x_i^-1 and x_(i+1) to x_i; s_i^-1 is its
    inverse.  Images are freely reduced words of signed generator numbers.
    """
    img = [(j,) for j in range(1, k + 1)]
    for i, s in letters:
        a, b = img[i - 1], img[i]
        if s > 0:
            img[i - 1], img[i] = _product(a, b, _inv(a)), a
        else:
            img[i - 1], img[i] = b, _product(_inv(b), a, b)
    return tuple(img)


def braids_equal(u, v, k: int) -> bool:
    return artin_action(u, k) == artin_action(v, k)


# ---------------------------------------------------------------------------
# closed forms


def pure_braid_relator_count(k: int) -> int:
    """Relators of the builtin PB_k presentation: two per triple, four per quadruple."""
    return 2 * math.comb(k, 3) + 4 * math.comb(k, 4)


def abelianization(family: str, k: int) -> tuple[int, tuple[int, ...]]:
    """(rank, torsion) of each builtin family's abelianization."""
    if family in ("artin", "unordered_top"):
        return 1, ()
    if family == "braid_mod_delta_sq":
        return 0, (k * (k - 1),)
    if family == "pure_braid":
        return math.comb(k, 2), ()
    if family == "pure_braid_mod_D":
        return math.comb(k, 2) - 1, ()
    raise ValueError(f"no closed form for {family!r}")
