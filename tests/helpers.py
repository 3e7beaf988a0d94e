"""Shared test oracles and random-case generators.

Everything in this file is deliberately independent of the package's own
normal-form / linear-algebra code paths: brute-force rewriting closure for
positive braid words, gcd-of-minors invariant factors, an unwrap-based winding
count, and a tiny standalone permutation calculus.  The package is tested
against these, never the other way around.  The letter-at-a-time pair
renormalisation and reduced words, the earlier normal-form pipeline (a
reversed pass for negative letters, then one-letter-per-factor combing that
walks every half twist to the front) and the frame-by-frame loop functions
are the references for the package's Garside kernel, its one-pass normal
form and batched loop layer; the word readers that parsed every occurrence
of a token afresh are the references for those that read each distinct
token once; the name-based coset table walk is the reference for the
column-based closing check.  The last two sections keep
four earlier package paths as references for their replacements:
word-problem equality by one normal form of u v^-1, the three-phase Smith
normal form, the Todd-Coxeter enumerator whose table readers resolved merged
cosets with find, and the braid reader that decided crossings in floats
under rounding bounds, with Fractions behind them.  The builtin relator
generators that spelled every letter afresh, and an exponent-sum matrix read
by generator name, are the references for the shared-letter relators and the
column-encoded relator matrix.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import groupby

import numpy as np

# ---------------------------------------------------------------------------
# positive-word equality in B_k by exhaustive relation-rewriting closure


def rewrite_neighbours(word: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """All words obtained from one substring rewrite by a defining relation."""
    out = []
    for p in range(len(word) - 1):
        a, b = word[p], word[p + 1]
        if abs(a - b) >= 2:
            out.append(word[:p] + (b, a) + word[p + 2 :])
    for p in range(len(word) - 2):
        a, b, c = word[p], word[p + 1], word[p + 2]
        if a == c and abs(a - b) == 1:
            out.append(word[:p] + (b, a, b) + word[p + 3 :])
    return out


def closure_class(word: tuple[int, ...], k: int, cap: int = 200_000) -> frozenset:
    """The set of positive words reachable by relation rewrites (B_k monoid class)."""
    seen = {word}
    queue = [word]
    while queue:
        w = queue.pop()
        for v in rewrite_neighbours(w, k):
            if v not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("rewriting closure exceeded cap")
                seen.add(v)
                queue.append(v)
    return frozenset(seen)


def positive_words_equal(u: tuple[int, ...], v: tuple[int, ...], k: int) -> bool:
    """Equality of positive words in B_k (positive words are equal in the group
    iff connected by positive relation rewrites)."""
    if len(u) != len(v):
        return False
    return v in closure_class(u, k)


# ---------------------------------------------------------------------------
# integer determinant and gcd-of-minors invariant factors


def det_int(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det_int(minor)
        total += -term if j % 2 else term
    return total


def minor_gcd_invariants(rows: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... via determinantal divisors:
    d_i = D_i / D_{i-1} with D_i = gcd of all i x i minors."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    divisors = [1]
    for size in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), size):
            for ci in itertools.combinations(range(n), size):
                sub = [[rows[r][c] for c in ci] for r in ri]
                g = math.gcd(g, det_int(sub))
        if g == 0:
            break
        divisors.append(g)
    return tuple(divisors[i] // divisors[i - 1] for i in range(1, len(divisors)))


# ---------------------------------------------------------------------------
# winding count by numpy's phase unwrapping (independent of the package's
# incremental-argument implementation)


def unwrap_winding(values: np.ndarray) -> int:
    angles = np.unwrap(np.angle(np.asarray(values)))
    turns = (angles[-1] - angles[0]) / (2 * np.pi)
    assert abs(turns - round(turns)) < 1e-6
    return int(round(turns))


# 3 points in C^2 over 4 integer frames: the determinant of the piecewise-
# linear loop winds once, while the frame determinants alone turn by less
# than pi/2 a step, so a reader that trusts their increments reads 0
COARSE_WINDING_LOOP = {"k": 3, "n": 2, "frames": [
    [[[0, 0], [0, 0]], [[0, 2], [1, 0]], [[-3, 5], [-2, -1]]],
    [[[0, 0], [0, 0]], [[3, -3], [2, 3]], [[-1, -2], [3, 1]]],
    [[[0, 0], [0, 0]], [[-1, -1], [-6, -1]], [[5, -1], [3, 2]]],
    [[[0, 0], [0, 0]], [[0, 2], [1, 0]], [[-3, 5], [-2, -1]]],
]}


# ---------------------------------------------------------------------------
# standalone permutation calculus (one-line tuples on 0..size-1, words act
# left to right: (a then b)(x) = b(a(x)))


def perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(b[x] for x in a)


def perm_transposition(size: int, x: int, y: int) -> tuple[int, ...]:
    images = list(range(size))
    images[x], images[y] = images[y], images[x]
    return tuple(images)


def perm_of_letters(size: int, swaps: list[tuple[int, int]]) -> tuple[int, ...]:
    p = tuple(range(size))
    for x, y in swaps:
        p = perm_compose(p, perm_transposition(size, x, y))
    return p


# ---------------------------------------------------------------------------
# random words and relator insertion: braid letters are (index, sign) pairs,
# group words are spelled over the descriptor's own alphabet


def random_letters(rng: random.Random, k: int, length: int) -> list[tuple[int, int]]:
    return [(rng.randint(1, k - 1), rng.choice((1, -1))) for _ in range(length)]


def braid_relator_letters(k: int, rng: random.Random) -> list[tuple[int, int]]:
    """A defining relator of B_k spelled as a word equal to the identity."""
    kind = rng.randrange(3)
    if kind == 0 or k < 3:  # free cancellation (the only relator type in B_2)
        i = rng.randint(1, k - 1)
        s = rng.choice((1, -1))
        return [(i, s), (i, -s)]
    if kind == 1 or k < 4:  # braid relation
        i = rng.randint(1, k - 2)
        j = i + 1
        return [(i, 1), (j, 1), (i, 1), (j, -1), (i, -1), (j, -1)]
    # commuting relation
    i = rng.randint(1, k - 3)
    j = rng.randint(i + 2, k - 1)
    return [(i, 1), (j, 1), (i, -1), (j, -1)]


def insert_relator(
    letters: list[tuple[int, int]], k: int, rng: random.Random
) -> list[tuple[int, int]]:
    pos = rng.randint(0, len(letters))
    rel = braid_relator_letters(k, rng)
    if rng.random() < 0.5:
        rel = [(i, -s) for i, s in reversed(rel)]
    return letters[:pos] + rel + letters[pos:]


def random_group_word(d, rng: random.Random, length: int):
    """A random word over the descriptor's own alphabet: an exponent for the
    integers, None for the trivial group, (PureGeneratorId, sign) letters for
    the pure tags and a BraidWord for the rest."""
    from confgroups.braids import BraidWord, PureGeneratorId

    if d.tag == "integers":
        return rng.randint(-5, 5)
    if d.tag == "trivial":
        return None
    k = d.parameter
    if d.tag in ("pure_braid", "pure_braid_mod_D"):
        pairs = [(i, j) for j in range(2, k + 1) for i in range(1, j)]
        return tuple(
            (PureGeneratorId(*rng.choice(pairs), k), rng.choice((1, -1)))
            for _ in range(length)
        )
    return BraidWord(k, tuple(random_letters(rng, k, length)))


def insert_group_relator(d, w, rng: random.Random):
    """w with one of the descriptor's relators, or its inverse, inserted at a
    random spot; the integers' relator 0 is added to the exponent."""
    from confgroups.braids import BraidWord
    from confgroups.groups import descriptor_relators

    rels = descriptor_relators(d)
    if d.tag == "integers":
        return w + rng.choice(rels)
    rel = rng.choice(rels)
    if isinstance(w, BraidWord):
        cut = rng.randrange(len(w.letters) + 1)
        body = rel.letters if rng.random() < 0.5 else tuple(
            (i, -s) for i, s in reversed(rel.letters)
        )
        return BraidWord(w.strands, w.letters[:cut] + body + w.letters[cut:])
    cut = rng.randrange(len(w) + 1)
    body = rel if rng.random() < 0.5 else tuple((g, -s) for g, s in reversed(rel))
    return w[:cut] + body + w[cut:]


# ---------------------------------------------------------------------------
# the word-text readers as they were when every occurrence was read afresh:
# each token, and each pure generator's image, is parsed and expanded again
# wherever it appears, and BraidWord's letter check visits every letter.  The
# package reads each distinct token once per call and must agree exactly, in
# letters and in the type and text of the first error.


def reference_parse_word(text: str, strands: int, *, allow_compound: bool = True):
    """Parse braid-word text; a[i,j] and delta tokens expand to their words."""
    from confgroups.braids import BraidWord, _parse_token, _power_letters

    letters: list[tuple[int, int]] = []
    for token in text.split():
        base, exp = _parse_token(token, strands, allow_compound)
        letters += _power_letters(base, exp, len(letters))
    return BraidWord(strands, tuple(letters))


def reference_parse_pure_word(text: str, strands: int):
    """Parse a word over the pure-braid alphabet only: "a[1,2] a[1,3]^-1"."""
    from confgroups.braids import BraidError, _check_letter_budget, _read_token

    letters = []
    for token in text.split():
        _, exp, gen = _read_token(token, strands)
        if gen is None:
            raise BraidError(f"token {token!r} is not a pure-braid generator")
        sign = 1 if exp > 0 else -1
        _check_letter_budget(len(letters) + abs(exp))
        letters += [(gen, sign)] * abs(exp)
    return tuple(letters)


def reference_pure_word_to_braid(strands: int, letters):
    """Translate a word in pure-braid generators ((PureGeneratorId, sign) pairs)
    into the corresponding braid word."""
    from confgroups.braids import (
        BraidError,
        BraidWord,
        PureGeneratorId,
        _check_letter_budget,
        _inverse_letters,
        pure_generator,
    )

    out: list[tuple[int, int]] = []
    for letter in letters:
        try:
            gen, sign = letter
        except (TypeError, ValueError):
            raise BraidError(f"letter {letter!r} is not a (pure-braid generator, sign) pair") from None
        if not isinstance(gen, PureGeneratorId):
            raise BraidError(f"not a pure-braid generator: {gen!r}")
        if sign not in (1, -1):
            raise BraidError(f"letter sign must be +1 or -1, got {sign}")
        if gen.strands != strands:
            raise BraidError("pure generator strand count mismatch")
        image = pure_generator(gen).letters
        _check_letter_budget(len(out) + len(image))
        out += image if sign > 0 else _inverse_letters(image)
    return BraidWord(strands, tuple(out))


def reference_check_letters(strands: int, letters) -> None:
    """BraidWord's letter check, one letter after another."""
    from confgroups.braids import BraidError

    for letter in letters:
        try:
            i, s = letter
        except (TypeError, ValueError):
            raise BraidError(f"letter {letter!r} is not an (index, sign) pair") from None
        if type(i) is not int or type(s) is not int:
            raise BraidError(f"letter {letter!r} is not a pair of ints")
        if not 1 <= i <= strands - 1:
            raise BraidError(f"generator index {i} out of range for {strands} strands")
        if s not in (1, -1):
            raise BraidError(f"letter sign must be +1 or -1, got {s}")


# ---------------------------------------------------------------------------
# references for the Garside kernel.  reference_renorm and reference_word_of
# work on 0-indexed permutation tuples (the kernel on 1-based images, so the
# tests shift their inputs); they move one letter at a time by
# composing with adjacent transpositions, the letter-at-a-time kernel that
# confgroups.braids._renorm and _reduced_word replace; they must agree exactly.


def _starts(p: tuple[int, ...]) -> list[int]:
    """The i such that s(i+1) starts A(p): p[i] > p[i+1]."""
    return [i for i in range(len(p) - 1) if p[i] > p[i + 1]]


def _finishes(p: tuple[int, ...]) -> list[int]:
    """The i such that s(i+1) finishes A(p): the starts of p^-1."""
    inv = [0] * len(p)
    for x, v in enumerate(p):
        inv[v] = x
    return _starts(tuple(inv))


def reference_renorm(p: tuple[int, ...], q: tuple[int, ...]):
    """Left-weight A(p)A(q): move the lowest letter that starts q and does
    not finish p from q into p until none is left."""
    while True:
        free = [i for i in _starts(q) if i not in _finishes(p)]
        if not free:
            return p, q
        s = perm_transposition(len(p), free[0], free[0] + 1)
        p, q = perm_compose(p, s), perm_compose(s, q)


def reference_word_of(p: tuple[int, ...]) -> list[int]:
    """A reduced word for A(p) (1-indexed letters), peeling the lowest
    starting letter until the identity is left."""
    out = []
    while _starts(p):
        i = _starts(p)[0]
        out.append(i + 1)
        p = perm_compose(perm_transposition(len(p), i, i + 1), p)
    return out


# reference combing: one raw factor per letter, each appended to the combed
# prefix and combed back until a pair stays put, so every half twist the
# combing fills is walked through the prefix to the front.  Identity factors,
# which cancelled letters leave only at the end of a left-weighted prefix, are
# dropped before the next factor is appended: the left-weighted form of
# (1, q) is (q, 1), so combing through them only moves them behind it.
# reference_garside_normal_form puts it behind the earlier reversed pass for
# negative letters; the package's garside_normal_form must agree with that
# pipeline exactly.  Both comb with the package's pair renormalisation.


def reference_normalise(factors, k):
    from confgroups.braids import _renorm

    identity, half_twist = tuple(range(1, k + 1)), tuple(range(k, 0, -1))
    fs = []
    for f in factors:
        while fs and fs[-1] == identity:
            fs.pop()
        fs.append(f)
        for j in range(len(fs) - 2, -1, -1):
            p, q = _renorm(fs[j], fs[j + 1])
            if p == fs[j]:
                break
            fs[j], fs[j + 1] = p, q
    lead = 0
    while lead < len(fs) and fs[lead] == half_twist:
        lead += 1
    tail = len(fs)
    while tail > lead and fs[tail - 1] == identity:
        tail -= 1
    return lead, fs[lead:tail]


def reference_garside_normal_form(word):
    """The Garside form by the earlier pipeline: a reversed pass rewrites each
    s_i^-1 as Delta^-1 times its complement (s_i reversed) and moves the
    Delta^-1 to the front, reading the letters it passes through tau (s_i as
    s_(k-i)); reference_normalise combs the factors, one per letter."""
    from confgroups.braids import GarsideForm, Permutation

    k, letters, power = word.strands, [], 0
    for i, s in reversed(word.letters):
        letters.append((k - i if power & 1 else i, s))
        if s < 0:
            power -= 1
    swap = {i: tuple(v + 1 for v in perm_transposition(k, i - 1, i)) for i in range(1, k)}
    lead, fs = reference_normalise([swap[i][::s] for i, s in reversed(letters)], k)
    return GarsideForm(k, power + lead, tuple(Permutation(k, f) for f in fs))


# ---------------------------------------------------------------------------
# frame-by-frame references for the batched loop layer: the per-frame code
# that confgroups.loops runs as array operations over the frame axis.  They
# reuse the package's line projection, which the batching leaves unchanged,
# and must agree with the package exactly.  The braid reader below is the
# earlier float reader, kept whole as the reference for the exact one: it
# nudged frames off real-part ties, bisected mixed-sign steps and cut
# simultaneous crossings into one-sign blocks.

_TIE_MARGIN, _SPAN_TOL, _DET_FLOOR = 1e-9, 1e-8, 1e-12
_BISECT_SPLITS = (0.5, 0.25, 0.75, 0.125, 0.875, 0.0625, 0.9375, 0.03125)


def reference_loop_from_json_obj(obj: dict):
    from confgroups.loops import ConfigLoop

    k, n = obj["k"], obj["n"]
    if type(k) is not int or type(n) is not int:
        raise ValueError("k and n must be integers")
    if obj.get("closed", True) is not True:
        raise ValueError("loop JSON must describe a closed loop")
    arr = np.array(
        [[[complex(re, im) for re, im in point] for point in frame] for frame in obj["frames"]],
        dtype=complex,
    )
    return ConfigLoop(k, n, arr)


def min_pairwise_distance(frame: np.ndarray, scale: float = 1.0) -> float:
    """The smallest distance between two points of the frame, in units of scale."""
    k = frame.shape[0]
    if k < 2:
        return math.inf
    frame = frame / scale
    diffs = frame[:, None, :] - frame[None, :, :]
    dist = np.sqrt(np.sum(np.abs(diffs) ** 2, axis=-1))
    return float(np.min(dist[np.triu_indices(k, 1)]))


def reference_span_dimension(pts: np.ndarray, tol: float = _SPAN_TOL) -> int:
    if pts.shape[0] == 1:
        return 0
    sv = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
    if sv.size == 0 or sv[0] < 1e-300:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def reference_span_reports(loop, tol: float = _SPAN_TOL) -> list[tuple]:
    out = []
    for t in range(loop.num_frames):
        pts = loop.frames[t]
        sv = () if pts.shape[0] == 1 else tuple(
            float(v) for v in np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
        )
        out.append((t, sv, reference_span_dimension(pts, tol)))
    return out


def _has_real_tie(z: np.ndarray, margin: float) -> bool:
    return bool(np.any(np.diff(np.sort(z.real)) <= margin))


class CoarseFramesError(Exception):
    """The float reader's refusal of simultaneous crossings of opposite sign
    that it cannot cut into one-sign blocks."""


def _reference_block_letters(pi: tuple[int, ...], crossings):
    from confgroups.braids import _reduced_word

    signs_at: list[set[int]] = [set() for _ in pi]
    for _, (ra, rb), sign in crossings:
        signs_at[min(ra, rb)].add(sign)
    letters: list[tuple[int, int]] = []
    lo, top, signs = 0, 0, set()
    for r, v in enumerate(pi):
        top, signs = max(top, v), signs | signs_at[r]
        if top > r:
            continue
        if len(signs) > 1:
            raise CoarseFramesError(
                "simultaneous crossings of opposite sign share a rank interval; "
                "increase the frame count"
            )
        if signs:
            sign = signs.pop()
            letters += [(idx + lo, sign) for idx in _reduced_word(pi[lo : r + 1])]
        lo, signs = r + 1, set()
    return letters


def _reference_step_letters(E: np.ndarray, F: np.ndarray, k: int, margin: float, depth: int):
    from confgroups.loops import TieError

    reE, reF = E.real, F.real
    orderE = np.argsort(reE, kind="stable")
    orderF = np.argsort(reF, kind="stable")
    rankE = np.empty(k, dtype=int)
    rankF = np.empty(k, dtype=int)
    rankE[orderE] = np.arange(k)
    rankF[orderF] = np.arange(k)
    pi = tuple(int(rankF[orderE[r]]) for r in range(k))

    crossings = []
    for p in range(k):
        for q in range(p + 1, k):
            dE = reE[p] - reE[q]
            dF = reF[p] - reF[q]
            if dE * dF >= 0:
                continue
            tstar = dE / (dE - dF)
            mover, other = (p, q) if dE < 0 else (q, p)
            im_mover = E[mover].imag + tstar * (F[mover].imag - E[mover].imag)
            im_other = E[other].imag + tstar * (F[other].imag - E[other].imag)
            gap = im_other - im_mover
            if abs(gap) <= margin:
                raise TieError(
                    "two strands meet at a crossing instant; the loop leaves the "
                    "configuration space between frames"
                )
            # positive = counterclockwise: the left-to-right mover passes below
            sign = 1 if gap > 0 else -1
            crossings.append((float(tstar), (int(rankE[p]), int(rankE[q])), sign))

    signs = {s for _, _, s in crossings}
    times = [t for t, _, _ in crossings]
    if len(signs) < 2 or depth <= 0 or max(times) - min(times) < 2.0 ** -40:
        return _reference_block_letters(pi, crossings)
    for split in _BISECT_SPLITS:
        mid = (1 - split) * E + split * F
        if not _has_real_tie(mid, margin):
            return _reference_step_letters(E, mid, k, margin, depth - 1) + _reference_step_letters(
                mid, F, k, margin, depth - 1
            )
    raise TieError("could not find a tie-free bisection frame inside a step")


def reference_extract_braid(loop, *, tie_margin=_TIE_MARGIN, max_depth=32):
    from confgroups.braids import BraidWord
    from confgroups.loops import TieError, _project_to_line, _unit

    if loop.k == 1:
        return BraidWord(1)
    zf = _project_to_line(loop)
    margin = tie_margin * max(1.0 / _unit(loop.frames)[0], float(np.max(np.abs(zf))))
    eff = []
    for t in range(zf.shape[0]):
        frame = zf[t]
        if not _has_real_tie(frame, margin):
            eff.append(frame)
            continue
        other = zf[t + 1] if t < zf.shape[0] - 1 else zf[t - 1]
        for attempt in range(1, 9):
            w = 2.0 ** -attempt
            cand = (1 - w) * frame + w * other
            if not _has_real_tie(cand, margin):
                eff.append(cand)
                break
        else:
            raise TieError(f"frame {t}: points share a real part beyond the perturbation budget")
    letters = []
    for t in range(len(eff) - 1):
        letters += _reference_step_letters(eff[t], eff[t + 1], loop.k, margin, max_depth)
    return BraidWord(loop.k, tuple(letters))


def _certified(a: list, det_a: complex, b: list) -> bool:
    """loops._certified for one step from rows a to rows b, in raw units."""
    norms = [math.sqrt(sum(abs(z) ** 2 for z in row)) for row in a]
    moves = [math.sqrt(sum(abs(y - x) ** 2 for x, y in zip(p, q))) for p, q in zip(a, b)]
    outer = math.prod(x + m for x, m in zip(norms, moves))
    return abs(det_a) > outer - math.prod(norms) + _DET_FLOOR * max(1.0, outer)


def reference_det_winding(loop, *, refine_budget=1024) -> int:
    """The certified winding of the piecewise-linear loop, one frame and one
    step at a time in raw coordinates, for loops closed pointwise (the
    package also rejects loops that close only up to relabeling).  Open
    steps are bisected a level at a time, as the package bisects them."""
    from confgroups.loops import DegenerateSpanError, LoopError

    if loop.k != loop.n + 1:
        raise LoopError(f"det_winding needs k = n+1 points, got k={loop.k}, n={loop.n}")
    rows = [(frame[1:] - frame[0]).tolist() for frame in loop.frames]
    dets = [complex(np.linalg.det(np.array(a))) for a in rows]
    for t, (a, det_a) in enumerate(zip(rows, dets)):
        if not _certified(a, det_a, a):
            raise DegenerateSpanError(f"frame {t} determinant below the floor")
    steps = list(zip(rows, dets, rows[1:], dets[1:]))
    total, budget = 0.0, refine_budget
    while steps:
        open_steps = []
        for a, det_a, b, det_b in steps:
            if _certified(a, det_a, b):
                total += cmath.phase(det_b / det_a)
            else:
                open_steps.append((a, det_a, b, det_b))
        if len(open_steps) > budget:
            raise LoopError("refinement budget exceeded while tracking the determinant")
        budget -= len(open_steps)
        steps = []
        for a, det_a, b, det_b in open_steps:
            mid = [[(x + y) / 2 for x, y in zip(p, q)] for p, q in zip(a, b)]
            det_m = complex(np.linalg.det(np.array(mid)))
            if not _certified(mid, det_m, mid):
                raise DegenerateSpanError("determinant dropped below the floor between frames")
            steps += [(a, det_a, mid, det_m), (mid, det_m, b, det_b)]
    return int(round(total / (2 * math.pi)))


# ---------------------------------------------------------------------------
# the coset-table closing check, letter by letter through generator names:
# the reference for confgroups.fpgroups.CosetTable.verify, which walks
# encoded columns over every coset at once.  They must agree exactly.


def reference_trace(table, word, start: int = 0):
    gens = table.presentation.generators
    cur = start
    for name, sign in word:
        if cur is None:
            return None
        cur = table.table[cur][2 * gens.index(name) + (0 if sign > 0 else 1)]
    return cur


def reference_verify(table) -> bool:
    n, gens = table.num_cosets, table.presentation.generators
    if table.status != "complete" or n == 0:  # every coset table holds coset 0
        return False
    for row in table.table:
        if len(row) != 2 * len(gens) or any(type(e) is not int or not 0 <= e < n for e in row):
            return False
    for x in range(n):
        for name in gens:
            for sign in (1, -1):
                if reference_trace(table, ((name, sign), (name, -sign)), x) != x:
                    return False
    for c in range(n):
        for rel in table.presentation.relators:
            if reference_trace(table, rel, c) != c:
                return False
    return all(reference_trace(table, w, 0) == 0 for w in table.subgroup)


# ---------------------------------------------------------------------------
# earlier package paths: equality by the normal form of u v^-1 (the package
# now compares the canonical forms of u and v), the three-phase Smith normal
# form (now one re-pivoting loop), and the coset enumeration that left stale
# entries for find to resolve (now only the coincidence queue sees merged
# cosets), and the loop JSON reader that built the coordinates with one
# np.array call over the nested lists (now one complex() pass over the pairs).


def reference_uv_inverse_equal(d, u, v) -> bool:
    """Equality in a braid-family group: u v^-1 normalises to the identity,
    up to an even Delta power when the tag kills Delta^2."""
    from confgroups import braids, groups

    convert = groups._require_pure_word if d.tag.startswith("pure") else groups._require_braid_word
    form = braids.garside_normal_form(braids.multiply(convert(d, u), braids.inverse(convert(d, v))))
    kill_delta_sq = d.tag in ("braid_mod_delta_sq", "pure_braid_mod_D")
    delta_power = form.delta_power & 1 if kill_delta_sq else form.delta_power
    return delta_power == 0 and not form.factors


def reference_smith_normal_form(m) -> tuple[int, ...]:
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


def reference_todd_coxeter(p, subgroup=(), max_cosets: int = 10**5):
    """HLT enumeration of the cosets of the given subgroup.

    If the table closes within max_cosets total definitions the status is
    "complete" and the coset count is the subgroup index; otherwise the status
    is "capped" and the table is the (compressed) partial table.  A table
    that would outgrow _MAX_TABLE_ENTRIES raises PresentationError.
    """
    from collections import deque

    from confgroups.fpgroups import _MAX_TABLE_ENTRIES, CosetTable, PresentationError, _columns

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
                    bb = find(back)  # never v: v is no longer a root
                    if bb != u:
                        queue.append((bb, u))

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
            if find(i) == i:
                for rel in rel_cols:
                    if not scan_and_fill(rel, i):
                        return False
                    if find(i) != i:
                        break
                else:  # i survived every relator: fill its row
                    for c in range(2 * g):
                        if tab[i][c] is None and not define(i, c):
                            return False
            i += 1
        return True

    capped = not enumerate_cosets()
    live = [x for x in range(len(tab)) if find(x) == x]
    renum = {x: t for t, x in enumerate(live)}
    rows = tuple(
        tuple(renum[find(entry)] if entry is not None else None for entry in tab[x]) for x in live
    )
    result = CosetTable(p, tuple(subgroup), "capped" if capped else "complete", rows)
    if not capped and not result.verify():
        raise RuntimeError("coset table failed its closing consistency check")
    return result


def reference_numpy_loop_reader(obj: dict):
    from confgroups.loops import ConfigLoop, LoopError

    try:
        k, n = obj["k"], obj["n"]
        if type(k) is not int or type(n) is not int:  # not a float, string or bool
            raise LoopError("malformed loop JSON: k and n must be integers")
        if obj.get("closed", True) is not True:
            raise LoopError("loop JSON must describe a closed loop")
        pairs = np.array(obj["frames"])
        if pairs.dtype == object and all(isinstance(v, (int, float)) for v in pairs.flat):
            pairs = pairs.astype(float)  # integers beyond 64 bits
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, LoopError):
            raise
        raise LoopError(f"malformed loop JSON: {exc}") from exc
    if pairs.dtype.kind not in "biuf" or pairs.ndim != 4 or pairs.shape[-1] != 2:
        raise LoopError("malformed loop JSON: frames must be nested lists of [re, im] number pairs")
    return ConfigLoop(k, n, np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0])


# ---------------------------------------------------------------------------
# the exact braid reader with a float filter: crossing signs and times decided
# in floats where a rounding bound certifies them and in Fractions otherwise
# (the package now decides every crossing in integers)


def _exact_pair(E: np.ndarray, F: np.ndarray, p: int, q: int) -> tuple[Fraction, ...]:
    """(a, a', b, b') exactly: a + i a' = E[p] - E[q], and b + i b' is how
    much that difference changes from E to F."""
    a = Fraction(E[p].real) - Fraction(E[q].real)
    a1 = Fraction(E[p].imag) - Fraction(E[q].imag)
    b = Fraction(F[p].real) - Fraction(F[q].real) - a
    b1 = Fraction(F[p].imag) - Fraction(F[q].imag) - a1
    return a, a1, b, b1


def _filtered_step_letters(E: np.ndarray, F: np.ndarray, rankE: np.ndarray, rankF: np.ndarray):
    """The letters of the linear step from frame E to frame F, given the
    (Re, Im) ranks of both frames."""
    from confgroups.braids import _reduced_word
    from confgroups.loops import TieError

    # the pairs (p, q) with p before q at E and after it at F
    p, q = np.nonzero((rankE[:, None] < rankE) & (rankF[:, None] > rankF))
    dE, dF = E[p] - E[q], F[p] - F[q]
    # a crossing is positive when the pair's difference turns counterclockwise:
    # the sign of Re dE Im dF - Im dE Re dF, decided in floats when it exceeds
    # the rounding bound and exactly otherwise; 0 is a collision
    left, right = dE.real * dF.imag, dE.imag * dF.real
    turn = left - right
    signs = np.sign(turn).astype(int).tolist()
    unsure = np.abs(turn) <= 2.0**-50 * (np.abs(left) + np.abs(right)) + 2.0**-1000
    for i in np.flatnonzero(unsure).tolist():
        a, a1, b, b1 = _exact_pair(E, F, p[i], q[i])
        signs[i] = (a * b1 > a1 * b) - (a * b1 < a1 * b)
        if not signs[i]:
            raise TieError(
                "two strands meet at a crossing instant; the loop leaves the "
                "configuration space between frames"
            )
    crossings = range(len(signs))
    if len(set(signs)) > 1:
        # The key difference Re d + eps Im d of a pair vanishes at
        # tau(eps) = -(a + eps a')/(b + eps b') = tau0 + c eps + O(eps^2), with
        # tau0 = -a/b and c = (a b' - a' b)/b^2, which has the crossing's sign.
        # Runs of one sign are read whole, so only crossings of opposite signs
        # need ordering, and (tau0, sign) is the key.  The float tau0 = a/(a - Re dF) is within 2^-50 of the exact
        # one, as a and Re dF have opposite signs.
        times = (dE.real / (dE.real - dF.real)).tolist()

        def exact_time(i: int) -> Fraction:
            a, _, b, _ = _exact_pair(E, F, p[i], q[i])
            return -a / b

        def compare(i: int, j: int) -> int:
            if abs(times[i] - times[j]) > 2.0**-48:
                return -1 if times[i] < times[j] else 1
            ti, tj = exact_time(i), exact_time(j)
            return (ti > tj) - (ti < tj) or signs[i] - signs[j]

        crossings = sorted(crossings, key=cmp_to_key(compare))
    # each maximal run of one sign is a permutation braid: its crossings
    # reverse pairs that cross once, so its permutation fixes it
    rank = rankE.tolist()
    letters: list[tuple[int, int]] = []
    for sign, run in groupby(crossings, key=signs.__getitem__):
        at = sorted(range(len(rank)), key=rank.__getitem__)
        for i in run:
            rank[p[i]] += 1
            rank[q[i]] -= 1
        letters += [(j, sign) for j in _reduced_word(tuple(rank[s] for s in at))]
    return letters


def reference_filtered_extract_braid(loop: ConfigLoop) -> BraidWord:
    """Braid word of a loop of collinear configurations (n = 1, or all frames
    on one common complex line)."""
    from confgroups.braids import BraidWord
    from confgroups.loops import _project_to_line

    if loop.k == 1:
        return BraidWord(1)
    zf = _project_to_line(loop)
    # by Re + eps Im: the real-part order of the line turned by an infinitesimal angle
    order = np.lexsort((zf.imag, zf.real), axis=-1)
    letters: list[tuple[int, int]] = []
    for t in np.flatnonzero(np.any(order[1:] != order[:-1], axis=1)).tolist():
        rankE, rankF = np.argsort(order[t : t + 2], axis=1)
        letters += _filtered_step_letters(zf[t], zf[t + 1], rankE, rankF)
    return BraidWord(loop.k, tuple(letters))


# ---------------------------------------------------------------------------
# the builtin relator generators as they were when every letter was a fresh
# tuple: each relator is spelled through gen(), inverse_word and
# commutator_word, and the matrix is summed straight from the words by
# generator name.  The package builds each alphabet's letters once and spells
# every relator as one flat tuple of them; relators (in order) and matrix
# entries must agree exactly.


def _reference_artin_relators(k: int):
    from confgroups.fpgroups import commutator_word

    for x in range(1, k):
        for y in range(x + 1, k):
            a, b = f"s{x}", f"s{y}"
            if y - x >= 2:
                yield commutator_word(((a, 1),), ((b, 1),))
            else:
                yield ((a, 1), (b, 1), (a, 1), (b, -1), (a, -1), (b, -1))


def _reference_yang_baxter_relators(k: int):
    from confgroups.fpgroups import commutator_word, inverse_word

    def gen(i: int, j: int):
        return ((f"a{i}_{j}", 1),)

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


def reference_builtin_relators(name: str, k: int) -> tuple:
    """The relators of builtin_presentation(name, k), in order."""
    from confgroups.braids import _delta_letters, pure_generator_order

    pure_generators = tuple(f"a{g.i}_{g.j}" for g in pure_generator_order(k))
    added = {
        "artin": lambda k: (),
        "braid_mod_delta_sq": lambda k: [2 * tuple((f"s{i}", 1) for i, _ in _delta_letters(k))],
        "unordered_top": lambda k: (
            ((f"s{i}", 1),) * 2 + ((f"s{i + 1}", -1),) * 2 for i in range(1, k - 1)
        ),
        "symmetric": lambda k: (((f"s{i}", 1),) * 2 for i in range(1, k)),
        "pure_braid": lambda k: (),
        "pure_braid_mod_D": lambda k: [tuple((g, 1) for g in pure_generators)],
    }[name]
    own = _reference_yang_baxter_relators if name.startswith("pure") else _reference_artin_relators
    return (*own(k), *added(k))


def reference_relator_matrix(p) -> tuple[tuple[int, ...], ...]:
    """Exponent sums of each relator of p, one entry per generator, in order."""
    rows = []
    for rel in p.relators:
        sums = dict.fromkeys(p.generators, 0)
        for name, sign in rel:
            sums[name] += sign
        rows.append(tuple(sums.values()))
    return tuple(rows)
