"""Shared test oracles and random-case generators.

Everything in this file is deliberately independent of the package's own
normal-form / linear-algebra code paths: brute-force rewriting closure for
positive braid words, gcd-of-minors invariant factors, an unwrap-based winding
count, and a tiny standalone permutation calculus.  The package is tested
against these, never the other way around.  The one-letter-per-factor
combing and the frame-by-frame loop functions at the end are the references
for the package's identity-free combing and batched loop layer.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random

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


def perm_inversions(p: tuple[int, ...]) -> int:
    return sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])


# ---------------------------------------------------------------------------
# random words and relator insertion (letters are (index, sign) pairs)


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


def insert_word_relator(
    letters: list[tuple[int, int]],
    relators: list[list[tuple[int, int]]],
    rng: random.Random,
) -> list[tuple[int, int]]:
    """Insert one of the given relator words (or its inverse) at a random spot."""
    pos = rng.randint(0, len(letters))
    rel = list(relators[rng.randrange(len(relators))])
    if rng.random() < 0.5:
        rel = [(i, -s) for i, s in reversed(rel)]
    return list(letters[:pos]) + rel + list(letters[pos:])


# ---------------------------------------------------------------------------
# reference combing for the Garside kernel: one raw factor per letter in a
# fixed-length list, so every later factor is combed back through the
# identity factors that cancelled letters leave behind.  Same signature as
# confgroups.braids._Tables.normalise, which must agree with it exactly.


def reference_normalise(tables, factors):
    fs = list(factors)
    for t in range(len(fs) - 1):
        p, q = tables.renorm(fs[t], fs[t + 1])
        if p == fs[t]:
            continue
        fs[t], fs[t + 1] = p, q
        for j in range(t - 1, -1, -1):
            p, q = tables.renorm(fs[j], fs[j + 1])
            if p == fs[j]:
                break
            fs[j], fs[j + 1] = p, q
    lead = 0
    while lead < len(fs) and fs[lead] == tables.half_twist:
        lead += 1
    tail = len(fs)
    while tail > lead and fs[tail - 1] == tables.identity:
        tail -= 1
    return lead, fs[lead:tail]


# ---------------------------------------------------------------------------
# frame-by-frame references for the batched loop layer: the per-frame code
# that confgroups.loops runs as array operations over the frame axis.  They
# reuse the package's line projection and per-step letter reader, which the
# batching leaves unchanged, and must agree with the package exactly.

_TIE_MARGIN, _LINE_TOL, _SPAN_TOL, _DET_FLOOR = 1e-9, 1e-8, 1e-8, 1e-12


def reference_loop_from_json_obj(obj: dict):
    from confgroups.loops import ConfigLoop

    k, n = int(obj["k"]), int(obj["n"])
    if not obj.get("closed", True):
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


def reference_extract_braid(loop, *, tie_margin=_TIE_MARGIN, line_tol=_LINE_TOL, max_depth=32):
    from confgroups.braids import BraidWord
    from confgroups.loops import TieError, _project_to_line, _step_letters

    if loop.k == 1:
        return BraidWord(1)
    zf, unit = _project_to_line(loop, line_tol)
    margin = tie_margin * max(1.0 / unit, float(np.max(np.abs(zf))))
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
        letters += _step_letters(eff[t], eff[t + 1], loop.k, margin, max_depth)
    return BraidWord(loop.k, tuple(letters))


def _frame_det(frame: np.ndarray) -> complex:
    return complex(np.linalg.det(frame[1:] - frame[0]))


def _det_floor(frame: np.ndarray) -> float:
    norms = np.sqrt(np.sum(np.abs(frame[1:] - frame[0]) ** 2, axis=1))
    return _DET_FLOOR * max(1.0, float(np.prod(np.maximum(norms, 1e-300))))


def reference_det_winding(loop, *, tol=_SPAN_TOL, refine_budget=1024) -> int:
    """The per-frame winding for loops closed pointwise (the package also
    rejects loops that close only up to relabeling)."""
    from confgroups.loops import DegenerateSpanError, LoopError

    if loop.k != loop.n + 1:
        raise LoopError(f"det_winding needs k = n+1 points, got k={loop.k}, n={loop.n}")
    for t in range(loop.num_frames):
        if reference_span_dimension(loop.frames[t], tol) != loop.n:
            raise DegenerateSpanError(f"frame {t} does not span dimension {loop.n}")
    budget = [refine_budget]

    def segment(a, b, det_a, det_b):
        delta = cmath.phase(det_b / det_a)
        if abs(delta) < math.pi / 2:
            return delta
        if budget[0] <= 0:
            raise LoopError("refinement budget exceeded while tracking the determinant")
        budget[0] -= 1
        mid = (a + b) / 2
        det_m = _frame_det(mid)
        if abs(det_m) < _det_floor(mid):
            raise DegenerateSpanError("determinant dropped below the floor between frames")
        return segment(a, mid, det_a, det_m) + segment(mid, b, det_m, det_b)

    dets = []
    for t in range(loop.num_frames):
        d = _frame_det(loop.frames[t])
        if abs(d) < _det_floor(loop.frames[t]):
            raise DegenerateSpanError(f"frame {t} determinant below the floor")
        dets.append(d)
    total = 0.0
    for t in range(loop.num_frames - 1):
        total += segment(loop.frames[t], loop.frames[t + 1], dets[t], dets[t + 1])
    return int(round(total / (2 * math.pi)))
