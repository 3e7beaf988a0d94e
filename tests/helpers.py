"""Shared test oracles and random-case generators.

Everything in this file is deliberately independent of the package's own
normal-form / linear-algebra code paths: brute-force rewriting closure for
positive braid words, gcd-of-minors invariant factors, an unwrap-based winding
count, and a tiny standalone permutation calculus.  The package is tested
against these, never the other way around.  The letter-at-a-time pair
renormalisation and reduced words, the one-letter-per-factor combing and the
frame-by-frame loop functions are the references for the package's Garside
kernel, identity-free combing and batched loop layer; the name-based coset
table walk is the reference for the column-based closing check.  The last
section keeps three earlier package paths as references for their
replacements: word-problem equality by one normal form of u v^-1, the
three-phase Smith normal form, and the Todd-Coxeter enumerator whose table
readers resolved merged cosets with find.
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


# reference combing: one raw factor per letter in a fixed-length list, so
# every later factor is combed back through the identity factors that
# cancelled letters leave behind.  Same signature as
# confgroups.braids._normalise, which must agree with it exactly; both comb
# with the package's pair renormalisation.


def reference_normalise(factors, k):
    from confgroups.braids import _renorm

    identity, half_twist = tuple(range(1, k + 1)), tuple(range(k, 0, -1))
    fs = list(factors)
    for t in range(len(fs) - 1):
        p, q = _renorm(fs[t], fs[t + 1])
        if p == fs[t]:
            continue
        fs[t], fs[t + 1] = p, q
        for j in range(t - 1, -1, -1):
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


# ---------------------------------------------------------------------------
# frame-by-frame references for the batched loop layer: the per-frame code
# that confgroups.loops runs as array operations over the frame axis.  They
# reuse the package's line projection, which the batching leaves unchanged,
# and must agree with the package exactly.  The braid reader below is the
# earlier float reader, kept whole as the reference for the exact one: it
# nudged frames off real-part ties, bisected mixed-sign steps and cut
# simultaneous crossings into one-sign blocks.

_TIE_MARGIN, _LINE_TOL, _SPAN_TOL, _DET_FLOOR = 1e-9, 1e-8, 1e-8, 1e-12
_BISECT_SPLITS = (0.5, 0.25, 0.75, 0.125, 0.875, 0.0625, 0.9375, 0.03125)


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


def _reference_block_letters(pi: tuple[int, ...], crossings):
    from confgroups.braids import _reduced_word
    from confgroups.loops import CoarseFramesError

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


def reference_extract_braid(loop, *, tie_margin=_TIE_MARGIN, line_tol=_LINE_TOL, max_depth=32):
    from confgroups.braids import BraidWord
    from confgroups.loops import TieError, _project_to_line, _unit

    if loop.k == 1:
        return BraidWord(1)
    zf = _project_to_line(loop, line_tol)
    margin = tie_margin * max(1.0 / _unit(loop.frames), float(np.max(np.abs(zf))))
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
    if table.status != "complete":
        return False
    if any(entry is None for row in table.table for entry in row):
        return False
    for c in range(table.num_cosets):
        for rel in table.presentation.relators:
            if reference_trace(table, rel, c) != c:
                return False
    return all(reference_trace(table, w, 0) == 0 for w in table.subgroup)


# ---------------------------------------------------------------------------
# earlier package paths: equality by the normal form of u v^-1 (the package
# now compares the canonical forms of u and v), the three-phase Smith normal
# form (now one re-pivoting loop), and the coset enumeration that left stale
# entries for find to resolve (now only the coincidence queue sees merged
# cosets).


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
