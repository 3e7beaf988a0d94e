"""Sampled loops of point configurations and their numeric invariants.

A ConfigLoop is a closed path of k labelled points in C^n given by sampled
frames.  Two invariants are extracted:

* extract_braid reads a braid word off a loop of collinear configurations by
  projecting every frame onto the common complex line and recording how the
  real-part order changes between consecutive frames.  Crossing sign
  convention: a counterclockwise half-turn of a point pair is the positive
  generator, i.e. the strand moving left-to-right passes with the smaller
  imaginary part.  The opposite convention would invert every extracted word.
* det_winding computes the winding number around 0 of the frame determinant
  det[x_1 - x_0, ..., x_n - x_0] for loops of k = n+1 points spanning all of
  C^n and closed pointwise: a step's principal argument increment counts once
  the determinant is certified to stay in a disc that misses 0 along it, and
  a step left open is bisected.

Between consecutive frames points move linearly, and both invariants read
that piecewise-linear loop: det_winding its winding or a typed refusal,
extract_braid its braid exactly.  Each frame is ordered lexicographically by
(Re, Im): the real-part order of the line turned by an infinitesimal angle,
so real-part ties need no special treatment.  A pair crosses in a step
exactly when its order differs at the two ends, and the crossing's sign is
the turn of its difference from the first frame to the last.  Every step
sorts its crossings by their exact times under the same infinitesimal turn,
each time read as one integer key (its floor at a scale finer than the gap
between any two distinct times), ties negative first, and reads each maximal
run of one sign as a permutation braid; a step whose crossings share one
sign (the full- and half-turn steps of the standard loops) is one run.
Signs and times are decided in exact integer arithmetic on the step's
coordinates, written as integers over one power of two, so the only refusal
is a real collision of two points.  Every computation measures coordinates
in one power-of-two unit (_unit), so any finite coordinates are read, and
every tolerance is relative to max(1, largest modulus).

Loop JSON is read in one pass over its [re, im] pairs, packed as doubles,
once the nesting is checked level by level.  Per-frame work runs as numpy
operations over the whole frame axis: the finiteness and pairwise-distance
checks (in chunks of about _CHUNK_COORDINATES coordinates, one point against
the later ones at a time, so temporaries stay near a chunk or one frame
whatever k and n), the span SVDs, the determinants with their certificates,
one bisection level of all open determinant steps at a time, and the (Re, Im)
order of every frame.  Python loops remain only where single steps need
individual treatment: reading the letters of a step whose order changes (a
step whose order is unchanged has no crossings), and matching the end frames
as point sets.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import chain, groupby
from numbers import Number

import numpy as np

from .braids import BraidWord, _reduced_word


class LoopError(ValueError):
    """Invalid loop data or failed invariant extraction."""


class TieError(LoopError):
    """The piecewise-linear loop makes two points collide."""


class DegenerateSpanError(LoopError):
    """A frame's span dropped below the required dimension."""


_COINCIDENT_TOL = 1e-9
_LINE_TOL = 1e-8
_SPAN_TOL = 1e-8
_DET_FLOOR = 1e-12
_REFINE_BUDGET = 1024  # midpoint evaluations det_winding may add
_CLOSURE_TOL = 1e-6
_CHUNK_COORDINATES = 256 * 15 * 6  # coordinates of 640 frames at k = n = 6
_MAX_COORDINATES = 10**7  # frames * k * n of a generated loop: 160 MB of complex
_MALFORMED_FRAMES = "malformed loop JSON: frames must be nested lists of [re, im] number pairs"
_OVERFLOW = "malformed loop JSON: int too large to convert to float"


@dataclass(frozen=True, eq=False)
class ConfigLoop:
    k: int
    n: int
    frames: np.ndarray  # (T, k, n) complex, read-only

    def __post_init__(self) -> None:
        arr = _coordinates(self.frames)
        if arr.ndim != 3 or arr.shape[1:] != (self.k, self.n):
            raise LoopError(
                f"frames must have shape (T, {self.k}, {self.n}), got {arr.shape}"
            )
        if arr.shape[0] < 2:
            raise LoopError("a loop needs at least 2 frames")
        if self.k < 1 or self.n < 1:
            raise LoopError("need k >= 1 and n >= 1")
        if not np.all(np.isfinite(arr)):
            raise LoopError("frames must have finite coordinates")
        unit, base = _unit(arr)
        t = _first_coincident_frame(arr, unit, base)
        if t is not None:
            raise LoopError(f"frame {t} has coincident points")
        if not _frames_match_as_sets(arr[0] / unit, arr[-1] / unit, base):
            raise LoopError("loop is not closed: first and last frames differ as point sets")
        arr.setflags(write=False)
        object.__setattr__(self, "frames", arr)

    @property
    def num_frames(self) -> int:
        return int(self.frames.shape[0])


def _coordinates(values) -> np.ndarray:
    """values as a new complex array.  An array of numbers, or of Python
    number objects such as integers past 64 bits, reads; str, bytes, None and
    any other value are refused, where numpy would parse a string, and so
    are ragged nesting and integers past the float range."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # numpy's inhomogeneous-shape error
        raise LoopError("frames must be a rectangular array, not ragged nesting") from exc
    if arr.dtype.kind not in "biufc" and not (
        arr.dtype == object and all(isinstance(v, Number) for v in arr.flat)
    ):
        raise LoopError("frames must have numeric coordinates")
    try:
        return arr.astype(complex)
    except OverflowError as exc:
        raise LoopError("frames must have coordinates within the float range") from exc


def _first_coincident_frame(frames: np.ndarray, unit: float, base: float) -> int | None:
    """Index of the first frame with two points at most _COINCIDENT_TOL * base
    apart in units of unit (both from _unit).  Each point of a chunk of
    frames is compared with the later ones in turn."""
    k = frames.shape[1]
    step = max(1, _CHUNK_COORDINATES // (k * frames.shape[2]))
    for start in range(0, frames.shape[0], step):
        chunk = frames[start : start + step] / unit
        near = np.zeros(chunk.shape[0], dtype=bool)
        for i in range(k - 1):
            diff = chunk[:, i + 1 :] - chunk[:, i : i + 1]
            dist = np.sqrt(np.sum(np.abs(diff) ** 2, axis=-1))
            near |= np.any(dist <= _COINCIDENT_TOL * base, axis=1)
        bad = np.flatnonzero(near)
        if bad.size:
            return start + int(bad[0])
    return None


def _frames_match_as_sets(a: np.ndarray, b: np.ndarray, base: float) -> bool:
    """Is there a bijection a -> b moving no point by more than
    _CLOSURE_TOL * base?  Frames and base are in one unit from _unit.
    Unordered flavors close only up to relabeling.  Augmenting paths (Kuhn)
    on the bipartite graph of the pairs within that distance; k is small."""
    tol = _CLOSURE_TOL * base
    adj = [np.flatnonzero(np.sqrt(np.sum(np.abs(b - p) ** 2, axis=-1)) <= tol).tolist() for p in a]
    owner = [-1] * len(adj)  # owner[q] = the point of a matched to b[q]

    def augment(p: int, seen: set[int]) -> bool:
        for q in adj[p]:
            if q not in seen:
                seen.add(q)
                if owner[q] < 0 or augment(owner[q], seen):
                    owner[q] = p
                    return True
        return False

    return all(augment(p, set()) for p in range(len(adj)))


# ---------------------------------------------------------------------------
# span dimension


@dataclass(frozen=True)
class SpanReport:
    frame_index: int
    singular_values: tuple[float, ...]
    dimension: int


def span_dimension(points, tol: float = _SPAN_TOL) -> int:
    """Affine span dimension: rank of the difference matrix, singular values
    counted above tol relative to the largest."""
    pts = _coordinates(points)
    if pts.ndim != 2:
        raise LoopError("points must be a k x n array")
    if not np.all(np.isfinite(pts)):
        raise LoopError("frames must have finite coordinates")
    return int(_spans(pts[None], _unit(pts[None])[0], tol)[1][0])


def _spans(frames: np.ndarray, unit: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The singular values of every frame's difference matrix [x_1 - x_0, ...],
    shape (T, min(k-1, n)), in units of unit (from _unit), and per frame the
    number above tol relative to the largest: 0 when the largest is below
    1e-300 or there is none."""
    if not 0 <= tol < 1:  # also refuses NaN
        raise LoopError(f"span tolerance must satisfy 0 <= tol < 1, got {tol}")
    sv = np.linalg.svd(frames[:, 1:] / unit - frames[:, :1] / unit, compute_uv=False)
    top = sv[:, :1]
    return sv, np.sum((sv > tol * top) & (top >= 1e-300 / unit), axis=1)


def span_reports(loop: ConfigLoop, tol: float = _SPAN_TOL) -> list[SpanReport]:
    """Every frame's span report; a singular value beyond the float range reads inf."""
    unit = _unit(loop.frames)[0]
    sv, dims = _spans(loop.frames, unit, tol)
    with np.errstate(over="ignore"):
        sv = sv * unit
    return [SpanReport(t, tuple(row), dims.item(t)) for t, row in enumerate(sv.tolist())]


# ---------------------------------------------------------------------------
# named loops


def _check_coordinate_budget(frames: int, k: int, n: int) -> None:
    if frames * k * n > _MAX_COORDINATES:
        raise LoopError(f"{frames} x {k} x {n} coordinates exceed the limit of {_MAX_COORDINATES}")


def make_gamma_loop(k: int, frames: int | None = None) -> ConfigLoop:
    """Points z, 2z, ..., kz on a rotating line through 0, embedded in C^2
    (second coordinate 0); one full counterclockwise turn of z."""
    if k < 2:
        raise LoopError("need k >= 2")
    floor = 8 * k * k
    count = floor if frames is None else frames
    if count < floor:
        raise LoopError(f"resolution below floor: need at least {floor} frames for k={k}")
    _check_coordinate_budget(count, k, 2)
    ts = np.arange(count) / (count - 1)
    z = np.exp(2j * np.pi * ts)
    arr = np.zeros((count, k, 2), dtype=complex)
    for j in range(1, k + 1):
        arr[:, j - 1, 0] = j * z
    arr[-1] = arr[0]  # close exactly
    return ConfigLoop(k, 2, arr)


def make_h_loop(n: int, frames: int = 64) -> ConfigLoop:
    """Points 0, e_1, ..., e_(n-1), z e_n with z once around the unit circle;
    the frame determinant path is exactly z."""
    if n < 1:
        raise LoopError("need n >= 1")
    if frames < 64:
        raise LoopError(f"resolution below floor: need at least 64 frames, got {frames}")
    _check_coordinate_budget(frames, n + 1, n)
    ts = np.arange(frames) / (frames - 1)
    z = np.exp(2j * np.pi * ts)
    arr = np.zeros((frames, n + 1, n), dtype=complex)
    for j in range(1, n):
        arr[:, j, j - 1] = 1.0
    arr[:, n, n - 1] = z
    arr[-1] = arr[0]
    return ConfigLoop(n + 1, n, arr)


def reverse(loop: ConfigLoop) -> ConfigLoop:
    return ConfigLoop(loop.k, loop.n, loop.frames[::-1])


def concatenate(a: ConfigLoop, b: ConfigLoop) -> ConfigLoop:
    if (a.k, a.n) != (b.k, b.n):
        raise LoopError("loops live in different configuration spaces")
    # the larger unit, and at equal units the larger base, measures both loops
    unit, base = max(_unit(a.frames), _unit(b.frames))
    if not _closes_pointwise(a.frames[-1], b.frames[0], unit, base):
        raise LoopError("endpoints do not match (pointwise) at the concatenation seam")
    return ConfigLoop(a.k, a.n, np.concatenate([a.frames, b.frames[1:]], axis=0))


# ---------------------------------------------------------------------------
# JSON form


def loop_to_json_obj(loop: ConfigLoop) -> dict:
    frames = np.stack((loop.frames.real, loop.frames.imag), axis=-1).tolist()
    return {"k": loop.k, "n": loop.n, "frames": frames, "closed": True}


def loop_from_json_obj(obj: dict) -> ConfigLoop:
    """The loop of loop_to_json_obj's form.  Frames nest as lists (or tuples)
    of one length at each level, down to [re, im] pairs of real numbers;
    anything else is refused with a LoopError."""
    try:
        k, n = obj["k"], obj["n"]
        if type(k) is not int or type(n) is not int:  # not a float, string or bool
            raise LoopError("malformed loop JSON: k and n must be integers")
        if obj.get("closed", True) is not True:
            raise LoopError("loop JSON must describe a closed loop")
        level = [obj["frames"]]
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, LoopError):
            raise
        raise LoopError(f"malformed loop JSON: {exc}") from exc
    try:
        shape = []
        for depth in range(4):  # the frames list, each frame, each point, each [re, im] pair
            sizes = set(map(len, level))
            if len(sizes) != 1 or not set(map(type, level)) <= {list, tuple}:
                raise TypeError  # ragged, empty, or not a list
            shape.append(sizes.pop())
            if depth < 3:
                level = list(chain.from_iterable(level))
        if shape[3] != 2:
            raise TypeError
        # native doubles keep -0.0 and NaN payloads; anything but a real number is refused
        coords = struct.pack(f"{2 * len(level)}d", *chain.from_iterable(level))
    except (TypeError, ValueError) as exc:
        raise LoopError(_MALFORMED_FRAMES) from exc
    except struct.error as exc:  # a leaf that is not a number is named before one past float range
        numbers = all(isinstance(v, (int, float)) for v in chain.from_iterable(level))
        raise LoopError(_OVERFLOW if numbers else _MALFORMED_FRAMES) from exc
    return ConfigLoop(k, n, np.frombuffer(coords, complex).reshape(shape[:3]))


# ---------------------------------------------------------------------------
# braid extraction


def _unit(frames: np.ndarray) -> tuple[float, float]:
    """The least power of two above every coordinate modulus, at least 1 and
    at most 2^1023, and max(1, largest modulus) in that unit: the base of the
    relative tolerances.  Coordinates divided by the unit stay below 3, so
    their products cannot overflow, and the division is exact, so a
    computation in these units makes the same decisions, bit for bit, as one
    in the raw coordinates wherever that one does not overflow.  A modulus
    past the float range reads inf, and the halved coordinates measure it."""
    top = float(np.max(np.abs(frames)))
    if top < math.inf:
        unit = 2.0 ** min(max(0, math.frexp(top)[1]), 1023)
        return unit, max(1.0, top) / unit
    return 2.0**1023, float(np.max(np.abs(frames / 2))) / 2.0**1022


def _closes_pointwise(x: np.ndarray, y: np.ndarray, unit: float, base: float) -> bool:
    """Is every coordinate of frame x within _CLOSURE_TOL * base of y's, in
    units of unit (unit and base from _unit)?"""
    return float(np.max(np.abs(x / unit - y / unit))) <= _CLOSURE_TOL * base


def _project_to_line(loop: ConfigLoop) -> np.ndarray:
    """Affine coordinates of every point on the single complex line carrying
    the whole loop, in units of _unit(loop.frames); error if any frame leaves
    that line."""
    unit = _unit(loop.frames)[0]
    if loop.n == 1:
        return loop.frames[:, :, 0] / unit
    base = loop.frames[0, 0] / unit
    direction = loop.frames[0, 1] / unit - base
    norm = float(np.sqrt(np.sum(np.abs(direction) ** 2)))
    direction = direction / norm
    rel = loop.frames / unit
    rel -= base
    coeffs = rel @ np.conj(direction)
    resid = rel - coeffs[..., None] * direction
    worst = float(np.max(np.abs(resid)))
    if worst > _LINE_TOL * max(1.0 / unit, float(np.max(np.abs(rel)))):
        raise LoopError(
            f"frames are not collinear on a common line (residual {worst * unit:.3e})"
        )
    return coeffs


def _step_letters(E: np.ndarray, F: np.ndarray, rankE: np.ndarray, rankF: np.ndarray):
    """The letters of the linear step from frame E to frame F, given the
    (Re, Im) ranks of both frames."""
    # the pairs (p, q) with p before q at E and after it at F
    p, q = np.nonzero((rankE[:, None] < rankE) & (rankF[:, None] > rankF))
    # every coordinate as an integer over one power of two
    coords = np.concatenate((E.real, E.imag, F.real, F.imag)).tolist()
    ratios = [x.as_integer_ratio() for x in coords]
    den = max(d for _, d in ratios)
    ints = [n * (den // d) for n, d in ratios]
    xE, yE, xF, yF = (ints[s : s + len(E)] for s in range(0, len(ints), len(E)))
    crossings = []
    for u, v in zip(p.tolist(), q.tolist()):
        # a + i a' = E[u] - E[v], and b + i b' is how much it changes by F
        a, a1 = xE[u] - xE[v], yE[u] - yE[v]
        b, b1 = xF[u] - xF[v] - a, yF[u] - yF[v] - a1
        # positive when the pair's difference turns counterclockwise; 0 is a collision
        turn = a * b1 - a1 * b
        if not turn:
            raise TieError(
                "two strands meet at a crossing instant; the loop leaves the "
                "configuration space between frames"
            )
        crossings.append((-a, b, 1 if turn > 0 else -1, u, v))
    # The key difference Re d + eps Im d of a pair vanishes at
    # tau(eps) = -(a + eps a')/(b + eps b') = tau0 + c eps + O(eps^2), with
    # tau0 = -a/b and c = (a b' - a' b)/b^2, which has the crossing's sign, so
    # (tau0, sign) orders the crossings.  The pair's order makes
    # 0 <= -a <= b, so b > 0 unless the turn is 0.  With every b below 2^B,
    # distinct times differ by more than 2^-2B, so floor(tau0 2^2B) is exact.
    shift = 2 * max(c[1] for c in crossings).bit_length()
    crossings.sort(key=lambda c: ((c[0] << shift) // c[1], *c[2:]))
    # each maximal run of one sign is a permutation braid: its crossings
    # reverse pairs that cross once, so its permutation fixes it.  It moves
    # only the ranks lo..hi-1 of its strands, and _reduced_word never swaps
    # the fixed ranks around them, so that interval is spelled, offset by lo.
    rank = rankE.tolist()
    at = sorted(range(len(rank)), key=rank.__getitem__)  # the strand at each rank
    letters: list[tuple[int, int]] = []
    for sign, run in groupby(crossings, key=lambda c: c[2]):
        pairs = [c[3:] for c in run]
        ends = [rank[s] for pair in pairs for s in pair]
        lo, hi = min(ends), max(ends) + 1
        for u, v in pairs:
            rank[u] += 1
            rank[v] -= 1
        letters += [(j + lo, sign) for j in _reduced_word(tuple(rank[s] for s in at[lo:hi]))]
        at[lo:hi] = sorted(at[lo:hi], key=rank.__getitem__)
    return letters


def extract_braid(loop: ConfigLoop) -> BraidWord:
    """Braid word of a loop of collinear configurations (n = 1, or all frames
    on one common complex line)."""
    if loop.k == 1:
        return BraidWord(1)
    zf = _project_to_line(loop)
    # by Re + eps Im: the real-part order of the line turned by an infinitesimal angle
    order = np.lexsort((zf.imag, zf.real), axis=-1)
    letters: list[tuple[int, int]] = []
    for t in np.flatnonzero(np.any(order[1:] != order[:-1], axis=1)).tolist():
        rankE, rankF = np.argsort(order[t : t + 2], axis=1)
        letters += _step_letters(zf[t], zf[t + 1], rankE, rankF)
    return BraidWord(loop.k, tuple(letters))


# ---------------------------------------------------------------------------
# determinant winding


def _certified(a: np.ndarray, det_a: np.ndarray, b: np.ndarray, unit: float) -> np.ndarray:
    """Does the determinant stay off 0 along each linear step from rows a to
    rows b (rows x_i - x_0 in units of unit from _unit, stacked on leading
    axes)?  By multilinearity and Hadamard's bound it moves at most
    prod(|a_i| + |b_i - a_i|) - prod |a_i| from det a, so it does when |det a|
    beats that by the floor, which covers the rounding: _DET_FLOOR times the
    step's Hadamard bound, at least _DET_FLOOR in raw units.  With b = a this
    is the floor test of frame a."""
    norms = np.sqrt(np.sum(np.abs(a) ** 2, axis=-1))
    outer = np.prod(norms + np.sqrt(np.sum(np.abs(b - a) ** 2, axis=-1)), axis=-1)
    floor = _DET_FLOOR * np.maximum(unit ** -a.shape[-1], outer)
    return np.abs(det_a) > outer - np.prod(norms, axis=-1) + floor


def det_winding(loop: ConfigLoop) -> int:
    """Winding number around 0 of the frame determinant along the piecewise-
    linear loop of k = n+1 points.  A loop closed only up to relabeling is
    refused: its determinant path need not close."""
    if loop.k != loop.n + 1:
        raise LoopError(f"det_winding needs k = n+1 points, got k={loop.k}, n={loop.n}")
    unit, base = _unit(loop.frames)
    if not _closes_pointwise(loop.frames[-1], loop.frames[0], unit, base):
        raise LoopError("det_winding needs a loop closed pointwise; "
                        "this one closes only up to relabeling")
    rows = loop.frames[:, 1:] / unit - loop.frames[:, :1] / unit
    dets = np.linalg.det(rows)
    low = np.flatnonzero(~_certified(rows, dets, rows, unit))
    if low.size:
        raise DegenerateSpanError(f"frame {low[0]} determinant below the floor")
    # every step at once, then the halves of those the certificate leaves open
    a, det_a, b, det_b = rows[:-1], dets[:-1], rows[1:], dets[1:]
    total, budget = 0.0, _REFINE_BUDGET
    while True:
        sure = _certified(a, det_a, b, unit)
        total += float(np.sum(np.angle(det_b[sure] / det_a[sure])))
        a, det_a, b, det_b = a[~sure], det_a[~sure], b[~sure], det_b[~sure]
        if not det_a.size:
            return int(round(total / (2 * math.pi)))
        if det_a.size > budget:
            raise LoopError("refinement budget exceeded while tracking the determinant")
        budget -= det_a.size
        mid = (a + b) / 2
        det_m = np.linalg.det(mid)
        if not np.all(_certified(mid, det_m, mid, unit)):
            raise DegenerateSpanError("determinant dropped below the floor between frames")
        a, det_a = np.concatenate((a, mid)), np.concatenate((det_a, det_m))
        b, det_b = np.concatenate((mid, b)), np.concatenate((det_m, det_b))
