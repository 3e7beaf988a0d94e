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
  C^n and closed pointwise, by summing principal-branch argument increments
  (auto-refining by linear interpolation whenever a single increment reaches
  pi/2).

Between consecutive frames points move linearly, and extract_braid reads
that piecewise-linear loop exactly.  Each frame is ordered lexicographically
by (Re, Im): the real-part order of the line turned by an infinitesimal
angle, so real-part ties need no special treatment.  A pair crosses in a step
exactly when its order differs at the two ends, and the crossing's sign is
the turn of its difference from the first frame to the last.  A step whose
crossings share one sign is read as the permutation braid of its rank
permutation (this is what the full- and half-turn steps of the standard
loops produce); a mixed-sign step orders its crossings by their exact times
under the same infinitesimal turn and reads each run of one sign the same
way.  Signs and times are decided in floats where a rounding bound certifies
them and in exact fractions otherwise, so the only refusal is a real
collision of two points.

Per-frame work runs as numpy operations over the whole frame axis: reading
the JSON coordinates, the finiteness and pairwise-distance checks (in chunks
of about _CHUNK_COORDINATES coordinates, one point against the later ones at
a time, so temporaries stay near a chunk or one frame whatever k and n), the
span SVDs and the determinants with their Hadamard floors (in units of
_unit), the determinant phase increments and the (Re, Im) order of every
frame.  Python loops remain only where single steps need individual
treatment: reading the letters of a step whose order changes (a step whose
order is unchanged has no crossings), refining a determinant step whose
increment reaches pi/2, and matching the end frames as point sets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import groupby

import numpy as np

from .braids import BraidWord, _reduced_word


class LoopError(ValueError):
    """Invalid loop data or failed invariant extraction."""


class TieError(LoopError):
    """The piecewise-linear loop makes two points collide."""


class CoarseFramesError(LoopError):
    """No longer raised; kept in __all__, which is part of the contract."""


class DegenerateSpanError(LoopError):
    """A frame's span dropped below the required dimension."""


_COINCIDENT_TOL = 1e-9
_LINE_TOL = 1e-8
_SPAN_TOL = 1e-8
_DET_FLOOR = 1e-12
_CLOSURE_TOL = 1e-6
_CHUNK_COORDINATES = 256 * 15 * 6  # coordinates of 640 frames at k = n = 6
_MAX_COORDINATES = 10**7  # frames * k * n of a generated loop: 160 MB of complex


@dataclass(frozen=True, eq=False)
class ConfigLoop:
    k: int
    n: int
    frames: np.ndarray  # (T, k, n) complex, read-only

    def __post_init__(self) -> None:
        arr = np.array(self.frames, dtype=complex)
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
        scale = max(1.0, float(np.max(np.abs(arr))))
        t = _first_coincident_frame(arr, scale, _COINCIDENT_TOL)
        if t is not None:
            raise LoopError(f"frame {t} has coincident points")
        if not _frames_match_as_sets(arr[0], arr[-1], scale, _CLOSURE_TOL):
            raise LoopError("loop is not closed: first and last frames differ as point sets")
        arr.setflags(write=False)
        object.__setattr__(self, "frames", arr)

    @property
    def num_frames(self) -> int:
        return int(self.frames.shape[0])


def _first_coincident_frame(frames: np.ndarray, scale: float, margin: float) -> int | None:
    """Index of the first frame with two points at most margin * scale apart.

    Coordinates are measured in units of scale (at least the largest
    coordinate modulus), so differences and their squares cannot overflow.
    Each point of a chunk of frames is compared with the later ones in turn."""
    k = frames.shape[1]
    step = max(1, _CHUNK_COORDINATES // (k * frames.shape[2]))
    for start in range(0, frames.shape[0], step):
        chunk = frames[start : start + step] / scale
        near = np.zeros(chunk.shape[0], dtype=bool)
        for i in range(k - 1):
            diff = chunk[:, i + 1 :] - chunk[:, i : i + 1]
            near |= np.any(np.sqrt(np.sum(np.abs(diff) ** 2, axis=-1)) <= margin, axis=1)
        bad = np.flatnonzero(near)
        if bad.size:
            return start + int(bad[0])
    return None


def _frames_match_as_sets(a: np.ndarray, b: np.ndarray, scale: float, tol: float) -> bool:
    """Is there a bijection a -> b moving no point by more than tol * scale?
    Unordered flavors close only up to relabeling.  Augmenting paths (Kuhn)
    on the dist <= tol bipartite graph, coordinates in units of scale; k is
    small."""
    a, b = a / scale, b / scale
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
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2:
        raise LoopError("points must be a k x n array")
    return int(_span_dimensions(*_span_singular_values(pts[None]), tol)[0])


def _span_singular_values(frames: np.ndarray) -> tuple[np.ndarray, float]:
    """Singular values of every frame's difference matrix [x_1 - x_0, ...],
    shape (T, min(k-1, n)), in units of unit = _unit(frames), and that unit.
    Differences of coordinates below 2 cannot overflow."""
    unit = _unit(frames)
    return np.linalg.svd(frames[:, 1:] / unit - frames[:, :1] / unit, compute_uv=False), unit


def _span_dimensions(sv: np.ndarray, unit: float, tol: float) -> np.ndarray:
    """Per frame, the number of singular values (in units of unit) above tol
    relative to the largest; 0 when the largest is below 1e-300 or there is none."""
    if not 0 <= tol < 1:  # also refuses NaN
        raise LoopError(f"span tolerance must satisfy 0 <= tol < 1, got {tol}")
    top = sv[:, :1]
    return np.sum((sv > tol * top) & (top >= 1e-300 / unit), axis=1)


def span_reports(loop: ConfigLoop, tol: float = _SPAN_TOL) -> list[SpanReport]:
    """Every frame's span report; a singular value beyond the float range reads inf."""
    sv, unit = _span_singular_values(loop.frames)
    dims = _span_dimensions(sv, unit, tol).tolist()
    with np.errstate(over="ignore"):
        sv = sv * unit
    return [SpanReport(t, tuple(row), dims[t]) for t, row in enumerate(sv.tolist())]


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
    scale = max(1.0, float(np.max(np.abs(a.frames))), float(np.max(np.abs(b.frames))))
    if not _closes_pointwise(a.frames[-1], b.frames[0], scale):
        raise LoopError("endpoints do not match (pointwise) at the concatenation seam")
    return ConfigLoop(a.k, a.n, np.concatenate([a.frames, b.frames[1:]], axis=0))


# ---------------------------------------------------------------------------
# JSON form


def loop_to_json_obj(loop: ConfigLoop) -> dict:
    frames = [
        [[[float(c.real), float(c.imag)] for c in point] for point in frame]
        for frame in loop.frames
    ]
    return {"k": loop.k, "n": loop.n, "frames": frames, "closed": True}


def loop_from_json_obj(obj: dict) -> ConfigLoop:
    try:
        k, n = int(obj["k"]), int(obj["n"])
        if not obj.get("closed", True):
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
# braid extraction


def _unit(frames: np.ndarray) -> float:
    """The least power of two above every coordinate modulus, at least 1 and
    at most 2^1023.  Coordinates divided by it stay below 2, so their products
    cannot overflow, and the division is exact, so a computation in these
    units makes the same decisions, bit for bit, as one in the raw
    coordinates wherever that one does not overflow."""
    return 2.0 ** min(max(0, math.frexp(float(np.max(np.abs(frames))))[1]), 1023)


def _closes_pointwise(x: np.ndarray, y: np.ndarray, scale: float) -> bool:
    """Is every coordinate of frame x within _CLOSURE_TOL * scale of y's?
    Measured in units of _unit of the two frames, so the difference cannot
    overflow."""
    unit = _unit(np.stack((x, y)))
    return float(np.max(np.abs(x / unit - y / unit))) <= _CLOSURE_TOL * scale / unit


def _project_to_line(loop: ConfigLoop, line_tol: float) -> np.ndarray:
    """Affine coordinates of every point on the single complex line carrying
    the whole loop, in units of _unit(loop.frames); error if any frame leaves
    that line."""
    unit = _unit(loop.frames)
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
    scale = max(1.0 / unit, float(np.max(np.abs(rel))))
    worst = float(np.max(np.abs(resid)))
    if worst > line_tol * scale:
        raise LoopError(
            f"frames are not collinear on a common line (residual {worst * unit:.3e})"
        )
    return coeffs


def _exact_pair(E: np.ndarray, F: np.ndarray, p: int, q: int) -> tuple[Fraction, ...]:
    """(a, a', b, b') exactly: a + i a' = E[p] - E[q], and b + i b' is how
    much that difference changes from E to F."""
    a = Fraction(E[p].real) - Fraction(E[q].real)
    a1 = Fraction(E[p].imag) - Fraction(E[q].imag)
    b = Fraction(F[p].real) - Fraction(F[q].real) - a
    b1 = Fraction(F[p].imag) - Fraction(F[q].imag) - a1
    return a, a1, b, b1


def _step_letters(E: np.ndarray, F: np.ndarray, rankE: np.ndarray, rankF: np.ndarray):
    """The letters of the linear step from frame E to frame F, given the
    (Re, Im) ranks of both frames."""
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


def extract_braid(loop: ConfigLoop) -> BraidWord:
    """Braid word of a loop of collinear configurations (n = 1, or all frames
    on one common complex line)."""
    if loop.k == 1:
        return BraidWord(1)
    zf = _project_to_line(loop, _LINE_TOL)
    # by Re + eps Im: the real-part order of the line turned by an infinitesimal angle
    order = np.lexsort((zf.imag, zf.real), axis=-1)
    letters: list[tuple[int, int]] = []
    for t in np.flatnonzero(np.any(order[1:] != order[:-1], axis=1)).tolist():
        rankE, rankF = np.argsort(order[t : t + 2], axis=1)
        letters += _step_letters(zf[t], zf[t + 1], rankE, rankF)
    return BraidWord(loop.k, tuple(letters))


# ---------------------------------------------------------------------------
# determinant winding


def _dets_and_floors(frames: np.ndarray, unit: float) -> tuple[np.ndarray, np.ndarray]:
    """Every frame's determinant det[x_1 - x_0, ..., x_n - x_0] and the floor
    below which it counts as zero: _DET_FLOOR times the Hadamard bound, at
    least _DET_FLOOR.  Both are in units of unit^n (unit from _unit)."""
    diffs = frames[:, 1:] / unit
    diffs -= frames[:, :1] / unit
    norms = np.sqrt(np.sum(np.abs(diffs) ** 2, axis=2))
    hadamard = np.prod(np.maximum(norms, 1e-300 / unit), axis=1)
    return np.linalg.det(diffs), _DET_FLOOR * np.maximum(unit ** -diffs.shape[1], hadamard)


def det_winding(loop: ConfigLoop, *, tol: float = _SPAN_TOL, refine_budget: int = 1024) -> int:
    """Winding number around 0 of the determinant path of a full-span loop of
    k = n+1 points.  The loop must close pointwise: one that closes only up
    to relabeling has a determinant path that need not close."""
    if loop.k != loop.n + 1:
        raise LoopError(f"det_winding needs k = n+1 points, got k={loop.k}, n={loop.n}")
    frames = loop.frames
    scale = max(1.0, float(np.max(np.abs(frames))))
    if not _closes_pointwise(frames[-1], frames[0], scale):
        raise LoopError(
            "det_winding needs a loop closed pointwise; this one closes only up to relabeling"
        )
    sv, unit = _span_singular_values(frames)
    low = np.flatnonzero(_span_dimensions(sv, unit, tol) != loop.n)
    if low.size:
        raise DegenerateSpanError(f"frame {low[0]} does not span dimension {loop.n}")
    dets, floors = _dets_and_floors(frames, unit)
    # hypot rounds like abs() of a Python complex, which the refinement uses
    small = np.flatnonzero(np.hypot(dets.real, dets.imag) < floors)
    if small.size:
        raise DegenerateSpanError(f"frame {small[0]} determinant below the floor")
    budget = [refine_budget]

    def segment(a: np.ndarray, b: np.ndarray, det_a: complex, det_b: complex) -> float:
        delta = cmath.phase(det_b / det_a)
        if abs(delta) < math.pi / 2:
            return delta
        if budget[0] <= 0:
            raise LoopError("refinement budget exceeded while tracking the determinant")
        budget[0] -= 1
        mid = (a + b) / 2
        det_m, floor_m = _dets_and_floors(mid[None], unit)
        det_m = complex(det_m[0])
        if abs(det_m) < floor_m[0]:
            raise DegenerateSpanError(
                "determinant dropped below the floor between frames"
            )
        return segment(a, mid, det_a, det_m) + segment(mid, b, det_m, det_b)

    steps = np.angle(dets[1:] / dets[:-1])
    # np.angle and cmath.phase can round differently in the last bits, so every
    # step near the pi/2 threshold is decided (and refined) by segment alone
    for t in np.flatnonzero(np.abs(steps) >= math.pi / 2 - 1e-9).tolist():
        steps[t] = segment(frames[t], frames[t + 1], complex(dets[t]), complex(dets[t + 1]))
    return int(round(float(np.sum(steps)) / (2 * math.pi)))
