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

Between consecutive frames strands move linearly, so each pair of strands
crosses at most once per step and a step's crossings are exactly the
inversions of its rank permutation.  A step whose crossings all share one
sign is read as that permutation braid (this is what the full- and
half-turn steps of the standard loops produce); mixed-sign steps are split
by bisection, and simultaneous mixed crossings are accepted only when they
decompose into disjoint uniform-sign blocks.

Per-frame work runs as numpy operations over the whole frame axis: reading
the JSON coordinates, the finiteness and pairwise-distance checks (in chunks
of about _CHUNK_PAIR_ENTRIES pair coordinates, so temporaries stay bounded
whatever k and n), the span SVDs, the determinants and their Hadamard
floors, the determinant phase increments, the real-part tie test and the
real-part order of every frame.  Python loops remain only where single
frames or steps need individual treatment: nudging a tied frame off its tie,
reading the letters of a step whose real-part order changes (a step whose
order is unchanged has no crossings), refining a determinant step whose
increment reaches pi/2, and matching the end frames as point sets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .braids import BraidWord, _reduced_word


class LoopError(ValueError):
    """Invalid loop data or failed invariant extraction."""


class TieError(LoopError):
    """Two strands could not be separated within the perturbation budget."""


class CoarseFramesError(LoopError):
    """Crossings too entangled to resolve at this sampling resolution."""


class DegenerateSpanError(LoopError):
    """A frame's span dropped below the required dimension."""


_TIE_MARGIN = 1e-9
_LINE_TOL = 1e-8
_SPAN_TOL = 1e-8
_DET_FLOOR = 1e-12
_CLOSURE_TOL = 1e-6
_BISECT_SPLITS = (0.5, 0.25, 0.75, 0.125, 0.875, 0.0625, 0.9375, 0.03125)
_CHUNK_PAIR_ENTRIES = 256 * 15 * 6  # pair coordinates of 256 frames at k = n = 6
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
        t = _first_coincident_frame(arr, scale, _TIE_MARGIN)
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
    coordinate modulus), so differences and their squares cannot overflow."""
    iu, ju = np.triu_indices(frames.shape[1], 1)
    step = max(1, _CHUNK_PAIR_ENTRIES // max(1, iu.size * frames.shape[2]))
    for start in range(0, frames.shape[0], step):
        chunk = frames[start : start + step] / scale
        dist = np.sqrt(np.sum(np.abs(chunk[:, iu] - chunk[:, ju]) ** 2, axis=-1))
        bad = np.flatnonzero(np.any(dist <= margin, axis=1))
        if bad.size:
            return start + int(bad[0])
    return None


def _frames_match_as_sets(a: np.ndarray, b: np.ndarray, scale: float, tol: float) -> bool:
    """Is there a bijection a -> b moving no point by more than tol * scale?
    Unordered flavors close only up to relabeling.  Augmenting paths (Kuhn)
    on the dist <= tol bipartite graph, coordinates in units of scale; k is
    small."""
    a, b = a / scale, b / scale
    near = np.sqrt(np.sum(np.abs(a[:, None, :] - b[None, :, :]) ** 2, axis=-1)) <= tol
    adj = [np.flatnonzero(row).tolist() for row in near]
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
    return int(_span_dimensions(_span_singular_values(pts[None]), tol)[0])


def _span_singular_values(frames: np.ndarray) -> np.ndarray:
    """Singular values of every frame's difference matrix [x_1 - x_0, ...],
    shape (T, min(k-1, n))."""
    return np.linalg.svd(frames[:, 1:] - frames[:, :1], compute_uv=False)


def _span_dimensions(sv: np.ndarray, tol: float) -> np.ndarray:
    """Per frame, the number of singular values above tol relative to the
    largest; 0 when the largest is below an absolute floor or there is none."""
    if not 0 <= tol < 1:  # also refuses NaN
        raise LoopError(f"span tolerance must satisfy 0 <= tol < 1, got {tol}")
    top = sv[:, :1]
    return np.sum((sv > tol * top) & (top >= 1e-300), axis=1)


def span_reports(loop: ConfigLoop, tol: float = _SPAN_TOL) -> list[SpanReport]:
    sv = _span_singular_values(loop.frames)
    dims = _span_dimensions(sv, tol).tolist()
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
    if float(np.max(np.abs(a.frames[-1] - b.frames[0]))) > _CLOSURE_TOL * scale:
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


def _project_to_line(loop: ConfigLoop, line_tol: float) -> tuple[np.ndarray, float]:
    """Affine coordinates of every point on the single complex line carrying
    the whole loop, in units of _unit(loop.frames), and that unit; error if
    any frame leaves that line."""
    unit = _unit(loop.frames)
    if loop.n == 1:
        return loop.frames[:, :, 0] / unit, unit
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
    return coeffs, unit


def _real_ties(z: np.ndarray, margin: float) -> np.ndarray:
    """Per frame of z (..., k): do two points have real parts within margin?"""
    return np.any(np.diff(np.sort(z.real, axis=-1), axis=-1) <= margin, axis=-1)


def _resolve_frame_ties(zf: np.ndarray, margin: float) -> np.ndarray:
    """zf with every tied frame nudged towards its neighbour frame, by the
    largest of 1/2, 1/4, ..., 1/256 of the way that removes the tie."""
    tied = np.flatnonzero(_real_ties(zf, margin)).tolist()
    if not tied:
        return zf
    out = zf.copy()
    last = zf.shape[0] - 1
    for t in tied:
        other = zf[t + 1] if t < last else zf[t - 1]
        for attempt in range(1, 9):
            w = 2.0 ** -attempt
            cand = (1 - w) * zf[t] + w * other
            if not _real_ties(cand, margin):
                out[t] = cand
                break
        else:
            raise TieError(
                f"frame {t}: points share a real part beyond the perturbation budget"
            )
    return out


def _block_letters(pi: tuple[int, ...], crossings):
    """A step's letters: cut the step permutation into its blocks, the rank
    intervals that end where the running maximum of pi meets the rank.  Every
    crossing lies inside one block; each block's crossings must share one
    sign, and the block is emitted as a permutation braid on its interval."""
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


def _step_letters(E: np.ndarray, F: np.ndarray, k: int, margin: float, depth: int):
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
        return _block_letters(pi, crossings)
    for split in _BISECT_SPLITS:
        mid = (1 - split) * E + split * F
        if not _real_ties(mid, margin):
            return _step_letters(E, mid, k, margin, depth - 1) + _step_letters(
                mid, F, k, margin, depth - 1
            )
    raise TieError("could not find a tie-free bisection frame inside a step")


def extract_braid(
    loop: ConfigLoop,
    *,
    tie_margin: float = _TIE_MARGIN,
    line_tol: float = _LINE_TOL,
    max_depth: int = 32,
) -> BraidWord:
    """Braid word of a loop of collinear configurations (n = 1, or all frames
    on one common complex line)."""
    if loop.k == 1:
        return BraidWord(1)
    zf, unit = _project_to_line(loop, line_tol)
    margin = tie_margin * max(1.0 / unit, float(np.max(np.abs(zf))))
    eff = _resolve_frame_ties(zf, margin)
    # a crossing reverses a pair's real-part order, which changes the sort order
    order = np.argsort(eff.real, axis=1, kind="stable")
    moved = np.flatnonzero(np.any(order[1:] != order[:-1], axis=1)).tolist()
    letters: list[tuple[int, int]] = []
    for t in moved:
        letters += _step_letters(eff[t], eff[t + 1], loop.k, margin, max_depth)
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
    if float(np.max(np.abs(frames[-1] - frames[0]))) > _CLOSURE_TOL * scale:
        raise LoopError(
            "det_winding needs a loop closed pointwise; this one closes only up to relabeling"
        )
    low = np.flatnonzero(_span_dimensions(_span_singular_values(frames), tol) != loop.n)
    if low.size:
        raise DegenerateSpanError(f"frame {low[0]} does not span dimension {loop.n}")
    unit = _unit(frames)
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
