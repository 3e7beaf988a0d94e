"""Sampled configuration loops: span checks, braid extraction, det winding."""

import copy
import functools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from confgroups import loops
from confgroups.braids import (
    BraidWord,
    delta_word,
    equal_in_braid,
    exponent_sum,
    garside_normal_form,
    multiply,
    parse_word,
    permutation_image,
    power,
)
from confgroups.loops import (
    ConfigLoop,
    DegenerateSpanError,
    LoopError,
    TieError,
    concatenate,
    det_winding,
    extract_braid,
    loop_from_json_obj,
    loop_to_json_obj,
    make_gamma_loop,
    make_h_loop,
    reverse,
    span_dimension,
    span_reports,
)


def _loop_from_points(k, n, frames):
    return ConfigLoop(k, n, np.array(frames, dtype=complex))


def _half_turn(direction=1, count=65):
    """Two points +-e^(i pi t) swapping places; counterclockwise for +1."""
    ts = np.arange(count) / (count - 1)
    z = np.exp(direction * 1j * np.pi * ts)
    arr = np.stack([z, -z], axis=1)[:, :, None]
    return ConfigLoop(2, 1, arr)


def _full_turn(count=129):
    ts = np.arange(count) / (count - 1)
    z = np.exp(2j * np.pi * ts)
    arr = np.stack([z, -z], axis=1)[:, :, None]
    arr[-1] = arr[0]
    return ConfigLoop(2, 1, arr)


# ---------------------------------------------------------------------------
# ConfigLoop validation


def test_loop_validation():
    with pytest.raises(LoopError):
        _loop_from_points(2, 1, [[[1], [1 + 1e-12]]] * 3)  # coincident points
    with pytest.raises(LoopError):
        _loop_from_points(2, 1, [[[1], [-1]], [[1.5], [-1]]])  # not closed
    with pytest.raises(LoopError):
        _loop_from_points(2, 1, [[[1], [-1]]])  # single frame
    with pytest.raises(LoopError):
        ConfigLoop(2, 1, np.zeros((3, 2)))  # wrong shape
    with pytest.raises(LoopError, match="^need k >= 1 and n >= 1$"):
        ConfigLoop(0, 1, np.zeros((3, 0, 1)))  # no points
    loop = _loop_from_points(2, 1, [[[1], [-1]]] * 4)
    assert loop.num_frames == 4
    with pytest.raises(ValueError):
        loop.frames[0, 0, 0] = 5.0  # frames are read-only


def test_non_finite_coordinates_are_rejected():
    for bad in (math.nan, math.inf, complex(0, -math.inf)):
        with pytest.raises(LoopError, match="finite"):
            _loop_from_points(2, 1, [[[1], [-1]], [[bad], [-1]], [[1], [-1]]])
    obj = loop_to_json_obj(_half_turn())
    obj["frames"][30][0][0][0] = math.nan  # one NaN frame
    with pytest.raises(LoopError, match="finite"):
        loop_from_json_obj(obj)


def test_non_numeric_coordinates_are_refused():
    # numpy would parse "0" and "1+2j", read None as NaN and refuse "x" untyped
    for bad in ("1", "x", b"1", None):
        with pytest.raises(LoopError, match="^frames must have numeric coordinates$"):
            ConfigLoop(2, 1, [[["0"], [bad]], [["0"], [bad]]])
        with pytest.raises(LoopError, match="^frames must have numeric coordinates$"):
            ConfigLoop(2, 1, [[[0], [bad]], [[0], [bad]]])
    with pytest.raises(LoopError, match="^frames must have numeric coordinates$"):
        span_dimension([["0"], ["1+2j"]])
    # Python numbers in an object array still read, integers past 64 bits too
    loop = ConfigLoop(1, 1, [[[2**70]], [[2**70]]])
    assert loop.frames.dtype == complex and loop.frames[0, 0, 0] == 2.0**70
    assert ConfigLoop(2, 1, [[[0], [1 + 1j]], [[0], [1.0 + 1j]]]).frames[0, 1, 0] == 1 + 1j
    assert span_dimension([[0], [2**70]]) == 1


def test_ragged_and_overflowing_coordinates_are_loop_errors():
    # numpy's own errors become LoopErrors whose texts name the array, not loop JSON
    overflow = "frames must have coordinates within the float range"
    cases = [
        (lambda: ConfigLoop(2, 1, [[[0], [1]], [[0]]]),
         "frames must be a rectangular array, not ragged nesting"),
        (lambda: ConfigLoop(1, 1, [[[10**400]], [[10**400]]]), overflow),
        (lambda: span_dimension([[0], [10**400]]), overflow),
    ]
    for make, text in cases:
        with pytest.raises(LoopError) as info:
            make()
        assert str(info.value) == text


def test_coincident_frame_index_across_chunks():
    chunk = loops._CHUNK_COORDINATES // (3 * 2)  # frames per chunk: 3 points in C^2
    base = make_gamma_loop(3, 3 * chunk + 5).frames
    for bad in (1, chunk - 1, chunk, 2 * chunk + 3):
        arr = base.copy()
        arr[bad, 2] = arr[bad, 1]
        arr[bad + 2, 0] = arr[bad + 2, 1]
        first = next(
            t for t in range(len(arr)) if helpers.min_pairwise_distance(arr[t], 3) <= 1e-9
        )
        assert first == bad
        with pytest.raises(LoopError, match=f"^frame {bad} has coincident points$"):
            ConfigLoop(3, 2, arr)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_distances_at_huge_coordinates_do_not_overflow():
    # squaring raw differences near 1e200 overflows; the margin here is 1e191
    with pytest.raises(LoopError, match="coincident points"):
        _loop_from_points(2, 1, [[[1e200], [1e200 + 1e190]]] * 2)
    assert _loop_from_points(2, 1, [[[1e200], [-1e200]]] * 2).num_frames == 2
    assert _loop_from_points(2, 1, [[[1e308], [-1e308]]] * 2).num_frames == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("factor", [1e200, 2.0**600, 1e307])
def test_invariants_at_huge_coordinates_do_not_overflow(factor):
    # squares, products and n x n determinants of raw coordinates near 1e200
    # overflow, and near center = 1.3e308 (1 + i) so does a finite point's
    # modulus; the invariants are measured in units of a power of two
    center = 13 * factor * (1 + 1j)
    gamma = make_gamma_loop(3, 200)
    word = extract_braid(ConfigLoop(3, 2, gamma.frames * factor + center))
    assert str(word) == "s1 s2 s1 s1 s2 s1" == str(extract_braid(gamma))
    h = make_h_loop(2, 64)
    assert det_winding(ConfigLoop(3, 2, h.frames * factor + center)) == 1 == det_winding(h)
    assert str(extract_braid(ConfigLoop(2, 1, _half_turn().frames * factor + center))) == "s1"
    turn = ConfigLoop(2, 1, _full_turn().frames * factor + center)
    assert str(extract_braid(turn)) == "s1 s1" and det_winding(turn) == 1
    twice = concatenate(turn, turn)
    assert str(extract_braid(twice)) == "s1 s1 s1 s1" and det_winding(twice) == 2
    far = center + 2 * factor * (1 + 1j)
    with pytest.raises(LoopError, match="not closed"):
        _loop_from_points(1, 1, [[[far]], [[0]]])
    # the seam gap is within 1e-6 of the largest modulus of both loops, at
    # b's first frame, and beyond 1e-6 of every other modulus
    near = far * (1 + 1.0000005e-6)
    b = _loop_from_points(1, 1, [[[near]], [[far]]])
    assert concatenate(_loop_from_points(1, 1, [[[far]]] * 2), b).num_frames == 3
    # near the float limit raw point differences overflow; the span is still 2
    edge = h.frames * 1.5e308
    edge[:, 0] = -0.9e308
    edge = ConfigLoop(3, 2, edge)
    reports = span_reports(edge)
    assert {r.dimension for r in reports} == {2} and reports[0].singular_values[0] == math.inf
    assert span_dimension(edge.frames[0]) == 2 and det_winding(edge) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closure_checks_at_the_float_limit_do_not_overflow():
    # the swap of two points at +-1.5e308 closes only as a point set; raw
    # differences of its end frames overflow
    swap = ConfigLoop(2, 1, _half_turn().frames * 1.5e308)
    with pytest.raises(LoopError, match="closed pointwise"):
        det_winding(swap)
    with pytest.raises(LoopError, match="concatenation seam"):
        concatenate(swap, swap)


def test_loop_closes_as_a_point_set():
    # a half-turn swap is closed only up to relabeling; still a valid loop
    loop = _half_turn()
    assert not np.allclose(loop.frames[0], loop.frames[-1])
    assert loop.num_frames == 65


def test_closure_matches_points_by_any_bijection_within_tolerance():
    # nearest-point greedy sends 0 -> 0.3e-6 and strands 1.2e-6; 0 -> -0.9e-6,
    # 1.2e-6 -> 0.3e-6 moves each point by 0.9e-6 <= 1e-6
    loop = _loop_from_points(2, 1, [[[0], [1.2e-6]], [[0.3e-6], [-0.9e-6]]])
    assert loop.num_frames == 2
    with pytest.raises(LoopError, match="not closed"):
        _loop_from_points(2, 1, [[[0], [1.2e-6]], [[-1.1e-6], [0.3e-6]]])


# ---------------------------------------------------------------------------
# span dimension


def test_span_examples():
    for n in (1, 2, 3):
        simplex = [[0] * n] + [
            [1 if c == j else 0 for c in range(n)] for j in range(n)
        ]
        assert span_dimension(np.array(simplex, dtype=complex)) == n
    collinear = np.array([[0, 0], [1, 0], [2, 0]], dtype=complex)
    assert span_dimension(collinear) == 1
    assert span_dimension(np.array([[3 + 4j]], dtype=complex)) == 0
    tiny = np.array([[0, 0], [1e-301, 0]], dtype=complex)
    assert span_dimension(tiny) == 0  # below the absolute floor
    assert span_dimension(collinear, 0.0) == 1
    # a tolerance outside [0, 1) would count every or no singular value
    for tol in (math.nan, -1.0, 1.0, math.inf):
        with pytest.raises(LoopError, match="span tolerance"):
            span_dimension(collinear, tol)
        with pytest.raises(LoopError, match="span tolerance"):
            span_reports(make_h_loop(2), tol)
    with pytest.raises(LoopError, match="^points must be a k x n array$"):
        span_dimension(np.zeros(3))
    for bad in (math.inf, math.nan):
        with pytest.raises(LoopError, match="^frames must have finite coordinates$"):
            span_dimension(np.array([[0, 0], [bad, 0]], dtype=complex))


def test_span_reports_on_builtin_loops():
    g = make_gamma_loop(3)
    reports = span_reports(g)
    assert len(reports) == g.num_frames
    for r in reports:
        assert r.dimension == 1
        assert r.dimension <= min(g.k - 1, g.n)
        assert r.frame_index >= 0 and len(r.singular_values) == min(g.k - 1, g.n)
    h = make_h_loop(2)
    assert all(r.dimension == 2 for r in span_reports(h))


# ---------------------------------------------------------------------------
# builtin loop constructors


def test_gamma_constructor():
    g = make_gamma_loop(3)
    assert (g.k, g.n) == (3, 2)
    assert g.num_frames == 8 * 9
    assert np.allclose(g.frames[0], g.frames[-1])
    assert np.allclose(g.frames[0, :, 0], [1, 2, 3])
    with pytest.raises(LoopError):
        make_gamma_loop(3, 71)
    with pytest.raises(LoopError):
        make_gamma_loop(1)


def test_h_constructor():
    h = make_h_loop(2)
    assert (h.k, h.n) == (3, 2)
    assert h.num_frames == 64
    with pytest.raises(LoopError):
        make_h_loop(2, 63)
    with pytest.raises(LoopError):
        make_h_loop(0)


def test_coincidence_check_memory_follows_the_pair_budget():
    # 256 frames of 200 points on a line: 0.78 MB of coordinates, 19900 pairs a frame
    line = np.arange(200) * (1 + 0.5j)
    frames = np.broadcast_to(line[None, :, None], (256, 200, 1)).copy()
    tracemalloc.start()
    try:
        ConfigLoop(200, 1, frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_validation_memory_follows_the_coordinates():
    # 120 points in C^120: 7140 pairs a frame, 0.46 MB of coordinates in all
    frame = np.random.default_rng(3).standard_normal((120, 120)) * (1 + 0.5j)
    frames = np.stack([frame, frame])
    tracemalloc.start()
    try:
        ConfigLoop(120, 120, frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * frames.nbytes


# ---------------------------------------------------------------------------
# braid extraction


def test_constant_loop_gives_empty_word():
    loop = _loop_from_points(3, 1, [[[1], [2], [3]]] * 5)
    assert extract_braid(loop) == BraidWord(3)


def test_single_point_loop():
    loop = _loop_from_points(1, 1, [[[0]], [[1j]], [[0]]])
    assert extract_braid(loop) == BraidWord(1)


def test_counterclockwise_half_turn_is_positive():
    assert extract_braid(_half_turn(+1)) == parse_word("s1", 2)
    assert extract_braid(_half_turn(-1)) == parse_word("s1^-1", 2)


def test_full_turn_matches_det_winding_parity():
    loop = _full_turn()
    braid = extract_braid(loop)
    assert equal_in_braid(braid, parse_word("s1 s1", 2))
    assert det_winding(loop) == 1
    assert exponent_sum(braid) == 2 * det_winding(loop)


def test_gamma_extraction_is_the_full_twist():
    for k in (3, 4):
        braid = extract_braid(make_gamma_loop(k))
        form = garside_normal_form(braid)
        assert form == garside_normal_form(power(delta_word(k), 2))
        assert form.delta_power == 2 and not form.factors


def test_reversed_loop_gives_inverse_braid():
    g = make_gamma_loop(3)
    braid = extract_braid(g)
    rev = extract_braid(reverse(g))
    assert garside_normal_form(multiply(braid, rev)).is_identity()
    h = _half_turn(+1)
    assert extract_braid(reverse(h)) == parse_word("s1^-1", 2)


def test_word_permutation_matches_frame_order_change():
    loop = _half_turn(+1)
    braid = extract_braid(loop)
    # first frame order: (+1, -1) left to right is (-1, +1) -> swap overall
    assert permutation_image(braid).images == (2, 1)


def test_extraction_refinement_stability():
    for k, frames in ((3, None), (3, 2 * 8 * 9)):
        form = garside_normal_form(extract_braid(make_gamma_loop(k, frames)))
        assert form.delta_power == 2 and not form.factors
    a = garside_normal_form(extract_braid(_half_turn(+1, 65)))
    b = garside_normal_form(extract_braid(_half_turn(+1, 129)))
    assert a == b


def test_concatenation_homomorphism():
    first = _half_turn(+1)
    second = ConfigLoop(2, 1, -first.frames)
    combined = concatenate(first, second)
    lhs = extract_braid(combined)
    rhs = multiply(extract_braid(first), extract_braid(second))
    assert equal_in_braid(lhs, rhs)
    with pytest.raises(LoopError):
        concatenate(first, make_gamma_loop(3))
    with pytest.raises(LoopError):
        concatenate(first, first)  # seam endpoints differ pointwise


def test_basepoint_conjugation_preserves_perm_and_exponent():
    g = make_gamma_loop(3)
    us = np.linspace(0, 1, 12)
    path = np.zeros((12, 3, 2), dtype=complex)
    for j in range(1, 4):
        path[:, j - 1, 0] = (1.5 - 0.5 * us) * j
    arr = np.concatenate([path, g.frames[1:], path[::-1][1:]], axis=0)
    conj = ConfigLoop(3, 2, arr)
    braid = extract_braid(conj)
    base = extract_braid(g)
    assert permutation_image(braid) == permutation_image(base)
    assert exponent_sum(braid) == exponent_sum(base)


def test_extraction_errors():
    triangle = [[[0, 0], [1, 0], [0, 1]]] * 4
    with pytest.raises(LoopError):
        extract_braid(_loop_from_points(3, 2, triangle))  # no common line

    stacked = _loop_from_points(2, 1, [[[0], [1j]]] * 4)
    assert extract_braid(stacked) == BraidWord(2)  # equal real parts in every frame

    head_on = _loop_from_points(
        2, 1, [[[-1], [1]], [[1], [-1]], [[-1], [1]]]
    )
    with pytest.raises(TieError):
        extract_braid(head_on)  # strands collide at the crossing instant


def test_near_collisions_are_read_exactly():
    # the strands pass each other at distances below 1e-16; from rounded
    # differences of the end frames the first loop's crossings would read as
    # collisions and the second loop's with the opposite signs
    near = [
        ([[-1 - 1j], [2.0**-60]], [[1 + 1j], [0j]], "s1^-1 s1"),
        ([[-0.3055561217132374 + 1.5362582661435833j], [-0.000655296046745056 - 0.5277531857698758j]],
         [[0.18674807999957765 - 1.2641821316797401j], [0j]], "s1 s1^-1"),
    ]
    for e, f, spelled in near:
        word = extract_braid(_loop_from_points(2, 1, [e, f, e]))
        assert str(word) == spelled
        mirror = extract_braid(_loop_from_points(2, 1, np.conj([e, f, e])))
        assert mirror.letters == tuple((i, -s) for i, s in word.letters)


def test_retracing_mixed_sign_simultaneous_crossings_read_the_identity():
    # all three crossings of a step happen at t = 1/2, one positive and two
    # negative; the infinitesimal turn of the real axis puts the negative
    # ones first
    e = [[-1 + 0j], [0 + 1j], [1 - 1j]]
    f = [[1 + 0j], [0 + 1j], [-1 - 1j]]
    for frames in ([e, f, e], [e, f, e, f, e]):
        word = extract_braid(_loop_from_points(3, 1, frames))
        assert str(word) == " ".join(["s2^-1 s1^-1 s2 s2^-1 s1 s2"] * (len(frames) // 2))
        assert garside_normal_form(word).is_identity()


def test_simultaneous_crossings_split_into_uniform_sign_blocks():
    # ranks 0..4 cross positively, ranks 5, 6 negatively, and the
    # negative crossing is simultaneous with positive ones.  The step
    # permutation (3, 1, 0, 4, 2, 6, 5) has exactly these two blocks; the
    # crossing intervals inside the first overlap and nest
    im = (0, 1, 2, 3, 4, 10, -10)
    e = [[complex(x, y)] for x, y in zip(range(7), im)]
    f = [[complex(x, y)] for x, y in zip((3, 1, 0, 4, 2, 6, 5), im)]
    word = extract_braid(_loop_from_points(7, 1, [e, f, e]))
    step = parse_word("s1 s2 s1 s4 s3 s6^-1", 7)
    assert equal_in_braid(word, multiply(step, parse_word("s1^-1 s3^-1 s2^-1 s1^-1 s4^-1 s6", 7)))
    assert permutation_image(step).images == (4, 2, 1, 5, 3, 7, 6)
    assert garside_normal_form(word).is_identity()


# ---------------------------------------------------------------------------
# determinant winding


def _det_path(loop):
    diffs = loop.frames[:, 1:, :] - loop.frames[:, :1, :]
    return np.array([np.linalg.det(d) for d in diffs])


def test_h_loop_winding_examples():
    for n in (1, 2, 3):
        h = make_h_loop(n)
        assert det_winding(h) == 1
        assert det_winding(reverse(h)) == -1
        assert det_winding(h) == helpers.unwrap_winding(_det_path(h))


def test_constant_determinant_path_winds_zero():
    loop = _loop_from_points(2, 1, [[[0], [1]]] * 8)
    assert det_winding(loop) == 0


def test_winding_additivity():
    h = make_h_loop(2)
    assert det_winding(concatenate(h, h)) == 2
    assert det_winding(concatenate(h, reverse(h))) == 0


def test_winding_refinement_stability():
    for n in (1, 2):
        assert det_winding(make_h_loop(n, 128)) == 1


def test_winding_auto_refines_coarse_steps(monkeypatch):
    # five frames put consecutive determinant arguments exactly pi/2 apart
    ts = np.arange(5) / 4
    z = np.exp(2j * np.pi * ts)
    arr = np.stack([np.zeros(5, dtype=complex), z], axis=1)[:, :, None]
    loop = ConfigLoop(2, 1, arr)
    assert det_winding(loop) == 1
    monkeypatch.setattr(loops, "_REFINE_BUDGET", 0)
    with pytest.raises(LoopError):
        det_winding(loop)


def test_winding_errors():
    with pytest.raises(LoopError):
        det_winding(make_gamma_loop(4))  # k is not n + 1

    collinear = _loop_from_points(3, 2, [[[0, 0], [1, 0], [2, 0]]] * 4)
    with pytest.raises(DegenerateSpanError):
        det_winding(collinear)

    # a bare half-turn jump is genuinely ambiguous: refinement hits det = 0
    ts = np.arange(3) / 2
    z = np.exp(2j * np.pi * ts)
    arr = np.stack([np.zeros(3, dtype=complex), z], axis=1)[:, :, None]
    with pytest.raises(DegenerateSpanError):
        det_winding(ConfigLoop(2, 1, arr))

    # singular values 1, 1e-7, 1e-7 span C^3 at tol 1e-8, but |det| = 1e-14
    rng = np.random.default_rng(5)
    u, v = (np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
            for _ in range(2))
    thin = np.vstack([np.zeros(3), u @ np.diag([1, 1e-7, 1e-7]) @ v])
    thin = ConfigLoop(4, 3, np.stack([thin, thin]))
    assert {r.dimension for r in span_reports(thin)} == {3}
    with pytest.raises(DegenerateSpanError, match="^frame 0 determinant below the floor$"):
        det_winding(thin)


def _coarse_integer_loops(seed, count):
    """Loops of k = n+1 points in C^n, n = 1..3, over 3 to 8 frames with
    integer coordinates in [-6, 6]; draws that ConfigLoop rejects are skipped."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n, frames = int(rng.integers(1, 4)), int(rng.integers(3, 9))
        re, im = rng.integers(-6, 7, size=(2, frames, n + 1, n))
        z = re + 1j * im
        z[-1] = z[0]
        try:
            out.append(ConfigLoop(n + 1, n, z))
        except LoopError:
            continue
    return out


def _dense_det_path(loop, per=2000):
    """The frame determinant at per evenly spaced points of every step of
    the piecewise-linear loop, and at its last frame."""
    rows = loop.frames[:, 1:] - loop.frames[:, :1]
    s = (np.arange(per) / per)[None, :, None, None]
    path = rows[:-1, None] + s * (rows[1:] - rows[:-1])[:, None]
    return np.linalg.det(np.concatenate((path.reshape(-1, loop.n, loop.n), rows[-1:])))


def test_winding_matches_dense_resampling_on_coarse_loops():
    # a step's determinant can wind although its end values differ by less
    # than pi/2 in argument; the certified reading follows the
    # piecewise-linear loop and refuses only loops whose determinant nears 0
    coarse = loop_from_json_obj(helpers.COARSE_WINDING_LOOP)
    assert det_winding(coarse) == 1 == helpers.unwrap_winding(_dense_det_path(coarse))
    outcomes = set()
    for loop in _coarse_integer_loops(1, 300):
        got = _outcome(det_winding, loop)
        dense = _dense_det_path(loop)
        if isinstance(got, int):
            assert got == helpers.unwrap_winding(dense)
        else:
            assert got[0] is DegenerateSpanError and np.min(np.abs(dense)) < 1e-2
        outcomes.add(got if isinstance(got, int) else got[1])
    assert {-2, -1, 0, 1, 2, "determinant dropped below the floor between frames"} <= outcomes


def test_winding_needs_pointwise_closure():
    # the half-turn swap closes only as a set: its determinant path ends at -det
    with pytest.raises(LoopError, match="closed pointwise"):
        det_winding(_half_turn())


# ---------------------------------------------------------------------------
# JSON form


def test_json_round_trip():
    g = make_gamma_loop(3)
    obj = loop_to_json_obj(g)
    assert obj["k"] == 3 and obj["n"] == 2 and obj["closed"] is True
    # signed zeros and subnormals, and the swap of two points past the float
    # range's modulus (CI's huge.json)
    tiny = _loop_from_points(2, 2, [[[complex(-0.0, 5e-324), 1], [1, complex(-5e-324, -0.0)]]] * 3)
    c, z = 1.3e308 * (1 + 1j), 1e307 * np.exp(1j * np.pi * np.arange(65) / 64)
    huge = _loop_from_points(2, 1, np.stack([c + z, c - z], axis=1)[:, :, None])
    for loop in (g, make_h_loop(3), tiny, huge):
        back = loop_from_json_obj(loop_to_json_obj(loop))
        assert (back.k, back.n) == (loop.k, loop.n)
        assert back.frames.tobytes() == loop.frames.tobytes()
    assert np.signbit(tiny.frames.real).sum() == 6 and np.signbit(tiny.frames.imag).sum() == 3


def test_json_malformed():
    good = loop_to_json_obj(_half_turn())
    for broken in (
        {},
        {k: v for k, v in good.items() if k != "frames"},
        {**good, "closed": False},
        {**good, "closed": "false"},
        {**good, "k": 2.7},
        {**good, "k": "2"},
        {**good, "n": True},
        {**good, "frames": "xyz"},
        {**good, "frames": [[[0.0]]]},
    ):
        with pytest.raises(LoopError):
            loop_from_json_obj(broken)


# ---------------------------------------------------------------------------
# batched loop layer against the frame-by-frame references


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except LoopError as exc:
        return type(exc), str(exc)


def _mixed_sign_loop(tied_midpoint):
    # strand 0 sweeps across the other two, passing below one and above the
    # other, so every step mixes signs; with a tied midpoint the float
    # reference finds a real-part tie at its first bisection frame
    middle = 0 if tied_midpoint else -1
    e = [[-3 + 0j], [middle + 1j], [1 - 1j]]
    f = [[3 + 0j], [middle + 1j], [1 - 1j]]
    return _loop_from_points(3, 1, [e, f, e])


def _random_line_loops(seed, count):
    """Coarsely sampled loops of points circling on one complex line in C^n;
    invalid draws (coincident points) are skipped."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k, n, frames = int(rng.integers(2, 6)), int(rng.integers(1, 3)), int(rng.integers(4, 40))
        ts = np.arange(frames) / (frames - 1)
        centres = rng.normal(size=k) * 2 + 1j * rng.normal(size=k)
        radii = rng.uniform(0.2, 1.5, size=k)
        turns = rng.integers(-1, 2, size=k)
        z = centres + radii * np.exp(2j * np.pi * np.outer(ts, turns))
        z[-1] = z[0]
        direction = rng.normal(size=n) + 1j * rng.normal(size=n)
        try:
            out.append(ConfigLoop(k, n, z[:, :, None] * (direction / np.linalg.norm(direction))))
        except LoopError:
            continue
    return out


def _random_h_loops(seed, count):
    """k = n+1 points in general position, the last circling the first
    `turns` times over few frames, so steps often need refinement."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n, frames = int(rng.integers(1, 4)), int(rng.integers(3, 30))
        pts = rng.normal(size=(n + 1, n)) + 1j * rng.normal(size=(n + 1, n))
        z = np.exp(2j * np.pi * int(rng.integers(-2, 3)) * np.arange(frames) / (frames - 1))
        arr = np.repeat(pts[None], frames, axis=0)
        arr[:, n] = pts[0] + z[:, None] * (pts[n] - pts[0])
        arr[-1] = arr[0]
        try:
            out.append(ConfigLoop(n + 1, n, arr))
        except LoopError:
            continue
    return out


def test_batched_braid_extraction_matches_per_frame_reference():
    # the exact reader spells every word the float reference reads byte for
    # byte; a real collision is a TieError in both
    cases = [make_gamma_loop(k) for k in range(2, 8)] + [
        make_gamma_loop(4, 775),  # ties
        _half_turn(+1),
        _half_turn(-1, 129),
        _full_turn(),
        _mixed_sign_loop(False),
        _mixed_sign_loop(True),
        _loop_from_points(2, 1, [[[-1], [1]], [[1], [-1]], [[-1], [1]]]),  # head-on
    ]
    for seed in (7, 13, 99):
        cases += _random_line_loops(seed, 200)
    kinds = set()
    for loop in cases:
        got = _outcome(extract_braid, loop)
        assert got == _outcome(helpers.reference_extract_braid, loop)
        kinds.add(type(got).__name__ if isinstance(got, BraidWord) else got[0].__name__)
    assert kinds == {"BraidWord", "TieError"}


def _differential_loops(seed, count):
    """Loops of k = 2..5 points in C over 3 to 6 frames: integer grids (exact
    ties and collisions), the same grids shifted by amounts at or below an
    ulp, and random floats; draws that ConfigLoop rejects are skipped."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k, frames, kind = int(rng.integers(2, 6)), int(rng.integers(3, 7)), len(out) % 3
        if kind == 2:
            z = rng.normal(size=(frames, k)) + 1j * rng.normal(size=(frames, k))
        else:
            re, im = rng.integers(-2, 3, size=(2, frames, k))
            z = re + 1j * im
            if kind == 1:
                shift = (2.0**-52, 2.0**-60, 1e-17, 1e-300)[int(rng.integers(4))]
                re, im = rng.integers(-1, 2, size=(2, frames, k))
                z = z + shift * (re + 1j * im)
        z[-1] = z[0]
        try:
            out.append(ConfigLoop(k, 1, z[:, :, None]))
        except LoopError:
            continue
    return out


def _reflected_loops(seed, count):
    """Coarse dyadic loops of k = 3..6 points in C whose every step mirrors
    the real parts about one point, so that all of a step's crossings share
    the time 1/2 and their signs, set by random imaginary parts, often mix.
    The real parts walk out and back through the same reflections; the
    imaginary parts are drawn afresh at every frame but the last."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k, steps = int(rng.integers(3, 7)), int(rng.integers(1, 4))
        xs = [rng.integers(-4, 5, size=k)]
        for _ in range(steps):
            xs.append(rng.integers(-2, 3) - xs[-1])
        xs += xs[-2::-1]
        z = np.array(xs) + 1j * rng.integers(-2, 3, size=(len(xs), k)) / 2
        z *= 2.0 ** -int(rng.integers(0, 4))
        z[-1] = z[0]
        try:
            out.append(ConfigLoop(k, 1, z[:, :, None]))
        except LoopError:
            continue
    return out


def _close_times_loop(bits):
    """Two disjoint pairs cross in each step, with real-part changes
    b = M = 2^bits - 1, the step's largest, and b = M - 2.  On the way out
    they cross at (h-2)/(M-2) and (h-1)/M, with h = 2^(bits-1): times
    1/(M(M-2)) apart, just above 2^-2bits, whose floors at the scale
    2^-(2bits-1) are equal.  The earlier crossing is positive both ways, so
    the sign order of a tie would swap them."""
    h = 2 ** (bits - 1)
    e = [1j, h - 1, 4 * h, 5 * h - 2 + 1j]
    f = [h + 1j, 0, 5 * h - 1, 4 * h + 1j]
    return _loop_from_points(4, 1, [[[x / h] for x in frame] for frame in (e, f, e)])


def test_integer_reader_matches_the_float_filter_reader():
    # every crossing decided in integers gives the words and the collisions
    # of the reader that decided them in floats under rounding bounds, also
    # where crossings of opposite sign share a time or nearly do
    kinds = set()
    cases = _differential_loops(17, 3000) + _reflected_loops(19, 1000)
    for loop in cases:
        got = _outcome(extract_braid, loop)
        assert got == _outcome(helpers.reference_filtered_extract_braid, loop)
        kinds.add(type(got).__name__ if isinstance(got, BraidWord) else got[0].__name__)
    assert kinds == {"BraidWord", "TieError"}
    for bits in (4, 8, 20, 40, 50):
        loop = _close_times_loop(bits)
        got = extract_braid(loop)
        assert got == helpers.reference_filtered_extract_braid(loop)
        assert got.letters == ((3, 1), (1, -1), (1, 1), (3, -1))


def test_import_loads_no_rational_arithmetic():
    # every crossing is decided in integers, so neither fractions nor decimal is imported
    code = "import sys, confgroups; print(sorted({'decimal', 'fractions'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(loops.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout == "[]\n", out.stderr


def test_batched_span_and_winding_match_per_frame_reference(monkeypatch):
    collinear = _loop_from_points(3, 2, [[[0, 0], [1, 0], [2, 0]]] * 4)
    cases = [make_h_loop(2), make_h_loop(3, 775), make_gamma_loop(3),
             collinear, _loop_from_points(1, 2, [[[0, 0]], [[1j, 0]], [[0, 0]]])]
    cases += _random_h_loops(11, 80) + _random_line_loops(13, 10)
    windings = set()
    for loop in cases:
        got = [(r.frame_index, r.singular_values, r.dimension) for r in span_reports(loop)]
        assert got == helpers.reference_span_reports(loop)
        for budget in (0, 3, 1024):
            monkeypatch.setattr(loops, "_REFINE_BUDGET", budget)
            w = _outcome(det_winding, loop)
            assert w == _outcome(helpers.reference_det_winding, loop, refine_budget=budget)
            windings.add(w if isinstance(w, int) else w[0].__name__)
    assert {-2, -1, 0, 1, 2, "LoopError", "DegenerateSpanError"} <= windings


_numbers = st.one_of(
    st.integers(), st.floats(), st.booleans(),
    st.sampled_from((10**400, -(10**400), 2**63, 2**64 + 1, math.inf, math.nan)),
)
_json_values = st.recursive(
    st.one_of(_numbers, st.none(), st.text(max_size=2)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12,
)


@st.composite
def _loop_json_objs(draw):
    """Loop JSON that is well formed (constant frames, which always close)
    except where a leaf, a pair or a frame is replaced by an arbitrary value."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    pair = st.lists(_numbers, min_size=2, max_size=2)
    frame = draw(st.lists(st.lists(pair, min_size=n, max_size=n), min_size=k, max_size=k))
    frames = [frame] * draw(st.integers(0, 3))
    if frames and draw(st.booleans()):
        t, p, c = (draw(st.integers(0, len(x) - 1)) for x in (frames, frame, frame[0]))
        frames[t] = [list(map(list, pt)) for pt in frames[t]]
        target = draw(st.sampled_from(("leaf", "pair", "frame")))
        if target == "leaf":
            frames[t][p][c][draw(st.integers(0, 1))] = draw(_json_values)
        elif target == "pair":
            frames[t][p][c] = draw(_json_values)
        else:
            frames[t] = draw(_json_values)
    obj = {"k": draw(st.one_of(st.just(k), _json_values)), "n": n, "frames": frames}
    if draw(st.booleans()):
        obj["frames"] = draw(_json_values)
    return obj


_ONE_FRAME = [[[0, 0]], [[1, 0]]]


@settings(max_examples=300, deadline=None)
@given(_loop_json_objs())
@example({"k": 2.7, "n": 1, "frames": [_ONE_FRAME] * 2})
@example({"k": "2", "n": 1, "frames": [_ONE_FRAME] * 2})
@example({"k": 2, "n": True, "frames": [_ONE_FRAME] * 2})
@example({"k": 2, "n": 1, "frames": [_ONE_FRAME] * 2, "closed": "false"})
def test_loop_json_fuzz_raises_only_loop_errors(obj):
    try:
        expected = helpers.reference_loop_from_json_obj(obj)
    except Exception:  # the reference lets TypeError, OverflowError, ... escape
        expected = None
    try:
        got = loop_from_json_obj(obj)
    except LoopError:
        got = None
    assert (got is None) == (expected is None)
    if got is not None:
        assert (got.k, got.n) == (expected.k, expected.n)
        assert got.frames.tobytes() == expected.frames.tobytes()  # -0.0 and NaN payloads too


_MALFORMED = "malformed loop JSON: frames must be nested lists of [re, im] number pairs"


def _read_outcome(reader, obj):
    try:
        loop = reader(obj)
    except LoopError as exc:
        return "refused", str(exc)
    return "read", (loop.k, loop.n, loop.frames.shape, loop.frames.tobytes())


def _numpy_reader_outcome(obj):
    """The earlier reader's outcome, with the two messages the one-pass reader
    words differently: numpy's ragged-shape text, and the overflow it named
    for a regular nest of numbers that is not one of [re, im] pairs."""
    kind, value = _read_outcome(helpers.reference_numpy_loop_reader, obj)
    if kind == "refused" and (
        value.startswith("malformed loop JSON: setting an array element with a sequence")
        or value.endswith("int too large to convert to float")
        and (len(np.shape(obj["frames"])) != 4 or np.shape(obj["frames"])[-1] != 2)
    ):
        value = _MALFORMED
    return kind, value


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(_loop_json_objs())
def test_json_reader_matches_the_numpy_reader(obj):
    assert _read_outcome(loop_from_json_obj, obj) == _numpy_reader_outcome(obj)


def _tuples(x):
    return tuple(map(_tuples, x)) if isinstance(x, list) else x


def _json_corpus():
    """One loop JSON object per problem and nesting level: the frames list,
    the middle frame, a point and a pair of it, and a coordinate."""
    frame = [[[0.5, -0.0], [0, 1]], [[1, 0], [2, 1e-300]]]
    good = {"k": 2, "n": 2, "frames": [frame] * 3}
    problems = ([], "ab", "0", None, {"re": 0, "im": 1}, {0: 0, 1: 1}, b"\x00\x01", True,
                2**64 + 1, 10**400, np.float64(0.25), np.int64(3), "ragged", "tuples")
    for depth in range(5):
        for problem in problems:
            obj = copy.deepcopy(good)
            parent, key = obj, "frames"
            for index in (1, 0, 1, 0)[:depth]:
                parent, key = parent[key], index
            item = parent[key]
            if problem == "ragged":  # one item fewer than its siblings, or a list for a number
                problem = [frame, frame[0]] if depth == 0 else item[:-1] if depth < 4 else [item]
            elif problem == "tuples":
                problem = _tuples(item)
            parent[key] = problem
            yield obj
    yield {**good, "k": 3}  # a regular array of the wrong (k, n)
    yield {**good, "n": 1}
    yield {**good, "frames": [frame]}  # one frame
    yield {**good, "frames": [[[[1, 0, 0]], [[0, 1, 0]]]] * 2}  # triples
    # a number past the float range beside one that is not a number
    yield {**good, "frames": [[[[10**400, 0]], [[0, 1]]], [[[None, 0]], [[0, 1]]]]}
    yield {**good, "frames": [[[[10**400, 0]], [[0, 1]]]] * 2}


def test_json_reader_matches_the_numpy_reader_on_a_corpus():
    outcomes = set()
    for obj in _json_corpus():
        got = _read_outcome(loop_from_json_obj, obj)
        assert got == _numpy_reader_outcome(obj), obj
        outcomes.add(got[0] if got[0] == "read" else got[1])
    assert {"read", _MALFORMED, "a loop needs at least 2 frames",
            "malformed loop JSON: int too large to convert to float"} <= outcomes
