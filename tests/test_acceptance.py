"""Acceptance gate: the ten headline checks at their full stated sizes.

Each criterion runs as one test and reports one line; the terminal summary
(see conftest.py) echoes every line after the run.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

import helpers
from confgroups.braids import (
    BraidWord,
    PureGeneratorId,
    d_word,
    delta_word,
    equal_in_braid,
    garside_normal_form,
    inverse,
    multiply,
    power,
    pure_generator,
)
from confgroups.fpgroups import (
    AbelianInvariants,
    abelianization,
    builtin_presentation,
    inverse_word,
    todd_coxeter,
    verify_homomorphism,
)
from confgroups.groups import (
    ORDERED,
    UNORDERED,
    EmptyStratumError,
    classify,
    central_element,
    descriptor_for,
    element_from_word,
    equal_in_group,
    geometric_to_artin_word,
    sigma_prime,
)
from confgroups.loops import (
    ConfigLoop,
    det_winding,
    extract_braid,
    make_gamma_loop,
    make_h_loop,
    reverse,
)
from confgroups.verify import paper_verification_suite

CRITERION_LINES: list[str] = []


@contextmanager
def criterion(num: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _record(num, description, time.perf_counter() - start, False)
        raise
    elapsed = time.perf_counter() - start
    ok = budget is None or elapsed < budget
    _record(num, description, elapsed, ok)
    assert ok, f"criterion {num} took {elapsed:.2f} s, over the {budget} s budget"


def _record(num: int, description: str, elapsed: float, ok: bool) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} — {description} ({elapsed:.2f} s)"
    CRITERION_LINES.append(line)
    print(line)


def test_criterion_1_full_twist_is_half_twist_squared():
    with criterion(1, "D_k = Delta_k^2 in B_k for k = 2..6, exact normal forms", budget=1.0):
        for k in range(2, 7):
            assert equal_in_braid(d_word(k), power(delta_word(k), 2))
            nf = garside_normal_form(d_word(k))
            assert nf.delta_power == 2 and not nf.factors


def test_criterion_2_pure_braid_relators_map_to_identities():
    with criterion(2, "all YB3/YB4 relators map to braid identities for k = 3..5", budget=5.0):
        for k in range(3, 6):
            p = builtin_presentation("pure_braid", k)
            images = {
                f"a{i}_{j}": pure_generator(PureGeneratorId(i, j, k))
                for j in range(2, k + 1)
                for i in range(1, j)
            }
            report = verify_homomorphism(
                p,
                images,
                multiply=multiply,
                inverse=inverse,
                identity=BraidWord(k),
                equals=equal_in_braid,
            )
            assert report.passes, (k, report.failed_relators())


def test_criterion_3_coset_enumeration_orders():
    with criterion(3, "index of <T^m> in the top group is m(n+1)! for n = 2,3; m = 1,2,3", budget=10.0):
        for n in (2, 3):
            p = builtin_presentation("unordered_top", n + 1)
            for m in (1, 2, 3):
                table = todd_coxeter(p, subgroup=(((("s1", 1),) * (2 * m)),))
                assert table.status == "complete"
                assert table.num_cosets == m * math.factorial(n + 1), (n, m)
                assert table.verify()


def test_criterion_4_word_problem_matches_coset_oracle():
    with criterion(4, "(twist, perm) word problem agrees with the coset oracle on 1200 pairs"):
        rng = random.Random(97)
        m = 3
        checked = 0
        for n in (2, 3):
            k = n + 1
            d = descriptor_for("central_ext_top", k)
            p = builtin_presentation("unordered_top", k)
            table = todd_coxeter(p, subgroup=(((("s1", 1),) * (2 * m)),))
            assert table.status == "complete"
            for _ in range(600):
                u = BraidWord(k, tuple(helpers.random_letters(rng, k, rng.randrange(0, 13))))
                v = BraidWord(k, tuple(helpers.random_letters(rng, k, rng.randrange(0, 13))))
                eu = element_from_word(d, u).payload
                ev = element_from_word(d, v).payload
                model = eu.perm == ev.perm and (eu.twist - ev.twist) % m == 0
                quotient = geometric_to_artin_word(u) + inverse_word(geometric_to_artin_word(v))
                oracle = table.trace(quotient) == 0
                assert model == oracle, (u, v)
                checked += 1
        assert checked >= 1000


def test_criterion_5_abelianization_table():
    with criterion(5, "abelianization table across the presentation family", budget=1.0):
        for k in range(2, 6):
            assert abelianization(builtin_presentation("artin", k)) == AbelianInvariants(1, ())
        for k in range(3, 6):
            assert abelianization(
                builtin_presentation("braid_mod_delta_sq", k)
            ) == AbelianInvariants(0, (k * (k - 1),))
            assert abelianization(
                builtin_presentation("pure_braid_mod_D", k)
            ) == AbelianInvariants(k * (k - 1) // 2 - 1, ())
        assert abelianization(builtin_presentation("pure_braid_mod_D", 2)).is_trivial()


def test_criterion_6_gamma_loop_extraction():
    with criterion(6, "extract_braid(gamma_k) = Delta_k^2 for k = 3, 4 at 1x and 2x frames", budget=5.0):
        for k in (3, 4):
            target = garside_normal_form(power(delta_word(k), 2))
            for frames in (None, 2 * 8 * k * k):
                braid = extract_braid(make_gamma_loop(k, frames))
                assert garside_normal_form(braid) == target, (k, frames)


def test_criterion_7_h_loop_winding():
    with criterion(7, "det_winding(h_n) = 1 and -1 time-reversed for n = 1..3", budget=1.0):
        for n in (1, 2, 3):
            h = make_h_loop(n)
            assert det_winding(h) == 1
            assert det_winding(reverse(h)) == -1


def test_criterion_8_sigma_prime_relations():
    with criterion(8, "sigma' braid/commutation relations and equal squares for n <= 4"):
        for n in range(2, 5):
            d = descriptor_for("central_ext_top", n + 1)
            t = central_element(n)
            for i in range(1, n):
                lhs = multiply(multiply(sigma_prime(i, n), sigma_prime(i + 1, n)), sigma_prime(i, n))
                rhs = multiply(multiply(sigma_prime(i + 1, n), sigma_prime(i, n)), sigma_prime(i + 1, n))
                assert equal_in_group(d, lhs, rhs), (n, i)
            for i in range(1, n + 1):
                for j in range(i + 2, n + 1):
                    lhs = multiply(sigma_prime(i, n), sigma_prime(j, n))
                    rhs = multiply(sigma_prime(j, n), sigma_prime(i, n))
                    assert equal_in_group(d, lhs, rhs), (n, i, j)
            for i in range(1, n + 1):
                sq = multiply(sigma_prime(i, n), sigma_prime(i, n))
                assert equal_in_group(d, sq, t), (n, i)


def test_criterion_9_classification_sweep():
    with criterion(9, "classify sweep k <= 8, n <= 6: one case each, generic off the loci"):
        for flavor in (ORDERED, UNORDERED):
            for k in range(1, 9):
                for n in range(1, 7):
                    for i in range(0, n + 1):
                        nonempty = i <= min(k - 1, n) and (i == 0) == (k == 1)
                        if not nonempty:
                            try:
                                classify(k, i, n, flavor)
                            except EmptyStratumError:
                                continue
                            raise AssertionError(f"empty stratum accepted: {(k, i, n, flavor)}")
                        d = classify(k, i, n, flavor)
                        exceptional = i == 1 or (i == n == k - 1)
                        generic = d.tag in ("trivial", "symmetric")
                        assert generic == (not exceptional), (k, i, n, flavor, d.tag)
                        if i == 1:
                            expected = {
                                (ORDERED, True): "pure_braid",
                                (ORDERED, False): "pure_braid_mod_D",
                                (UNORDERED, True): "braid",
                                (UNORDERED, False): "braid_mod_delta_sq",
                            }[(flavor, n == 1)]
                        elif i == n == k - 1:
                            expected = "integers" if flavor == ORDERED else "central_ext_top"
                        else:
                            expected = "trivial" if flavor == ORDERED else "symmetric"
                        assert d.tag == expected, (k, i, n, flavor)


def test_criterion_10_property_suites():
    with criterion(10, "property suites at stated sizes; full verification pass", budget=60.0):
        # normal-form soundness: 10^4 relator insertions, k <= 6, length <= 60
        rng = random.Random(101)
        for _ in range(10_000):
            k = rng.randint(2, 6)
            letters = helpers.random_letters(rng, k, rng.randrange(0, 61))
            u = BraidWord(k, tuple(letters))
            v = BraidWord(k, tuple(helpers.insert_relator(letters, k, rng)))
            assert garside_normal_form(u) == garside_normal_form(v)

        # equal_in_group congruence: 10^3 relator insertions per tag
        for tag, parameter in (
            ("integers", 0),
            ("symmetric", 4),
            ("braid", 4),
            ("pure_braid", 4),
            ("braid_mod_delta_sq", 4),
            ("pure_braid_mod_D", 4),
            ("central_ext_top", 4),
        ):
            d = descriptor_for(tag, parameter)
            rng = random.Random(1000 + len(tag))
            for _ in range(1000):
                w = helpers.random_group_word(d, rng, rng.randrange(0, 11))
                v = helpers.insert_group_relator(d, w, rng)
                assert equal_in_group(d, w, v), (tag, w, v)
        trivial = descriptor_for("trivial")
        assert equal_in_group(trivial, None, None)  # no relators to insert

        # refinement stability: doubling frames changes no extracted invariant
        for k in (3, 4):
            once = garside_normal_form(extract_braid(make_gamma_loop(k)))
            twice = garside_normal_form(extract_braid(make_gamma_loop(k, 2 * 8 * k * k)))
            assert once == twice
        for n in (1, 2, 3):
            assert det_winding(make_h_loop(n)) == det_winding(make_h_loop(n, 128))
        ts = np.arange(65) / 64
        z = np.exp(1j * np.pi * ts)
        swap = ConfigLoop(2, 1, np.stack([z, -z], axis=1)[:, :, None])
        ts2 = np.arange(129) / 128
        z2 = np.exp(1j * np.pi * ts2)
        swap2 = ConfigLoop(2, 1, np.stack([z2, -z2], axis=1)[:, :, None])
        assert garside_normal_form(extract_braid(swap)) == garside_normal_form(
            extract_braid(swap2)
        )

        # the packaged end-to-end verification suite
        report = paper_verification_suite(max_k=5)
        assert report.passes, [r.claim_id for r in report.results if r.status != "pass"]
