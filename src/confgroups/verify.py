"""End-to-end verification of the classification's checkable identities.

Every claim is a concrete, machine-checkable group identity; the report pairs
each with the mathematical statement it instantiates (paper_anchor), a
pass/fail status, and a short witness of what was computed.  All randomness is
seeded, so reports are deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import braids as _b
from . import fpgroups as _f
from . import groups as _g


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    paper_anchor: str
    status: str  # "pass" | "fail"
    witness: str


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[ClaimResult, ...]

    @property
    def passes(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_json_obj(self) -> list[dict[str, str]]:
        return [
            {
                "claim_id": r.claim_id,
                "paper_anchor": r.paper_anchor,
                "status": r.status,
                "witness": r.witness,
            }
            for r in self.results
        ]


def _claim(claim_id: str, anchor: str, ok: bool, witness: str) -> ClaimResult:
    return ClaimResult(claim_id, anchor, "pass" if ok else "fail", witness)


def _random_word(rng: random.Random, k: int, length: int) -> _b.BraidWord:
    return _b.BraidWord(
        k, tuple((rng.randrange(1, k), rng.choice((1, -1))) for _ in range(length))
    )


def _full_twist_claims(max_k: int) -> list[ClaimResult]:
    out = []
    for k in range(2, max_k + 1):
        nf = _b.garside_normal_form(_b.d_word(k))
        ok = nf == _b.garside_normal_form(_b.power(_b.delta_word(k), 2))
        out.append(
            _claim(
                f"full-twist-is-delta-squared-k{k}",
                f"D_{k} = Delta_{k}^2 in B_{k}",
                ok and nf.delta_power == 2 and not nf.factors,
                f"garside_normal_form(d_word({k})) = {nf}",
            )
        )
    return out


def _inclusion_claims(max_k: int) -> list[ClaimResult]:
    out = []
    for k in range(3, min(max_k, 5) + 1):
        pres = _f.builtin_presentation("pure_braid", k)
        images = dict(zip(pres.generators, map(_b.pure_generator, _b.pure_generator_order(k))))
        report = _f.verify_homomorphism(
            pres,
            images,
            multiply=_b.multiply,
            inverse=_b.inverse,
            identity=_b.BraidWord(k),
            equals=_b.equal_in_braid,
        )
        pure_images = all(
            _b.permutation_image(w).is_identity() for w in images.values()
        )
        out.append(
            _claim(
                f"pure-braid-relators-map-to-braid-identities-k{k}",
                f"a[i,j] -> s(j-1)..s(i+1) s_i^2 s(i+1)^-1..s(j-1)^-1 extends to PB_{k} -> B_{k}",
                report.passes and pure_images,
                f"{len(report.results)} relators scanned, "
                f"{len(report.failed_relators())} failed",
            )
        )
    return out


def _centrality_claims(max_k: int, rng: random.Random) -> list[ClaimResult]:
    out = []
    for k in range(2, min(max_k, 5) + 1):
        dd = _b.power(_b.delta_word(k), 2)
        cases = 25
        ok = all(
            _b.equal_in_braid(
                _b.multiply(dd, w), _b.multiply(w, dd)
            )
            for w in (_random_word(rng, k, rng.randrange(0, 21)) for _ in range(cases))
        )
        out.append(
            _claim(
                f"half-twist-square-is-central-k{k}",
                f"Delta_{k}^2 commutes with every element of B_{k}",
                ok,
                f"{cases} random words of length <= 20",
            )
        )
    return out


def _sigma_prime_claims() -> list[ClaimResult]:
    out = []
    for n in range(2, 5):
        d = _g.classify(n + 1, n, n, _g.UNORDERED)
        sp = {i: _g.sigma_prime(i, n) for i in range(1, n + 1)}

        braid_ok, braid_count = True, 0
        for i in range(1, n):
            lhs = _b.multiply(_b.multiply(sp[i], sp[i + 1]), sp[i])
            rhs = _b.multiply(_b.multiply(sp[i + 1], sp[i]), sp[i + 1])
            braid_ok &= _g.equal_in_group(d, lhs, rhs)
            braid_count += 1
        out.append(
            _claim(
                f"sigma-prime-adjacent-braid-relations-n{n}",
                "s'_i s'_(i+1) s'_i = s'_(i+1) s'_i s'_(i+1) in the top unordered group",
                braid_ok,
                f"{braid_count} adjacent pairs checked in the (twist, perm) model",
            )
        )

        for label, bound in (("two-or-more", 2), ("over-two", 3)):
            comm_ok, comm_count = True, 0
            for i in range(1, n + 1):
                for j in range(i + bound, n + 1):
                    lhs = _b.multiply(sp[i], sp[j])
                    rhs = _b.multiply(sp[j], sp[i])
                    comm_ok &= _g.equal_in_group(d, lhs, rhs)
                    comm_count += 1
            out.append(
                _claim(
                    f"sigma-prime-commutation-distance-{label}-n{n}",
                    f"s'_i s'_j = s'_j s'_i for |i-j| >= {bound} in the top unordered group",
                    comm_ok,
                    f"{comm_count} pairs checked (both distance readings are reported; "
                    "the >= 2 set is the one the presentations use)",
                )
            )

        sq = [
            _g.element_from_word(d, _b.multiply(sp[i], sp[i])).payload
            for i in range(1, n + 1)
        ]
        out.append(
            _claim(
                f"sigma-prime-squares-all-equal-n{n}",
                "s'_1^2 = s'_2^2 = ... = s'_n^2 (the central element T)",
                all(x == sq[0] for x in sq)
                and sq[0] == _g.element_from_word(d, _g.central_element(n)).payload,
                f"{n} squares, all equal to T = s1^2",
            )
        )
    return out


def _coset_order_claims() -> list[ClaimResult]:
    out = []
    for n in (2, 3):
        pres = _f.builtin_presentation("unordered_top", n + 1)
        for m in (1, 2, 3):
            sub = (tuple([("s1", 1)] * (2 * m)),)
            table = _f.todd_coxeter(pres, sub)
            expected = m * math.factorial(n + 1)
            ok = table.status == "complete" and table.num_cosets == expected
            out.append(
                _claim(
                    f"coset-order-n{n}-m{m}",
                    f"the subgroup <T^{m}> of B_{n + 1}/<s_1^2=...=s_{n}^2> has index {m}*({n + 1})!",
                    ok,
                    f"Todd-Coxeter: status {table.status}, {table.num_cosets} cosets "
                    f"(expected {expected})",
                )
            )
    return out


def _abelianization_claims(max_k: int) -> list[ClaimResult]:
    out = []
    rows: list[tuple[str, str, int, _f.AbelianInvariants]] = []
    for k in range(2, max_k + 1):
        rows.append(("artin", "Z", k, _f.AbelianInvariants(1, ())))
    for k in range(3, 6):
        rows.append(
            ("braid_mod_delta_sq", f"Z/{k * (k - 1)}", k, _f.AbelianInvariants(0, (k * (k - 1),)))
        )
    rows.append(("pure_braid_mod_D", "1", 2, _f.AbelianInvariants(0, ())))
    for k in range(3, 6):
        rank = k * (k - 1) // 2 - 1
        rows.append(("pure_braid_mod_D", f"Z^{rank}", k, _f.AbelianInvariants(rank, ())))
    for name, target, k, expected in rows:
        got = _f.abelianization(_f.builtin_presentation(name, k))
        out.append(
            _claim(
                f"abelianization-{name.replace('_', '-')}-k{k}",
                f"the abelianization of {name}({k}) is {target}",
                got == expected,
                f"smith normal form gives {got}",
            )
        )
    return out


def _exact_sequence_claims(rng: random.Random) -> list[ClaimResult]:
    out = []
    for n in (2, 3, 4):
        d = _g.classify(n + 1, n, n, _g.UNORDERED)
        ok = all(
            _g.tau(d, _b.BraidWord(n + 1, ((i, 1), (i, 1)))).is_identity()
            for i in range(1, n + 1)
        )
        ok &= all(
            _g.tau(d, _b.power(_g.central_element(n), j)).is_identity() for j in (1, 2, 3)
        )
        out.append(
            _claim(
                f"tau-kills-central-image-n{n}",
                "tau(s_i^2) = identity: the center maps trivially to Sigma_(n+1)",
                ok,
                f"squares of all {n} generators and T^j for j <= 3",
            )
        )

    for n in (2, 3):
        d = _g.classify(n + 1, n, n, _g.UNORDERED)
        pres = _f.builtin_presentation("unordered_top", n + 1)
        m = 3
        table = _f.todd_coxeter(pres, (tuple([("s1", 1)] * (2 * m)),))
        tables_ok = table.status == "complete"
        cases, agree = 120, True
        for _ in range(cases):
            w = _random_word(rng, n + 1, rng.randrange(0, 13))
            kernel_word = _b.multiply(w, _b.inverse(_lift_of_image(w, n)))
            elem = _g.element_from_word(d, kernel_word).payload
            if not elem.perm.is_identity():
                agree = False
                break
            t_power = _b.power(_g.central_element(n), elem.twist)
            lhs = table.trace(_g.geometric_to_artin_word(kernel_word))
            rhs = table.trace(_g.geometric_to_artin_word(t_power))
            agree &= lhs == rhs
        out.append(
            _claim(
                f"tau-kernel-is-powers-of-central-element-n{n}",
                "every word with identity image in Sigma_(n+1) equals a power of T",
                tables_ok and agree,
                f"{cases} random kernel words vs the coset table of <T^{m}>",
            )
        )
    return out


def _lift_of_image(w: _b.BraidWord, n: int) -> _b.BraidWord:
    """A reduced lift of tau(w) through the Artin-like generators."""
    d = _g.classify(n + 1, n, n, _g.UNORDERED)
    lift = _b.BraidWord(n + 1)
    for idx in _b._reduced_word(_g.tau(d, w).images):
        lift = _b.multiply(lift, _g.sigma_prime(idx, n))
    return lift


def paper_verification_suite(max_k: int = 5) -> VerificationReport:
    """Run every checkable identity of the classification; deterministic."""
    if max_k < 3:
        raise ValueError("max_k must be at least 3")
    _b._check_letter_budget((max_k**3 - max_k) // 3)  # d_word(max_k), the longest claim word
    rng = random.Random(20260815)
    results: list[ClaimResult] = []
    results += _full_twist_claims(max_k)
    results += _inclusion_claims(max_k)
    results += _centrality_claims(max_k, rng)
    results += _sigma_prime_claims()
    results += _coset_order_claims()
    results += _abelianization_claims(max_k)
    results += _exact_sequence_claims(rng)
    return VerificationReport(tuple(results))
