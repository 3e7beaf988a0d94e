"""The bundled verification suite: every claim passes, deterministically."""

import pytest

from confgroups import braids
from confgroups.braids import BraidError
from confgroups.cli import main
from confgroups.verify import paper_verification_suite


def test_suite_passes():
    report = paper_verification_suite(max_k=5)
    assert report.passes
    assert len(report.results) >= 40
    for r in report.results:
        assert r.status == "pass", (r.claim_id, r.witness)


def test_report_schema():
    report = paper_verification_suite(max_k=3)
    obj = report.to_json_obj()
    assert isinstance(obj, list) and obj
    for entry in obj:
        assert set(entry) == {"claim_id", "paper_anchor", "status", "witness"}
        assert all(isinstance(v, str) for v in entry.values())
    ids = [entry["claim_id"] for entry in obj]
    assert len(ids) == len(set(ids))


def test_claim_families_present():
    report = paper_verification_suite(max_k=4)
    ids = {r.claim_id for r in report.results}
    for needle in (
        "full-twist-is-delta-squared-k4",
        "pure-braid-relators-map-to-braid-identities-k4",
        "half-twist-square-is-central-k4",
        "sigma-prime-squares-all-equal-n3",
        "coset-order-n2-m3",
        "tau-kills-central-image-n2",
        "tau-kernel-is-powers-of-central-element-n2",
    ):
        assert needle in ids, needle
    assert any(i.startswith("abelianization-") for i in ids)


def test_suite_is_deterministic():
    a = paper_verification_suite(max_k=4)
    b = paper_verification_suite(max_k=4)
    assert a.to_json_obj() == b.to_json_obj()


def test_suite_rejects_small_max_k():
    with pytest.raises(ValueError):
        paper_verification_suite(max_k=2)


def test_suite_refuses_a_max_k_past_the_letter_budget_before_any_claim(monkeypatch, capsys):
    def no_claims(word):
        raise AssertionError("a claim ran")

    monkeypatch.setattr(braids, "garside_normal_form", no_claims)
    # d_word(145) has 1,016,160 letters, over the limit of 1,000,000; d_word(144) 995,280
    assert main(["verify-paper", "--max-k", "145"]) == 1
    assert "1016160 letters" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="a claim ran"):
        paper_verification_suite(max_k=144)
    # d_word(6) has 70 letters and d_word(7) 112
    monkeypatch.setattr(braids, "_MAX_LETTERS", 100)
    with pytest.raises(BraidError, match="112 letters"):
        paper_verification_suite(max_k=7)
    with pytest.raises(AssertionError, match="a claim ran"):
        paper_verification_suite(max_k=6)
