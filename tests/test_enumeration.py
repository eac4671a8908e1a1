import json

import pytest

from hwsg import (
    CorpusSpec,
    NumericalSemigroup,
    genus_tree,
    gluing_closure,
    symmetric_below,
    verify_hw_corpus,
)
from hwsg import enumeration
from hwsg.cli import run

from conftest import oracle_genus_census, oracle_symmetric_gapsets


class TestGenusTree:
    def test_counts_match_oracle(self):
        census = oracle_genus_census(7)
        counts = {g: 0 for g in range(8)}
        for gamma in genus_tree(7):
            counts[gamma.genus] += 1
        assert counts == census
        assert [counts[g] for g in range(8)] == [1, 1, 2, 4, 7, 12, 23, 39]

    def test_no_duplicates(self):
        seen = set()
        for gamma in genus_tree(7):
            assert gamma.minimal_generators not in seen
            seen.add(gamma.minimal_generators)

    def test_children_consistent(self):
        # every non-root node is its parent minus one generator above the
        # parent's Frobenius number; spot-check structural invariants instead
        for gamma in genus_tree(6):
            rebuilt = NumericalSemigroup.from_generators(gamma.minimal_generators)
            assert rebuilt.frobenius == gamma.frobenius
            assert rebuilt.genus == gamma.genus
            assert rebuilt.minimal_generators == gamma.minimal_generators

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            list(genus_tree(-1))


class TestSymmetricBelow:
    def test_frobenius_seven(self):
        got = {g.minimal_generators for g in symmetric_below(8)}
        want_f7 = {(2, 9), (3, 5), (4, 5, 6)}
        assert {t for t in got if NumericalSemigroup.from_generators(t).frobenius == 7} == want_f7

    def test_matches_gapset_oracle(self):
        for frob in (3, 5, 7, 9, 11):
            expected = {
                gs for gs in oracle_symmetric_gapsets(frob)
            }
            got = {
                frozenset(g.gaps())
                for g in symmetric_below(frob + 1)
                if g.frobenius == frob
            }
            assert got == expected

    def test_all_symmetric_and_bounded(self):
        for g in symmetric_below(20):
            assert 0 < g.frobenius < 20
            assert g.is_symmetric()


class TestGluingClosure:
    def test_depth_zero_is_seeds(self):
        seeds = [
            NumericalSemigroup.from_generators([2, 3]),
            NumericalSemigroup.from_generators([1]),
        ]
        got = list(gluing_closure(seeds, 0))
        assert [g.minimal_generators for g in got] == [(2, 3), (1,)]

    def test_depth_one_contains_469(self):
        seeds = [
            NumericalSemigroup.from_generators([2, 3]),
            NumericalSemigroup.from_generators([1]),
        ]
        gens = {g.minimal_generators for g in gluing_closure(seeds, 1, 10)}
        assert (4, 6, 9) in gens
        assert (2, 3) in gens and (1,) in gens

    def test_no_duplicates(self):
        seeds = [
            NumericalSemigroup.from_generators([2, 3]),
            NumericalSemigroup.from_generators([1]),
        ]
        out = [g.minimal_generators for g in gluing_closure(seeds, 2, 6)]
        assert len(out) == len(set(out))


class TestVerifyCorpus:
    def test_small_symmetric_run(self):
        report = verify_hw_corpus(CorpusSpec(mode="symmetric-below", bound=14))
        assert report.all_hw
        assert report.semigroups == sum(1 for _ in symmetric_below(14))
        assert report.ideals_checked > 0
        assert report.counterexamples == []

    def test_genus_tree_mode(self):
        report = verify_hw_corpus(
            CorpusSpec(mode="genus-tree", max_genus=4, cross_check=False)
        )
        assert report.semigroups == 1 + 1 + 2 + 4 + 7
        assert report.all_hw

    def test_parallel_matches_serial(self):
        for spec in (
            dict(mode="symmetric-below", bound=12),
            dict(mode="genus-tree", max_genus=5),
        ):
            serial = verify_hw_corpus(CorpusSpec(**spec, jobs=1))
            parallel = verify_hw_corpus(CorpusSpec(**spec, jobs=2))
            assert serial.records == parallel.records

    def test_oracle_disagreement_reported(self, monkeypatch, capsys):
        # a sequence search that always misses disagrees with every hw
        # verdict; the corpus reports that instead of raising
        monkeypatch.setattr(enumeration, "find_irreducible_two_step", lambda g, s: None)
        report = verify_hw_corpus(CorpusSpec(mode="symmetric-below", bound=12))
        assert not report.all_hw
        assert report.ideals_checked > 0
        kinds = [c["kind"] for c in report.counterexamples]
        assert kinds == ["oracle-disagreement"] * report.ideals_checked
        assert {c["verdict"] for c in report.counterexamples} == {"hw"}

        monkeypatch.delenv("HW_JOBS", raising=False)
        assert run(["corpus", "verify", "--bound", "12"]) == 0
        assert '"all_hw": false' in capsys.readouterr().out

    def test_json_lines_output(self, tmp_path):
        out = tmp_path / "report.jsonl"
        report = verify_hw_corpus(
            CorpusSpec(mode="symmetric-below", bound=10, output=str(out))
        )
        lines = out.read_text().splitlines()
        assert len(lines) == report.semigroups
        rec = json.loads(lines[0])
        assert set(rec) >= {"generators", "frobenius", "genus", "all_hw"}

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            list(CorpusSpec(mode="bogus").corpus())
