import json

import pytest

from hwsg.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestInfo:
    def test_reference_semigroup(self, capsys):
        data = invoke_json(capsys, "info", "--semigroup", "6,15,16,25,26")
        assert data == {
            "generators": [6, 15, 16, 25, 26],
            "frobenius": 35,
            "genus": 18,
            "symmetric": True,
        }

    def test_golden_bytes(self, capsys):
        _, out, _ = invoke(capsys, "info", "--semigroup", "3,5")
        assert out == (
            '{"frobenius": 7, "generators": [3, 5], "genus": 4, '
            '"symmetric": true}\n'
        )

    def test_angle_bracket_input(self, capsys):
        data = invoke_json(capsys, "info", "--semigroup", "<3,5>")
        assert data["generators"] == [3, 5]

    def test_json_input(self, capsys):
        data = invoke_json(capsys, "info", "--semigroup", '{"generators": [3, 5]}')
        assert data["generators"] == [3, 5]

    def test_text_format(self, capsys):
        code, out, _ = invoke(capsys, "--format", "text", "info", "--semigroup", "3,5")
        assert code == 0
        assert "frobenius: 7" in out.splitlines()

    def test_domain_error(self, capsys):
        code, out, err = invoke(capsys, "info", "--semigroup", "2,4")
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "not-coprime"

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["info"])
        assert exc.value.code == 2

    def test_too_large(self, capsys):
        code, _, err = invoke(capsys, "info", "--semigroup", "2,524289")
        assert code == 1
        assert json.loads(err)["error"] == "too-large"

    def test_bad_jobs_variable_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("HW_JOBS", "abc")
        assert invoke_json(capsys, "info", "--semigroup", "3,5")["frobenius"] == 7


class TestApery:
    def test_semigroup(self, capsys):
        data = invoke_json(capsys, "apery", "--semigroup", "3,5", "--modulus", "3")
        assert data == {"modulus": 3, "elements": [0, 5, 10]}

    def test_ideal(self, capsys):
        data = invoke_json(
            capsys,
            "apery", "--semigroup", "3,5", "--modulus", "3", "--ideal", "0,1",
        )
        assert data["modulus"] == 3
        assert len(data["elements"]) == 3

    def test_modulus_not_member(self, capsys):
        code, _, err = invoke(capsys, "apery", "--semigroup", "3,5", "--modulus", "4")
        assert code == 1
        assert json.loads(err)["error"] == "modulus-not-in-semigroup"


class TestDelta:
    def test_stable_intersection(self, capsys):
        data = invoke_json(capsys, "delta", "--semigroup", "6,15,16,25,26")
        assert data["stable_delta_intersection"] == [1, 9, 10]

    def test_plain_set(self, capsys):
        data = invoke_json(capsys, "delta", "--set", "0,5,10")
        assert data == {"delta": [5, 10]}


class TestIdeal:
    def test_dual(self, capsys):
        data = invoke_json(
            capsys, "ideal", "--semigroup", "3,5", "--ideal", "0,1", "--dual"
        )
        assert data["generators"] == [5, 9]

    def test_pipeline(self, capsys):
        data = invoke_json(
            capsys,
            "ideal", "--semigroup", "3,5", "--ideal", "0,1",
            "--add", "0,1", "--shift", "2",
        )
        assert data["generators"] == [2, 3, 4]
        assert data["principal"] is False

    def test_intersect(self, capsys):
        data = invoke_json(
            capsys,
            "ideal", "--semigroup", "3,5", "--ideal", "0", "--intersect", "1",
        )
        assert data["generators"] == [6, 10]


class TestHw:
    def test_check_example(self, capsys):
        data = invoke_json(
            capsys, "hw", "check", "--semigroup", "3,5", "--ideal", "0,1"
        )
        assert data["verdict"] == "hw"
        assert data["witness_partition"] == [[0], [1]]
        assert data["witness_element"] == 9

    def test_check_principal(self, capsys):
        data = invoke_json(
            capsys, "hw", "check", "--semigroup", "3,5", "--ideal", "4"
        )
        assert data["verdict"] == "principal"

    def test_scan_two_generated(self, capsys):
        data = invoke_json(
            capsys,
            "hw", "scan", "--semigroup", "6,15,16,25,26", "--two-generated",
        )
        assert data["gaps_checked"] == 18
        assert data["all_hw"] is True

    def test_scan_all_ideals(self, capsys):
        data = invoke_json(capsys, "hw", "scan", "--semigroup", "2,3")
        assert data["total"] == 2
        assert data["all_hw"] is True


class TestSeq:
    def test_irreducible(self, capsys):
        data = invoke_json(
            capsys,
            "seq", "irreducible", "--semigroup", "6,15,16,25,26", "--step", "9",
        )
        assert data["found"] is True
        assert data["terms"] == [6, 15, 24]
        assert data["candidates_checked"] >= 1

    def test_step_in_semigroup(self, capsys):
        code, _, err = invoke(
            capsys, "seq", "irreducible", "--semigroup", "3,5", "--step", "3"
        )
        assert code == 1
        assert json.loads(err)["error"] == "step-in-semigroup"


class TestGlueAndClassify:
    def test_glue(self, capsys):
        data = invoke_json(
            capsys,
            "glue", "--left", "2,3", "--a1", "2", "--right", "1", "--a2", "9",
        )
        assert data["glued"]["generators"] == [4, 6, 9]

    def test_glue_rejects_bad_multiplier(self, capsys):
        code, _, err = invoke(
            capsys,
            "glue", "--left", "2,3", "--a1", "4", "--right", "3,5", "--a2", "3",
        )
        assert code == 1
        assert json.loads(err)["error"] == "membership-violated"

    def test_classify_free(self, capsys):
        data = invoke_json(capsys, "classify", "--semigroup", "4,6,9")
        assert data["free"] is not None
        assert data["free"]["classification"] == "free"
        assert data["complete_intersection"] is not None

    def test_classify_neither(self, capsys):
        data = invoke_json(capsys, "classify", "--semigroup", "6,15,16,25,26")
        assert data["free"] is None
        assert data["complete_intersection"] is None


class TestCorpus:
    def test_verify_small(self, capsys, tmp_path):
        out = tmp_path / "r.jsonl"
        data = invoke_json(
            capsys,
            "corpus", "verify", "--mode", "symmetric", "--bound", "12",
            "--out", str(out),
        )
        assert data["all_hw"] is True
        assert data["semigroups"] == len(out.read_text().splitlines())

    def test_verify_genus_tree(self, capsys):
        data = invoke_json(
            capsys,
            "corpus", "verify", "--mode", "genus-tree", "--max-genus", "4",
            "--no-cross-check",
        )
        assert data["semigroups"] == 15
        assert data["all_hw"] is True

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["--jobs", "-1"], None),
            (["--jobs", "0"], None),
            ([], "abc"),
            ([], "-2"),
            (["--bound", "-3"], None),
            (["--bound", "0"], None),
            (["--mode", "genus-tree", "--max-genus", "-1"], None),
        ],
    )
    def test_usage_errors(self, capsys, monkeypatch, argv, env):
        if env is None:
            monkeypatch.delenv("HW_JOBS", raising=False)
        else:
            monkeypatch.setenv("HW_JOBS", env)
        with pytest.raises(SystemExit) as exc:
            run(["corpus", "verify", *argv])
        assert exc.value.code == 2
        assert "usage: hwsg corpus verify" in capsys.readouterr().err
