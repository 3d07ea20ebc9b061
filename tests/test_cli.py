"""Tests for the command-line interface: output formats and exit codes."""

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import symdeg
from symdeg import cli
from symdeg.cli import main
from symdeg.polyio import dump_polynomial, load_polynomial
from symdeg.sympoly import SymPolynomial
from symdeg.ypoly import YPolynomial
from symdeg.andor import XPolynomial


WAVY = {
    "n": 3,
    "classes": [
        {"partition": [3], "label": "One"},
        {"partition": [2, 1], "label": "Zero"},
        {"partition": [1, 1, 1], "label": "One"},
    ],
}

ED_SWEEP_CSV = (
    "property,n,m,eps,d_star,query_lower_bound,eps_min_by_degree\n"
    "element-distinctness,2,2,1/3,2,1,0=1/2;1=1/2;2=0\n"
    "element-distinctness,2,3,1/3,2,1,0=1/2;1=1/2;2=0\n"
    "element-distinctness,2,4,1/3,2,1,0=1/2;1=1/2;2=0\n"
)


@pytest.fixture
def wavy_file(tmp_path):
    path = tmp_path / "wavy.json"
    path.write_text(json.dumps(WAVY), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# degree


def test_degree_json(capsys):
    assert main(["degree", "--property", "ed", "--n", "2", "--m", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["degree"] == 2
    assert data["query_lower_bound"] == 1
    assert data["eps"] == "1/3"
    assert data["eps_min_by_degree"][-1] == {"degree": 2, "eps_min": "0"}


def test_degree_output_file(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert (
        main(
            ["degree", "--property", "collision", "--n", "2", "--m", "3",
             "--output", str(out)]
        )
        == 0
    )
    assert capsys.readouterr().out == ""
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["degree"] == 2
    assert data["property"] == "collision"


def test_degree_custom_eps(capsys):
    assert main(["degree", "--property", "ed", "--n", "2", "--m", "2",
                 "--eps", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["eps"] == "0"
    assert data["degree"] == 2


def test_degree_property_file(wavy_file, capsys):
    assert main(["degree", "--property-file", str(wavy_file),
                 "--n", "3", "--m", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["property"] == "wavy"
    assert data["degree"] == 2


# stdout sha256 of `degree --property <prop> --n n --m n` for n = 2..13:
# the eps_min tables and the witness coefficients, byte for byte
DEGREE_SHA256 = {
    "collision": [
        "4152ca2c02b5c7092a2d972780f5498c22e935f6d5ce2c979be27cbdc6038f48",
        "033b4aee39e22f255e35ac3122683fc552831c69c452413264db5fe5747d0880",
        "105e759255a285a6bb54ef91be032d52659d741e05f327457d16d622084d10bd",
        "f6525bcdfdc56036291b5553534e84c17a185439fadfc9e7d6aeb6c0bc2b0a35",
        "0642e07f9263305153e6edccc1104a53db38a7c7998d2980ee1f3424778213ab",
        "d4ba1e906e06a844efcc94a77751716776f26195b887ff6b192fae6c1879a479",
        "422e096719453c874c15c22d92ef3e1436b1734935614c5dcabb3afda098d71a",
        "41c6ed94849fb1ce811ea70624941d93d424e8dcc52b724601c4348d86c0e683",
        "1abfc935ea3edba09312989e6651da2bb8122243aa0b39e4d30c010cd1588205",
        "219f3458a53358c0a583eb28ac7e809f7053dc7522e1694542583b08031ed221",
        "6bb05f6a15a7788cb5b241ea9a544046903784e221715dde94c988edfdfb3acd",
        "f5e4876b0f47c9d2f579e2d4ec0050a024830c3ab56c725e14ff77cf9bad53f4",
    ],
    "ed": [
        "86992c7c82d39771df33a690a8ff182fe92cf492f888e74593036ef6c8c7d2fe",
        "63db1d81a4c4c0fd7be238220e7cddb24a97c1e4bb35b3139ece7a158bad3564",
        "2ffc7484d8bb564a57d2f8c897a96a6a6a4fa91a7895a311b681c8801302284f",
        "f8ffa37cfeedb5ea69e8735722075ecbfcbb517c4be9e1cb8e762e3ab674863f",
        "48900b52f463ab5b63d72462cd43e1d18d4f9e5f29868e33591a8e9288c8ddf0",
        "001ee152d787a76d6ab79d3df2c7f4cf71a099b3e72f7c9c353ce1f9fcdaf7e9",
        "bac533a83bb5e54ca046fbb3cabf765acdb3a2aeb40f28d7b44bf52caaa145ea",
        "ae93e8237e92a54567acfd445860b229687951dcffaf8197d30bb3acff9e0b4f",
        "0d9f1e48744bbc0b7e8c374b03f57988e08a3bfb5e3cb1dd3346470b7d8ef761",
        "7f92670bffc74595dde4c75a00b52a3b1b97e945b1fd3a62b5b45cd418f0e324",
        "a75ac45e4a7caa77db23e290a45ea798475981ffb9d06629daa20e1f881994c6",
        "91a4bc4de86fc41c14e0f5273d5d4e75a914348a5393d2ecbb9f57956b933911",
    ],
    "med": [
        "64526244f40a8566ee145ec53a250c39031acdf6d5aa3384ae2e58aedbeb9029",
        "25844ca347188de87f3bd4d2db3abb7bd97ed8e54d3e0e87c93b5847e53c291d",
        "fe530d09c35eec9c5ee500866c61febae9e1382e3600bde40f5fcbac32107c40",
        "d400c2ec4e1f0f48d097e082c9a0ab75835bdd8479a51f0fc7cfd4d7416f1d8d",
        "2f661e4e952df9bcb2c74e3134a949591fef5fd820949785dd80c254f16aa332",
        "cc64679d346dabadb521fa1d75d12e605ca654be4e871c5a69487bef226935d0",
        "f60e92f67f83770d47225778fdf60b332b31b357f595bbe91e823f9b1a133fbd",
        "e28521191810b2fa1931969ff83a527c3191e3b4e52a4b72cc9d1a3c0f4ba448",
        "7f41be8b5f01c35300abdb786ac9ea7dd65311ea5d465e82245df46702a8b7ff",
        "ad658c32e4467cd8587e439bdbbdd5bd1abc05828a1b594475aea2040f0e320c",
        "5c517d24f1866025dff4a183311a607b563358e085383acb26fe93ae3700c783",
        "c2faf381b581e724074d4de76683b0b68de9d8e356f8d438e27fceaf75c5d0e8",
    ],
}


@pytest.mark.parametrize("prop", sorted(DEGREE_SHA256))
def test_degree_exact_bytes(capsys, prop):
    for n, expected in enumerate(DEGREE_SHA256[prop], start=2):
        assert main(["degree", "--property", prop, "--n", str(n), "--m", str(n)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == expected, f"n = {n}"


def test_degree_rejects_small_range_for_one_to_one(capsys):
    code = main(["degree", "--property", "ed", "--n", "3", "--m", "2"])
    assert code == 2
    assert "m >= n" in capsys.readouterr().err


def test_degree_rejects_eps_half(capsys):
    code = main(["degree", "--property", "ed", "--n", "2", "--m", "2",
                 "--eps", "1/2"])
    assert code == 2
    assert "eps" in capsys.readouterr().err


def test_degree_rejects_unparseable_eps():
    with pytest.raises(SystemExit) as info:
        main(["degree", "--property", "ed", "--n", "2", "--m", "2",
              "--eps", "0.5ish"])
    assert info.value.code == 2


def test_unknown_property_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["degree", "--property", "parity", "--n", "2", "--m", "2"])
    assert info.value.code == 2


def test_json_flag_is_only_for_sweep():
    with pytest.raises(SystemExit) as info:
        main(["degree", "--property", "ed", "--n", "2", "--m", "2", "--json"])
    assert info.value.code == 2


def test_property_and_file_are_exclusive(wavy_file):
    with pytest.raises(SystemExit) as info:
        main(["degree", "--property", "ed", "--property-file", str(wavy_file),
              "--n", "2", "--m", "2"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# sweep


# the README's example
COLLISION_SWEEP_CSV = (
    "property,n,m,eps,d_star,query_lower_bound,eps_min_by_degree\n"
    "collision,4,4,1/3,3,2,0=1/2;1=1/2;2=2/5;3=0\n"
    "collision,4,5,1/3,3,2,0=1/2;1=1/2;2=2/5;3=0\n"
    "collision,4,6,1/3,3,2,0=1/2;1=1/2;2=2/5;3=0\n"
    "collision,4,7,1/3,3,2,0=1/2;1=1/2;2=2/5;3=0\n"
)


def test_sweep_csv_exact_bytes(capsys):
    for prop, n, ms, expected in [
        ("ed", "2", "2..4", ED_SWEEP_CSV),
        ("collision", "4", "4..7", COLLISION_SWEEP_CSV),
    ]:
        assert main(["sweep", "--property", prop, "--n", n, "--m", ms]) == 0
        assert capsys.readouterr().out == expected


def test_sweep_single_m(capsys):
    assert main(["sweep", "--property", "ed", "--n", "2", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 2  # header + one row


def test_sweep_json(capsys):
    assert main(["sweep", "--property", "collision", "--n", "2", "--m", "2..3",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [cert["m"] for cert in data] == [2, 3]
    assert all(cert["degree"] == 2 for cert in data)


def test_sweep_assert_flat_passes_for_flat_degrees(capsys):
    assert main(["sweep", "--property", "ed", "--n", "3", "--m", "3..5",
                 "--assert-flat"]) == 0
    assert "assert-flat" not in capsys.readouterr().err


def test_sweep_assert_flat_fails_on_varying_degrees(wavy_file, capsys):
    code = main(["sweep", "--property-file", str(wavy_file), "--n", "3",
                 "--m", "1..3", "--assert-flat"])
    assert code == 1
    captured = capsys.readouterr()
    assert "assert-flat failed" in captured.err
    # the table itself is still emitted, with the varying degrees visible
    rows = captured.out.strip().split("\n")
    assert [row.split(",")[4] for row in rows[1:]] == ["0", "2", "3"]


def test_sweep_rejects_empty_range():
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--property", "ed", "--n", "2", "--m", "4..2"])
    assert info.value.code == 2


def test_sweep_rejects_bad_range_syntax():
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--property", "ed", "--n", "2", "--m", "two"])
    assert info.value.code == 2


def test_sweep_counts_its_range_sizes_against_the_budget(capsys, monkeypatch):
    monkeypatch.setenv("SYMDEG_BUDGET", "3")
    sweep_ed = ["sweep", "--property", "ed", "--n", "3", "--m"]
    assert main(sweep_ed + ["3..6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: enumeration of 4 items exceeds the budget of 3 (raise it via SYMDEG_BUDGET)\n"
    )
    assert main(sweep_ed + ["3..5"]) == 0
    assert capsys.readouterr().out.count("\n") == 4  # header + three rows


def test_sweep_refuses_a_range_too_long_to_count_with_len(capsys, monkeypatch):
    # len() of this range overflows; the refusal still names its size
    monkeypatch.delenv("SYMDEG_BUDGET", raising=False)
    assert main(["sweep", "--property", "ed", "--n", "3", "--m", f"3..{10**30}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "enumeration of 2**99 or more items" in captured.err


def test_sweep_output_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--property", "ed", "--n", "2", "--m", "2..4",
                 "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == ED_SWEEP_CSV


# ---------------------------------------------------------------------------
# transform subcommands


def test_symmetrize_command(tmp_path, capsys):
    src = tmp_path / "p.json"
    dump_polynomial(YPolynomial(1, 2, {((1, 1),): 1}), src)
    assert main(["symmetrize", "--input", str(src)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vars"] == "z" and data["m"] == 2
    assert data["terms"] == [{"partition": [1], "coeff": "1/2"}]


@pytest.mark.parametrize(
    "command, options, poly, kind",
    [
        ("symmetrize", [], SymPolynomial(2, {(1,): 1}), "a y-polynomial"),
        ("extend", ["--target-m", "3"], YPolynomial(1, 2, {((1, 1),): 1}), "a z-polynomial"),
        ("restrict", ["--target-m", "1"], XPolynomial(2, {(1,): 1}), "a z-polynomial"),
        ("andor-reduce", ["--n", "2"], SymPolynomial(2, {(1,): 1}), "an x-polynomial"),
    ],
    ids=["symmetrize", "extend", "restrict", "andor-reduce"],
)
def test_transform_rejects_wrong_kind(tmp_path, capsys, command, options, poly, kind):
    src = tmp_path / "p.json"
    dump_polynomial(poly, src)
    assert main([command, "--input", str(src), *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {command} expects {kind} file\n"


def test_unhashable_vars_tag_is_bad_input(tmp_path, capsys):
    src = tmp_path / "p.json"
    src.write_text(json.dumps({"vars": ["y"], "n": 1, "m": 1, "terms": []}), encoding="utf-8")
    assert main(["symmetrize", "--input", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "missing or unknown vars tag ['y']" in captured.err


def test_extend_then_restrict_round_trip(tmp_path, capsys):
    src = tmp_path / "q.json"
    original = SymPolynomial(2, {(2, 1): Fraction(1, 3), (1,): -2})
    dump_polynomial(original, src)

    wide_path = tmp_path / "wide.json"
    assert main(["extend", "--input", str(src), "--target-m", "5",
                 "--output", str(wide_path)]) == 0
    wide = load_polynomial(wide_path)
    assert wide.m == 5 and wide.terms == original.terms

    assert main(["restrict", "--input", str(wide_path), "--target-m", "2"]) == 0
    back = json.loads(capsys.readouterr().out)
    assert back == original.to_dict()


def test_extend_rejects_shrinking(tmp_path, capsys):
    src = tmp_path / "q.json"
    dump_polynomial(SymPolynomial(3, {(1,): 1}), src)
    assert main(["extend", "--input", str(src), "--target-m", "2"]) == 2
    assert "restrict" in capsys.readouterr().err


def test_andor_reduce_command(tmp_path, capsys):
    src = tmp_path / "x.json"
    dump_polynomial(XPolynomial(2, {(1, 4): 1}), src)
    assert main(["andor-reduce", "--input", str(src), "--n", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vars"] == "y"
    assert data["terms"] == [
        {"factors": [[1, 1], [2, 2]], "coeff": "1"}
    ]


def test_andor_reduce_n_mismatch(tmp_path, capsys):
    src = tmp_path / "x.json"
    dump_polynomial(XPolynomial(2, {(1,): 1}), src)
    assert main(["andor-reduce", "--input", str(src), "--n", "3"]) == 2
    assert "does not match" in capsys.readouterr().err


def test_malformed_input_file(tmp_path, capsys):
    src = tmp_path / "broken.json"
    src.write_text("not json at all", encoding="utf-8")
    assert main(["symmetrize", "--input", str(src)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_malformed_property_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ nope", encoding="utf-8")
    args = ["degree", "--property-file", str(path), "--n", "3", "--m", "3"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}: not valid JSON" in captured.err


@pytest.mark.parametrize("coeff", [0.1, "1/0"])
def test_inexact_coefficient_is_bad_input(tmp_path, capsys, coeff):
    src = tmp_path / "q.json"
    data = {"vars": "z", "m": 2, "terms": [{"partition": [1], "coeff": coeff}]}
    src.write_text(json.dumps(data), encoding="utf-8")
    assert main(["extend", "--input", str(src), "--target-m", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coeff must be a 'p/q' string or a JSON integer" in captured.err


# ---------------------------------------------------------------------------
# verify


def test_verify_passing_y_polynomial(tmp_path, capsys):
    src = tmp_path / "p.json"
    q = SymPolynomial(2, {(1, 1): 1})
    from symdeg.symmetrize import desymmetrize

    dump_polynomial(desymmetrize(q, 2), src)
    assert main(["verify", "--property", "ed", "--input", str(src)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert data["violations"] == []


def test_verify_failing_z_polynomial(tmp_path, capsys):
    src = tmp_path / "q.json"
    dump_polynomial(SymPolynomial.zero(2), src)
    assert main(["verify", "--property", "ed", "--input", str(src),
                 "--n", "2"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is False
    assert len(data["violations"]) == 1  # the One class gets value 0


# stdout sha256 of `verify` on the 3x3 polynomial below, which fails at
# some functions under each property (exit code 1)
FAILING_Y_VERIFY_SHA256 = {
    "ed": "946d789b05fb39405676a204902af1e8c229cd3181b182ddf8f97837c424c048",
    "collision": "9b8bc0b00dc96ca35e6e57449720cff374042f4c6810f4a28020637895937458",
    "med": "a1d191923b93707e0f0b5e4b80cf9b11286be3f79b73595159095a220360a56b",
}


@pytest.mark.parametrize("prop", sorted(FAILING_Y_VERIFY_SHA256))
def test_verify_failing_y_polynomial_exact_bytes(tmp_path, capsys, prop):
    src = tmp_path / "p.json"
    p = YPolynomial(3, 3, {
        (): Fraction(1, 2),
        ((1, 1), (2, 2)): Fraction(1, 3),
        ((1, 2),): Fraction(-1, 5),
        ((2, 1), (3, 3)): Fraction(2, 7),
    })
    dump_polynomial(p, src)
    assert main(["verify", "--property", prop, "--input", str(src)]) == 1
    out = capsys.readouterr().out
    data = json.loads(out)
    assert len(data["table"]) == 27 and data["violations"]
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_Y_VERIFY_SHA256[prop]


# stdout sha256 of `verify --n 3` on the z-polynomial over m = 4 below,
# which passes at the class (3) and fails at (2, 1) and (1, 1, 1) under
# each property (exit code 1); its m[1,1,1,1] term is 0 at every class
FAILING_Z_VERIFY_SHA256 = {
    "ed": "f2c5be94470a5946a8c3cd4d8e485a5dcdb36d18f69d6932633941f683a5e024",
    "collision": "04f15cda51347835a144a8600dff78f1ad3a098a8a9e103c9f37edd1d3d3cb65",
    "med": "bf7e055abfcd55d4d859c9d40f0db991110ec0e1920ec3697437d4f5f6fd8f5e",
}


@pytest.mark.parametrize("prop", sorted(FAILING_Z_VERIFY_SHA256))
def test_verify_failing_z_polynomial_exact_bytes(tmp_path, capsys, prop):
    src = tmp_path / "q.json"
    q = SymPolynomial(4, {
        (): Fraction(1, 2),
        (1, 1): Fraction(1, 6),
        (2,): Fraction(-1, 27),
        (2, 1): Fraction(1, 12),
        (1, 1, 1, 1): Fraction(5, 3),
    })
    dump_polynomial(q, src)
    assert main(["verify", "--property", prop, "--input", str(src), "--n", "3"]) == 1
    out = capsys.readouterr().out
    data = json.loads(out)
    assert [row["ok"] for row in data["table"]] == [True, False, False]
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_Z_VERIFY_SHA256[prop]


# stdout sha256 of `verify --property ed` on the approx_degree(ed, 3, 3)
# witness extended to m = 4, desymmetrized ("y", 64 functions) and as it is
# ("z", 3 classes, with --n 3); both pass (exit code 0)
PASSING_VERIFY_SHA256 = {
    "y": "13388b932aecd97b625f30178b9741b63954eefcf7aee56c0ef5dcbf5141f655",
    "z": "e9facf59142009339a1b243b982b85773527f13b0bfe3687cbbada0cada233ee",
}


@pytest.mark.parametrize("kind", sorted(PASSING_VERIFY_SHA256))
def test_verify_passing_exact_bytes(tmp_path, capsys, kind):
    src = tmp_path / "p.json"
    wide = symdeg.extend(symdeg.approx_degree(symdeg.get_property("ed"), 3, 3).optimal_polynomial(), 4)
    if kind == "y":
        dump_polynomial(symdeg.desymmetrize(wide, 3), src)
        args, points = [], 64
    else:
        dump_polynomial(wide, src)
        args, points = ["--n", "3"], 3
    assert main(["verify", "--property", "ed", "--input", str(src), *args]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["pass"] is True and len(data["table"]) == points
    assert hashlib.sha256(out.encode()).hexdigest() == PASSING_VERIFY_SHA256[kind]


def test_verify_y_polynomial_checks_n(tmp_path, capsys):
    src = tmp_path / "p.json"
    from symdeg.symmetrize import desymmetrize

    dump_polynomial(desymmetrize(SymPolynomial(3, {(1, 1, 1): 1}), 3), src)
    for wrong in ("7", "0"):
        assert main(["verify", "--property", "ed", "--input", str(src), "--n", wrong]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not match the file's n = 3" in captured.err
    assert main(["verify", "--property", "ed", "--input", str(src), "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_verify_z_polynomial_needs_n(tmp_path, capsys):
    src = tmp_path / "q.json"
    dump_polynomial(SymPolynomial(2, {(1, 1): 1}), src)
    assert main(["verify", "--property", "ed", "--input", str(src)]) == 2
    assert "--n" in capsys.readouterr().err


def test_verify_rejects_x_polynomial(tmp_path, capsys):
    src = tmp_path / "x.json"
    dump_polynomial(XPolynomial(2, {(1,): 1}), src)
    assert main(["verify", "--property", "ed", "--input", str(src)]) == 2


def test_verify_budget_exceeded(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYMDEG_BUDGET", "3")
    src = tmp_path / "p.json"
    dump_polynomial(YPolynomial.zero(2, 2), src)  # 4 functions > budget 3
    assert main(["verify", "--property", "ed", "--input", str(src)]) == 3
    assert "budget" in capsys.readouterr().err.lower()


def test_verify_refuses_a_huge_grid_without_building_it(tmp_path, capsys, monkeypatch):
    # 3**9100 has more digits than int() may print by default; the refusal
    # names the grid instead of formatting the count
    monkeypatch.delenv("SYMDEG_BUDGET", raising=False)
    src = tmp_path / "p.json"
    src.write_text(json.dumps({"vars": "y", "n": 9100, "m": 3, "terms": []}), encoding="utf-8")
    assert main(["verify", "--property", "always-one", "--input", str(src)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: enumeration of 3**9100 items exceeds the budget of 1000000"
        " (raise it via SYMDEG_BUDGET)\n"
    )


# ---------------------------------------------------------------------------
# the module entry point and byte determinism


# The directory holding the symdeg under test (src/ in a checkout,
# site-packages when installed), so the child runs that same copy.  The
# child gets -B because its bare environment drops PYTHONDONTWRITEBYTECODE:
# without it, it would write bytecode into the checkout under test.
SYMDEG_PATH = str(pathlib.Path(symdeg.__file__).resolve().parent.parent)


def run_module(args, hashseed):
    return subprocess.run(
        [sys.executable, "-B", "-m", "symdeg", *args],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONHASHSEED": hashseed,
            "PYTHONPATH": SYMDEG_PATH,
            "COLUMNS": "80",
        },
        cwd="/",
    )


def test_module_entry_point_runs():
    result = run_module(["degree", "--property", "ed", "--n", "2", "--m", "2"], "0")
    assert result.returncode == 0
    assert json.loads(result.stdout)["degree"] == 2


def test_sweep_bytes_identical_across_hash_seeds():
    args = ["sweep", "--property", "collision", "--n", "2", "--m", "2..4"]
    first = run_module(args, "0")
    second = run_module(args, "42")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# one parser per process


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    argv = ["sweep", "--property", "ed", "--n", "2", "--m", "2..3"]
    assert main(argv) == 0
    once = len(built)
    assert main(argv) == 0
    assert len(built) == once


def test_reused_parser_carries_no_state_between_calls(tmp_path, wavy_file, capsys, monkeypatch):
    # each call in a sequence must print what a fresh process prints for
    # the same argv: an earlier call's option, error or output file may
    # not leak into a later one through the shared parser
    monkeypatch.setenv("COLUMNS", "80")
    sweep_ed = ["sweep", "--property", "ed", "--n", "2", "--m", "2..3"]
    bad_m = ["sweep", "--property", "ed", "--n", "2", "--m", "two"]
    degree = ["degree", "--n", "3", "--m", "3"]
    degree_ed = degree + ["--property", "ed"]
    helps = [["--help"]] + [[name, "--help"] for name, *_ in cli._SUBCOMMANDS]
    sequences = [
        [sweep_ed + ["--eps", "1/4"], sweep_ed],
        [bad_m, sweep_ed],
        [degree + ["--property-file", str(wavy_file)], degree_ed],
        [degree_ed + ["--output", str(tmp_path / "cert.json")], degree_ed],
        *([argv, argv] for argv in helps),
    ]
    fresh = {}
    for sequence in sequences:
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            key = tuple(argv)
            if key not in fresh:
                result = run_module(argv, "0")
                fresh[key] = (result.returncode, result.stdout, result.stderr)
            assert (code, captured.out, captured.err) == fresh[key], argv
    assert fresh[tuple(sweep_ed)][1].splitlines()[1].split(",")[3] == "1/3"
    assert fresh[tuple(bad_m)][0] == 2
    assert all(fresh[tuple(argv)][0] == 0 and fresh[tuple(argv)][1] for argv in helps)
