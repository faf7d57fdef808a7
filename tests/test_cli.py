import json

import pytest

from campana import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_command(capsys):
    code, out, _ = run(capsys, "hilbert", "-1", "-1", "inf")
    assert (code, out.strip()) == (0, "-1")
    code, out, _ = run(capsys, "hilbert", "2", "5", "5")
    assert (code, out.strip()) == (0, "-1")  # 2 is a nonsquare mod 5
    code, out, _ = run(capsys, "hilbert", "2", "7", "7")
    assert (code, out.strip()) == (0, "+1")  # 2 = 3^2 mod 7
    code, out, _ = run(capsys, "hilbert", "-1", "-1", "2")
    assert (code, out.strip()) == (0, "-1")


def test_hilbert_usage_errors(capsys):
    code, _, err = run(capsys, "hilbert", "1/0", "2", "3")
    assert code == 2
    code, _, err = run(capsys, "hilbert", "0", "2", "3")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "hilbert", "2", "3", "4")
    assert code == 2


def test_construct_command(capsys):
    code, out, _ = run(capsys, "construct", "3", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == [3, 5]
    assert doc["achieved"] == [3, 5]
    assert sorted(doc) == ["a", "achieved", "aux", "b", "c", "d",
                           "search_steps", "target"]


def test_construct_empty_set(capsys):
    code, out, _ = run(capsys, "construct")
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == [] and doc["achieved"] == []


def test_construct_errors(capsys):
    code, _, err = run(capsys, "construct", "3", "3")
    assert code == 2 and "duplicate" in err
    code, _, _ = run(capsys, "construct", "4")
    assert code == 2
    code, _, _ = run(capsys, "construct", "x")
    assert code == 2


def test_construct_search_exhaustion_exits_1(capsys, tmp_path):
    cfgfile = tmp_path / "caps.cfg"
    cfgfile.write_text("candidate_cap = 1  # tight on purpose\n")
    code, _, err = run(capsys, "--config", str(cfgfile), "construct", "3", "5")
    assert code == 1
    assert "search exhausted" in err


def test_member_command(capsys):
    code, out, _ = run(capsys, "member", "campana", "1/8", "--n", "3")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "member", "campana", "1/4", "--n", "3")
    assert (code, out.strip()) == (0, "false")
    code, out, _ = run(capsys, "member", "campana", "1/4", "--n", "3", "--s", "2")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "member", "sintegers", "7/25", "--s", "5")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "member", "J", "15", "--abcd", "3,5,3,5")
    assert (code, out.strip()) == (0, "true")
    # a value starting with "-" must be attached with "=" or argparse
    # mistakes it for an option
    code, out, _ = run(capsys, "member", "invJn", "5/8", "--n", "3",
                       "--abcd=-10,-10,-10,-10")
    assert (code, out.strip()) == (0, "true")


def test_member_usage_errors(capsys):
    code, _, _ = run(capsys, "member", "campana", "1/2")  # missing --n
    assert code == 2
    code, _, _ = run(capsys, "member", "J", "1")  # missing --abcd
    assert code == 2
    code, _, _ = run(capsys, "member", "Jn", "1", "--abcd", "1,2,3")
    assert code == 2


def test_emit_stdout_and_stats(capsys):
    code, out, err = run(capsys, "emit", "S")
    assert code == 0
    doc = json.loads(out)
    assert doc["free"] == ["a", "b", "r"]
    assert doc["prefix"][0] == ["exists", "x2"]
    assert err.strip() == "universals=0 existentials=3 degree<=4"


def test_emit_to_file(capsys, tmp_path):
    out_path = tmp_path / "campana2.json"
    code, out, err = run(capsys, "emit", "campana", "--n", "2",
                         "-o", str(out_path))
    assert code == 0
    assert out.strip() == "universals=838 existentials=558 degree<=3387"
    doc = json.loads(out_path.read_bytes())
    assert doc["free"] == ["a", "b", "c", "d", "r"]


def test_emit_real_variant(capsys):
    code, out, _ = run(capsys, "emit", "campana", "--n", "10", "--real",
                       "--format", "sexpr", "-o", "/dev/null")
    assert code == 0
    assert "degree<=39" in out


def test_emit_usage_errors(capsys):
    code, _, _ = run(capsys, "emit", "nosuch")
    assert code == 2
    code, _, _ = run(capsys, "emit", "campana")  # missing --n
    assert code == 2
    code, _, _ = run(capsys, "emit", "campana", "--n", "1")
    assert code == 2


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "hilbert", "--samples", "50")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_bad_config_file(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    code, _, err = run(capsys, "--config", str(bad), "hilbert", "2", "3", "5")
    assert code == 2
    code, _, _ = run(capsys, "--config", str(tmp_path / "missing.cfg"),
                     "hilbert", "2", "3", "5")
    assert code == 2


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["nosuch"])
    assert cli.main(["nosuch"]) == 2


@pytest.mark.parametrize("line, key", [("seed=abc", "seed"),
                                       ("samples = x", "samples"),
                                       ("candidate_cap=1.5", "candidate_cap"),
                                       ("candiate_cap=5", "candiate_cap"),
                                       ("Seed=1", "Seed")])
def test_bad_config_entry_exits_2_naming_the_key(capsys, tmp_path, line, key):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"q_prime_bound = 1000\n{line}\n")
    code, out, err = run(capsys, "--config", str(cfgfile), "verify", "hilbert",
                         "--samples", "5")
    assert code == 2
    assert key in err and "Traceback" not in err and out == ""


def test_config_supplies_verify_defaults(capsys, tmp_path):
    cfgfile = tmp_path / "verify.cfg"
    cfgfile.write_text("seed = 7\nsamples = 20\n")
    code, out, _ = run(capsys, "--config", str(cfgfile), "verify", "hilbert")
    assert code == 0 and "PASS" in out


def test_unfactorable_input_exits_with_a_message(capsys):
    from campana import arith

    n = arith.next_prime(10**20) * arith.next_prime(3 * 10**20)
    code, out, err = run(capsys, "member", "sintegers", f"1/{n}", "--s", "2")
    assert code == 1 and out == ""
    assert "search exhausted" in err and "Traceback" not in err
