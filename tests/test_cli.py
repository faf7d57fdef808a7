import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from campana import cli, formulas as fm

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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


def test_construct_five_primes(capsys):
    # exited 1 with "search exhausted" when a was a CRT uniformizer product
    code, out, _ = run(capsys, "construct", "2", "3", "5", "7", "11")
    assert code == 0
    doc = json.loads(out)
    assert doc["achieved"] == doc["target"] == [2, 3, 5, 7, 11]


def test_construct_sixteen_odd_primes(capsys):
    # the subset search exhausted its candidate cap here and exited 1
    primes = [str(p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)]
    code, out, _ = run(capsys, "construct", *primes)
    assert code == 0
    doc = json.loads(out)
    assert doc["achieved"] == doc["target"] == [int(p) for p in primes]


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


def test_construct_primes_parse_like_a_prime_list(capsys):
    code, out, _ = run(capsys, "construct", "3,5", "7")
    assert code == 0 and json.loads(out)["target"] == [3, 5, 7]
    code, _, err = run(capsys, "construct", "3", "5x")
    assert code == 2 and "5x" in err


def test_construct_search_exhaustion_exits_1(capsys, tmp_path):
    cfgfile = tmp_path / "caps.cfg"
    # S = {2, 17} needs one helper prime, which a cap of 0 forbids
    cfgfile.write_text("candidate_cap = 0  # tight on purpose\n")
    code, _, err = run(capsys, "--config", str(cfgfile), "construct", "2", "17")
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


@pytest.mark.parametrize("argv", [
    ("member", "campana", "0", "--n", "2", "--s", "4"),
    ("member", "sintegers", "0", "--s", "4"),
    ("member", "J", "0", "--abcd", "0,0,0,0"),
], ids=["campana", "sintegers", "J"])
def test_member_of_zero_still_checks_the_other_arguments(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error:")


FLAG_ERRORS = [
    (("emit", "S", "--n", "5"), "--n"),
    (("emit", "Jn", "--n", "3", "--real"), "--real"),
    (("emit", "integrality", "--n", "4"), "--n"),
    (("emit", "invJn", "--real"), "--n"),
    (("member", "J", "1/25", "--abcd", "3,5,3,5", "--n", "4"), "--n"),
    (("member", "sintegers", "1/2", "--n", "3", "--s", "2"), "--n"),
    (("member", "campana", "1/8", "--n", "3", "--abcd", "1,2,3,4"), "--abcd"),
    (("member", "Jn", "1", "--n", "3"), "--abcd"),
    (("member", "invJn", "1", "--abcd", "1,2,3,4"), "--n"),
]


@pytest.mark.parametrize("argv, flag", FLAG_ERRORS,
                         ids=[" ".join(argv) for argv, _ in FLAG_ERRORS])
def test_a_flag_not_taken_or_missing_exits_2_naming_it(capsys, argv, flag):
    # the first three cases of each command used to exit 0, ignoring the flag
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert flag in err and "Traceback" not in err


def test_emit_takes_each_target_with_its_flags(capsys, tmp_path):
    for name, target in fm.TARGETS.items():
        argv = ["emit", name, "--format", "latex", "-o", str(tmp_path / name)]
        argv += ["--n", "3"] * target.takes_n + ["--real"] * target.has_real
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("universals="), name


def _readme_table(header):
    """{name: flags text} of the README table whose header row is given."""
    lines = README.read_text().splitlines()
    rows = {}
    for line in lines[lines.index(f"| {header} | flags |") + 2:]:
        if not line.startswith("|"):
            break
        names, flags = line.strip("|").split("|")
        rows.update(dict.fromkeys(re.findall(r"`([^`]+)`", names), flags))
    return rows


def test_readme_lists_every_emit_target_and_its_flags():
    rows = _readme_table("emit target")
    assert sorted(rows) == sorted(fm.TARGETS)
    for name, target in fm.TARGETS.items():
        want = {"--n"} if target.takes_n else set()
        want |= {"--real"} if target.has_real else set()
        assert set(re.findall(r"--\w+", rows[name])) == want, name
        assert ("required" in rows[name]) == target.takes_n, name


def test_readme_lists_every_member_kind_and_its_flags():
    rows = _readme_table("member kind")
    assert sorted(rows) == sorted(cli._MEMBER_FLAGS)
    for kind, flags in cli._MEMBER_FLAGS.items():
        assert set(re.findall(r"--(\w+)", rows[kind])) == set(flags), kind


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


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_without_samples_exits_2(capsys, tmp_path, samples):
    code, out, err = run(capsys, "verify", "hilbert", "--samples", samples)
    assert code == 2 and "samples" in err and out == ""
    cfgfile = tmp_path / "verify.cfg"
    cfgfile.write_text(f"samples = {samples}\n")
    code, out, err = run(capsys, "--config", str(cfgfile), "verify", "hilbert")
    assert code == 2 and "samples" in err and out == ""


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
                                       ("Seed=1", "Seed"),
                                       ("q_prime_bound=1000", "q_prime_bound")])
def test_bad_config_entry_exits_2_naming_the_key(capsys, tmp_path, line, key):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"candidate_cap = 1000\n{line}\n")
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


def _read_then_close(argv, read):
    """Run the CLI with stdout a pipe; take read(stdout), close the pipe and
    wait.  Returns (what was read, stderr, exit status)."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "campana.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=path))
    first = read(proc.stdout)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return first, err, proc.wait(timeout=300)


def test_closed_stdout_exits_without_a_traceback():
    # `campana verify formulas | head -1` ended in a BrokenPipeError traceback
    first, err, code = _read_then_close(["verify", "formulas"], lambda out: out.readline())
    assert first.startswith(b"PASS")
    assert b"Traceback" not in err
    assert code in (0, cli.BROKEN_PIPE)  # 0 if all of it was written before the close
    # a reader that goes away before any output: the first write must fail
    first, err, code = _read_then_close(["verify", "formulas"], lambda out: b"")
    assert err == b"" and code == cli.BROKEN_PIPE
