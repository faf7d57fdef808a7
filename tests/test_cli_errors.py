"""Every ValueError, from parsing the command line or from the library,
leaves cli.main as "error: ..." on stderr and exit 2, with nothing on
stdout; none escapes as a traceback.  A verify check that raises is not
one of these: verify.run reports it as its row's FAIL, and the command
exits 1 (tests/test_verify.py)."""
import pytest

from campana import cli, formulas, parametrize, places, semantics, verify


def test_an_output_path_open_refuses_is_a_usage_error(capsys):
    # open() raises ValueError, not OSError, on an embedded NUL
    code = cli.main(["emit", "S", "-o", "a\x00b"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "") and captured.err.startswith("error:")


#: command -> (the module and name of the library call it makes, its argv)
LIBRARY_CALLS = {
    "hilbert": (places, "hilbert", ["hilbert", "2", "5", "5"]),
    "construct": (parametrize, "construct_omega", ["construct", "3", "5"]),
    "member": (semantics, "campana_member", ["member", "campana", "1/8", "--n", "3"]),
    "emit": (formulas, "emit", ["emit", "S"]),
    "verify": (verify, "run", ["verify", "formulas"]),
}


@pytest.mark.parametrize("command", sorted(LIBRARY_CALLS))
def test_a_library_value_error_is_a_usage_error(command, capsys, monkeypatch):
    module, name, argv = LIBRARY_CALLS[command]

    def refuse(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(module, name, refuse)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: boom\n")
