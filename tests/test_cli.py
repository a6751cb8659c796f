import io
from contextlib import redirect_stdout
from pathlib import Path

from curvebracket.cli import main
from curvebracket.words import canonical_cyclic, parse_word

DEMO = Path(__file__).resolve().parent.parent / "demo"


def run(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main([str(a) for a in argv])
    return status, buffer.getvalue()


def test_bracket_calibration():
    status, out = run("bracket", DEMO / "torus.srf", "a", "b")
    assert status == 0
    assert out.strip() == "+1*ab"


def test_intersect():
    status, out = run("intersect", DEMO / "pants.srf", "a", "b")
    assert (status, out.strip()) == (0, "0")
    status, out = run("intersect", DEMO / "torus.srf", "ab", "aB", "--pairs")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "2"
    assert len(lines) == 3 and all(line.startswith("(") for line in lines[:-1])
    # exact --pairs output, one (i, j, sign) line per linked pair, then the count
    for srf, x, y, expected in [
        ("torus.srf", "ab", "aB", "(0, 0, -1)\n(1, 0, -1)\n2\n"),
        ("pants.srf", "aB", "aab", "(0, 0, +1)\n(0, 1, -1)\n2\n"),
        ("genus1b2.srf", "abC", "cAb", "(0, 0, +1)\n(0, 1, +1)\n2\n"),
    ]:
        assert run("intersect", DEMO / srf, x, y, "--pairs") == (0, expected)


def test_intersect_precondition_exit_code():
    status, _ = run("intersect", DEMO / "torus.srf", "aa", "b")
    assert status == 4
    # the precondition is checked before any linked pair is printed
    status, out = run("intersect", DEMO / "torus.srf", "abab", "b", "--pairs")
    assert (status, out) == (4, "")


def test_selfint():
    status, out = run("selfint", DEMO / "pants.srf", "aB")
    assert (status, out.strip()) == (0, "1")


def test_classify_and_boundary():
    status, out = run("classify", DEMO / "torus.srf")
    assert (status, out.strip()) == (0, "genus 1, boundary 1")
    status, out = run("boundary", DEMO / "pants.srf")
    assert status == 0
    assert out.split() == ["A", "B", "ab"]


def test_enumerate_round_trip():
    status, out = run("enumerate", DEMO / "torus.srf", "--max-len", "3")
    assert status == 0
    words = out.split()
    classes = [canonical_cyclic(parse_word(w)) for w in words]
    assert [str(c) for c in classes] == words
    assert len(set(classes)) == len(classes)


def test_audit_exit_codes():
    status, out = run("audit", "bracket", DEMO / "torus_to_pants.map", "--max-len", "2")
    assert status == 3
    assert "violating" in out
    assert "certificate: a b" in out
    status, out = run(
        "audit", "intersection", DEMO / "torus_to_pants.map", "--max-len", "2", "--mode", "zero"
    )
    assert status == 3
    status, out = run("audit", "bracket", DEMO / "torus_twist_ab.map", "--max-len", "3")
    assert status == 0
    assert "preserving" in out
    status, out = run("audit", "bracket", DEMO / "torus_swap.map", "--max-len", "3")
    assert status == 2
    assert "anti_preserving" in out
    status, out = run(
        "audit", "intersection", DEMO / "torus_to_pants.map", "--max-len", "3", "--mode", "exact"
    )
    assert status == 3
    assert out.splitlines() == [
        "verdict: violating",
        "pairs checked: 120 (exhaustive over 24 classes, mode exact, guaranteed regime only)",
        "pairs skipped (outside guaranteed regime): 180",
        "certificate: a b pushed=1 direct=0",
        "certificate: a B pushed=1 direct=0",
        "certificate: a ab pushed=1 direct=0",
        "certificate: a aB pushed=1 direct=0",
        "certificate: a Ab pushed=1 direct=0",
        "certificate: a AB pushed=1 direct=0",
        "certificate: a aab pushed=1 direct=0",
        "certificate: a aaB pushed=1 direct=0",
        "certificate: a abb pushed=2 direct=0",
        "certificate: a aBB pushed=2 direct=0",
    ]
    status, out = run(
        "audit", "intersection", DEMO / "torus_twist_ab.map", "--max-len", "4", "--mode", "exact"
    )
    assert status == 0
    assert out.splitlines() == [
        "verdict: preserving",
        "pairs checked: 561 (exhaustive over 50 classes, mode exact, guaranteed regime only)",
        "pairs skipped (outside guaranteed regime): 714",
    ]


def test_fill_check_cli():
    status, out = run("fill-check", DEMO / "torus.srf", "--system", "a,b", "--max-len", "4")
    assert status == 0
    assert out.startswith("pass")
    status, out = run("fill-check", DEMO / "torus.srf", "--system", "a", "--max-len", "3")
    assert status == 3
    assert out.startswith("fail")


def test_amalgam_cli():
    status, out = run(
        "amalgam", "check-lemma",
        "--rankA", "2", "--rankB", "2", "--cA", "a", "--cB", "a",
        "--max-letter", "1", "--max-syllables", "2",
    )
    assert status == 0
    assert "pass" in out
    assert "statement 1 instances:" in out


def test_usage_error_exit_code(capsys):
    assert main(["bracket"]) == 1
    assert main(["no-such-command"]) == 1


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.srf"
    bad.write_text("rank 2\norder a b A !\n")
    assert main(["classify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_file_exit_code(capsys):
    assert main(["classify", "/nonexistent/x.srf"]) == 1


def test_byte_identical_output():
    first = run("bracket", DEMO / "torus.srf", "abAB", "ab")
    second = run("bracket", DEMO / "torus.srf", "abAB", "ab")
    assert first == second
    a1 = run("audit", "bracket", DEMO / "torus_to_pants.map", "--max-len", "3",
             "--sample", "25", "--seed", "5")
    a2 = run("audit", "bracket", DEMO / "torus_to_pants.map", "--max-len", "3",
             "--sample", "25", "--seed", "5")
    assert a1 == a2


def test_audit_intersection_trivial_image(tmp_path):
    # a -> aA sends a to the trivial class, which leaves the guaranteed
    # regime: every pair whose image holds it is skipped
    for name in ("torus.srf", "pants.srf"):
        (tmp_path / name).write_text((DEMO / name).read_text())
    (tmp_path / "m.map").write_text(
        "source torus.srf\ntarget pants.srf\nmap a -> aA\nmap b -> b\n"
    )
    status, out = run("audit", "intersection", tmp_path / "m.map", "--max-len", "2")
    assert status == 3
    assert out == (
        "verdict: violating\n"
        "pairs checked: 9 (exhaustive over 12 classes, mode zero_pattern, "
        "guaranteed regime only)\n"
        "pairs skipped (outside guaranteed regime): 69\n"
        "certificate: b aB pushed=1 direct=0\n"
        "certificate: b AB pushed=1 direct=0\n"
        "certificate: B ab pushed=1 direct=0\n"
        "certificate: B Ab pushed=1 direct=0\n"
        "certificate: ab aB pushed=2 direct=0\n"
        "certificate: Ab AB pushed=2 direct=0\n"
    )
