import time
from pathlib import Path

from curvebracket.cli import main

FLAGSHIP = Path(__file__).resolve().parent.parent / "demo" / "torus_to_pants.map"


def test_excluded_target_exit_code(tmp_path, capsys):
    (tmp_path / "torus.srf").write_text("rank 2\norder a b A B\n")
    (tmp_path / "cyl.srf").write_text("rank 1\norder a A\n")
    (tmp_path / "m.map").write_text(
        "source torus.srf\ntarget cyl.srf\nmap a -> a\nmap b -> a\n"
    )
    status = main(["audit", "bracket", str(tmp_path / "m.map"), "--max-len", "2"])
    assert status == 4
    err = capsys.readouterr().err
    assert "plane or the cylinder" in err


def test_trivial_word_exit_code(tmp_path, capsys):
    (tmp_path / "torus.srf").write_text("rank 2\norder a b A B\n")
    status = main(["selfint", str(tmp_path / "torus.srf"), "aA"])
    assert status == 4


def test_empty_lemma_sweep_exit_code(capsys):
    base = ["amalgam", "check-lemma", "--cA", "a", "--cB", "a"]
    for bounds in (["--max-letter", "0"], ["--max-syllables", "-1"]):
        assert main(base + bounds) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_letters >= 1" in captured.err


def test_oversized_lemma_sweep_refused_up_front(capsys):
    base = ["amalgam", "check-lemma", "--cA", "a", "--cB", "a"]
    for bounds, size in (
        (["--max-letter", "9", "--max-syllables", "9"], "1.4e+51"),
        (["--rankA", "26", "--rankB", "26", "--max-letter", "9", "--max-syllables", "1"], "5.7e+46"),
    ):
        start = time.perf_counter()
        assert main(base + bounds) == 4
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"allow up to {size} instances, over the limit of 1e+07" in captured.err


def test_empty_audit_sample_exit_code(capsys):
    for what in ("bracket", "intersection"):
        for count in ("0", "-1"):
            argv = ["audit", what, str(FLAGSHIP), "--max-len", "2", "--sample", count]
            assert main(argv) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "pair count >= 1" in captured.err


def test_length_bound_below_one_exit_code(capsys):
    torus = str(FLAGSHIP.parent / "torus.srf")
    for bound in ("0", "-2"):
        for argv in (
            ["enumerate", torus],
            ["audit", "bracket", str(FLAGSHIP)],
            ["audit", "intersection", str(FLAGSHIP)],
            ["fill-check", torus, "--system", "a,b"],
        ):
            assert main(argv + ["--max-len", bound]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "length bound must be at least 1" in captured.err
