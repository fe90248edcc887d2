"""The golden outputs of ``tests/golden.py``: pinned digests, the drift
comparison and the list's coverage of the command line."""

import ast
import hashlib
import platform
from pathlib import Path

import numpy as np
import pytest

import golden
from helmrad import cli


class TestGoldenBytes:
    """SHA-256 digests of golden entries' files.  numpy's and the C
    library's kernels make the bits, so the digests hold on the build they
    were recorded with: numpy 2.4.6 on x86_64 (with AVX-512)."""

    RECORDED_WITH = ("2.4.6", "x86_64")
    SOLVE = ("diagnostics.json", "disc.csv", "green_column.json", "radial.csv")
    DIGESTS = {
        "solve-localised": dict(zip(SOLVE, [
            "29e2f6a91ec75f50075342cf733784b362804978f71d67c9d7963a151f559c13",
            "59c30086d3ec636e06312d6b8d605ec21916b1d9f2046075e31511782d8fd37f",
            "61e6cd4c2a646a3d9ea467a8b5e4e2eebbf272debbf8accaba0ac14120e373a0",
            "a59d156e5b9db6a64e89bf7876c7506fef6b9d2834d3d895ea863e777d99b398",
        ])),
        "solve-stable": dict(zip(SOLVE, [
            "7fccc65bf4182bf203a7f822b16e09a2f176f8e79b2fc5b6deac36610f0eaa92",
            "710b95d5562d3eed9c49c26ac05dd6627d3d49ef30d21b5b6260083139f69c50",
            "b4527f450b243dcd487101ffb8936f5012dd7a3b91ab6d937d35147fecb8775e",
            "38c0ec0836d8c52b5d58dc8e8275d067f22a30aeb87520b764b702855b2a4c3b",
        ])),
        "scan-localised": {"scan.csv":
            "9a2c4649aa0f5028e8e2b495828c208d062de3c421b5b2321888030a1595a5d2",
        },
        "recursion-records": {"records.txt":
            "98ca8158a180c2efe526c070da4ece0b738db7263614d18949cde4d4049569a6",
        },
    }

    @pytest.mark.parametrize("name", DIGESTS)
    def test_digests(self, name, tmp_path):
        build = (np.__version__, platform.machine())
        if build != self.RECORDED_WITH:
            pytest.skip(f"recorded on {self.RECORDED_WITH}, not {build}")
        assert golden.write(name, tmp_path) == cli.EXIT_OK
        assert {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in self.DIGESTS[name]} == self.DIGESTS[name]


def test_report_lists_changed_and_one_sided_files(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    for tree in (base, head):
        (tree / "solve").mkdir(parents=True)
        (tree / "solve" / "radial.csv").write_text("r,u\n")
        (tree / "solve" / "scan.csv").write_text("seed\n")
    assert golden.report(base, head) == 0
    assert capsys.readouterr().out == "drift:\n  none\n"

    (head / "solve" / "scan.csv").write_text("seed,omega\n")
    (base / "refused").mkdir()
    (base / "refused" / "exit").write_text("exit 1\nerror: refused\n")
    (head / "solve" / "disc.csv").write_text("x\n")
    assert golden.report(base, head) == 1
    assert capsys.readouterr().out == (
        "drift:\n  refused/exit\n  solve/disc.csv\n  solve/scan.csv\n")


def _choices(parser, dest):
    return next(a.choices for a in parser._actions if a.dest == dest)


def test_entries_cover_every_subcommand_and_suite():
    """Each subcommand and each verification suite has an entry, and no
    name is spelled twice in ``ENTRIES`` (a dict literal keeps the last)."""
    commands = _choices(cli.build_parser(), "command")
    argvs = [e for e in golden.ENTRIES.values() if isinstance(e, list)]
    assert set(commands) <= {argv[0] for argv in argvs}
    assert set(_choices(commands["verify"], "suite")) <= {
        argv[2] for argv in argvs if argv[:2] == ["verify", "--suite"]}

    tree = ast.parse(Path(golden.__file__).read_text())
    literal = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and node.targets[0].id == "ENTRIES")
    names = [key.value for key in literal.keys]
    assert len(names) == len(set(names)) == len(golden.ENTRIES)
