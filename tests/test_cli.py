"""End-to-end command line behavior: outputs, exit codes, determinism."""

import io
import json
import os
import re
import resource
import subprocess
import sys
from itertools import takewhile
from pathlib import Path
from types import ModuleType

import pytest

import roeclass
from roeclass.cli import COMMANDS, main

from conftest import Budget

TOWER2 = '{"prefix": [], "tail": ["2"]}'
TOWER3 = '{"prefix": [], "tail": ["3"]}'
TOWER4 = '{"prefix": [], "tail": ["4"]}'
FINITE6 = '{"prefix": ["6"], "tail": []}'


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_child(*argv):
    """The command line in a child process under a 1 GiB address space."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "roeclass.cli", *argv],
        env=env, capture_output=True, text=True, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))


class TestSn:
    def test_golden(self, files, capsys):
        code, out, _ = run(capsys, "sn", files("t.json", TOWER2))
        assert code == 0
        assert out == '{"default":"0","exponents":{"2":"inf"}}\n'

    def test_long_absorbed_prefix(self, files, capsys):
        # 80,000 prefix entries that all fold into the tail (about 400 KB)
        tower = json.dumps({"prefix": ["2"] * 80_000, "tail": ["2"]})
        budget = Budget(2.0)
        code, out, _ = run(capsys, "sn", files("t.json", tower))
        budget.check()
        assert code == 0
        assert out == '{"default":"0","exponents":{"2":"inf"}}\n'

    def test_stdin(self, files, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TOWER2))
        code, out, _ = run(capsys, "sn", "-")
        assert code == 0
        assert json.loads(out)["exponents"] == {"2": "inf"}

    def test_stdin_twice_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TOWER2))
        code, out, err = run(capsys, "classify", "-", "-")
        assert (code, out) == (2, "")
        assert err == "error: stdin ('-') can only be read once\n"

    def test_malformed_json(self, files, capsys):
        code, _, err = run(capsys, "sn", files("bad.json", "{oops"))
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "sn", "/nonexistent/path.json")
        assert code == 2

    def test_superscript_ratio_exit_2(self, files, capsys):
        code, out, err = run(capsys, "sn", files("t.json", '{"prefix": [], "tail": ["²"]}'))
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_deeply_nested_json_exit_2(self, files, capsys):
        code, out, err = run(capsys, "sn", files("deep.json", "[" * 100_000 + "]" * 100_000))
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_bytes(b'{"prefix": [], "tail": ["\xff"]}')
        code, out, err = run(capsys, "sn", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_ratio_over_digit_limit_exit_2(self, files, capsys):
        tower = json.dumps({"prefix": [], "tail": ["1" * 5000]})
        code, out, err = run(capsys, "sn", files("t.json", tower))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "4300" in err

    def test_non_utf8_stdin_exit_2(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b'{"prefix": [], "tail": ["\xff"]}'), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "sn", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error:")


class TestClassify:
    def test_golden_two_vs_three(self, files, capsys):
        code, out, _ = run(capsys, "classify",
                           files("a.json", TOWER2), files("b.json", TOWER3))
        assert code == 0
        assert json.loads(out) == {
            "bce": False, "ce": True, "k0_iso": False, "obstruction": [2, 1]}

    def test_equivalent_pair(self, files, capsys):
        code, out, _ = run(capsys, "classify",
                           files("a.json", TOWER2), files("b.json", TOWER4))
        assert code == 0
        assert json.loads(out) == {
            "bce": True, "ce": True, "k0_iso": True, "obstruction": None}

    def test_output_coherence(self, files, capsys):
        code, out, _ = run(capsys, "classify",
                           files("a.json", TOWER2), files("b.json", FINITE6))
        report = json.loads(out)
        assert report["k0_iso"] == report["bce"]
        assert (report["obstruction"] is None) == report["bce"]
        assert report["bce"] <= report["ce"]

    def test_large_prime_obstruction(self, files, capsys):
        budget = Budget(1.0)
        code, out, _ = run(capsys, "classify", files("a.json", TOWER2),
                           files("b.json", '{"prefix": [], "tail": ["2", "100000007"]}'))
        assert code == 0
        assert json.loads(out)["obstruction"] == [100000007, 1]
        budget.check()


class TestBce:
    def test_build_and_verify(self, files, capsys, tmp_path):
        mapfile = str(tmp_path / "map.json")
        code, _, _ = run(capsys, "bce", "build", "--depth", "2",
                         files("a.json", TOWER2), files("b.json", TOWER4),
                         "--output", mapfile)
        assert code == 0
        code, out, _ = run(capsys, "bce", "verify", mapfile)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_build_not_equivalent_exit_4(self, files, capsys):
        code, _, err = run(capsys, "bce", "build", "--depth", "1",
                           files("a.json", TOWER2), files("b.json", TOWER3))
        assert code == 4

    def test_build_negative_depth_exit_4(self, files, capsys):
        # a negative depth argument is a precondition; a negative space depth
        # (TestRoe) is malformed data
        code, out, err = run(capsys, "bce", "build", "--depth", "-1",
                             files("a.json", TOWER2), files("b.json", TOWER2))
        assert (code, out, err) == (4, "", "error: depth must be an integer >= 0\n")

    def test_build_finite_tower_exit_4(self, files, capsys):
        code, _, _ = run(capsys, "bce", "build", "--depth", "1",
                         files("a.json", FINITE6), files("b.json", FINITE6))
        assert code == 4

    def test_verify_failing_map_exit_1(self, files, capsys):
        bad = {
            "source": json.loads(TOWER2), "target": json.loads(TOWER2),
            "depth": 2, "levels": [[1, 1], [2, 2]],
            "map": ["0", "0", "1", "2", "2", "1", "3", "3"],
        }
        code, out, _ = run(capsys, "bce", "verify",
                           files("bad_map.json", json.dumps(bad)))
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False

    def test_build_unwritable_output_exit_2(self, files, capsys, tmp_path):
        output = str(tmp_path / "missing" / "x.json")
        code, out, err = run(capsys, "bce", "build", "--depth", "1", "--output", output,
                             files("a.json", TOWER2), files("b.json", TOWER2))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {output}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["bce verify", "roe conjugate"])
    def test_order_over_digit_limit_in_message_exit_2(self, files, capsys, command):
        # k_2 = (10^3000 - 1)^2 has 6000 digits: the message gives its bit length
        nines = "9" * 3000
        bad = {"source": {"prefix": [nines, nines], "tail": []}, "target": json.loads(TOWER2),
               "depth": 1, "levels": [[2, 1]], "map": ["0", "0", "1", "1"]}
        argv = [*command.split(), files("m.json", json.dumps(bad))]
        if command == "roe conjugate":
            op = {"space": {"tower": json.loads(TOWER2), "depth": 1}, "entries": []}
            argv.append(files("op.json", json.dumps(op)))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("error: map must cover the full source truncation "
                       "(at least <int of 19932 bits> points)\n")

    def test_verify_huge_source_level_small_map_exit_2(self, files, capsys):
        budget = Budget(1.0)
        bad = {"source": json.loads(TOWER2), "target": json.loads(TOWER2), "depth": 1,
               "levels": [[10_000_000, 10_000_000]], "map": ["0", "0", "1", "1"]}
        code, out, err = run(capsys, "bce", "verify", files("m.json", json.dumps(bad)))
        assert (code, out) == (2, "")
        assert err.startswith("error: map must cover the full source truncation")
        budget.check()

    @pytest.mark.parametrize("target, level", [
        ({"prefix": [], "tail": ["2"]}, 10_000_000),
        ({"prefix": [], "tail": ["6"]}, 1_000_000_000),
        ({"prefix": ["2"], "tail": []}, 1_000_000_000),
    ])
    def test_verify_huge_target_level_small_map(self, files, capsys, target, level):
        budget = Budget(1.0)
        m = {"source": json.loads(TOWER2), "target": target, "depth": 1,
             "levels": [[1, level]], "map": ["0", "0", "1", "1"]}
        code, out, _ = run(capsys, "bce", "verify", files("m.json", json.dumps(m)))
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["levels"][1]["bound"] == level
        budget.check()

    def test_verify_finite_source_huge_level_exit_2(self, files, capsys):
        budget = Budget(1.0)
        bad = {"source": {"prefix": ["2"], "tail": []}, "target": json.loads(TOWER2),
               "depth": 1, "levels": [[1_000_000_000, 1]],
               "map": ["0", "0", "1", "1", "2", "2", "3", "3"]}
        code, out, err = run(capsys, "bce", "verify", files("m.json", json.dumps(bad)))
        assert (code, out) == (2, "")
        assert err == "error: map must cover the full source truncation (2 points)\n"
        budget.check()

    def test_build_deterministic(self, files, capsys):
        a, b = files("a.json", TOWER2), files("b.json", TOWER4)
        code1, out1, _ = run(capsys, "bce", "build", "--depth", "2", a, b)
        code2, out2, _ = run(capsys, "bce", "build", "--depth", "2", a, b)
        assert (code1, out1) == (code2, out2)

    def test_emitted_map_reparses(self, files, capsys):
        a, b = files("a.json", TOWER2), files("b.json", TOWER4)
        _, out, _ = run(capsys, "bce", "build", "--depth", "2", a, b)
        code, out2, _ = run(capsys, "bce", "verify", files("m.json", out))
        assert code == 0


class TestK0:
    def test_eq_golden(self, files, capsys):
        unit = {"context": json.loads(TOWER2), "prefix": [], "period": [1]}
        two0 = {"context": json.loads(TOWER2), "prefix": [], "period": [2, 0]}
        code, out, _ = run(capsys, "k0", "eq",
                           files("u.json", json.dumps(unit)),
                           files("v.json", json.dumps(two0)))
        assert code == 0
        assert out == "true\n"

    def test_eq_false(self, files, capsys):
        unit = {"context": json.loads(TOWER2), "prefix": [], "period": [1]}
        one0 = {"context": json.loads(TOWER2), "prefix": [], "period": [1, 0]}
        code, out, _ = run(capsys, "k0", "eq",
                           files("u.json", json.dumps(unit)),
                           files("v.json", json.dumps(one0)))
        assert code == 0
        assert out == "false\n"

    def test_pos_with_witness(self, files, capsys, tmp_path):
        cls = {"context": json.loads(TOWER2), "prefix": [], "period": [-1, 2]}
        rep = tmp_path / "rep.json"
        code, out, _ = run(capsys, "k0", "pos",
                           files("c.json", json.dumps(cls)), "--output", str(rep))
        assert code == 0
        assert out == "true\n"
        witness = json.loads(rep.read_text())
        assert all(v >= 0 for v in witness["prefix"] + witness["period"])

    def test_pos_unwritable_output_exit_2(self, files, capsys, tmp_path):
        cls = {"context": json.loads(TOWER2), "prefix": [], "period": [1, -1]}
        output = str(tmp_path / "missing" / "w.json")
        code, out, err = run(capsys, "k0", "pos", "--output", output,
                             files("c.json", json.dumps(cls)))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {output}: ")
        assert len(err.splitlines()) == 1

    def test_pos_entry_over_digit_limit_exit_2(self, files, capsys):
        cls = '{"context": %s, "prefix": [%s], "period": [1]}' % (TOWER2, "1" * 5000)
        code, out, err = run(capsys, "k0", "pos", files("c.json", cls))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "4300" in err

    def test_pos_witness_over_digit_limit_exit_4(self, files, capsys, tmp_path):
        # each entry is within the limit; the witness's block sum has 4301 digits
        big = 10**4300 - 1
        cls = '{"context": %s, "prefix": [%d, %d], "period": [0]}' % (TOWER2, big, big)
        witness = tmp_path / "w.json"
        code, out, err = run(capsys, "k0", "pos", "--output", str(witness),
                             files("c.json", cls))
        assert (code, out) == (4, "")
        assert err.startswith("error:") and "4300-digit limit" in err
        assert not witness.exists()

    @pytest.mark.parametrize("prefix, entries", [(-10**6, 2**22), (-10**9, 2**32)])
    def test_pos_witness_over_layout_limit_exit_4(self, files, tmp_path, prefix, entries):
        # positive from level 22 (32) on: the witness would lay out 2^22
        # (2^33) entries; refused before allocation, under a 1 GiB address space
        cls = {"context": json.loads(TOWER2), "prefix": [prefix], "period": [1]}
        witness = tmp_path / "w.json"
        budget = Budget(2.0)
        proc = run_child("k0", "pos", "--output", str(witness),
                         files("c.json", json.dumps(cls)))
        budget.check()
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            4, "", f"error: a K0 layout of {entries} entries is over the 2^20 limit\n")
        assert not witness.exists()

    def test_pos_false(self, files, capsys):
        cls = {"context": json.loads(TOWER2), "prefix": [], "period": [-1, 0]}
        code, out, _ = run(capsys, "k0", "pos", files("c.json", json.dumps(cls)))
        assert code == 0
        assert out == "false\n"

    def test_pos_verdict_without_output_builds_no_witness(self, files, capsys):
        # positive from level 32 on, where the witness would have 2^33 entries
        cls = {"context": json.loads(TOWER2), "prefix": [-10**9], "period": [1]}
        budget = Budget(2.0)
        code, out, _ = run(capsys, "k0", "pos", files("c.json", json.dumps(cls)))
        budget.check()
        assert (code, out) == (0, "true\n")

    def test_divide_unit(self, files, capsys):
        code, out, _ = run(capsys, "k0", "divide-unit", "--prime", "2",
                           "--exp", "2", files("t.json", TOWER2))
        assert code == 0
        assert json.loads(out)["period"] == [1, 0, 0, 0]

    def test_divide_unit_absent(self, files, capsys):
        code, out, _ = run(capsys, "k0", "divide-unit", "--prime", "3",
                           "--exp", "1", files("t.json", TOWER2))
        assert code == 0
        assert out == "null\n"

    def test_divide_unit_over_size_cap_exit_4(self, files, capsys):
        code, out, err = run(capsys, "k0", "divide-unit", "--prime", "2",
                             "--exp", "30", files("t.json", TOWER2))
        assert (code, out) == (4, "")
        assert err == "error: [1]/2^30 needs a period of 2^30 entries, over the 2^20 limit\n"

    def test_divide_unit_absent_over_size_cap_is_null(self, files, capsys):
        code, out, _ = run(capsys, "k0", "divide-unit", "--prime", "3",
                           "--exp", "30", files("t.json", TOWER2))
        assert (code, out) == (0, "null\n")

    def test_divide_unit_finite_exit_4(self, files, capsys):
        code, _, _ = run(capsys, "k0", "divide-unit", "--prime", "2",
                         "--exp", "1", files("t.json", FINITE6))
        assert code == 4

    def test_first_bad_input_sets_exit_code(self, files, capsys):
        # each file is parsed before the next is read: the finite context
        # (exit 4) is met before the malformed second file (exit 2)
        finite = {"context": json.loads(FINITE6), "prefix": [], "period": [1]}
        code, out, err = run(capsys, "k0", "eq", files("a.json", json.dumps(finite)),
                             files("b.json", "{oops"))
        assert (code, out) == (4, "")
        assert "infinite tower" in err

    def test_class_context_mismatch_is_precondition(self, files, capsys):
        a = {"context": json.loads(TOWER2), "prefix": [], "period": [1]}
        b = {"context": json.loads(TOWER3), "prefix": [], "period": [1]}
        code, _, _ = run(capsys, "k0", "eq",
                         files("a.json", json.dumps(a)),
                         files("b.json", json.dumps(b)))
        assert code == 4


class TestEmbed:
    def test_shuffled_pairs(self, files, capsys):
        space = {
            "size": 4,
            "distances": [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]],
        }
        code, out, _ = run(capsys, "embed", files("m.json", json.dumps(space)))
        assert code == 0
        assert json.loads(out) == ["0", "1", "3", "4"]

    def test_far_pair(self, files, capsys):
        budget = Budget(1.0)
        space = {"size": 2, "distances": [[0, 10**6], [10**6, 0]]}
        code, out, _ = run(capsys, "embed", files("m.json", json.dumps(space)))
        assert code == 0
        assert json.loads(out) == ["0", "1000000"]
        budget.check()

    def test_invalid_metric_exit_2(self, files, capsys):
        space = {"size": 2, "distances": [[0, 1], [2, 0]]}
        code, _, _ = run(capsys, "embed", files("m.json", json.dumps(space)))
        assert code == 2

    def test_long_bad_size_error_is_short(self, files, capsys):
        space = {"size": "1" * 4301, "distances": [[0]]}
        code, out, err = run(capsys, "embed", files("m.json", json.dumps(space)))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert len(err) < 200 and "str" in err


class TestRoe:
    def to_space(self):
        return {"tower": json.loads(TOWER2), "depth": 2}

    def test_decompose(self, files, capsys):
        op = {"space": self.to_space(), "entries": [[2, 3, "1/2"]]}
        code, out, _ = run(capsys, "roe", "decompose", "--level", "1",
                           files("op.json", json.dumps(op)))
        assert code == 0
        assert json.loads(out)["blocks"] == [[], [[0, 1, "1/2"]]]

    def test_decompose_crossing_exit_4(self, files, capsys):
        op = {"space": self.to_space(), "entries": [[1, 2, "1"]]}
        code, _, _ = run(capsys, "roe", "decompose", "--level", "1",
                         files("op.json", json.dumps(op)))
        assert code == 4

    def test_trace_projection(self, files, capsys):
        op = {"space": self.to_space(), "entries": [[0, 0, "1"], [3, 3, "1"]]}
        code, out, _ = run(capsys, "roe", "trace", "--level", "1", "--projection",
                           files("op.json", json.dumps(op)))
        assert code == 0
        assert json.loads(out) == ["1", "1"]

    @pytest.mark.parametrize("command, level", [("decompose", "99"), ("trace", "-1")])
    def test_level_out_of_range_exit_4(self, files, capsys, command, level):
        op = {"space": self.to_space(), "entries": [[0, 0, "1"]]}
        code, out, err = run(capsys, "roe", command, "--level", level,
                             files("op.json", json.dumps(op)))
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "0..2" in err

    @pytest.mark.parametrize("scalar", ["1" * 5000, "-1/" + "1" * 5000],
                             ids=["integer", "denominator"])
    def test_trace_scalar_over_digit_limit_exit_2(self, files, capsys, scalar):
        op = {"space": self.to_space(), "entries": [[0, 0, scalar]]}
        code, out, err = run(capsys, "roe", "trace", "--level", "1",
                             files("op.json", json.dumps(op)))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "4300" in err

    def test_trace_output_over_digit_limit_exit_4(self, files, capsys):
        # both denominators are within the limit; the block trace's has about 4400 digits
        a = 10**2200
        op = {"space": self.to_space(), "entries": [[0, 0, f"1/{a + 1}"], [1, 1, f"1/{a + 3}"]]}
        code, out, err = run(capsys, "roe", "trace", "--level", "1",
                             files("op.json", json.dumps(op)))
        assert (code, out) == (4, "")
        assert err.startswith("error:") and "4300-digit limit" in err
        assert len(err.splitlines()) == 1

    def test_trace_negative_space_depth_exit_2(self, files, capsys):
        op = {"space": {"tower": json.loads(TOWER2), "depth": -1}, "entries": []}
        code, out, err = run(capsys, "roe", "trace", "--level", "0",
                             files("op.json", json.dumps(op)))
        assert (code, out, err) == (2, "", "error: depth must be an integer >= 0\n")

    def test_trace_non_projection_exit_4(self, files, capsys):
        op = {"space": self.to_space(), "entries": [[0, 0, "1/2"]]}
        code, _, _ = run(capsys, "roe", "trace", "--level", "1", "--projection",
                         files("op.json", json.dumps(op)))
        assert code == 4

    def test_conjugate(self, files, capsys, tmp_path):
        mapfile = str(tmp_path / "map.json")
        run(capsys, "bce", "build", "--depth", "2",
            files("a.json", TOWER2), files("b.json", TOWER4),
            "--output", mapfile)
        op = {"space": self.to_space(), "entries": [[1, 2, "1"]]}
        code, out, _ = run(capsys, "roe", "conjugate", mapfile,
                           files("op.json", json.dumps(op)))
        assert code == 0
        result = json.loads(out)
        assert result["entries"] == [[1, 2, "1"]]
        assert result["space"]["tower"] == json.loads(TOWER4)

    def test_conjugate_huge_target_level(self, files):
        # each case runs in a child under a 1 GiB address space: a space that
        # kept every order up to the level, or an entry check that computed
        # the full order (6^(10^9) has 2.6 * 10^9 bits), would not finish
        op = {"space": {"tower": json.loads(TOWER2), "depth": 1}, "entries": [[0, 0, "1"]]}
        for tail, level in [("2", 10_000_000), ("6", 1_000_000_000)]:
            target = {"prefix": [], "tail": [tail]}
            m = {"source": json.loads(TOWER2), "target": target, "depth": 1,
                 "levels": [[1, level]], "map": ["0", "0", "1", "1"]}
            budget = Budget(2.0)
            proc = run_child("roe", "conjugate", files("m.json", json.dumps(m)),
                             files("op.json", json.dumps(op)))
            budget.check()
            assert (proc.returncode, proc.stderr) == (0, ""), tail
            assert proc.stdout == (f'{{"entries":[[0,0,"1"]],"space":{{"depth":{level},'
                                   f'"tower":{{"prefix":[],"tail":["{tail}"]}}}}}}\n')

    def test_trace_over_block_limit_exit_4(self, files):
        # 2^20000 level-0 blocks: refused from the ratio count, before the
        # space's size is computed or any block allocated
        op = {"space": {"tower": json.loads(TOWER2), "depth": 20_000}, "entries": [[0, 0, "1"]]}
        budget = Budget(2.0)
        proc = run_child("roe", "trace", "--level", "0", files("op.json", json.dumps(op)))
        budget.check()
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            4, "", "error: level 0 would split the space into over 2^20 blocks\n")

    def test_conjugate_support_escape_exit_3(self, files, capsys, tmp_path):
        mapfile = str(tmp_path / "map.json")
        run(capsys, "bce", "build", "--depth", "1",
            files("a.json", TOWER2), files("b.json", TOWER4),
            "--output", mapfile)
        op = {"space": self.to_space(), "entries": [[3, 3, "1"]]}
        code, _, _ = run(capsys, "roe", "conjugate", mapfile,
                         files("op.json", json.dumps(op)))
        assert code == 3


class TestDocs:
    def test_readme_usage_lists_every_command(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Command line", 1)[1]
        usage = section.split("```", 2)[1]
        listed = []
        for line in usage.strip().splitlines():
            # "roeclass k0 divide-unit --prime P ..." names the command "k0 divide-unit"
            words = line.split()[1:]
            listed.append(" ".join(takewhile(re.compile("[a-z][a-z0-9-]*").fullmatch, words)))
        assert listed == list(COMMANDS)

    def test_package_exports_every_public_name(self):
        public = [name for name, value in vars(roeclass).items()
                  if not name.startswith("_") and not isinstance(value, ModuleType)]
        assert sorted(roeclass.__all__) == sorted(public)


# Runs main() on each argv in a fresh interpreter and reports the exit codes,
# the stdout of each run and which heavy modules ended up imported.
FRESH_MAIN = """
import contextlib, io, json, sys
from roeclass.cli import main
report = {"codes": [], "outs": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        report["codes"].append(main(argv))
    report["outs"].append(out.getvalue())
report["loaded"] = sorted(m for m in ("sympy", "numpy") if m in sys.modules)
print(json.dumps(report))
"""


def fresh_main(tmp_path, *argvs):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", FRESH_MAIN, json.dumps(argvs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportGate:
    """Light commands import neither sympy nor numpy; only a metric space
    (``embed``) imports numpy."""

    def test_light_commands_load_neither(self, files, tmp_path):
        t2, t4 = files("t2.json", TOWER2), files("t4.json", TOWER4)
        unit = {"context": json.loads(TOWER2), "prefix": [], "period": [1]}
        two0 = {"context": json.loads(TOWER2), "prefix": [], "period": [2, 0]}
        u, v = files("u.json", json.dumps(unit)), files("v.json", json.dumps(two0))
        op = files("op.json", json.dumps({"space": {"tower": json.loads(TOWER2), "depth": 2},
                                          "entries": [[0, 0, "1"], [2, 3, "1/2"]]}))
        mapfile = str(tmp_path / "map.json")
        report = fresh_main(
            tmp_path, ["sn", t2], ["classify", t2, files("t3.json", TOWER3)],
            ["classify", t2, t4], ["classify", t2, files("f6.json", FINITE6)],
            ["k0", "eq", u, v], ["k0", "pos", "--output", str(tmp_path / "w.json"), v],
            ["k0", "divide-unit", "--prime", "2", "--exp", "2", t2],
            ["bce", "build", "--depth", "2", "--output", mapfile, t2, t4],
            ["bce", "verify", mapfile], ["roe", "decompose", "--level", "1", op],
            ["roe", "trace", "--level", "1", op], ["roe", "conjugate", mapfile, op])
        assert report["codes"] == [0] * 12
        assert json.loads(report["outs"][1])["obstruction"] == [2, 1]
        assert json.loads(report["outs"][8])["passed"] is True
        assert report["loaded"] == []

    def test_embed_loads_numpy_only(self, files, tmp_path):
        space = files("m.json", '{"size": 2, "distances": [[0, 3], [3, 0]]}')
        report = fresh_main(tmp_path, ["embed", space])
        assert report["codes"] == [0]
        assert report["outs"] == ['["0","3"]\n']
        assert report["loaded"] == ["numpy"]

    def test_equal_semiprime_towers_without_sympy(self, files, tmp_path):
        # 46-digit semiprime ratios: the verdicts take gcds and factor nothing
        n = 40000000000000000000021 * 70000000000000000000003
        a = files("a.json", json.dumps({"prefix": [str(n)], "tail": ["2"]}))
        b = files("b.json", json.dumps({"prefix": ["2", str(n)], "tail": ["4"]}))
        budget = Budget(1.0)
        report = fresh_main(tmp_path, ["classify", a, b])
        budget.check()
        assert report["codes"] == [0]
        assert json.loads(report["outs"][0]) == {
            "bce": True, "ce": True, "k0_iso": True, "obstruction": None}
        assert report["loaded"] == []


    def test_divide_unit_factors_nothing(self, files, tmp_path):
        # tail (2, p*q) with p, q primes near 2^49 and 2^50: whether 2^3
        # divides is read from the tail product, and p*q is never factored
        pq = 562949953421381 * 1125899906842679
        t = files("t.json", json.dumps({"prefix": [], "tail": ["2", str(pq)]}))
        budget = Budget(1.0)
        report = fresh_main(tmp_path, ["k0", "divide-unit", "--prime", "2", "--exp", "3", t])
        budget.check()
        assert report["codes"] == [0]
        assert report["outs"] == [
            f'{{"context":{{"prefix":[],"tail":["2","{pq}"]}},'
            '"period":[1,0,0,0,0,0,0,0],"prefix":[]}\n']
        assert report["loaded"] == []


class TestEntryPoint:
    def test_console_script(self, files, tmp_path):
        t = tmp_path / "t.json"
        t.write_text(TOWER2)
        proc = subprocess.run(["roeclass", "sn", str(t)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == '{"default":"0","exponents":{"2":"inf"}}\n'
