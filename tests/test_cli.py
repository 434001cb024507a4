"""End-to-end command line behavior: outputs, exit codes, determinism."""

import ast
import io
import json
import os
import re
import subprocess
import sys
from itertools import takewhile
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roeclass
from roeclass.cli import COMMANDS, GROUPS, _build_parser, _read_argv, main
from roeclass.errors import LIMITS

from conftest import Budget, run_limited

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
    return run_limited("-m", "roeclass.cli", *argv)


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

    def test_residue_over_bit_cap_exit_2(self, files, capsys):
        # trial division leaves the Mersenne prime 2^9689 - 1, refused
        # before sympy would spend seconds proving it prime
        tower = json.dumps({"prefix": [], "tail": [str(3 * (2**9689 - 1))]})
        budget = Budget(0.5)
        code, out, err = run(capsys, "sn", files("t.json", tower))
        budget.check()
        assert (code, out) == (2, "")
        assert err == ("error: exponent key <int of 9689 bits> is over the 2048-bit limit "
                       "for a prime\n")

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

    def test_input_bytes_bound(self, files, capsys):
        # a tower padded with spaces to 2^25 bytes is read; one byte more is
        # refused before json.loads sees any of it
        bound = 1 << LIMITS["input bytes"][0]
        assert bound == 1 << 25
        at = files("at.json", TOWER2.ljust(bound))
        code, out, _ = run(capsys, "sn", at)
        assert (code, out) == (0, '{"default":"0","exponents":{"2":"inf"}}\n')
        past = files("past.json", TOWER2.ljust(bound + 1))
        assert run(capsys, "sn", past) == (
            4, "", f"error: {past} is over the 2^25-byte limit for an input\n")

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

    @pytest.mark.parametrize("level", [2**20, 10_000_000])
    def test_verify_over_row_limit_exit_4(self, files, level):
        # one report row per source level 0..n_D: a two-point finite source
        # at level 2^20 or more is refused before a row or modulus entry is
        # built, in a child under a 1 GiB address space
        two = {"prefix": ["2"], "tail": []}
        m = {"source": two, "target": two, "depth": 1,
             "levels": [[level, 1]], "map": ["0", "0", "1", "1"]}
        budget = Budget(2.0)
        proc = run_child("bce", "verify", files("m.json", json.dumps(m)))
        budget.check()
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            4, "", f"error: source level {level} would make a report of over 2^20 rows\n")

    def test_build_depth_ten_answers(self, files, tmp_path):
        # tail 2 against tail 4: 2^19 points at depth 10
        mapfile = tmp_path / "map.json"
        proc = run_child("bce", "build", "--depth", "10", "--output", str(mapfile),
                         files("a.json", TOWER2), files("b.json", TOWER4))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert len(json.loads(mapfile.read_text())["map"]) == 2 * 2**19

    @pytest.mark.parametrize("depth, points", [
        ("11", "2097152"), ("1000000", "2199023255552 or more")])
    def test_build_over_point_limit_exit_4(self, files, depth, points):
        # refused before the map is allocated, in a child under a 1 GiB
        # address space: depth 11 used to die there with a MemoryError
        budget = Budget(2.0)
        proc = run_child("bce", "build", "--depth", depth,
                         files("a.json", TOWER2), files("b.json", TOWER4))
        budget.check()
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            4, "", f"error: a map of {points} points is over the 2^20 limit\n")

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

    def test_divide_unit_prime_over_bit_cap_exit_4(self, files, capsys):
        # a 4300-digit odd number with no factor below 1000, which
        # sympy.isprime would test for seconds: the cap refuses it untested
        budget = Budget(0.5)
        code, out, err = run(capsys, "k0", "divide-unit", "--prime", str(10**4299 + 9),
                             "--exp", "1", files("t.json", TOWER2))
        budget.check()
        assert (code, out) == (4, "")
        assert err == "error: <int of 14281 bits> is over the 2048-bit limit for a prime\n"

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

    def test_eq_period_past_sum_limit_answers(self, files, capsys):
        # 6 KB files: periods of 2003 and 2011 entries, whose difference
        # would repeat after 4,028,033, over the 2^20 layout limit; equality
        # forms no difference, so it answers at once
        a = {"context": json.loads(TOWER2), "prefix": [], "period": [1] + [0] * 2002}
        b = {"context": json.loads(TOWER2), "prefix": [], "period": [1] + [0] * 2010}
        budget = Budget(0.5)
        code, out, err = run(capsys, "k0", "eq", files("a.json", json.dumps(a)),
                             files("b.json", json.dumps(b)))
        budget.check()
        assert (code, out, err) == (0, "false\n", "")

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

    @pytest.mark.parametrize("command", ["decompose", "trace"])
    def test_deep_level_refused_before_its_order(self, files, command):
        # k_N and the space's size would each have about 10^9 bits: the
        # "block order" row judges the level from its ratios, in a child
        # under a 1 GiB address space
        op = {"space": {"tower": json.loads(TOWER2), "depth": 10**9}, "entries": [[0, 0, "1"]]}
        budget = Budget(2.0)
        proc = run_child("roe", command, "--level", str(10**9 - 1),
                         files("op.json", json.dumps(op)))
        budget.check()
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            4, "", "error: level 999999999 would make a block order of over 2^20 bits\n")

    def test_block_order_boundary(self, files, capsys):
        # over tail 2 each ratio adds one bit: level 2^20 is accepted, one more is not
        for depth, want in ((1 << 20, '["1"]\n'), ((1 << 20) + 1, "")):
            op = {"space": {"tower": json.loads(TOWER2), "depth": depth},
                  "entries": [[0, 0, "1"]]}
            code, out, err = run(capsys, "roe", "trace", "--level", str(depth),
                                 files("op.json", json.dumps(op)))
            assert (code, out) == ((0, want) if want else (4, ""))
        assert err == f"error: level {depth} would make a block order of over 2^20 bits\n"

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

    def test_readme_limits_match_table(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("| limit | rule | exit |", 1)[1].split("\n\n", 1)[0]
        cells = [line.split("|")[1:3] for line in table.strip().splitlines()[1:]]
        rows = [row.strip() for row, _ in cells]
        # Python, not LIMITS, bounds the digits of a printed number
        assert rows == list(LIMITS) + ["printed numbers"]
        # a sum's period is judged as a K0 layout, with the message quoted there
        t2 = roeclass.Tower((), (2,))
        with pytest.raises(roeclass.PreconditionViolation) as refused:
            roeclass.k0_add(roeclass.K0Class(t2, (), (1,) + (0,) * 2002),
                            roeclass.K0Class(t2, (), (1,) + (0,) * 2010))
        assert f"`{refused.value}`" in dict(zip(rows, (rule for _, rule in cells)))["K0 layout"]

    def test_readme_python_blocks_run(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
        assert blocks
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})

    def test_package_exports_every_public_name(self):
        # the root resolves a name on first use, so resolve them all first
        for name in roeclass.__all__:
            getattr(roeclass, name)
        public = [name for name, value in vars(roeclass).items()
                  if not name.startswith("_") and not isinstance(value, ModuleType)]
        assert sorted(roeclass.__all__) == sorted(public)
        assert set(roeclass.__all__) <= set(dir(roeclass))

    def test_package_import_loads_no_layer(self):
        # nor dataclasses: the value base lives in errors.py, not in the root
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, roeclass; print(sorted(m for m in sys.modules "
             "if m.startswith('roeclass.') or m in ('dataclasses', 'inspect')))"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60)
        assert proc.stdout == "[]\n", proc.stderr


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
report["introspection"] = sorted(m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize")
                                 if m in sys.modules)
report["argparse"] = sorted(m for m in ("argparse", "gettext") if m in sys.modules)
report["modules"] = sorted(m for m in sys.modules
                           if m.startswith("roeclass.") or m in ("sympy", "numpy", "fractions"))
print(json.dumps(report))
"""


SRC = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                                    os.environ.get("PYTHONPATH")]))


def fresh_main(tmp_path, *argvs):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", FRESH_MAIN, json.dumps(argvs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportGate:
    """Light commands import neither sympy nor numpy; only a metric space
    that is not an ultrametric (``embed``) imports numpy, and only an
    operator (``roe``) fractions.  Each command loads only the roeclass
    layers it runs, and none loads ``dataclasses`` or the introspection
    modules it would bring (``inspect``, ``ast``, ``dis``, ``tokenize``).
    An accepted command line loads neither ``argparse`` nor the ``gettext``
    it brings: only help and usage errors do."""

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
        assert report["introspection"] == []
        assert report["argparse"] == []

    def test_usage_error_text_is_argparse(self, files):
        # a missing --depth: exit 2 and argparse's usage and message, as before
        t2 = files("t2.json", TOWER2)
        proc = run_child("bce", "build", t2, t2)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: roeclass bce build [-h] --depth DEPTH")
        assert proc.stderr.endswith(
            "\nroeclass bce build: error: the following arguments are required: --depth\n")

    def test_embed_loads_numpy_only(self, files, tmp_path):
        # points 0, 1, 3 of the line: d(0, 3) = 3 > max(1, 2), so the scale
        # tree does not certify it and the min-plus square runs
        space = files("m.json", '{"size": 3, "distances": [[0, 1, 3], [1, 0, 2], [3, 2, 0]]}')
        report = fresh_main(tmp_path, ["embed", space])
        assert report["codes"] == [0]
        assert report["outs"] == ['["0","1","3"]\n']
        assert report["loaded"] == ["numpy"]

    def test_embed_of_ultrametric_loads_no_numpy(self, files, tmp_path):
        # a shuffled block space of tail (2) at depth 2, distances times 3
        space = files("m.json", json.dumps({"size": 4, "distances": [
            [0, 6, 3, 6], [6, 0, 6, 3], [3, 6, 0, 6], [6, 3, 6, 0]]}))
        report = fresh_main(tmp_path, ["embed", space])
        assert report["codes"] == [0]
        assert report["outs"] == ['["0","9","3","12"]\n']
        assert report["modules"] == sorted(self.BASE + ["roeclass.blockspace"])

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

    # every command loads these; sn and classify load nothing more
    BASE = ["roeclass.cli", "roeclass.errors", "roeclass.serialize", "roeclass.supernatural"]
    # one argv per command (file names stand for the inputs made below), and
    # the modules it loads beyond BASE
    LOADS = [
        (["sn", "t2"], []),
        (["classify", "t2", "t4"], []),
        (["bce", "build", "--depth", "2", "t2", "t4"], ["roeclass.equivalence"]),
        (["bce", "verify", "map"], ["roeclass.equivalence"]),
        (["k0", "eq", "c", "c"], ["roeclass.ktheory"]),
        (["k0", "pos", "--output", "w.json", "c"], ["roeclass.ktheory"]),
        (["k0", "divide-unit", "--prime", "2", "--exp", "2", "t2"], ["roeclass.ktheory"]),
        (["embed", "m"], ["roeclass.blockspace"]),  # an ultrametric: no numpy
        (["roe", "decompose", "--level", "1", "op"],
         ["fractions", "roeclass.blockspace", "roeclass.roeops"]),
        (["roe", "trace", "--level", "1", "op"],
         ["fractions", "roeclass.blockspace", "roeclass.roeops"]),
        (["roe", "conjugate", "map", "op"],
         ["fractions", "roeclass.blockspace", "roeclass.equivalence", "roeclass.roeops"]),
    ]

    @pytest.mark.parametrize("argv, extra", LOADS, ids=[
        " ".join(argv[:2] if argv[0] in GROUPS else argv[:1]) for argv, _ in LOADS])
    def test_each_command_loads_only_its_layers(self, files, tmp_path, argv, extra):
        inputs = {
            "t2": files("t2.json", TOWER2), "t4": files("t4.json", TOWER4),
            "c": files("c.json", json.dumps(
                {"context": json.loads(TOWER2), "prefix": [], "period": [2, 0]})),
            "m": files("m.json", '{"size": 2, "distances": [[0, 3], [3, 0]]}'),
            "op": files("op.json", json.dumps({"space": {"tower": json.loads(TOWER2), "depth": 2},
                                               "entries": [[0, 0, "1"], [2, 3, "1/2"]]})),
            "map": str(tmp_path / "map.json"),
        }
        assert main(["bce", "build", "--depth", "2", "--output", inputs["map"],
                     inputs["t2"], inputs["t4"]]) == 0
        report = fresh_main(tmp_path, [inputs.get(a, a) for a in argv])
        assert report["codes"] == [0]
        assert report["modules"] == sorted(self.BASE + extra)
        assert report["introspection"] == []
        assert report["argparse"] == []

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

    def test_no_function_imports_a_sibling_layer(self):
        # a layer needed only on some paths is read off the lazy package
        # root (``import roeclass as rc``), the one deferred-import path
        def of_package(node):
            if isinstance(node, ast.ImportFrom):
                return node.level > 0 or node.module.split(".")[0] == "roeclass"
            return isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "roeclass" for alias in node.names)

        src = Path(roeclass.__file__).parent
        found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
                 for func in ast.walk(ast.parse(path.read_text()))
                 if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(func) if of_package(node)]
        assert found == []


PARSER = _build_parser()
WORDS = sorted({word for key in COMMANDS for word in key.split()})
OPTIONS = sorted({name for c in COMMANDS.values() for names, _ in c.options for name in names})
# file names, command words among them; a lone "-" (stdin) is a positional only
VALUES = ["t2.json", "a b.json", "x=1", "", "sn", "bce", "build", "3"]
INTS = st.one_of(st.integers(0, 10**30).map(str), st.sampled_from(["+3", " 4 ", "٣", "1_000", "007"]))
TOKENS = st.sampled_from(WORDS + OPTIONS + VALUES + [
    "-", "--", "-h", "--help", "--dep", "--out", "--p", "--e", "--proj", "--depth=3",
    "--level=1", "-1", "-0", "0x10", "1.5", "+2", "٣", "1_000"])


@st.composite
def well_formed_argvs(draw):
    """A command's words, then each required option and maybe each other
    one (some twice: the last value counts) and its inputs, in any order."""
    key = draw(st.sampled_from(list(COMMANDS)))
    items = [[draw(st.sampled_from(VALUES + ["-"]))] for _ in COMMANDS[key].inputs]
    for names, keywords in COMMANDS[key].options:
        for _ in range(draw(st.integers(1 if keywords.get("required") else 0, 2))):
            if keywords.get("action") == "store_true":
                items.append([names[0]])
            else:
                values = INTS if keywords.get("type") is int else st.sampled_from(VALUES)
                items.append([names[0], draw(values)])
    return key.split() + [token for item in draw(st.permutations(items)) for token in item]


@st.composite
def any_argvs(draw):
    head = draw(st.sampled_from([[]] + [key.split() for key in COMMANDS]))
    return head + draw(st.lists(TOKENS, max_size=7))


class TestReader:
    """``_read_argv`` reads accepted command lines from COMMANDS alone, and
    argparse, which still writes help and every usage error, is its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(well_formed_argvs())
    def test_reads_every_well_formed_line(self, argv):
        got = _read_argv(argv)
        assert got is not None
        assert vars(got) == vars(PARSER.parse_args(argv))

    @settings(max_examples=1000, deadline=None)
    @given(any_argvs())
    def test_agrees_with_argparse_where_it_reads(self, argv):
        got = _read_argv(argv)
        if got is not None:
            assert vars(got) == vars(PARSER.parse_args(argv))

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["sn", "-h"], ["bce", "build", "--help", "a", "b"],
        ["bce"], ["bce", "nope"], ["nope", "a"], ["bce", "--depth", "2", "build", "a", "b"],
        ["sn", "--output", "o", "a"],  # an option of another command
        ["bce", "build", "--dep", "2", "a", "b"],  # an abbreviation
        ["bce", "build", "--depth=2", "a", "b"], ["sn", "--", "a"],
        ["bce", "build", "--depth", "-1", "a", "b"], ["k0", "pos", "--output", "-", "a"],
        ["sn", "-1"], ["bce", "build", "--depth", "x", "a", "b"],
        ["bce", "build", "--depth", "0x10", "a", "b"],
        ["bce", "build", "--depth", "9" * 5000, "a", "b"],  # past int()'s digit limit
        ["bce", "build", "a", "b"], ["bce", "build", "a", "b", "--depth"],
        ["sn"], ["sn", "a", "b"], ["classify", "a"],
    ])
    def test_leaves_the_rest_to_argparse(self, argv):
        assert _read_argv(argv) is None

    @pytest.mark.parametrize("form", [["--depth=2"], ["--dep", "2"], ["--depth=+2"]])
    def test_forms_left_to_argparse_still_run(self, files, capsys, form):
        t2, t4 = files("t2.json", TOWER2), files("t4.json", TOWER4)
        assert run(capsys, "bce", "build", *form, t2, t4) == run(
            capsys, "bce", "build", "--depth", "2", t2, t4)


class TestEntryPoint:
    def test_console_script(self, files, tmp_path):
        t = tmp_path / "t.json"
        t.write_text(TOWER2)
        proc = subprocess.run(["roeclass", "sn", str(t)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == '{"default":"0","exponents":{"2":"inf"}}\n'
