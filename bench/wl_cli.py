"""``cli``: cold ``python -m roeclass.cli`` processes, one at a time.

One operation is one process: interpreter start, imports, read, compute and
emit.  Input files are written during setup.  Each group runs all sixteen
command kinds once, twelve light commands on tiny inputs and four artifact
commands, so every run of whole groups has the same 3:1 mix.

- Light: ``sn``, ``classify`` (random and equivalent pairs), ``k0 eq``,
  ``k0 pos --output``, ``k0 divide-unit``, ``embed`` (6-16 points),
  ``roe trace --projection`` (12-36 points), ``bce build`` at depth <= 3, and
  three rejected inputs with their README exit codes: malformed JSON (2),
  ``bce build`` on non-equivalent towers (4) and ``roe trace --projection``
  of a non-projection (4).
- Artifact: ``bce build --depth 8 --output`` for 2 vs 4 (32768 points,
  0.5 MB, emit-heavy), ``bce verify`` of that map (parse-heavy),
  ``roe decompose --output`` of ~4000 entries on 1024-1296 points and
  ``roe conjugate --output`` through the depth-8 map.

Import cost is most of a light command, so lazy imports move ``p50_ms``
here and nowhere else.
"""

from __future__ import annotations

import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracle
from oracle import canonical, expect
from workload import CONTEXTS, Base, Op, random_class

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
LIGHT = ["sn", "classify", "classify_equivalent", "k0_eq", "k0_pos", "k0_divide-unit",
         "embed", "roe_trace", "bce_build", "reject_json", "reject_bce", "reject_trace"]
ARTIFACT = ["bce_build_d8", "bce_verify_d8", "roe_decompose", "roe_conjugate"]
VARIANTS = 4  # inputs per command kind; group g uses variant g % VARIANTS
T2, T4 = ((), (2,)), ((), (4,))
TIMEOUT_S = 120


def _random_tower(rng, finite_ok=True):
    prefix = tuple(rng.randint(2, 30) for _ in range(rng.randint(0, 3)))
    tail = tuple(rng.randint(2, 30) for _ in range(rng.randint(0 if finite_ok else 1, 2)))
    return prefix, tail


def _equivalent_pair(rng):
    support = rng.sample([2, 3, 5], rng.randint(1, 2))

    def member():
        prefix = tuple(rng.choice(support) ** rng.randint(1, 2) for _ in range(rng.randint(0, 2)))
        tail = support + [rng.choice(support) for _ in range(rng.randint(0, 1))]
        rng.shuffle(tail)
        return prefix, tuple(tail)

    return member(), member()


def _class_obj(ctx, seq) -> dict:
    return {"context": oracle.tower_obj(ctx), "prefix": list(seq[0]), "period": list(seq[1])}


def _space_obj(t, depth) -> dict:
    return {"tower": oracle.tower_obj(t), "depth": depth}


class Result:
    """What one process left: exit code, stdout, stderr, and in a traced
    phase its spans file and the index of the span around it."""

    def __init__(self, code, out, err, spans=None):
        self.code, self.out, self.err, self.spans = code, out, err, spans
        self.span = -1


class Workload(Base):
    # two groups, so every untraced run has 32 samples and its tail_ms is
    # always the same percentile, even when one group takes most of the time
    min_groups = 2
    gauge = "start"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed)
        self.work = work
        self.serial = 0
        self.sympy_kinds: set[str] = set()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def import_program(self):
        """This process never imports the program; each operation does."""

    def import_s(self) -> float:
        return 0.0

    # -- inputs -----------------------------------------------------------------------

    def _write(self, name: str, obj) -> str:
        text = obj if isinstance(obj, str) else canonical(obj)
        (self.work / name).write_text(text)
        return name

    def setup(self):
        w = self._write
        w("t2.json", oracle.tower_obj(T2))
        w("t4.json", oracle.tower_obj(T4))
        self.d8 = oracle.witness_obj(T2, T4, 8)
        self.d8_text = canonical(self.d8) + "\n"
        w("d8map.json", self.d8_text)
        self.inputs = {kind: [self._light_input(kind, v) for v in range(VARIANTS)]
                       for kind in LIGHT}
        self.artifacts = {"roe_decompose": [self._decompose_input(v) for v in range(VARIANTS)],
                          "roe_conjugate": [self._conjugate_input(v) for v in range(VARIANTS)]}

    def _light_input(self, kind: str, v: int):
        """(argv, expected exit code, want) for one variant: want is the exact
        stdout, None for a rejected input, or a tuple naming the check that
        needs the output."""
        rng = self.rng(kind, v)
        w = self._write
        f = f"{kind}-{v}"
        if kind == "sn":
            t = _random_tower(rng)
            want = canonical(oracle.sn_obj(oracle.sn(*t))) + "\n"
            return ["sn", w(f + ".json", oracle.tower_obj(t))], 0, want
        if kind in ("classify", "classify_equivalent"):
            t1, t2 = (_equivalent_pair(rng) if kind == "classify_equivalent"
                      else (_random_tower(rng), _random_tower(rng)))
            want = canonical(oracle.classify(t1, t2)) + "\n"
            return ["classify", w(f + "a.json", oracle.tower_obj(t1)),
                    w(f + "b.json", oracle.tower_obj(t2))], 0, want
        if kind == "k0_eq":
            ctx = rng.choice(CONTEXTS)
            a = random_class(rng)
            if v % 2 == 0:  # equal by construction: add a block-sum-zero sequence
                k = oracle.orders(ctx, rng.randint(1, 2))[-1]
                block = [rng.randint(-3, 3) for _ in range(k - 1)]
                b = oracle.combine(a, ((), tuple(block + [-sum(block)])))
            else:
                b = random_class(rng)
            want = canonical(oracle.vanishes(ctx, oracle.combine(a, b, -1))) + "\n"
            return ["k0", "eq", w(f + "a.json", _class_obj(ctx, a)),
                    w(f + "b.json", _class_obj(ctx, b))], 0, want
        if kind == "k0_pos":
            ctx = rng.choice(CONTEXTS)
            a = random_class(rng)
            return (["k0", "pos", "--output", "{out}", w(f + ".json", _class_obj(ctx, a))],
                    0, ("k0_pos", ctx, a))
        if kind == "k0_divide-unit":
            ctx = rng.choice(CONTEXTS)
            p, r = rng.choice([2, 3, 5]), rng.randint(1, 3)
            return (["k0", "divide-unit", "--prime", str(p), "--exp", str(r),
                     w(f + ".json", oracle.tower_obj(ctx))], 0, ("divide", ctx, p, r))
        if kind == "embed":
            prefix, tail, depth = rng.choice([((), (2,), 3), ((), (3,), 2), ((), (2, 3), 2),
                                              ((), (4,), 2)])
            orders = oracle.orders((prefix, tail), depth)
            n = orders[-1]
            perm = list(range(n))
            rng.shuffle(perm)
            scale = rng.choice([1, 3])
            dist = [[scale * oracle.block_distance(orders, perm[x], perm[y]) for y in range(n)]
                    for x in range(n)]
            return ["embed", w(f + ".json", {"size": n, "distances": dist})], 0, ("embed", dist)
        if kind in ("roe_trace", "reject_trace"):
            prefix, tail, depth = rng.choice([((), (2,), 4), ((), (6,), 2), ((), (2, 3), 3)])
            orders = oracle.orders((prefix, tail), depth)
            level = rng.randint(0, depth) if kind == "roe_trace" else 0
            diag = sorted(i for i in range(orders[-1]) if rng.random() < 0.5) or [0]
            value = "1" if kind == "roe_trace" else "2"
            op = {"space": _space_obj((prefix, tail), depth),
                  "entries": [[i, i, value] for i in diag]}
            argv = ["roe", "trace", "--level", str(level), "--projection", w(f + ".json", op)]
            if kind == "reject_trace":
                return argv, 4, None
            ranks = [0] * (orders[-1] // orders[level])
            for i in diag:
                ranks[i // orders[level]] += 1
            return argv, 0, canonical([str(r) for r in ranks]) + "\n"
        if kind == "bce_build":
            while True:
                t1, t2 = _equivalent_pair(rng)
                depth = rng.randint(1, 3)
                levels = oracle.interleave(t1, t2, depth)
                if oracle.orders(t1, levels[-1][0])[-1] <= 4096:
                    break
            want = canonical(oracle.witness_obj(t1, t2, depth)) + "\n"
            return ["bce", "build", "--depth", str(depth), w(f + "a.json", oracle.tower_obj(t1)),
                    w(f + "b.json", oracle.tower_obj(t2))], 0, want
        if kind == "reject_json":
            text = canonical(oracle.tower_obj(_random_tower(rng)))
            return ["sn", w(f + ".json", text[: rng.randint(1, len(text) - 1)])], 2, None
        if kind == "reject_bce":
            while True:
                t1, t2 = _random_tower(rng, False), _random_tower(rng, False)
                if oracle.sn(*t1) != oracle.sn(*t2):
                    break
            return ["bce", "build", "--depth", "2", w(f + "a.json", oracle.tower_obj(t1)),
                    w(f + "b.json", oracle.tower_obj(t2))], 4, None
        raise ValueError(kind)

    def _decompose_input(self, v: int):
        rng = self.rng("roe_decompose", v)
        prefix, tail, depth = [((), (6,), 4), ((), (2, 3), 8), ((), (2,), 10)][v % 3]
        orders = oracle.orders((prefix, tail), depth)
        level = rng.randint(1, depth - 1)
        k = orders[level]
        entries = {}
        for x in range(orders[-1]):
            base = x - x % k
            for _ in range(3):
                num = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
                entries[(x, base + rng.randrange(k))] = Fraction(num, rng.randint(1, 4))
        name = self._write(f"decompose-{v}.json",
                           {"space": _space_obj((prefix, tail), depth),
                            "entries": oracle.entries_text(entries)})
        return name, level, k, entries, (prefix, tail, depth)

    def _conjugate_input(self, v: int):
        rng = self.rng("roe_conjugate", v)
        depth = 15  # the 2-vs-4 depth-8 witness covers 2**15 source points
        entries = {(rng.randrange(2**depth), rng.randrange(2**depth)):
                   Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2000)}
        name = self._write(f"conjugate-{v}.json",
                           {"space": _space_obj(T2, depth), "entries": oracle.entries_text(entries)})
        want = canonical({"space": _space_obj(T4, 8), "entries": oracle.entries_text(entries)}) + "\n"
        return name, want

    def warmup(self):
        """One light process, so the page cache and bytecode are warm."""
        argv, code, _ = self.inputs["sn"][0]
        self._spawn(argv, traced=False)

    # -- processes -------------------------------------------------------------------

    def _spawn(self, argv, traced: bool) -> Result:
        spans = None
        if traced:
            spans = self.work / f"spans-{self.serial}.json"
            cmd = [sys.executable, str(TRACED_CLI), str(spans)] + argv
        else:
            cmd = [sys.executable, "-m", "roeclass.cli"] + argv
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
        return Result(proc.returncode, proc.stdout, proc.stderr, spans)

    def _op(self, kind: str, argv, code: int, check_out) -> Op:
        self.serial += 1
        out_file = self.work / f"out-{self.serial}.json"
        argv = [a.replace("{out}", out_file.name) for a in argv]
        traced = self.tracer is not None

        def run():
            if not traced:
                return self._spawn(argv, False)
            index = self.tracer.begin("cli.process")
            try:
                result = self._spawn(argv, True)
            finally:
                self.tracer.end()
            result.span = index
            return result

        def check(res: Result):
            if res.spans is not None:
                self._adopt(kind, res)
            expect("Traceback" not in res.err, f"{kind} printed a traceback")
            expect(res.code == code, f"{kind} exited {res.code}, expected {code}: {res.err[-300:]}")
            written = None
            if out_file.exists():
                written = out_file.read_text()
                out_file.unlink()
            if code != 0:
                expect(res.out == "" and res.err.startswith("error:"),
                       f"{kind} rejected without a one-line error")
            else:
                check_out(res.out, written)
            return canonical([res.code, res.out, written])

        return Op(kind, run, check)

    def _adopt(self, kind: str, res: Result):
        try:
            data = json.loads(res.spans.read_text())
        except (OSError, ValueError):
            return  # the process died before writing spans; the exit code check reports it
        res.spans.unlink()
        if data.pop("sympy_loaded", False):
            self.sympy_kinds.add(kind)
        self.tracer.adopt(data, res.span)

    # -- the groups -------------------------------------------------------------------

    def group(self, index: int) -> list[Op]:
        """All sixteen command kinds once, in a seeded order."""
        variant = index % VARIANTS
        ops = [self._light(kind, variant) for kind in LIGHT]
        ops += [self._artifact(kind, variant) for kind in ARTIFACT]
        self.rng("order", index).shuffle(ops)
        return ops

    def _light(self, kind: str, variant: int) -> Op:
        argv, code, want = self.inputs[kind][variant]
        if isinstance(want, str) or want is None:
            def check_out(out, written):
                expect(out == want, f"{kind} printed {out[:200]!r}, expected {want[:200]!r}")
        elif want[0] == "k0_pos":
            _, ctx, seq = want

            def check_out(out, written):
                positive = json.loads(out)
                expect(isinstance(positive, bool), "k0 pos did not print a boolean")
                expect((written is not None) == positive, "witness file iff positive")
                w = None
                if positive:
                    obj = json.loads(written)
                    expect(obj["context"] == oracle.tower_obj(oracle.normalize(ctx)),
                           "witness has another context")
                    w = (tuple(obj["prefix"]), tuple(obj["period"]))
                oracle.check_positive(ctx, seq, positive, w)
        elif want[0] == "divide":
            _, ctx, p, r = want

            def check_out(out, written):
                obj = json.loads(out)
                w = None if obj is None else (tuple(obj["prefix"]), tuple(obj["period"]))
                oracle.check_divide(ctx, p, r, w)
        else:
            dist = want[1]

            def check_out(out, written):
                oracle.check_embedding(dist, [int(v) for v in json.loads(out)])
        return self._op(kind, argv, code, check_out)

    def _artifact(self, kind: str, variant: int) -> Op:
        if kind == "bce_build_d8":
            def check_out(out, written):
                expect(out == "" and written == self.d8_text,
                       "depth-8 witness file differs from the canonical inclusion map")
            argv = ["bce", "build", "--depth", "8", "--output", "{out}", "t2.json", "t4.json"]
        elif kind == "bce_verify_d8":
            def check_out(out, written):
                oracle.check_report(json.loads(out), self.d8["levels"][-1][0])
            argv = ["bce", "verify", "d8map.json"]
        elif kind == "roe_decompose":
            name, level, k, entries, (prefix, tail, depth) = self.artifacts[kind][variant]

            def check_out(out, written):
                obj = json.loads(written)
                expect(obj["level"] == level and obj["space"] == _space_obj((prefix, tail), depth),
                       "decomposition names the wrong space or level")
                got = {(b * k + r, b * k + c): Fraction(v)
                       for b, blk in enumerate(obj["blocks"]) for r, c, v in blk}
                expect(len(obj["blocks"]) == oracle.orders((prefix, tail), depth)[-1] // k,
                       "wrong number of blocks")
                expect(got == entries, "blocks do not recompose to the operator")
            argv = ["roe", "decompose", "--level", str(level), "--output", "{out}", name]
        else:
            name, want = self.artifacts[kind][variant]

            def check_out(out, written):
                expect(written == want, "conjugated operator differs from the relocated entries")
            argv = ["roe", "conjugate", "--output", "{out}", "d8map.json", name]
        return self._op(kind, argv, 0, check_out)

    # -- phases and metrics ---------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        """Largest resident set of any roeclass process this run started."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def layer_metrics(self, tracer, traced, plain) -> dict:
        out = {"cli.sympy_loaded_cmds": len(self.sympy_kinds)}
        per_kind: dict[str, list[float]] = {}
        for phase in (traced, plain):
            for kind, dt in zip(phase.kinds, phase.latency):
                per_kind.setdefault(kind, []).append(dt)
        for kind in LIGHT + ARTIFACT:
            out[f"cli.cmd.{kind}.p50_ms"] = 1000 * statistics.median(per_kind.get(kind, [0]))
        out.update(self._startup_probe())
        return out

    def _startup_probe(self, repeats: int = 3) -> dict:
        """Interpreter start and import costs, each the median of fresh
        interpreters: wall time of ``python -c pass`` and the cumulative
        ``-X importtime`` figures of roeclass.cli, sympy and numpy."""
        interp, found = [], {"roeclass.cli": [], "sympy": [], "numpy": []}
        for _ in range(repeats):
            t0 = perf_counter()
            # output captured, so the timed wait does not poll in 50 ms sleeps
            subprocess.run([sys.executable, "-c", "pass"], cwd=self.work, env=self.env,
                           capture_output=True, check=True, timeout=TIMEOUT_S)
            interp.append(perf_counter() - t0)
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import roeclass.cli"],
                                  cwd=self.work, env=self.env, capture_output=True, text=True,
                                  check=True, timeout=TIMEOUT_S)
            for line in proc.stderr.splitlines():
                m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
                if m and m.group(2) in found:
                    found[m.group(2)].append(int(m.group(1)) / 1000)
        med = {k: statistics.median(v) if v else 0.0 for k, v in found.items()}
        return {"cli.interp_ms": 1000 * statistics.median(interp),
                "cli.import_ms": med["roeclass.cli"], "cli.import_sympy_ms": med["sympy"],
                "cli.import_numpy_ms": med["numpy"]}

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
