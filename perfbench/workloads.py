"""The four workloads: their inputs, their CLI calls and their output checks.

Each workload turns ``--seed`` into input files and a sequence of passes.
A pass is a list of ``fracmatch`` CLI calls (argv lists for
``fracmatch.cli.main``); the runner times the calls and afterwards hands
their exit codes and stdout to ``check_pass``, which returns the number of
ops whose output was wrong.  The program only ever sees the generated
files and argv.

Workload rationale, and the layer each one is predicted to bypass:

* acceptance-batch -- ``batch`` over a seed-shuffled copy of
  configs/acceptance.json (102 specs, n = 5..7 native, n = 8 corpus
  stream), ``--jobs 1``.  The ROADMAP's named end-to-end case: in-process
  invariant kernel, 12,346-line corpus decode, motif counting, witness
  isomorphism.  Bypasses corpus generation and the process pool.
* labeled-cold -- single cold ``verify`` calls over the n = 7 labeled space
  with ``--jobs <nproc>``, one per category (theorems 1.1, 1.2, 1.4, 1.6 and
  1.9 in both delta modes, and ``--nonexistence``) per cycle.  The largest
  exhaustive scan the system can repeat in a run.  Bypasses graph6 decode
  and canonical forms.
* graph-stream -- a seeded graph6 file of random graphs, n = 8..12 at
  edge densities 0.2, 0.5 and 0.8, through ``nu-star --certificate``,
  ``nu-star``, ``matching``, ``count --motif clique:3`` and ``count --motif
  biclique:2,2``.  The per-graph scalar path; bypasses numpy and the
  verifier.
* corpus-gen -- ``gen-corpus --n 7`` (1,044 classes), the write side of the
  corpus layer and the only user of ``canonical_graph6``.  Bypasses the
  verifier.  Generation is deterministic: the seed has no effect here.

Left out on purpose: the tier-1 pytest wall (78 s, far too long for the
22 runs per workload, and not a user path) and a native n = 8 verify
(about 3.6 min and 3 GB at the seed code).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

REPORT_FIELDS = ("bound", "observed_max", "witnesses", "scanned", "passed",
                 "verdict", "witness_matches_construction")
NONEXISTENCE_FIELDS = ("scanned", "qualifying", "counterexamples", "verdict")
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# digests

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def spec_key(spec: dict) -> str:
    """A report's spec without the corpus path, which names the checkout."""
    return json.dumps({k: v for k, v in spec.items() if k != "corpus"}, sort_keys=True)


def report_digest(report: dict, fields=REPORT_FIELDS) -> str:
    """Digest of the named report fields; any other field is ignored."""
    return _sha(json.dumps({f: report.get(f) for f in fields}, sort_keys=True))[:16]


def batch_digests(reports: list[dict]) -> dict[str, str]:
    return {spec_key(r["spec"]): report_digest(r) for r in reports}


def combined_digest(digests: dict[str, str]) -> str:
    return _sha("".join(f"{k}\t{digests[k]}\n" for k in sorted(digests)))


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Call:
    argv: list[str]
    ops: int


class Workload:
    """Base: ``cycle_len`` passes make one cycle of the seeded sequence."""

    name = ""
    cycle_len = 1
    op_key = "cli.main"  # span key that starts a new op id in traces

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed, self.workdir = root, seed, workdir

    def pass_calls(self, i: int) -> list[Call]:
        raise NotImplementedError

    def check_pass(self, i: int, results: list[tuple[int, str]]) -> int:
        raise NotImplementedError

    def final_check(self) -> int:
        """Slower cross-checks, run once after the timed region."""
        return 0

    def input_files(self) -> list[Path]:
        return []


class AcceptanceBatch(Workload):
    name = "acceptance-batch"
    op_key = "verifier.verify_bound"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        entries = json.loads((root / "configs" / "acceptance.json").read_text())
        random.Random(seed).shuffle(entries)
        self.config = workdir / "acceptance.json"
        self.config.write_text(json.dumps(entries, indent=1) + "\n")
        self.n_specs = len(entries)
        self.out = workdir / "report.json"
        self.csv = workdir / "summary.csv"
        self.reference = load_reference()["acceptance"]

    def input_files(self):
        return [self.config]

    def pass_calls(self, i):
        return [Call(["batch", "--config", str(self.config), "--jobs", "1",
                      "--out", str(self.out), "--csv", str(self.csv)], self.n_specs)]

    def check_pass(self, i, results):
        (code, _), = results
        try:
            report = json.loads(self.out.read_text())
            with open(self.csv, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        except (OSError, ValueError):
            return self.n_specs
        finally:
            self.out.unlink(missing_ok=True)
            self.csv.unlink(missing_ok=True)
        reports = report.get("reports", [])
        if code != 0 or report.get("all_exact") is not True or report.get("violations") != 0 \
                or len(reports) != self.n_specs or len(rows) != self.n_specs + 1:
            return self.n_specs
        got = batch_digests(reports)
        bad = sum(got.get(k) != d for k, d in self.reference["specs"].items())
        if not bad and combined_digest(got) != self.reference["digest"]:
            bad = self.n_specs
        bad += sum(row[3] != r["verdict"] for row, r in zip(rows[1:], reports))
        return min(bad, self.n_specs)


def labeled_grid(n: int = 7) -> dict[str, list[list[str]]]:
    """Every n = 7 verify argv tail, per category.

    The categories are the theorem paths a cold verify can take; their
    parameter ranges are the ones the theorems admit at n = 7.  All of them
    exit 0 at the reference commit.
    """
    from fracmatch.formulas import feasible_t_max

    base = ["--n", str(n)]
    grid: dict[str, list[list[str]]] = {
        "1.1": [["--theorem", "1.1", *base, "--k", str(k)] for k in range(1, (n - 1) // 2 + 1)],
        "1.2": [["--theorem", "1.2", *base, "--s2", str(s2), "--d", str(d)]
                for s2 in range(1, n) for d in range(1, n)],
        "1.4": [["--theorem", "1.4", *base, "--s2", str(s2)] for s2 in range(4, n)],
        "nonexistence": [["--nonexistence", *base, "--s2", str(s2), "--delta", str(delta)]
                         for s2 in range(4, n) for delta in range(feasible_t_max(s2) + 1, n)],
    }
    motifs = {"1.6": ["clique:2", "clique:3", "clique:4", "clique:5"],
              "1.9": ["biclique:1,1", "biclique:1,2", "biclique:2,2", "biclique:1,3",
                      "biclique:2,3"]}
    for theorem, names in motifs.items():
        for mode in ("exact", "at-least"):
            grid[f"{theorem}/{mode}"] = [
                ["--theorem", theorem, *base, "--s2", str(s2), "--delta", str(delta),
                 "--motif", motif, "--delta-mode", mode]
                for s2 in range(4, n) for delta in range(1, feasible_t_max(s2) + 1)
                for motif in names]
    return grid


def labeled_digest(report: dict) -> str:
    fields = NONEXISTENCE_FIELDS if "qualifying" in report else REPORT_FIELDS
    return report_digest(report, ("spec",) + fields)


class LabeledCold(Workload):
    name = "labeled-cold"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.reference = load_reference()["labeled"]
        self.grid = {cat: [t for t in tails if " ".join(t) in self.reference]
                     for cat, tails in labeled_grid().items()}
        self.categories = sorted(self.grid)
        self.cycle_len = len(self.categories)
        self.jobs = str(nproc())

    def _tail(self, i: int) -> list[str]:
        """Cycle c runs every category once, in a seeded order; a category
        walks its grid in a seeded order, so small grids are fully covered."""
        cycle, pos = divmod(i, self.cycle_len)
        order = random.Random(f"{self.seed}:{cycle}").sample(self.categories, self.cycle_len)
        tails = self.grid[order[pos]]
        walk = random.Random(f"{self.seed}:{order[pos]}").sample(range(len(tails)), len(tails))
        return tails[walk[cycle % len(tails)]]

    def pass_calls(self, i):
        return [Call(["verify", *self._tail(i), "--jobs", self.jobs], 1)]

    def check_pass(self, i, results):
        (code, out), = results
        if code != 0:
            return 1
        try:
            report = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return 1
        return int(labeled_digest(report) != self.reference[" ".join(self._tail(i))])


def encode_graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 of an n <= 62 vertex graph: upper triangle, column order."""
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = 1
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                   for k in range(0, len(bits), 6))
    return chr(63 + n) + body


GRAPH_ORDERS = range(8, 13)
DENSITIES = (0.2, 0.5, 0.8)
GRAPHS_PER_CELL = 96
STREAM_COMMANDS = (["nu-star", "--certificate"], ["nu-star"], ["matching"],
                   ["count", "--motif", "clique:3"], ["count", "--motif", "biclique:2,2"])
ORACLE_SAMPLE = 16


def random_graphs(seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """GRAPHS_PER_CELL graphs per (order, density) cell, in seeded order."""
    rng = random.Random(seed)
    graphs = []
    for n in GRAPH_ORDERS:
        for p in DENSITIES:
            for _ in range(GRAPHS_PER_CELL):
                graphs.append((n, [(u, v) for v in range(n) for u in range(v)
                                   if rng.random() < p]))
    rng.shuffle(graphs)
    return graphs


class GraphStream(Workload):
    name = "graph-stream"
    op_key = "graphs.from_graph6"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.graphs = random_graphs(seed)
        self.file = workdir / "graphs.g6"
        self.file.write_text("".join(encode_graph6(n, e) + "\n" for n, e in self.graphs))
        self.first_outputs: list[str] | None = None
        self.doubled: list[int] = []
        self.counts: dict[str, list[int]] = {}

    def input_files(self):
        return [self.file]

    def pass_calls(self, i):
        return [Call([*cmd[:1], "--in", str(self.file), *cmd[1:]], len(self.graphs))
                for cmd in STREAM_COMMANDS]

    def check_pass(self, i, results):
        outs = [out for _, out in results]
        if self.first_outputs is not None:
            return sum(len(self.graphs) for (code, out), first in zip(results, self.first_outputs)
                       if code != 0 or out != first)
        self.first_outputs = outs
        if any(code != 0 for code, _ in results):
            return len(self.graphs) * len(results)
        try:
            parsed = [[json.loads(line) for line in out.splitlines()] for out in outs]
        except ValueError:
            return len(self.graphs) * len(results)
        if any(len(p) != len(self.graphs) for p in parsed):
            return len(self.graphs) * len(results)
        certs, nu_star, matching, cliques, bicliques = parsed
        try:
            self.doubled = [c["doubled"] for c in certs]
            self.counts = {"clique:3": [int(c["count"]) for c in cliques],
                           "biclique:2,2": [int(c["count"]) for c in bicliques]}
            return sum(
                not certificate_ok(n, edges, cert) or fast["doubled"] != d
                or not 2 * nu["nu"] <= d <= 3 * nu["nu"]
                for (n, edges), cert, fast, nu, d in
                zip(self.graphs, certs, nu_star, matching, self.doubled))
        except (KeyError, TypeError, ValueError):
            self.doubled = []
            return len(self.graphs) * len(results)

    def final_check(self):
        """nu* and the motif counts of a seeded sample against the oracles."""
        from fracmatch.counting import count_oracle, parse_motif
        from fracmatch.graphs import Graph
        from fracmatch.matching import nu_star_deficiency

        if not self.doubled:
            return 0
        bad = 0
        for k in random.Random(self.seed).sample(range(len(self.graphs)), ORACLE_SAMPLE):
            g = Graph.from_edges(*self.graphs[k])
            bad += nu_star_deficiency(g)[0].doubled != self.doubled[k]
            for motif, counts in self.counts.items():
                bad += count_oracle(g, parse_motif(motif)) != counts[k]
        return bad


def certificate_ok(n: int, edges: list[tuple[int, int]], out: dict) -> bool:
    """A feasible half-integral fractional matching on exactly the graph's
    edges whose doubled total is the reported doubled nu*."""
    cert = out["certificate"]
    if sorted((u, v) for u, v, _ in cert["edges"]) != sorted(edges):
        return False
    load = [0] * n
    for u, v, w in cert["edges"]:
        if w not in (0, 1, 2):
            return False
        load[u] += w
        load[v] += w
    total = sum(w for _, _, w in cert["edges"])
    return max(load, default=0) <= 2 and total == cert["total_doubled"] == out["doubled"]


class CorpusGen(Workload):
    name = "corpus-gen"
    CLASSES = 1044

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)  # the seed changes nothing here
        self.out = workdir / "graphs7.g6"
        self.sha = load_reference()["corpus7_sha256"]
        self.lines: list[str] = []

    def pass_calls(self, i):
        return [Call(["gen-corpus", "--n", "7", "--out", str(self.out)], self.CLASSES)]

    def check_pass(self, i, results):
        (code, out), = results
        try:
            data = self.out.read_bytes()
            classes = json.loads(out)["classes"]
        except (OSError, ValueError, KeyError, TypeError):
            return self.CLASSES
        finally:
            self.out.unlink(missing_ok=True)
        if code != 0 or classes != self.CLASSES or hashlib.sha256(data).hexdigest() != self.sha:
            return self.CLASSES
        self.lines = data.decode().split()
        return 0

    def final_check(self):
        """Every emitted line is a fixed point of canonical_graph6."""
        from fracmatch.corpus import canonical_graph6
        from fracmatch.graphs import from_graph6

        return sum(canonical_graph6(from_graph6(line)) != line for line in self.lines)


WORKLOADS = {w.name: w for w in (AcceptanceBatch, LabeledCold, GraphStream, CorpusGen)}
