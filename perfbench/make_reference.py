"""Regenerate perfbench/reference.json from the program at the current commit.

    python3 perfbench/make_reference.py

The reference holds the expected outputs the benchmark checks against:
per-spec digests of the acceptance batch, one digest per argv of the
n = 7 labeled-cold grid, and the sha256 of the n = 7 corpus file.  Only
regenerate it when a change is meant to alter those outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from run import run_call  # noqa: E402
from workloads import REFERENCE_FILE, batch_digests, combined_digest, labeled_digest, \
    labeled_grid  # noqa: E402


def main() -> int:
    from fracmatch import cli

    ref: dict = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "report.json"
        code, *_ = run_call(["batch", "--config", str(ROOT / "configs/acceptance.json"),
                             "--jobs", "1", "--out", str(out)])
        if code != 0:
            raise SystemExit(f"acceptance batch exited {code}")
        digests = batch_digests(json.loads(out.read_text())["reports"])
        ref["acceptance"] = {"digest": combined_digest(digests), "specs": digests}

        corpus = Path(tmp) / "graphs7.g6"
        code, *_ = run_call(["gen-corpus", "--n", "7", "--out", str(corpus)])
        if code != 0:
            raise SystemExit(f"gen-corpus exited {code}")
        ref["corpus7_sha256"] = hashlib.sha256(corpus.read_bytes()).hexdigest()

    labeled = {}
    for tails in labeled_grid().values():
        for tail in tails:
            # warm invariants cache: same reports as a cold call, much faster
            digest = _verify(cli, tail)
            if digest is not None:
                labeled[" ".join(tail)] = digest
    ref["labeled"] = labeled
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}: {len(digests)} specs, "
          f"{len(labeled)} labeled ops")
    return 0


def _verify(cli, tail: list[str]) -> str | None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", *tail, "--jobs", "1"])
    if code != 0:
        print(f"skipped (exit {code}): {' '.join(tail)}", file=sys.stderr)
        return None
    return labeled_digest(json.loads(out.getvalue().strip().splitlines()[-1]))


if __name__ == "__main__":
    sys.exit(main())
