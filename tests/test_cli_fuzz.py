"""Command-line fuzzing: any bound/verify argv and any batch config ends in
an exit code of the contract (0-4), never in a traceback.

Orders stay at n <= 6, one chunk of a native scan, so no example starts a
worker pool, and --jobs stays at most 2."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmatch.cli import main
from fracmatch.corpus import write_corpus
from fracmatch.verifier import THEOREMS

FUZZ = settings(max_examples=300, deadline=None)
SMALL = st.integers(-2, 6)
JOBS = st.integers(1, 2) | st.integers(-1, 2)
CORPORA = ("valid", "malformed", "missing", "directory")
# the spec keys each question reads, so that some examples pose a valid one
READS = {"1.1": ["n", "k"], "1.2": ["n", "s2", "d"], "1.4": ["n", "s2"],
         "1.6": ["n", "s2", "delta", "motif", "delta_mode"],
         "1.9": ["n", "s2", "delta", "motif", "delta_mode"],
         "nonexistence": ["n", "s2", "delta"]}
JSON = st.recursive(st.none() | st.booleans() | SMALL | st.text(max_size=4),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                    max_leaves=6)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """A corpus path of each kind in CORPORA."""
    root = tmp_path_factory.mktemp("fuzz")
    write_corpus(root / "graphs5.g6", 5)
    (root / "bad.g6").write_bytes(b"D~{\n!!\n\xff\n")
    return dict(zip(CORPORA, (root / "graphs5.g6", root / "bad.g6", root / "none.g6", root)))


def spec_values(corpora):
    """One strategy per spec key: a value that may pose a valid question, or
    one that is out of range or junk."""
    return {
        "theorem": st.sampled_from(THEOREMS) | st.sampled_from(["2.0", ""]),
        "n": st.integers(5, 6) | SMALL,
        "s2": st.integers(4, 5) | SMALL,
        "delta": st.integers(1, 2) | SMALL,
        "k": st.integers(1, 2) | SMALL,
        "d": st.integers(2, 4) | SMALL,
        "motif": st.sampled_from(["clique:2", "clique:3", "biclique:1,2", "biclique:2,2"])
        | st.sampled_from(["clique:0", "biclique:1", "star:3", ""]),
        "delta_mode": st.sampled_from(["exact", "at-least"]) | st.just("most"),
        "source": st.sampled_from(["native", "graph6-stream"]) | st.just("bogus"),
        "corpus": st.sampled_from(CORPORA).map(lambda kind: str(corpora[kind])),
    }


def exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_bound_and_verify_argv_keep_the_exit_contract(corpora):
    values = dict(spec_values(corpora), jobs=JOBS)

    @FUZZ
    @given(st.sampled_from(["bound", "verify"]), st.sampled_from([None] + sorted(READS)),
           st.lists(st.sampled_from(sorted(values)), unique=True), st.data())
    def check(command, question, extra, data):
        argv = [command]
        if question == "nonexistence":
            argv.append("--nonexistence")
        elif question is not None:
            argv += ["--theorem", question]
        for key in dict.fromkeys(READS.get(question, []) + extra):
            argv += ["--" + key.replace("_", "-"), str(data.draw(values[key]))]
        code, err = exit_code(argv)
        assert code in range(5) and "Traceback" not in err

    check()


def test_batch_configs_keep_the_exit_contract(corpora):
    values = spec_values(corpora)
    scan = {key: values[key] for key in ("source", "corpus")}
    question = st.sampled_from(THEOREMS).flatmap(lambda theorem: st.fixed_dictionaries(
        {"theorem": st.just(theorem), **{key: values[key] for key in READS[theorem]}},
        optional=scan))
    entry = question | st.fixed_dictionaries({}, optional=values) | JSON

    @FUZZ
    @given(st.lists(entry, max_size=3) | JSON, st.none() | JOBS)
    def check(entries, jobs):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(entries))
            jobs_flag = [] if jobs is None else ["--jobs", str(jobs)]
            code, err = exit_code(["batch", "--config", str(path)] + jobs_flag)
        assert code in range(5) and "Traceback" not in err

    check()
