"""Command-line fuzzing: any bound/verify, convexity, construct or
family-max argv and any batch config ends in an exit code of the contract
(0-4), never in a traceback.

Scanned orders stay at n <= 6, one chunk of a native scan, so no example
starts a worker pool, and --jobs stays at most 2.  Sweeps stay at s2 <= 12,
family maxima at n <= 12, and constructions reach n = 70, past the 64
vertices a graph can have."""

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
from fracmatch.formulas import CONVEX_FAMILIES, feasible_t_max
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


@st.composite
def construction_argv(draw, n_max):
    """--n, --s2, --t and --delta of a construction that exists with n up to
    n_max, at times with one of them junk or left out."""
    s2 = draw(st.integers(4, 11))
    t = draw(st.integers(1, feasible_t_max(s2)))
    n = st.integers(s2 + 1, n_max) | st.integers(max(s2 + 1, n_max - 8), n_max)
    values = {"n": draw(n), "s2": s2, "t": t, "delta": draw(st.integers(1, t))}
    key = draw(st.sampled_from(sorted(values)))
    fault = draw(st.sampled_from([None, "junk", "left out"]))
    if fault == "junk":
        values[key] = draw(SMALL)
    elif fault == "left out":
        del values[key]
    return [arg for name, value in values.items() for arg in ("--" + name, str(value))]


@pytest.mark.parametrize("command", ["convexity", "construct", "family-max"])
def test_convexity_and_construction_argv_keep_the_exit_contract(command):
    s2_end = st.none() | st.integers(-2, 10)
    motif = st.sampled_from(["clique:2", "clique:4", "biclique:1,2", "biclique:2,2"]) \
        | st.sampled_from(["clique:0", "star:3"])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def check(data):
        argv = [command]
        if command == "convexity":
            argv += ["--family", data.draw(st.sampled_from(CONVEX_FAMILIES + ("F1",)))]
            for flag in ("--s2-min", "--s2-max"):
                end = data.draw(s2_end)
                argv += [] if end is None else [flag, str(end)]
        elif command == "construct":
            argv += data.draw(construction_argv(70)) + ["--describe"] * data.draw(st.booleans())
        else:
            argv += data.draw(construction_argv(12)) + [
                "--family", data.draw(st.sampled_from(["F1", "F2"]) | st.just("G")),
                "--motif", data.draw(motif)]
        code, err = exit_code(argv)
        assert code in range(5) and "Traceback" not in err

    check()
