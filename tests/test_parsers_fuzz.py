"""Arbitrary text into the three input parsers, and arbitrary bytes into
the two input files: only ``DomlabError`` may escape, and the CLI turns
each such error into exit 2 with a message."""

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from domlab.cli import _read_input, main
from domlab.errors import DomlabError
from domlab.graph import graph6_decode, parse_edge_list
from domlab.harness import CorpusSpec, read_graph6_file

# near-miss alphabets reach past the first check of each parser
GRAPH6_TEXT = st.one_of(
    st.text(max_size=30),
    st.builds(
        str.__add__,
        st.sampled_from(["", ">>graph6<<", " "]),
        st.text(st.characters(min_codepoint=60, max_codepoint=128), max_size=40),
    ),
)
EDGE_TOKENS = ["0", "1", "2", "3", "7", "64", "65", "-1", "1.5", "x", "#", "0x1", " "]
EDGE_LIST_TEXT = st.one_of(
    st.text(max_size=30),
    st.lists(st.lists(st.sampled_from(EDGE_TOKENS), max_size=4).map(" ".join), max_size=6).map("\n".join),
)
SPEC_TOKENS = ["exhaustive", "file", "random", "gadget", "tree", "cactus", "gap", "edge", "nosuch",
               "0", "1", "5", "7", "8", "-3", "1,2", "3,", "x", "", " 4"]
CORPUS_TEXT = st.one_of(st.text(max_size=30), st.lists(st.sampled_from(SPEC_TOKENS), max_size=5).map(":".join))

# line separators would let the CLI read a later line than the one drawn
ONE_LINE = st.characters(min_codepoint=32, max_codepoint=128)


def raises_only_domlab_error(parse, text) -> bool:
    """True when ``parse`` refused ``text``; any other exception escapes."""
    try:
        parse(text)
    except DomlabError:
        return True
    return False


@pytest.mark.parametrize("parse, texts", [(graph6_decode, GRAPH6_TEXT), (parse_edge_list, EDGE_LIST_TEXT),
                                           (CorpusSpec.parse, CORPUS_TEXT)],
                         ids=["graph6_decode", "parse_edge_list", "CorpusSpec.parse"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parser_raises_only_domlab_errors(parse, texts, data):
    raises_only_domlab_error(parse, data.draw(texts))


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cli_malformed_input_exits_2(data):
    which = data.draw(st.sampled_from(["graph6", "edgelist", "corpus"]))
    if which == "graph6":
        text = data.draw(st.text(ONE_LINE, max_size=40))
        assume(raises_only_domlab_error(graph6_decode, text))
        argv, stdin = ["solve"], text
    elif which == "edgelist":
        text = data.draw(EDGE_LIST_TEXT)
        assume(raises_only_domlab_error(parse_edge_list, text))
        argv, stdin = ["solve", "--format", "edgelist"], text
    else:
        text = data.draw(st.text(ONE_LINE, max_size=30) | CORPUS_TEXT)
        assume(raises_only_domlab_error(CorpusSpec.parse, text))
        argv, stdin = ["verify", f"--corpus={text}"], ""
    code, out, err = run_cli(argv, stdin)
    assert code == 2 and out == "", (argv, text)
    assert err.startswith("error: ") and "Traceback" not in err, (argv, text)


# route -> (argv for a file at PATH, the read that route makes of it)
FILE_ROUTES = {
    "corpus": (lambda p: ["verify", f"--corpus=file:{p}"], lambda p: list(read_graph6_file(p))),
    "graph6": (lambda p: ["solve", "--input", p],
               lambda p: _read_input(argparse.Namespace(input=p, format="graph6"))),
    "edgelist": (lambda p: ["solve", "--format", "edgelist", "--input", p],
                 lambda p: _read_input(argparse.Namespace(input=p, format="edgelist"))),
}


@pytest.fixture(scope="module")
def byte_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bytes") / "input.txt")


@settings(max_examples=60, deadline=None)
@given(raw=st.binary(max_size=40), route=st.sampled_from(sorted(FILE_ROUTES)))
@example(raw=b"\xff\xfe\n", route="corpus")
@example(raw=b"\xff\xfe\n", route="graph6")
@example(raw=b"\xff\xfe\n", route="edgelist")
def test_cli_malformed_file_bytes_exit_2(byte_file, raw, route):
    """Any bytes, UTF-8 or not, reach the parsers, as they do from stdin."""
    with open(byte_file, "wb") as fh:
        fh.write(raw)
    argv, read = FILE_ROUTES[route]
    assume(raises_only_domlab_error(read, byte_file))
    code, out, err = run_cli(argv(byte_file))
    assert code == 2 and out == "", (route, raw)
    assert err.startswith("error: ") and "Traceback" not in err, (route, raw)


UNDECODABLE_SHOWN = {"graph6": "byte 0xff outside graph6 range\n",
                     "edgelist": "bad edge-list header 0xff 0xfe: want two integers\n"}


def test_cli_names_an_undecodable_file_byte(byte_file):
    with open(byte_file, "wb") as fh:
        fh.write(b"\xff\xfe\n")
    for argv, shown in ((["solve", "--input", byte_file], "graph6"),
                        (["verify", f"--corpus=file:{byte_file}"], "graph6"),
                        (["solve", "--format", "edgelist", "--input", byte_file], "edgelist")):
        code, out, err = run_cli(argv)
        assert code == 2 and err.endswith(UNDECODABLE_SHOWN[shown]), (argv, err)
        assert "\\udc" not in ascii(err), (argv, err)


def solve_undecodable_stdin(fmt: str, encoding: str) -> subprocess.CompletedProcess:
    """``domlab solve`` in a fresh interpreter, fed undecodable bytes on a
    stdin decoded as ``encoding`` (a ``PYTHONIOENCODING`` value)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "domlab.cli", "solve", "--format", fmt],
        env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": encoding},
        input=b"\xff\xfe\n", capture_output=True, timeout=60,
    )


@pytest.mark.parametrize("fmt", ["graph6", "edgelist"])
def test_cli_undecodable_stdin_strict_locale_exit_2(fmt):
    """A locale whose stdin decoding is strict (en_US.UTF-8, say) refuses
    the bytes before any parser sees them; that is an input error too."""
    result = solve_undecodable_stdin(fmt, "utf-8:strict")
    err = result.stderr.decode()
    assert result.returncode == 2 and result.stdout == b"", err
    assert err.startswith("error: ") and "Traceback" not in err, err


@pytest.mark.parametrize("fmt", ["graph6", "edgelist"])
def test_cli_undecodable_stdin_names_its_bytes(fmt):
    """A stdin that escapes undecodable bytes (the C locale, say) hands them
    to the parser, which names them as 0xNN, not as surrogate escapes."""
    result = solve_undecodable_stdin(fmt, "utf-8:surrogateescape")
    err = result.stderr.decode("utf-8", "backslashreplace")
    assert result.returncode == 2 and result.stdout == b"", err
    assert err == "error: " + UNDECODABLE_SHOWN[fmt] and "\\udc" not in err, err
