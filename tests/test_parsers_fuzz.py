"""Arbitrary text into the three input parsers: only ``DomlabError`` may
escape, and the CLI turns each such error into exit 2 with a message."""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from domlab.cli import main
from domlab.errors import DomlabError
from domlab.graph import graph6_decode, parse_edge_list
from domlab.harness import CorpusSpec

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
