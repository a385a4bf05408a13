"""Property tests of the CLI's file boundary.

Every file the CLI reads (the ``--input`` tensor in both formats, a
bundle's ``truth.json`` and ``meta.json``, the ``eval`` models, the
``check`` matrix, a bench ``--spec`` and a ``--solver-config`` file) is
given malformed contents: random bytes, text that is not UTF-8, JSON of
the wrong type, a non-number where a number belongs, and a valid file
with one field changed.  ``main`` must end in a documented exit code (0,
2, 3 or 4) with nothing escaping it, a fault in a file's content must
exit 3, and stdout must be one JSON document on exit 0.  Hypothesis runs
derandomized with no example database, so every run tries the same
examples.
"""

import contextlib
import io
import json
import math
import shutil

import pytest
from hypothesis import assume, given, settings, strategies as st

from ntdkit import cli
from ntdkit.cli import main
from ntdkit.tensor import TENSOR_MAGIC

DECOMPOSE = ("decompose", "--procedure", "1", "--ranks", "2,2,2", "--out",
             "{root}/m.json")
# reader -> (the file it reads, relative to the work directory; its argv)
READERS = {
    "tensor.json": ("bundle/tensor.json", (*DECOMPOSE, "--input", "{file}")),
    "tensor.bin": ("bundle/tensor.bin", (*DECOMPOSE, "--input", "{file}")),
    "truth.json": ("bundle/truth.json",
                   (*DECOMPOSE, "--input", "{root}/bundle")),
    "meta.json": ("bundle/meta.json",
                  (*DECOMPOSE, "--input", "{root}/bundle")),
    "eval-model": ("model.json", ("eval", "--model", "{file}", "--truth",
                                  "{root}/bundle/truth.json")),
    "eval-truth": ("model.json", ("eval", "--model",
                                  "{root}/bundle/truth.json", "--truth",
                                  "{file}")),
    "matrix": ("matrix.json", ("check", "ssc", "{file}")),
    "spec": ("spec.json", ("bench", "--procedures", "1", "--seeds", "1",
                           "--spec", "{file}", "--out", "{root}/b.csv",
                           "--no-timing")),
    "solver-config": ("solver.cfg",
                      (*DECOMPOSE, "--input", "{root}/bundle",
                       "--solver-config", "{file}")),
}
JSON_READERS = sorted(set(READERS) - {"tensor.bin", "solver-config"})
# subtrees of free-form values, which hold no number a reader needs
FREE = {"diagnostics", "meta"}
SPEC = {"defaults": {"assumption": "A4.2", "dims": [6, 6, 4],
                     "ranks": [2, 2, 2]}}
CONFIG = "feas_tol = 1e-9\nseed = 3\n"
property_settings = settings(max_examples=12)


def call(*argv):
    """``(exit code, stdout, stderr)`` of ``main``; an exception that
    escapes it fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-files")
    assert call("gen", "--assumption", "A4.2", "--dims", "6,6,4", "--ranks",
                "2,2,2", "--seed", "3", "--out", root / "bundle")[0] == 0
    shutil.copy(root / "bundle" / "truth.json", root / "model.json")
    (root / "matrix.json").write_text("[[1, 0], [0, 1], [0.5, 0.5]]")
    (root / "spec.json").write_text(json.dumps(SPEC))
    (root / "solver.cfg").write_text(CONFIG)
    return root


def run_reader(work, reader, content):
    """Run ``reader``'s command on its file holding ``content`` (bytes),
    then put the valid file back; the result of :func:`call`."""
    name, argv = READERS[reader]
    path = work / name
    original = path.read_bytes()
    path.write_bytes(content)
    try:
        return call(*(a.format(root=work, file=path) for a in argv))
    finally:
        path.write_bytes(original)


def check_documented(result):
    code, out, _ = result
    assert code in (0, 2, 3, 4)
    if code == 0:
        json.loads(out)


def check_input_error(result):
    code, _, err = result
    assert code == 3 and err.startswith("input error: "), err


def numeric_paths(doc, path=()):
    """Key/index paths of the numbers of ``doc`` outside its free-form
    subtrees."""
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        if key not in FREE:
            yield from numeric_paths(value, path + (key,))


def replaced(doc, path, value):
    """``doc`` with the node at ``path`` replaced by ``value``, or deleted
    when ``value`` is ``DELETE``."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


DELETE = object()
# text numpy cannot parse as a float (it would read "1" as 1.0)
WORDS = st.text("xyz ", max_size=4)
NOT_NUMBERS = st.one_of(st.none(), WORDS, st.lists(WORDS, max_size=2),
                        st.dictionaries(WORDS, st.integers(), max_size=1))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                    st.floats(), st.text(max_size=8))
# small values only: a field may be a dim or a rank the generator draws
SWAPS = st.one_of(st.just(DELETE), st.none(), st.booleans(),
                  st.integers(-2, 8), st.floats(-10, 10),
                  st.sampled_from(["x", "", [], {}, [[1, 2]], 1e308]))


@pytest.mark.parametrize("reader", sorted(READERS))
@property_settings
@given(data=st.one_of(st.binary(max_size=48),
                      st.binary(max_size=40).map(TENSOR_MAGIC.__add__)))
def test_any_bytes_end_in_a_documented_code(work, reader, data):
    check_documented(run_reader(work, reader, data))


@pytest.mark.parametrize("reader", sorted(READERS))
@property_settings
@given(head=st.binary(max_size=16), bad=st.sampled_from([b"\xff", b"\xfe"]),
       tail=st.binary(max_size=16))
def test_a_file_that_is_not_utf8_exits_3(work, reader, head, bad, tail):
    assume(not head.startswith(TENSOR_MAGIC))
    check_input_error(run_reader(work, reader, head + bad + tail))


@pytest.mark.parametrize("reader", JSON_READERS)
@property_settings
@given(doc=SCALARS)
def test_json_of_the_wrong_type_exits_3(work, reader, doc):
    check_input_error(run_reader(work, reader, json.dumps(doc).encode()))


@pytest.mark.parametrize("reader", JSON_READERS)
@property_settings
@given(data=st.data(), value=NOT_NUMBERS)
def test_a_non_number_for_a_number_exits_3(work, reader, data, value):
    doc = json.loads((work / READERS[reader][0]).read_text())
    path = data.draw(st.sampled_from(list(numeric_paths(doc))))
    content = json.dumps(replaced(doc, path, value)).encode()
    check_input_error(run_reader(work, reader, content))


@pytest.mark.parametrize("reader", JSON_READERS)
@property_settings
@given(data=st.data(), value=SWAPS)
def test_one_field_changed_ends_in_a_documented_code(work, reader, data,
                                                     value):
    doc = json.loads((work / READERS[reader][0]).read_text())
    top = list(doc) if isinstance(doc, dict) else []
    paths = list(numeric_paths(doc)) + [(key,) for key in top]
    path = data.draw(st.sampled_from(paths))
    content = json.dumps(replaced(doc, path, value)).encode()
    check_documented(run_reader(work, reader, content))


CONFIG_FAULTS = st.one_of(
    st.floats().filter(lambda f: not 0 < f < math.inf)
    .map(lambda f: f"feas_tol = {f!r}"),
    st.integers().filter(lambda i: not 0 <= i < 2**64)
    .map(lambda i: f"seed = {i}"),
    st.floats(allow_nan=False, allow_infinity=False)
    .map(lambda f: f"seed = {f!r}"),
    st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
    .filter(lambda k: k != "seed").map(lambda k: f"{k} = 1"))


@property_settings
@given(line=CONFIG_FAULTS, first=st.booleans())
def test_a_solver_config_value_it_refuses_exits_3(work, line, first):
    text = line + "\n" + CONFIG if first else CONFIG + line + "\n"
    check_input_error(run_reader(work, "solver-config", text.encode()))


@property_settings
@given(text=st.text(max_size=24))
def test_any_solver_config_text_ends_in_a_documented_code(work, text):
    check_documented(run_reader(work, "solver-config", text.encode()))


# Cases that exited otherwise before every reader ran inside the one file
# gate.

@pytest.mark.parametrize("reader", ["truth.json", "meta.json", "eval-model",
                                    "eval-truth", "spec"])
def test_not_utf8_no_longer_escapes(work, reader):
    # was: a raw UnicodeDecodeError, a traceback and exit 1
    check_input_error(run_reader(work, reader, b'{"\xff": 1}'))


@pytest.mark.parametrize("reader", JSON_READERS)
def test_json_nested_too_deep_no_longer_escapes(work, reader):
    # was: a raw RecursionError, a traceback and exit 1
    check_input_error(run_reader(work, reader, b"[" * 10**5 + b"]" * 10**5))


@pytest.mark.parametrize("reader,path", [
    ("tensor.json", ("data", 0)), ("matrix", (0, 0)),
    ("truth.json", ("core", "data", 0)), ("eval-model", ("factors", 0, 0, 0)),
    ("eval-truth", ("core", "data", 0))])
def test_a_number_past_float_no_longer_escapes(work, reader, path):
    # was: a raw OverflowError, a traceback and exit 1
    doc = json.loads((work / READERS[reader][0]).read_text())
    content = json.dumps(replaced(doc, path, 10**400)).encode()
    check_input_error(run_reader(work, reader, content))


@pytest.mark.parametrize("field,value", [("feas_tol", math.nan),
                                         ("feas_tol", 0.0), ("seed", -1)])
def test_a_refused_solver_value_exits_3_from_either_file(work, field,
                                                         value):
    # was: exit 2 from a --solver-config file, 3 from a bench spec
    line = f"{field} = {value!r}\n".encode()
    check_input_error(run_reader(work, "solver-config", line))
    spec = {"defaults": {**SPEC["defaults"], "solver": {field: value}}}
    check_input_error(run_reader(work, "spec", json.dumps(spec).encode()))


def test_a_refused_solver_flag_still_exits_2(work):
    result = call(*(a.format(root=work) for a in DECOMPOSE), "--input",
                  work / "bundle", "--solver-config", work / "solver.cfg",
                  "--feas-tol", "nan")
    assert result[0] == 2


def test_a_bench_spec_missing_a_key_exits_3(work):
    # was: exit 2
    spec = {"defaults": {"dims": [6, 6, 4], "ranks": [2, 2, 2]}}
    check_input_error(run_reader(work, "spec", json.dumps(spec).encode()))


def test_truth_dims_unlike_the_tensor_exit_3_before_decomposing(
        work, monkeypatch):
    # was: the whole decomposition, then exit 2 ("models have different
    # dims or ranks")
    other = work / "other"
    assert call("gen", "--assumption", "A4.2", "--dims", "6,6,5", "--ranks",
                "2,2,2", "--seed", "3", "--out", other)[0] == 0
    monkeypatch.setattr(cli, "_run_procedure",
                        lambda *args, **kw: pytest.fail("decomposed"))
    check_input_error(run_reader(work, "truth.json",
                                 (other / "truth.json").read_bytes()))
