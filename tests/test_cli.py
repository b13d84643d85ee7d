"""Command-line interface: JSON output, error records, determinism."""

import json

import pytest

import artinlocal.structure as structure
from artinlocal.cli import main
from artinlocal.quotient import IdealPresentation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_ideal(tmp_path, text):
    path = tmp_path / "ideal.txt"
    path.write_text(text)
    return str(path)


def test_hf_subcommand(tmp_path, capsys):
    path = write_ideal(tmp_path, "vars: 2\nx1*x2\nx2^2 - x1^3\n")
    code, out, _ = run(capsys, "hf", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["hilbert_function"] == [1, 2, 1, 1]


def test_invariants_subcommand(tmp_path, capsys):
    path = write_ideal(tmp_path, "vars: 2\nx1^2\nx2^2\n")
    code, out, _ = run(capsys, "invariants", path)
    doc = json.loads(out)
    assert code == 0
    assert doc["gorenstein"] is True
    assert doc["min_gens"] == 2


def test_bounds_subcommand(capsys):
    code, out, _ = run(capsys, "bounds", "--e", "7", "--h", "3")
    assert code == 0
    doc = json.loads(out)
    assert (doc["t"], doc["r"], doc["lower"], doc["upper"]) == (2, 3, 3, 7)


@pytest.mark.parametrize("argv,hf,kind,shape", [
    (["stretched", "--h", "2", "--s", "4", "--tau", "1"], [1, 2, 1, 1, 1],
     "stretched", {"h": 2, "s": 4, "tau": 1}),
    (["almost-stretched", "--h", "3", "--t", "2", "--s", "4", "--a", "x1",
      "--w", "3", "--units", "2"], [1, 3, 2, 1, 1],
     "almost_stretched", {"h": 3, "t": 2, "s": 4}),
], ids=["stretched", "almost-stretched"])
def test_make_and_normalize_round_trip(tmp_path, capsys, argv, hf, kind, shape):
    code, out, _ = run(capsys, "make", *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["hilbert_function"] == hf
    path = write_ideal(tmp_path, f"vars: {doc['vars']}\n" + "\n".join(doc["generators"]) + "\n")
    code, out, _ = run(capsys, "normalize", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == kind
    assert {k: doc["params"][k] for k in shape} == shape


def test_make_stretched_rejects_tau_zero(capsys):
    """--tau 0 is passed on, not read as the default tau = h."""
    code, out, err = run(capsys, "make", "stretched", "--h", "3", "--s", "4", "--tau", "0")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["code"] == "bad-input"


def test_classify7_subcommand(tmp_path, capsys):
    path = write_ideal(tmp_path, "vars: 2\nx1*x2\nx2^4 - x1^6\n")
    code, out, _ = run(capsys, "classify7", path, "--allow-extensions")
    assert code == 0
    assert json.loads(out)["case"] == "case1"


def test_certification_error_record(tmp_path, capsys, monkeypatch):
    # a model of colength 6 for an algebra of length 5 cannot be certified
    wrong = IdealPresentation.from_strings(["x1*x2", "x2^2", "x1^6"], 2)
    monkeypatch.setattr(structure, "make_stretched", lambda params: wrong)
    path = write_ideal(tmp_path, "vars: 2\nx1*x2\nx2^2\nx1^5\n")
    code, _, err = run(capsys, "normalize", path)
    assert code == 1
    assert json.loads(err)["error"]["code"] == "certification-failed"


def test_search_exhausted_error_record(tmp_path, capsys, monkeypatch):
    # with no candidate allowed, the power element search gives up
    monkeypatch.setattr(structure, "LEAN_BASIS_BUDGET", 0)
    path = write_ideal(tmp_path, "vars: 2\nx1*x2\nx2^2 - x1^4\n")
    code, out, err = run(capsys, "normalize", path)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["code"] == "search-exhausted"


def test_semigroup_subcommand(capsys):
    code, out, _ = run(capsys, "semigroup", "2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["v"] == 1 and doc["symmetric"] is True


def test_semigroup_error_record(capsys):
    code, out, err = run(capsys, "semigroup", "4,6")
    assert code == 1
    doc = json.loads(err)
    assert doc["error"]["code"] == "gcd-not-one"


def test_missing_file_error_record(capsys):
    code, _, err = run(capsys, "hf", "/no/such/file")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "missing-file"


def test_bad_ideal_file(tmp_path, capsys):
    path = write_ideal(tmp_path, "x1^2\n")
    code, _, err = run(capsys, "hf", path)
    assert code == 1
    assert json.loads(err)["error"]["code"] == "parse-error"


@pytest.mark.parametrize("text", ["vars: 0\n0\n", "vars: 0\nx1\n", "vars: -2\n3\n",
                                  "vars: -2\nx1^2\n"])
def test_a_variable_count_below_1_is_a_parse_error_that_names_it(tmp_path, capsys, text):
    """The count is checked before any generator is read, so the record
    names the count, not the generators it cannot hold."""
    path = write_ideal(tmp_path, text)
    code, _, err = run(capsys, "invariants", path)
    error = json.loads(err)["error"]
    assert code == 1 and error["code"] == "parse-error"
    assert f"variable count {text[6:text.index(chr(10))]} is below 1" in error["message"]


def test_huge_exponent_gives_the_not_artinian_record(tmp_path, capsys):
    """x2^99999999999 parses at once to its monomial, which lies past every
    truncation, so (x1^2) alone is left and the build reports it."""
    path = write_ideal(tmp_path, "vars: 2\nx1^2\nx2^99999999999\n")
    code, _, err = run(capsys, "invariants", path)
    assert code == 1
    assert json.loads(err)["error"]["code"] == "not-artinian"


def test_verify_rgs_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "rgs")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0 and doc["cases"] == 5


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "not-applicable"


def test_identical_runs_identical_output(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "rgs", "--seed", "5")
    _, out2, _ = run(capsys, "verify", "--suite", "rgs", "--seed", "5")
    assert out1 == out2
