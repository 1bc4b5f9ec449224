"""CLI behavior: exit codes, emitted files, and input parsing."""

import hashlib
import json
import re
import shlex
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from shallowprep import circuits, cli, library
from shallowprep.circuits import Builder, deserialize, g_x, serialize
from shallowprep.simulate import MAX_DENSE_QUBITS
from test_circuits import (
    _KET0, BAD_METADATA, MALFORMED, _edited, malformed_text, metadata_file, mixed_circuit
)

def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_read_eta_parses_comments_gaps_and_order(tmp_path):
    path = write(
        tmp_path / "eta.txt",
        "# weight amplitude table\n"
        "\n"
        "2 0.0 0.8  # imaginary part in the third column\n"
        "0 0.6 0.0\n",
    )
    eta = cli.read_eta(path, 2)
    assert np.allclose(eta, [0.6, 0.0, 0.8j])


def test_read_eta_errors(tmp_path):
    with pytest.raises(ValueError, match="expected"):
        cli.read_eta(write(tmp_path / "a.txt", "1 0.5\n"), 3)
    with pytest.raises(ValueError, match="negative"):
        cli.read_eta(write(tmp_path / "b.txt", "-1 0.5 0\n"), 3)
    with pytest.raises(ValueError, match="duplicate"):
        cli.read_eta(write(tmp_path / "c.txt", "1 0.5 0\n1 0.5 0\n"), 3)
    with pytest.raises(ValueError, match="no amplitude"):
        cli.read_eta(write(tmp_path / "d.txt", "# nothing here\n"), 3)
    with pytest.raises(ValueError, match="e.txt:2: weight 1000000000000 out of range"):
        cli.read_eta(write(tmp_path / "e.txt", "0 1 0\n1000000000000 1 0\n"), 3)


def test_parse_grid():
    assert cli._parse_grid("m=1..16,k=1..4") == {"m_lo": 1, "m_hi": 16, "k_max": 4}
    assert cli._parse_grid("m=3") == {"m_lo": 3, "m_hi": 3, "k_max": 6}
    with pytest.raises(ValueError, match="bad grid"):
        cli._parse_grid("q=1..2")
    with pytest.raises(ValueError, match="starts at 1"):
        cli._parse_grid("k=2..4")
    with pytest.raises(ValueError, match="'m' given twice"):
        cli._parse_grid("m=1..2,m=5..6,k=1..2")
    with pytest.raises(ValueError, match="'k' given twice"):
        cli._parse_grid("k=1..2,k=1..3")
    for spec in ("m=a..3", "m=1..b", "k=1..x", "m=", "m=1.5"):
        with pytest.raises(ValueError, match="bad grid component"):
            cli._parse_grid(spec)


@pytest.mark.parametrize(
    "grid, message",
    [
        ("m=1..2,m=5..6,k=1..2", "error: grid component 'm' given twice"),
        ("m=a..3", "error: bad grid component 'm=a..3'"),
    ],
)
def test_claims_bad_grid_exits_2_with_one_line(grid, message, capsys):
    rc = cli.main(["claims", "--grid", grid])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), lines


def test_synth_dicke_writes_files_and_passes(tmp_path, capsys):
    rc = cli.main(
        ["synth", "dicke", "--n", "4", "--k", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "self-check fidelity" in out
    circuit_file = tmp_path / "dicke_n4_k1.circuit"
    report_file = tmp_path / "dicke_n4_k1.report.json"
    assert circuit_file.exists() and report_file.exists()
    payload = json.loads(report_file.read_text())
    assert payload["fidelity"] > 1 - 1e-9
    assert payload["qubits"] >= 4
    assert set(payload["cost"]) == {
        "depth", "ancilla_count", "max_fanout_width", "grover_rounds",
    }


def test_verify_dicke_pass_and_fail(tmp_path, capsys):
    cli.main(["synth", "dicke", "--n", "4", "--k", "1", "--out", str(tmp_path)])
    circuit = str(tmp_path / "dicke_n4_k1.circuit")
    capsys.readouterr()
    rc = cli.main(
        ["verify", "--circuit", circuit, "--target", "dicke", "--n", "4", "--k", "1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    bound = float(out.split("error_bound=")[1].split()[0])
    assert 0.0 <= bound < 1e-12
    rc = cli.main(
        ["verify", "--circuit", circuit, "--target", "dicke", "--n", "4", "--k", "2"]
    )
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_requires_k_for_dicke(tmp_path, capsys):
    cli.main(["synth", "dicke", "--n", "4", "--k", "1", "--out", str(tmp_path)])
    circuit = str(tmp_path / "dicke_n4_k1.circuit")
    rc = cli.main(["verify", "--circuit", circuit, "--target", "dicke", "--n", "4"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_synth_and_verify_symmetric(tmp_path, capsys):
    eta = write(tmp_path / "eta.txt", "0 0.6 0\n1 0 0.8\n")
    rc = cli.main(
        ["synth", "symmetric", "--n", "3", "--eta", eta, "--out", str(tmp_path)]
    )
    assert rc == 0
    circuit = str(tmp_path / "symmetric_n3.circuit")
    rc = cli.main(
        [
            "verify", "--circuit", circuit, "--target", "symmetric",
            "--n", "3", "--eta", eta,
        ]
    )
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_refuses_a_target_weight_above_n(tmp_path, capsys):
    cli.main(["synth", "dicke", "--n", "3", "--k", "1", "--out", str(tmp_path)])
    circuit = str(tmp_path / "dicke_n3_k1.circuit")
    capsys.readouterr()
    rc = cli.main(
        ["verify", "--circuit", circuit, "--target", "dicke", "--n", "3", "--k", "4"]
    )
    assert rc == 2
    assert "weight 4 out of range for 3 qubits" in capsys.readouterr().err
    eta = write(tmp_path / "eta.txt", "0 0.6 0\n4 0.8 0\n")
    rc = cli.main(
        [
            "verify", "--circuit", circuit, "--target", "symmetric",
            "--n", "3", "--eta", eta,
        ]
    )
    assert rc == 2
    assert "weight 4 out of range for 3 qubits" in capsys.readouterr().err


def test_verify_refuses_a_negative_dicke_weight(tmp_path, capsys):
    """The target is eta = e_k, and (0,) * -1 + (1,) is e_0: weight -1
    would verify weight 0."""
    cli.main(["synth", "dicke", "--n", "3", "--k", "0", "--out", str(tmp_path)])
    circuit = str(tmp_path / "dicke_n3_k0.circuit")
    capsys.readouterr()
    argv = ["verify", "--circuit", circuit, "--target", "dicke", "--n", "3", "--k", "-1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: weight -1 out of range for 3 qubits\n"


def test_verify_checks_n_against_the_circuit_before_building_the_target(tmp_path, capsys):
    """--n 40 built the 2^40-entry target first and ended in a MemoryError
    traceback."""
    cli.main(["synth", "dicke", "--n", "3", "--k", "1", "--out", str(tmp_path)])
    circuit = str(tmp_path / "dicke_n3_k1.circuit")
    capsys.readouterr()
    argv = ["verify", "--circuit", circuit, "--target", "dicke", "--n", "40", "--k", "1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: circuit exposes 3 output qubits, target has 40\n"


def test_a_weight_far_above_n_exits_2_at_once(tmp_path, capsys):
    """The weight is refused on its own line, before an array of that size
    is built."""
    cli.main(["synth", "dicke", "--n", "4", "--k", "1", "--out", str(tmp_path)])
    circuit = str(tmp_path / "dicke_n4_k1.circuit")
    eta = write(tmp_path / "eta.txt", "1000000000000 1 0\n")
    verify = ["verify", "--circuit", circuit, "--target", "symmetric", "--n", "4", "--eta", eta]
    synth = ["synth", "symmetric", "--n", "4", "--eta", eta, "--out", str(tmp_path)]
    for argv in (verify, synth):
        capsys.readouterr()
        start = time.perf_counter()
        assert cli.main(argv) == 2, argv[0]
        assert time.perf_counter() - start < 0.5, argv[0]
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "eta.txt:1: weight 1000000000000" in err, err


@pytest.mark.parametrize("line", ["1 1.2 0", "1 nan 0", "0 inf 0"])
def test_a_target_that_is_not_unit_norm_exits_2(tmp_path, capsys, line):
    """An eta of norm 1.44 read fidelity 1.44 and passed; a NaN read
    fidelity 0 and failed with exit 1.  Both are input errors, named in
    one line."""
    cli.main(["synth", "dicke", "--n", "4", "--k", "1", "--out", str(tmp_path)])
    circuit = str(tmp_path / "dicke_n4_k1.circuit")
    eta = write(tmp_path / "eta.txt", line + "\n")
    verify = ["verify", "--circuit", circuit, "--target", "symmetric", "--n", "4", "--eta", eta]
    synth = ["synth", "symmetric", "--n", "4", "--eta", eta, "--out", str(tmp_path)]
    for argv in (verify, synth):
        capsys.readouterr()
        assert cli.main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured.err
        assert ("norm" if line == "1 1.2 0" else "eta.txt:1: amplitude") in captured.err


@pytest.mark.parametrize(
    "text,want",
    [("x 1 0\n", "eta.txt:1: weight"), ("0 1 0\n1 a 0\n", "eta.txt:2: amplitude")],
)
def test_a_field_that_is_not_a_number_exits_2_with_its_place(tmp_path, capsys, text, want):
    """int() and float() used to report 'x' and 'a' with no file or line."""
    cli.main(["synth", "dicke", "--n", "4", "--k", "1", "--out", str(tmp_path)])
    circuit = str(tmp_path / "dicke_n4_k1.circuit")
    eta = write(tmp_path / "eta.txt", text)
    verify = ["verify", "--circuit", circuit, "--target", "symmetric", "--n", "4", "--eta", eta]
    synth = ["synth", "symmetric", "--n", "4", "--eta", eta, "--out", str(tmp_path)]
    for argv in (verify, synth):
        capsys.readouterr()
        assert cli.main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert want in err and "is not a number" in err, err


def test_report_prints_costs(tmp_path, capsys):
    cli.main(["synth", "dicke", "--n", "4", "--k", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    rc = cli.main(["report", "--circuit", str(tmp_path / "dicke_n4_k1.circuit")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qubits"] >= 4
    assert any(reg["name"] == "data" for reg in payload["registers"])
    assert payload["depth"] >= 1


def test_claims_small_grid(tmp_path, capsys):
    rc = cli.main(["claims", "--grid", "m=1..4,k=1..3", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    rows = json.loads((tmp_path / "claims.json").read_text())
    assert all(row["passed"] for row in rows)


def test_claims_out_is_byte_identical_without_timings(tmp_path, capsys):
    paths = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        rc = cli.main(["claims", "--grid", "m=1..3,k=1..2", "--out", out])
        assert rc == 0
        paths.append(tmp_path / name / "claims.json")
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert all("seconds" not in row for row in json.loads(first))


def test_claims_fault_injection_fails(capsys):
    rc = cli.main(
        ["claims", "--grid", "m=1..4,k=1..3", "--fault", "lambda-off-by-one"]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "normalizer-bounds" in out


def test_claims_empty_grid_is_config_error(capsys):
    rc = cli.main(["claims", "--grid", "m=5..4"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_accept_only_subset(tmp_path, capsys):
    rc = cli.main(
        ["accept", "--only", "depth-witness", "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "depth-witness" in out
    text = (tmp_path / "acceptance.json").read_text()
    rows = json.loads(text)
    assert rows and all(row["verdict"] for row in rows)
    assert all("seconds" not in row for row in rows)


def test_accept_writes_nothing_to_stderr(tmp_path, capsys):
    """A passing battery reports on stdout alone: no warning reaches stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["accept", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert [str(w.message) for w in caught] == []


def test_synth_symmetric_on_a_one_hot_eta_writes_the_dicke_circuit(tmp_path, capsys):
    eta = write(tmp_path / "e2.txt", "2 1 0\n")
    out = str(tmp_path)
    assert cli.main(["synth", "symmetric", "--n", "8", "--eta", eta, "--out", out]) == 0
    assert cli.main(["synth", "dicke", "--n", "8", "--k", "2", "--out", out]) == 0
    circuit = (tmp_path / "symmetric_n8.circuit").read_bytes()
    assert circuit == (tmp_path / "dicke_n8_k2.circuit").read_bytes()


def test_synth_dicke_complements_at_an_explicit_ell(tmp_path, capsys):
    argv = ["synth", "dicke", "--n", "8", "--k", "6", "--ell", "4", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert "self-check fidelity" in capsys.readouterr().out


def test_accept_unknown_criterion(capsys):
    rc = cli.main(["accept", "--only", "no-such-criterion"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_primitive_subcommand(capsys):
    rc = cli.main(["primitive", "--name", "exact_grover"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_primitive_all_stdout_is_pinned(capsys):
    """Every primitive row prints in its fixed order, with ``name`` as the
    first param of each."""
    assert cli.main(["primitive", "--name", "all"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "442ee9798c150eee147db1dbc4fd182ebfd56226476652af3825057ab219c12b"


def test_primitive_rejects_unknown_name():
    with pytest.raises(SystemExit):
        cli.main(["primitive", "--name", "bogus"])


def test_missing_circuit_file_is_config_error(capsys):
    rc = cli.main(
        ["verify", "--circuit", "/nonexistent.circuit", "--target", "dicke",
         "--n", "4", "--k", "1"]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("layers", 5), ("metadata", [])])
def test_malformed_circuit_json_is_config_error(tmp_path, capsys, key, value):
    cli.main(["synth", "dicke", "--n", "4", "--k", "1", "--out", str(tmp_path)])
    path = tmp_path / "dicke_n4_k1.circuit"
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = cli.main(["report", "--circuit", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def _report(path, capsys):
    capsys.readouterr()
    assert cli.main(["report", "--circuit", str(path)]) == 0
    return json.loads(capsys.readouterr().out)


def test_report_rejects_library_costs_edited_in_the_file(tmp_path, capsys):
    """Costs written beside the library gates of a file are not read: the
    report charges the registry's, so a file cannot lower its cost."""
    cli.main(["synth", "dicke", "--n", "4", "--k", "1", "--out", str(tmp_path)])
    path = tmp_path / "dicke_n4_k1.circuit"
    before = _report(path, capsys)
    doc = json.loads(path.read_text())
    edited = 0
    for layer in doc["layers"]:
        for gate in layer:
            if gate["kind"] == "library":
                gate["declared_depth"], gate["declared_width"] = 1, 0
                edited += 1
    assert edited
    path.write_text(json.dumps(doc))
    after = _report(path, capsys)
    assert before["depth"] > len(doc["layers"])
    assert (after["depth"], after["max_fanout_width"]) == (
        before["depth"], before["max_fanout_width"]
    )


def test_a_version_1_circuit_file_exits_2_with_one_line(tmp_path, capsys):
    cli.main(["synth", "dicke", "--n", "4", "--k", "1", "--out", str(tmp_path)])
    path = tmp_path / "dicke_n4_k1.circuit"
    doc = json.loads(path.read_text())
    doc["version"] = 1
    path.write_text(json.dumps(doc))
    verify = ["verify", "--circuit", str(path), "--target", "dicke", "--n", "4", "--k", "1"]
    for argv in (["report", "--circuit", str(path)], verify):
        capsys.readouterr()
        assert cli.main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, (argv[0], err)
        assert "version 1" in err


@pytest.mark.parametrize("case", sorted(BAD_METADATA))
def test_report_refuses_metadata_outside_the_three_keys(tmp_path, capsys, case):
    """A round count of -7, say, is refused, not reported as grover_rounds -7."""
    meta, message = BAD_METADATA[case]
    path = write(tmp_path / "bad.circuit", metadata_file(meta))
    assert cli.main(["report", "--circuit", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_synth_report_writes_fractions_as_num_over_den(tmp_path, capsys):
    argv = ["synth", "dicke", "--n", "7", "--k", "2", "--ell", "4", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    info = json.loads((tmp_path / "dicke_n7_k2.report.json").read_text())["info"]
    assert info == {"R": "531/224", "ell": 4, "k_star": 2, "p0": "3/4", "padded_to": 8}


def test_verify_refuses_circuits_too_wide_to_simulate(tmp_path, capsys):
    wide = MAX_DENSE_QUBITS + 1
    b = Builder()
    b.add_register("data", wide)
    path = write(tmp_path / "wide.circuit", serialize(b.build()))
    rc = cli.main(
        ["verify", "--circuit", path, "--target", "dicke", "--n", str(wide), "--k", "1"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{wide} qubits" in err


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_circuit_files_exit_2_with_one_line(tmp_path, capsys, case):
    path = write(tmp_path / "bad.circuit", malformed_text(case))
    verify = ["verify", "--circuit", path, "--target", "dicke", "--n", "3", "--k", "1"]
    for argv in (["report", "--circuit", path], verify):
        capsys.readouterr()
        assert cli.main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, (argv[0], err)


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("layers", 2, 0, "params", "local_states"), [_KET0, _KET0],
         "product_reflection gate takes no parameter 'local_states'"),
        (("layers", 3, 0, "params", "widened"), True, "fanout gate takes no parameter 'widened'"),
        (("layers", 5, 0, "params", "tag"), "nosuch", "unknown library tag 'nosuch'"),
    ],
    ids=["reflection-local-states", "widened-fanout", "unknown-library-tag"],
)
def test_a_file_gate_that_names_no_gate_exits_2_with_its_plain_line(
    tmp_path, capsys, path, value, message
):
    """A param the gate's kind does not take is refused, not read as some
    other gate, and an unknown tag is named as it is."""
    text = json.dumps(_edited(json.loads(serialize(mixed_circuit())), path, value))
    assert cli.main(["report", "--circuit", write(tmp_path / "bad.circuit", text)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_checks_the_domain_of_every_gate_it_runs(tmp_path, capsys):
    """A file cannot switch off a library gate's domain check: dicke_prep(2, 0)
    on |11>, outside its domain, is refused with its flag set to False."""
    b = Builder()
    b.add_register("data", 2, ancilla=False)
    b.append_layer([g_x(0), g_x(1)])
    b.append(library.make("dicke_prep", (2, 0), (0, 1)).with_params(checked=False))
    path = write(tmp_path / "unchecked.circuit", serialize(b.build()))
    rc = cli.main(["verify", "--circuit", path, "--target", "dicke", "--n", "2", "--k", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "driven outside its domain" in err


def _readme_section(title):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```(\w*)\n(.*?)```", section, re.S)


def test_the_readme_walkthrough_runs(tmp_path, capsys, monkeypatch):
    """Every command of the README's "Command line" section exits 0, run on
    its weights.txt, and its "Python API" block runs."""
    monkeypatch.chdir(tmp_path)
    blocks = [body for _, body in _readme_section("Command line")]
    lines = [line for body in blocks for line in body.splitlines()]
    commands = [line for line in lines if line.startswith("shallowprep ")]
    weights = [body for body in blocks if "shallowprep" not in body]
    assert len(weights) == 1 and "weights.txt" in " ".join(commands)
    write(tmp_path / "weights.txt", weights[0])
    assert len(commands) >= 8
    for line in commands:
        assert cli.main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr())
    (api,) = [body for lang, body in _readme_section("Python API") if lang == "python"]
    exec(compile(api, "README.md", "exec"), {})


def test_claims_refuses_a_worker_count_below_one(capsys):
    command = ["claims", "--grid", "m=1..2,k=1..1"]
    assert cli.main(command + ["--workers", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert cli.main(command + ["--workers", "1"]) == 0


def test_synth_dicke_stops_at_the_edge_of_the_builder_domain(tmp_path, capsys):
    """A block count exists exactly when k(k - 1) < n: 6 < 9 builds, 12 < 8
    does not, and ends with exit code 2 and one line."""
    assert cli.main(["synth", "dicke", "--n", "9", "--k", "3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert cli.main(["synth", "dicke", "--n", "8", "--k", "4", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no workable block count for n=8, k=4" in err


@pytest.mark.parametrize("ell", ["0", "-4"])
def test_synth_refuses_a_block_count_below_one(tmp_path, capsys, ell):
    """--ell 0 used to end in a ZeroDivisionError traceback from n % ell."""
    eta = write(tmp_path / "eta.txt", "0 0.6 0\n1 0 0.8\n")
    for argv in (
        ["synth", "dicke", "--n", "8", "--k", "2"],
        ["synth", "symmetric", "--n", "8", "--eta", eta],
    ):
        assert cli.main(argv + ["--ell", ell, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"block count {ell} must be at least 1" in err


@pytest.mark.parametrize("target", ["dicke", "symmetric"])
def test_synth_ell_help_names_the_block_count(tmp_path, capsys, target):
    """--ell is the number of blocks, not their size: --ell 4 on n = 8 makes
    four blocks of two, one bucket marker each."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", target, "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--ell ELL block count override: the number of equal blocks" in out
    assert "bucket size" not in out
    eta = write(tmp_path / "eta.txt", "0 0.6 0\n1 0 0.8\n")
    args = {"dicke": ["--k", "2"], "symmetric": ["--eta", eta]}[target]
    assert cli.main(["synth", target, "--n", "8", *args, "--ell", "4", "--out", str(tmp_path)]) == 0
    report = json.loads(next(tmp_path.glob("*.report.json")).read_text(encoding="utf-8"))
    circuit = deserialize((tmp_path / report["circuit"]).read_text(encoding="utf-8"))
    sizes = {r.name: len(r) for r in circuit.registers}
    assert sizes["data"] == 8 and sizes["bucket0"] == 4


def test_synth_writes_a_wide_circuit_in_runs_that_report_reads_back(tmp_path, capsys):
    """At n = 100,000 a version-2 file took 9.0 MB, one int per qubit."""
    argv = ["synth", "dicke", "--n", "100000", "--k", "2", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    path = tmp_path / "dicke_n100000_k2.circuit"
    assert path.stat().st_size < 20_000
    capsys.readouterr()
    assert cli.main(["report", "--circuit", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["qubits"] > 100_000


def test_a_short_file_asking_for_2_to_the_40_qubits_exits_2_unexpanded(tmp_path, capsys):
    """The qubits a file names are counted from its runs before any run is
    expanded, so a file of 100 bytes cannot ask for a terabyte."""
    text = json.dumps({"version": 3, "metadata": {}, "layers": [],
                       "registers": [{"name": "q", "qubits": [[0, 2**40]]}]},
                      separators=(",", ":"))
    assert len(text) <= 100
    path = write(tmp_path / "huge.circuit", text)
    tracemalloc.start()
    try:
        rc = cli.main(["report", "--circuit", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and peak < 2**20
    err = capsys.readouterr().err
    assert err == (f"error: file names {2**40} qubit entries, "
                   f"over the limit of {circuits.MAX_QUBIT_ENTRIES}\n")


def test_synth_refuses_an_n_over_its_cap_before_it_builds(tmp_path, capsys, monkeypatch):
    """--n 10000000 ended in a MemoryError traceback inside json."""
    monkeypatch.setattr(cli, "build_dicke", lambda *a: pytest.fail("build_dicke ran"))
    monkeypatch.setattr(cli, "build_symmetric", lambda *a: pytest.fail("build_symmetric ran"))
    eta = write(tmp_path / "eta.txt", "0 0.6 0\n1 0 0.8\n")
    n = str(cli.MAX_SYNTH_QUBITS + 1)
    for argv in (["dicke", "--n", n, "--k", "2"], ["symmetric", "--n", n, "--eta", eta]):
        assert cli.main(["synth", *argv, "--out", str(tmp_path / "out")]) == 2
        want = f"error: synth takes --n up to {cli.MAX_SYNTH_QUBITS}, got {n}\n"
        assert capsys.readouterr().err == want
    assert not (tmp_path / "out").exists()


def test_running_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "build_dicke", exhausted)
    assert cli.main(["synth", "dicke", "--n", "8", "--k", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"
