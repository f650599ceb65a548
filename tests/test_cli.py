import dataclasses
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ddh2mor
from ddh2mor import IterRecord, OptimParams, Rom, FormatError
from ddh2mor.cli import (GEN_DATA_DEFAULTS, GEN_SYSTEM_DEFAULTS, REDUCE_DEFAULTS,
                         build_parser, main)
from ddh2mor import impulse_from_system, save_impulse_data
from ddh2mor.dataio import (HISTORY_HEADER, history_row, load_system, read_history,
                            save_rom)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated system plus matching ensembles shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    sysdir = root / "system"
    ensdir = root / "ensemble"
    thindir = root / "thin"
    assert main(["gen-system", "--n", "12", "--m", "2", "--seed", "5",
                 "--out", str(sysdir)]) == 0
    assert main(["gen-data", "--system", str(sysdir), "--N", "16",
                 "--seed", "6", "--out", str(ensdir)]) == 0
    assert main(["gen-data", "--system", str(sysdir), "--N", "10",
                 "--seed", "7", "--out", str(thindir)]) == 0
    return {"root": root, "system": sysdir, "ensemble": ensdir, "thin": thindir}


def reduce_args(ws, out, *extra):
    return ["reduce", "--ensemble", str(ws["ensemble"]), "--r", "3",
            "--init", "databt", "--oracle", str(ws["system"]),
            "--tol", "1e-4", "--max-iters", "40", "--out", str(out), *extra]


def count_rank_checks(monkeypatch):
    """Count calls of check_assumptions through every namespace that binds it."""
    calls = []
    check = ddh2mor.dataio.check_assumptions

    def counting(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    for module in (ddh2mor, ddh2mor.dataio, ddh2mor.ddgrad):
        monkeypatch.setattr(module, "check_assumptions", counting)
    return calls


EXPERIMENT_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiment.py"


def load_experiment_script():
    spec = importlib.util.spec_from_file_location("run_experiment", EXPERIMENT_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gen_system_outputs(workspace, capsys):
    sysdir = workspace["system"]
    assert (sysdir / "A.csv").exists()
    assert (sysdir / "B.csv").exists()
    manifest = json.loads((sysdir / "system.json").read_text())
    assert manifest["n"] == 12 and manifest["m"] == 2 and manifest["c"] == "identity"
    sys_ = load_system(sysdir)
    assert sys_.spectral_radius() < 1.0


def test_gen_system_is_reproducible(workspace, tmp_path):
    again = tmp_path / "sys2"
    assert main(["gen-system", "--n", "12", "--m", "2", "--seed", "5",
                 "--out", str(again)]) == 0
    assert (again / "A.csv").read_bytes() == (workspace["system"] / "A.csv").read_bytes()
    assert (again / "B.csv").read_bytes() == (workspace["system"] / "B.csv").read_bytes()


def test_gen_data_is_reproducible(workspace, tmp_path):
    # workspace["ensemble"] came from the same command
    again = tmp_path / "ens2"
    assert main(["gen-data", "--system", str(workspace["system"]), "--N", "16",
                 "--seed", "6", "--out", str(again)]) == 0
    for name in ("x1.npy", "u1.npy", "x2.npy", "ensemble.json"):
        assert (again / name).read_bytes() == (workspace["ensemble"] / name).read_bytes()


def test_gen_data_reports_assumptions(workspace, tmp_path, capsys):
    out = tmp_path / "ens"
    assert main(["gen-data", "--system", str(workspace["system"]), "--N", "20",
                 "--seed", "9", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["N"] == 20
    rep = payload["assumptions"]
    assert rep["rank_X1U1"] == 14 and rep["b1_holds"] and rep["b2_holds"] and rep["b3_holds"]
    assert (out / "ensemble.json").exists()


def test_reduce_end_to_end(workspace, tmp_path, capsys):
    out = tmp_path / "red"
    assert main(reduce_args(workspace, out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stop_reason"] in ("converged", "max_iters")
    assert summary["final_rel_h2_error"] <= summary["initial_rel_h2_error"]
    assert summary["r"] == 3 and summary["init"] == "databt"
    assert summary["params"]["tol"] == 1e-4

    rows = read_history(out / "history.csv")  # checks that f never increases
    assert len(rows) == summary["iterations"]
    assert all(r.stable for r in rows)

    rom_a = np.loadtxt(out / "rom_A.csv", delimiter=",", ndmin=2)
    assert rom_a.shape == (3, 3)
    assert np.max(np.abs(np.linalg.eigvals(rom_a))) < 1.0


def test_reduce_reruns_are_byte_identical(workspace, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(reduce_args(workspace, out1)) == 0
    assert main(reduce_args(workspace, out2)) == 0
    assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
    for name in ("rom_A.csv", "rom_B.csv", "rom_C.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_reduce_checks_ranks_once(workspace, tmp_path, monkeypatch):
    calls = count_rank_checks(monkeypatch)
    assert main(reduce_args(workspace, tmp_path / "red")) == 0
    assert len(calls) == 1


def test_reduce_rank_failure_exits_2(workspace, tmp_path, capsys):
    out = tmp_path / "red"
    rc = main(["reduce", "--ensemble", str(workspace["thin"]), "--r", "3",
               "--init", "databt", "--oracle", str(workspace["system"]),
               "--out", str(out)])
    assert rc == 2
    assert not (out / "summary.json").exists()
    report = json.loads(capsys.readouterr().out)["assumptions"]
    assert report["rank_X1U1"] == 10 and not report["b1_holds"]


def test_reduce_force_proceeds_past_rank_failure(workspace, tmp_path):
    out = tmp_path / "red"
    rc = main(["reduce", "--ensemble", str(workspace["thin"]), "--r", "3",
               "--init", "databt", "--oracle", str(workspace["system"]),
               "--max-iters", "5", "--force", "--out", str(out)])
    # the run happens; whether it survives numerically is data-dependent
    assert rc in (0, 3)
    assert (out / "summary.json").exists()


def test_reduce_without_ensemble_exits_1(capsys):
    assert main(["reduce", "--r", "3", "--init", "databt"]) == 1


def test_reduce_dmdc_without_oracle_exits_1(workspace, tmp_path, capsys):
    rc = main(["reduce", "--ensemble", str(workspace["ensemble"]), "--r", "3",
               "--init", "dmdc", "--out", str(tmp_path / "red")])
    assert rc == 1
    assert "oracle" in capsys.readouterr().err


def test_reduce_with_impulse_file_needs_no_oracle(workspace, tmp_path, capsys):
    sys_ = load_system(workspace["system"])
    impulse_path = tmp_path / "impulse.json"
    save_impulse_data(impulse_from_system(sys_, 10), impulse_path)
    out = tmp_path / "red"
    rc = main(["reduce", "--ensemble", str(workspace["ensemble"]), "--r", "3",
               "--init", "databt", "--init-data", str(impulse_path),
               "--tol", "1e-4", "--max-iters", "40", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    # no oracle, so relative errors stay blank
    assert summary["initial_rel_h2_error"] is None
    assert all(r.rel_h2_error is None for r in read_history(out / "history.csv"))


def test_reduce_from_saved_rom_file(workspace, tmp_path):
    initdir = tmp_path / "init"
    save_rom(Rom(np.diag([0.5, 0.4, 0.3]), np.ones((3, 2)), np.ones((12, 3))),
             initdir)
    out = tmp_path / "red"
    rc = main(["reduce", "--ensemble", str(workspace["ensemble"]), "--r", "3",
               "--init", "file", "--init-data", str(initdir),
               "--max-iters", "30", "--out", str(out)])
    assert rc == 0


def test_reduce_from_rom_file_keeps_its_order(workspace, tmp_path, capsys):
    initdir = tmp_path / "init"
    save_rom(Rom(np.diag([0.5, 0.4, 0.3]), np.ones((3, 2)), np.ones((12, 3))), initdir)
    base = ["reduce", "--ensemble", str(workspace["ensemble"]), "--init", "file",
            "--init-data", str(initdir), "--max-iters", "3"]
    # no r given: the rom's order stands
    assert main([*base, "--out", str(tmp_path / "kept")]) == 0
    assert json.loads((tmp_path / "kept" / "summary.json").read_text())["r"] == 3
    # an r that differs from it, by flag or by config, is refused
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"r": 4}))
    for extra in (["--r", "6"], ["--config", str(config)]):
        capsys.readouterr()
        assert main([*base, *extra, "--out", str(tmp_path / "refused")]) == 1
        assert_one_line_error(capsys, "does not match the order 3 of the rom")
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("block", ["Ahat", "Bhat"])
def test_reduce_from_an_overflowing_rom_file_exits_3(workspace, tmp_path, capsys, block):
    # Ahat[0, 1] = 1e200 keeps the poles 0.5, 0.5 and 0.3 inside the annulus,
    # and so does Bhat at 1e200; either overflows the start's gramian P
    Ahat, Bhat = np.diag([0.5, 0.5, 0.3]), np.ones((3, 2))
    if block == "Ahat":
        Ahat[0, 1] = 1e200
    else:
        Bhat *= 1e200
    initdir, out = tmp_path / "init", tmp_path / "red"
    save_rom(Rom(Ahat, Bhat, np.ones((12, 3))), initdir)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["reduce", "--ensemble", str(workspace["ensemble"]), "--init", "file",
                   "--init-data", str(initdir), "--out", str(out)])
    assert rc == 3
    assert_one_line_error(capsys, "overflowed")
    assert not caught
    assert not (out / "summary.json").exists()


def test_config_file_supplies_defaults_and_flags_win(workspace, tmp_path, capsys):
    config = tmp_path / "config.json"
    # alpha0 is a float flag, which a JSON integer may set
    config.write_text(json.dumps({"r": 2, "max_iters": 5, "init": "databt", "alpha0": 1,
                                  "ensemble": str(workspace["ensemble"]),
                                  "oracle": str(workspace["system"]),
                                  "out": str(tmp_path / "from_config")}))
    assert main(["reduce", "--config", str(config)]) == 0
    summary = json.loads((tmp_path / "from_config" / "summary.json").read_text())
    assert summary["r"] == 2 and summary["params"]["max_iters"] == 5
    assert isinstance(summary["params"]["alpha0"], float)

    assert main(["reduce", "--config", str(config), "--r", "3",
                 "--out", str(tmp_path / "flag_wins")]) == 0
    summary = json.loads((tmp_path / "flag_wins" / "summary.json").read_text())
    assert summary["r"] == 3

    # a value whose JSON type differs from its flag's is refused
    for argv, bad, message in [
        (["reduce"], {"r": [3]}, "'r' must be an integer"),
        (["reduce"], {"r": None}, "'r' must be an integer, got null"),
        (["reduce"], {"force": 1}, "'force' must be a boolean"),
        (["gen-data", "--system", str(workspace["system"])], {"N": 3.5},
         "'N' must be an integer, got 3.5"),
        (["gen-system"], {"h": "0.1"}, "'h' must be a number"),
    ]:
        capsys.readouterr()
        config.write_text(json.dumps(bad))
        assert main([*argv, "--config", str(config),
                     "--out", str(tmp_path / "refused")]) == 1
        assert_one_line_error(capsys, message)
    assert not (tmp_path / "refused").exists()


def test_unknown_config_key_exits_1(workspace, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"order": 3}))
    rc = main(["reduce", "--config", str(config),
               "--ensemble", str(workspace["ensemble"])])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_malformed_config_exits_1(workspace, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{nope")
    assert main(["gen-system", "--config", str(config)]) == 1


def test_bad_cli_usage_exits_1(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["reduce", "--init", "newton"]) == 1
    assert main([]) == 1


def test_evaluate_report(workspace, tmp_path, capsys):
    out = tmp_path / "red"
    assert main(reduce_args(workspace, out)) == 0
    capsys.readouterr()
    rc = main(["evaluate", "--system", str(workspace["system"]), "--rom", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is True
    assert payload["rom_order"] == 3
    assert 0 < payload["h2_error_rel"] < 1
    assert payload["h2_error_abs"] == pytest.approx(
        payload["h2_error_rel"] * payload["h2_norm_system"])
    assert len(payload["rom_eigenvalues"]) == 3
    assert payload["rom_spectral_radius"] < 1.0


def test_reduce_defaults_are_optim_params(workspace, tmp_path):
    out = tmp_path / "red"
    assert main(["reduce", "--ensemble", str(workspace["ensemble"]), "--r", "3",
                 "--init", "databt", "--oracle", str(workspace["system"]),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["params"] == dataclasses.asdict(OptimParams())


def test_evaluate_error_is_the_error_reduce_ends_on(workspace, tmp_path, capsys):
    out = tmp_path / "red"
    assert main(reduce_args(workspace, out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    capsys.readouterr()
    assert main(["evaluate", "--system", str(workspace["system"]), "--rom", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h2_error_rel"] == summary["final_rel_h2_error"]


def test_evaluate_reports_exact_real_and_conjugate_eigenvalues(workspace, tmp_path, capsys):
    rng = np.random.default_rng(3)
    D = np.diag([0.5, -0.3, 0.2, 0.0, 0.0])
    D[3:, 3:] = [[0.4, -0.5], [0.5, 0.4]]
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    romdir = tmp_path / "rom"
    save_rom(Rom(Q @ D @ Q.T, rng.standard_normal((5, 2)),
                 rng.standard_normal((12, 5))), romdir)
    rc = main(["evaluate", "--system", str(workspace["system"]), "--rom", str(romdir)])
    assert rc == 0
    eigs = [complex(e["re"], e["im"]) for e in json.loads(capsys.readouterr().out)
            ["rom_eigenvalues"]]
    real = sorted(e.real for e in eigs if e.imag == 0.0)
    pair = [e for e in eigs if e.imag != 0.0]
    np.testing.assert_allclose(real, [-0.3, 0.2, 0.5], atol=1e-12)
    assert len(pair) == 2 and pair[0] == pair[1].conjugate()
    assert any(abs(e - complex(0.4, 0.5)) < 1e-12 for e in pair)


def test_evaluate_unstable_rom_exits_3(workspace, tmp_path, capsys):
    romdir = tmp_path / "rom"
    save_rom(Rom(np.diag([1.5, 0.5]), np.ones((2, 2)), np.ones((12, 2))), romdir)
    rc = main(["evaluate", "--system", str(workspace["system"]),
               "--rom", str(romdir)])
    assert rc == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is False
    assert payload["h2_error_abs"] is None and payload["h2_error_rel"] is None
    assert payload["rom_spectral_radius"] == pytest.approx(1.5)


def test_evaluate_rom_of_other_output_size_exits_1(workspace, tmp_path, capsys):
    # the sizes are checked before stability: an unstable rom of the wrong
    # size is a file error too
    for radius in (0.5, 1.5):
        romdir = tmp_path / f"rom{radius}"
        save_rom(Rom(np.diag([radius, 0.4]), np.ones((2, 2)), np.ones((5, 2))), romdir)
        rc = main(["evaluate", "--system", str(workspace["system"]), "--rom", str(romdir)])
        assert rc == 1
        assert_one_line_error(capsys, "must share input/output dimensions")


def test_evaluate_missing_rom_exits_1(workspace, tmp_path, capsys):
    rc = main(["evaluate", "--system", str(workspace["system"]),
               "--rom", str(tmp_path / "nowhere")])
    assert rc == 1


def copy_with_manifest(src, dst, name, edit):
    """Copy a data directory and rewrite its JSON manifest with ``edit``."""
    shutil.copytree(src, dst)
    manifest = dst / name
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    return dst


def assert_one_line_error(capsys, text):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert text in err


def test_line_breaks_in_a_manifest_file_name_stay_on_one_error_line(workspace, tmp_path,
                                                                    capsys):
    ens = copy_with_manifest(workspace["ensemble"], tmp_path / "ensemble", "ensemble.json",
                             lambda m: {**m, "u1": "u\r1\n.csv"})
    capsys.readouterr()
    assert main(["reduce", "--ensemble", str(ens), "--r", "3", "--init", "dmdc",
                 "--oracle", str(workspace["system"]), "--out", str(tmp_path / "red")]) == 1
    assert_one_line_error(capsys, "u\\r1\\n.csv")


@pytest.mark.parametrize("edit, message", [
    (lambda m: {k: v for k, v in m.items() if k != "n"}, "lacks keys ['n']"),
    (lambda m: [m], "expected a JSON object"),
    (lambda m: {**m, "a": 5}, "'a' must be a string, got 5"),
    (lambda m: {**m, "n": True}, "'n' must be an integer, got true"),
], ids=["without-n", "list", "a-int", "n-bool"])
def test_evaluate_bad_system_manifest_exits_1(workspace, tmp_path, capsys, edit, message):
    sysdir = copy_with_manifest(workspace["system"], tmp_path / "sys", "system.json", edit)
    romdir = tmp_path / "rom"
    save_rom(Rom(np.diag([0.5, 0.4]), np.ones((2, 2)), np.ones((12, 2))), romdir)
    assert main(["evaluate", "--system", str(sysdir), "--rom", str(romdir)]) == 1
    assert_one_line_error(capsys, message)


def test_reduce_ensemble_manifest_list_exits_1(workspace, tmp_path, capsys):
    for i, (edit, init, message) in enumerate([
        (lambda m: [m], "databt", "expected a JSON object"),
        (lambda m: {**m, "x1": None}, "databt", "'x1' must be a string, got null"),
        (lambda m: {**m, "alpha": "x"}, "dmdc", "'alpha' must be a number or null"),
        (lambda m: {**m, "N": 16.0}, "databt", "'N' must be an integer, got 16.0"),
    ]):
        ensdir = copy_with_manifest(workspace["ensemble"], tmp_path / f"ens{i}",
                                    "ensemble.json", edit)
        rc = main(["reduce", "--ensemble", str(ensdir), "--r", "3", "--init", init,
                   "--oracle", str(workspace["system"]), "--out", str(tmp_path / "red")])
        assert rc == 1
        assert_one_line_error(capsys, message)
    assert not (tmp_path / "red").exists()


# JSON values of every kind, nested a little
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=3)
# values of every JSON type but the one a flag of each type takes
WRONG_JSON = {
    int: st.floats() | st.text(max_size=4) | st.booleans() | st.lists(st.integers(), max_size=2),
    float: st.text(max_size=4) | st.booleans() | st.lists(st.floats(), max_size=2)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    str: st.integers() | st.floats() | st.booleans() | st.lists(st.text(max_size=2), max_size=2),
    bool: st.integers() | st.floats() | st.text(max_size=4) | st.lists(st.booleans(), max_size=2),
}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_manifests_and_configs_never_traceback(workspace, tmp_path, capsys, data):
    """Any value in a manifest ends in an exit code, and a config value of
    the wrong JSON type in a one-line error with exit 1."""
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    romdir = root / "rom"
    save_rom(Rom(np.diag([0.5, 0.4]), np.ones((2, 2)), np.ones((12, 2))), romdir)
    target = data.draw(st.sampled_from(["system", "ensemble", "config"]))
    capsys.readouterr()
    if target == "config":
        command = data.draw(st.sampled_from(["gen-system", "gen-data", "reduce", "evaluate"]))
        types = build_parser().parse_args([command]).flag_types
        key = data.draw(st.sampled_from(sorted(set(types) - {"config", "help"})))
        config = root / "config.json"
        config.write_text(json.dumps({key: data.draw(WRONG_JSON[types[key]])}))
        assert main([command, "--config", str(config)]) == 1
        assert_one_line_error(capsys, f"{config}: {key!r} must be ")
        return
    name = f"{target}.json"
    key = data.draw(st.sampled_from(sorted(json.loads((workspace[target] / name).read_text()))))
    value = data.draw(JSON_VALUES)
    copy_with_manifest(workspace[target], root / target, name, lambda m: {**m, key: value})
    if target == "system":
        argv = ["evaluate", "--system", str(root / "system"), "--rom", str(romdir)]
    else:
        argv = ["reduce", "--ensemble", str(root / "ensemble"), "--r", "3", "--init", "dmdc",
                "--oracle", str(workspace["system"]), "--max-iters", "2",
                "--out", str(root / "red")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3) and "Traceback" not in err
    if rc == 1:
        assert err.strip().splitlines()[-1].startswith("error: ")


def test_reduce_csv_ensemble_exits_1(workspace, tmp_path, capsys):
    ensdir = copy_with_manifest(workspace["ensemble"], tmp_path / "ens", "ensemble.json",
                                lambda m: {**m, "x1": "x1.csv"})
    np.savetxt(ensdir / "x1.csv", np.load(ensdir / "x1.npy"), delimiter=",")
    capsys.readouterr()
    rc = main(["reduce", "--ensemble", str(ensdir), "--r", "3", "--init", "databt",
               "--oracle", str(workspace["system"]), "--out", str(tmp_path / "red")])
    assert rc == 1
    assert_one_line_error(capsys, "x1.csv: not a .npy array file")


# values for a rewritten .npy header of an ensemble block, valid ones among them
NPY_DESCRS = st.sampled_from(["<f8", ">f8", "<f4", "<i8", "<c16", "|O", "|V8", "<U2"]) \
    | st.text(st.characters(max_codepoint=255), max_size=4)
NPY_SHAPES = st.lists(st.integers(-2, 20) | st.sampled_from([10**12, 2**63]),
                      max_size=3).map(tuple)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_npy_blocks_never_traceback(workspace, tmp_path, capsys, data):
    """Any truncation, byte flip or header rewrite of an ensemble block ends
    in an exit code, and a truncation in a one-line error with exit 1."""
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    ensdir = root / "ensemble"
    shutil.copytree(workspace["ensemble"], ensdir)
    block = ensdir / data.draw(st.sampled_from(["x1.npy", "u1.npy", "x2.npy"]))
    content = bytearray(block.read_bytes())
    data_start = len(content) - np.load(block).nbytes
    mutation = data.draw(st.sampled_from(["truncate", "flip", "header"]))
    if mutation == "truncate":
        content = content[:data.draw(st.integers(0, len(content) - 1))]
    elif mutation == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            content[data.draw(st.integers(0, len(content) - 1))] ^= data.draw(
                st.integers(1, 255))
    else:
        fields = {"descr": data.draw(NPY_DESCRS), "fortran_order": data.draw(st.booleans()),
                  "shape": data.draw(NPY_SHAPES)}
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, fields)
        content = header.getvalue() + content[data_start:]
    block.write_bytes(bytes(content))
    capsys.readouterr()
    rc = main(["reduce", "--ensemble", str(ensdir), "--r", "3", "--init", "databt",
               "--oracle", str(workspace["system"]), "--max-iters", "2",
               "--out", str(root / "red")])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3) and "Traceback" not in err
    if rc == 1:
        assert err.strip().splitlines()[-1].startswith("error: ")
    if mutation == "truncate":
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("magnitude, message", [
    (1e100, "the identified model A_ls has spectral radius"),
    (1e200, "the identified model A_ls has spectral radius"),
], ids=["1e100", "1e200"])
def test_reduce_on_finite_but_extreme_data_exits_3_without_warnings(
        workspace, tmp_path, capsys, magnitude, message):
    ensdir = tmp_path / "ens"
    shutil.copytree(workspace["ensemble"], ensdir)
    x2 = np.load(ensdir / "x2.npy")
    x2[3, 5] = magnitude
    np.save(ensdir / "x2.npy", x2)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(reduce_args({**workspace, "ensemble": ensdir}, tmp_path / "red"))
    assert rc == 3
    assert_one_line_error(capsys, message)
    assert not caught


def test_reduce_reports_the_data_residual_of_a_corrupt_entry(workspace, tmp_path, capsys):
    # data_residual is near zero on the exact data; one entry of x2 at 1e50
    # makes the identified model unstable, and reduce refuses it with exit 3,
    # naming its spectral radius and the residual no linear model explains
    assert main(reduce_args(workspace, tmp_path / "clean")) == 0
    clean = json.loads((tmp_path / "clean" / "summary.json").read_text())
    assert clean["data_residual"] <= 1e-12
    ensdir = tmp_path / "ens"
    shutil.copytree(workspace["ensemble"], ensdir)
    x2 = np.load(ensdir / "x2.npy")
    x2[0, 0] = 1e50
    np.save(ensdir / "x2.npy", x2)
    capsys.readouterr()
    assert main(reduce_args({**workspace, "ensemble": ensdir}, tmp_path / "red")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    rho, residual = map(float, re.search(
        r"spectral radius (\S+) \(data residual (\S+)\)", err).groups())
    assert rho >= 1.0 and residual > 1e-2
    assert not (tmp_path / "red" / "summary.json").exists()


def test_reduce_order_zero_exits_1(workspace, tmp_path, capsys):
    rc = main(["reduce", "--ensemble", str(workspace["ensemble"]), "--r", "0",
               "--init", "databt", "--oracle", str(workspace["system"]),
               "--out", str(tmp_path / "red")])
    assert rc == 1
    assert_one_line_error(capsys, "r must be at least 1")


def test_reduce_dmdc_rejects_init_data(workspace, tmp_path, capsys):
    rc = main(["reduce", "--ensemble", str(workspace["ensemble"]), "--r", "3",
               "--init", "dmdc", "--oracle", str(workspace["system"]),
               "--init-data", str(workspace["root"]), "--out", str(tmp_path / "red")])
    assert rc == 1
    assert_one_line_error(capsys, "--init dmdc reads no --init-data")
    assert not (tmp_path / "red").exists()


# ----------------------------------------------------------- history format


def sample_records():
    return [IterRecord(1, 2.0, 1.0, 0.5, 3, 0.7, True),
            IterRecord(2, 1.5, 0.8, 0.25, 0, None, True)]


def write_history(path, records):
    path.write_text("".join(line + "\n" for line in
                            [HISTORY_HEADER, *map(history_row, records)]))


def test_history_roundtrip(tmp_path):
    path = tmp_path / "history.csv"
    write_history(path, sample_records())
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,f,D,step,backtracks,rel_h2_error,stable"
    assert lines[1].endswith(",true")
    assert ",," in lines[2]  # blank rel_h2_error column
    assert read_history(path) == sample_records()


def test_history_validation_rejects_increasing_objective(tmp_path):
    path = tmp_path / "history.csv"
    write_history(path, [IterRecord(1, 1.0, 1.0, 0.5, 0, None, True),
                         IterRecord(2, 2.0, 1.0, 0.5, 0, None, True)])
    with pytest.raises(FormatError, match="non-increasing"):
        read_history(path)
    write_history(path, [IterRecord(2, 1.0, 1.0, 0.5, 0, None, True),
                         IterRecord(2, 0.5, 1.0, 0.5, 0, None, True)])
    with pytest.raises(FormatError, match="strictly increase"):
        read_history(path)


def test_history_read_rejects_bad_header(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(FormatError):
        read_history(path)


def test_history_read_rejects_short_rows(tmp_path):
    path = tmp_path / "history.csv"
    for row in ("1,2.0,3.0", "1,2.0,3.0,0.5,x,,true"):
        path.write_text(f"{HISTORY_HEADER}\n{row}\n")
        with pytest.raises(FormatError, match="malformed row"):
            read_history(path)


def test_experiment_script_produces_artifact_tree(tmp_path):
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "exp"
    # the script imports the package of this checkout, installed or not
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_experiment.py"), "--n", "8", "--r", "2",
         "--N", "10", "--seed", "1", "--initializer", "databt", "--max-iters", "10",
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert (out / "config.json").exists()
    assert (out / "system" / "system.json").exists()
    assert (out / "ensemble" / "ensemble.json").exists()
    run_dir = out / "databt"
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["init"] == "databt" and summary["r"] == 2
    assert summary["params"]["max_iters"] == 10
    assert summary["stop_reason"] in ("converged", "max_iters")
    assert len(read_history(run_dir / "history.csv")) == summary["iterations"]
    rom_A = np.loadtxt(run_dir / "rom_A.csv", delimiter=",", ndmin=2)
    assert rom_A.shape == (2, 2)


def test_experiment_script_sizes_are_the_cli_defaults():
    # one definition of the problem sizes serves the CLI and the driver
    defaults = load_experiment_script().DEFAULTS
    cli = {**GEN_SYSTEM_DEFAULTS, **GEN_DATA_DEFAULTS, "r": REDUCE_DEFAULTS["r"]}
    for key in ("n", "m", "h", "N", "r"):
        assert defaults[key] == cli[key]
    assert defaults["noise_alpha"] == cli["alpha"]


@pytest.mark.parametrize("content, message", [
    ("[1,2", "invalid JSON"),
    (json.dumps({"order": 3}), "unknown config keys"),
    (json.dumps({"n": "ten"}), "error:"),
    (json.dumps({"N": 3.5}), "'N' must be an integer, got 3.5"),
], ids=["malformed", "unknown-key", "wrong-type", "float-for-int"])
def test_experiment_script_bad_config_exits_1(tmp_path, capsys, content, message):
    config = tmp_path / "config.json"
    config.write_text(content)
    rc = load_experiment_script().main(["--config", str(config),
                                        "--out", str(tmp_path / "exp")])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "exp").exists()


def test_experiment_script_checks_ranks_once(tmp_path, monkeypatch, capsys):
    calls = count_rank_checks(monkeypatch)
    rc = load_experiment_script().main(["--n", "8", "--r", "2", "--N", "10",
                                        "--seed", "1", "--max-iters", "3",
                                        "--out", str(tmp_path / "exp")])
    assert rc == 0
    for kind in ("dmdc", "loewner", "databt"):
        assert (tmp_path / "exp" / kind / "summary.json").exists()
    assert len(calls) == 1


def test_experiment_script_reruns_from_its_own_config(tmp_path, capsys):
    script = load_experiment_script()
    first, second = tmp_path / "first", tmp_path / "second"
    assert script.main(["--n", "8", "--r", "2", "--N", "10", "--seed", "1",
                        "--out", str(first)]) == 0
    config = json.loads((first / "config.json").read_text())
    assert config["initializer"] == "all" and config["output_dir"] == str(first)
    optim_keys = [f.name for f in dataclasses.fields(OptimParams)]
    assert {key: config[key] for key in optim_keys} == dataclasses.asdict(OptimParams())

    assert script.main(["--config", str(first / "config.json"),
                        "--out", str(second)]) == 0
    for kind in ("dmdc", "loewner", "databt"):
        for name in ("history.csv", "rom_A.csv", "rom_B.csv", "rom_C.csv"):
            assert (second / kind / name).read_bytes() == (first / kind / name).read_bytes()


@pytest.mark.parametrize("content, message", [
    ({"rho": 2}, "rho in (0, 1)"),
    ({"initializer": "newton"}, "unknown initializer 'newton'"),
    ({"n": 8, "r": 8}, "0 < r < n"),
], ids=["optim-range", "initializer", "order"])
def test_experiment_script_out_of_range_config_exits_1(tmp_path, capsys, content, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(content))
    rc = load_experiment_script().main(["--config", str(config),
                                        "--out", str(tmp_path / "exp")])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "exp").exists()
