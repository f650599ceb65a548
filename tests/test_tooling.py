"""The package's export lists and the benchmark harness keep working
against the package's API and file formats.

``benchmarks/tracing.py`` wraps package functions by name when a tracer is
entered.  A renamed or removed function makes entering fail, so this test
catches it before a traced benchmark run does.  A name deleted from a
module but left in its ``__all__`` or in the package's imports is caught
the same way.  ``benchmarks/workloads.py`` counts a run's trial steps from
its history; the count must stay the number of trial models the descent
built.  Its annulus check repeats the package's eigenvalue bounds.  Its CLI
workload reads the files the command line writes without the package, so
one small round of it runs here.  Each public name is listed in the
``__all__`` of one module, and is used outside the tests.  The package's one rank rule,
``matequ.significant``, is the only code that compares against ``RANK_TOL``,
and no rank cut reaches the reduced gramian's inverse; the annulus bounds
are compared only in the checks that own them, the Loewner start's
conjugate tolerance only in its one closure check, and only ``matequ`` and
``sysmodel`` call the Schur-coordinate sweeps.  Each Schur factorization
is one LAPACK ``dgees`` call and Chat* one ``dgelsd`` call, with no library
wrapper beside them.  Trajectories are drawn and stepped in one ``dataio``
function, whichever route collects them.
Snapshot matrices are reduced by one streamed triangle, which the DMDc
start, the dual reconstruction and the rank check share, and fitted by one
triangle fit.  The reduction pipelines hand the descent the identified
model, not the snapshots.  Only the reconstructions read the rank
conditions, and one function of the command line names the stop reasons
that give a usable rom.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import ddh2mor
from helpers import random_system

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}",
                                                  BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name_and_restores_it(monkeypatch):
    tracing = load_benchmark_module(monkeypatch, "tracing")
    original = ddh2mor.solve_stein
    with tracing.Tracer() as tracer:
        assert ddh2mor.solve_stein is not original
        ddh2mor.solve_stein(np.array([[0.5]]), np.array([[0.75]]))
    assert ddh2mor.solve_stein is original
    layers = tracer.layers()
    assert set(map(tracing.span_name, tracing.SPANNED + tracing.COUNTED)) <= set(layers)
    assert layers["matequ.solve_stein"].calls == 1


def test_export_lists_name_what_exists():
    modules = {info.name: importlib.import_module(f"ddh2mor.{info.name}")
               for info in pkgutil.iter_modules(ddh2mor.__path__)}
    for name, module in modules.items():
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"ddh2mor.{name}.__all__ lists undefined {missing}"
    # the package re-exports only what each module declares public; a
    # module without __all__ declares every name without a leading underscore
    for node in ast.parse(Path(ddh2mor.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = modules[node.module]
            public = getattr(module, "__all__",
                             [n for n in vars(module) if not n.startswith("_")])
            unlisted = [a.name for a in node.names if a.name not in public]
            assert not unlisted, f"ddh2mor imports {unlisted} outside ddh2mor.{node.module}.__all__"


def test_each_public_name_has_one_home_module():
    # a name in the __all__ of two modules is a re-export, a second route to
    # the same object
    homes = {}
    for info in pkgutil.iter_modules(ddh2mor.__path__):
        for name in getattr(importlib.import_module(f"ddh2mor.{info.name}"), "__all__", ()):
            homes.setdefault(name, []).append(info.name)
    shared = {name: mods for name, mods in homes.items() if len(mods) > 1}
    assert not shared, f"names listed in more than one module's __all__: {shared}"


def test_every_error_class_is_raised():
    # an error class that nothing raises is a failure mode the package no
    # longer has; it goes, with its export
    src = Path(ddh2mor.__file__).resolve().parent
    raised = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    errors = importlib.import_module("ddh2mor.errors")
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.ReductionError)
               and value is not errors.ReductionError}
    assert len(classes) >= 11
    assert not classes - raised, f"never raised: {sorted(classes - raised)}"


@pytest.mark.parametrize("params, stop, withheld, first", [
    # the model's bound opens the first search at 1/16, which passes
    (ddh2mor.OptimParams(tol=1e-6, max_iters=300), ddh2mor.StopReason.CONVERGED, False,
     [1 / 16]),
    # the Armijo margin c = 0.5 defeats two backtracks in the fifteenth
    # iteration, before D falls below tol; alpha0 lies below the bound
    (ddh2mor.OptimParams(alpha0=0.016, c=0.5, max_backtracks=2, tol=1e-8),
     ddh2mor.StopReason.BACKTRACK_EXHAUSTED, False, [0.016]),
    # without the curvature the search opens at alpha0, which fails, and
    # halves until a step passes
    (ddh2mor.OptimParams(tol=1e-6, max_iters=300), ddh2mor.StopReason.CONVERGED, True,
     [1, 1 / 2, 1 / 4, 1 / 8]),
], ids=["converged", "backtrack-exhausted", "opening-fails"])
def test_harness_trial_count_is_the_number_of_trial_models(monkeypatch, params, stop,
                                                           withheld, first):
    workloads = load_benchmark_module(monkeypatch, "workloads")
    rng = np.random.default_rng(1)
    sys_ = random_system(rng, 12, 2)
    ens = ddh2mor.generate_ensemble(sys_, 16, ddh2mor.NoiseSpec(seed=2))
    init = ddh2mor.init_data_bt(ddh2mor.impulse_from_system(sys_, 10), 3)
    if withheld:
        monkeypatch.setattr(ddh2mor.sysmodel.Evaluation, "curvature",
                            lambda self, dA, dB: float("nan"))
    built = []
    stepped = ddh2mor.Rom.stepped
    monkeypatch.setattr(ddh2mor.Rom, "stepped",
                        lambda rom, g, alpha: built.append(alpha) or stepped(rom, g, alpha))
    res = ddh2mor.run(ens, init, params)
    assert res.stop_reason is stop and len(res.history) > 10
    accepted, trials = workloads.count_steps(
        [(h.step, h.backtracks) for h in res.history], res.stop_reason.value,
        params.max_backtracks)
    assert accepted == sum(h.step > 0 for h in res.history)
    assert trials == len(built)
    # the first search's trials, the failed ones and the one accepted, are
    # its backtracks + 1
    assert built[:res.history[0].backtracks + 1] == first


def test_harness_annulus_bounds_are_the_package_bounds(monkeypatch):
    workloads = load_benchmark_module(monkeypatch, "workloads")
    assert workloads.EIG_FLOOR == ddh2mor.matequ.EIG_FLOOR
    assert workloads.EIG_CEIL_MARGIN == ddh2mor.matequ.EIG_CEIL_MARGIN


def test_harness_cli_pipeline_round_passes_its_checks(monkeypatch, tmp_path):
    # gen-system, gen-data, reduce and evaluate at n=10, checked from the
    # files they wrote, so a change of file format cannot break it unseen
    workloads = load_benchmark_module(monkeypatch, "workloads")
    outcomes = workloads.make("cli-noisy-tall", 0, tmp_path, tiny=True).round()
    assert outcomes and all(not o.failures for o in outcomes), [o.failures for o in outcomes]


PACKAGE = Path(ddh2mor.__file__).resolve().parent
# the program's files: the package, its console entry and the scripts
PROGRAM = [*sorted(PACKAGE.rglob("*.py")), PACKAGE.parent / "ddh2mor_entry.py",
           *sorted((BENCHMARKS.parent / "scripts").glob("*.py"))]


def found_in(match, paths=None):
    """(file, qualified function) of each node in ``paths``, by default the
    package's files, that ``match`` accepts."""
    found = []

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if match(node):
            found.append((path.name, where))
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted(PACKAGE.rglob("*.py")) if paths is None else paths:
        visit(ast.parse(path.read_text()), path, None)
    return found


def compared_in(name):
    """(file, qualified function) of each comparison in the package that
    reads the constant ``name``."""
    return found_in(lambda node: isinstance(node, ast.Compare) and any(
        getattr(sub, "id", getattr(sub, "attr", None)) == name for sub in ast.walk(node)))


def test_rank_tol_is_compared_only_in_the_one_rank_rule():
    # every rank decision takes matequ.significant; a comparison against
    # RANK_TOL anywhere else is a second copy of the rule
    assert compared_in("RANK_TOL") == [("matequ.py", "significant")]


def test_conjugate_tol_is_compared_only_in_the_one_closure_check():
    # the Loewner start's samples are checked for conjugate closure once,
    # when they are grouped; a comparison against _CONJUGATE_TOL anywhere
    # else is a second copy of the check
    assert set(compared_in("_CONJUGATE_TOL")) == {("initmor.py", "_conjugate_groups")}


def test_annulus_bounds_are_compared_only_in_the_annulus_checks():
    # the stability annulus is read through the checks that own it: the
    # Stein sweep's, a system's stability and a rom's spectral bounds
    checks = {("matequ.py", "stein_schur"), ("sysmodel.py", "LtiSystem.is_stable"),
              ("sysmodel.py", "Rom.satisfies_spectral_bounds")}
    assert set(compared_in("EIG_FLOOR") + compared_in("EIG_CEIL_MARGIN")) == checks


def test_schur_coordinate_sweeps_are_called_only_in_matequ_and_sysmodel():
    # the package's solves in Schur coordinates are matequ's solvers and the
    # gramians and evaluations of sysmodel; any other module takes those
    sweeps = {"to_schur", "solve_schur", "stein_schur", "from_schur"}
    src = Path(ddh2mor.__file__).resolve().parent
    found = [(path.name, node.lineno)
             for path in sorted(src.rglob("*.py")) if path.name not in ("matequ.py", "sysmodel.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) in sweeps]
    assert not found, f"Schur-coordinate sweeps called outside matequ and sysmodel: {found}"


def called_in(name, paths=None):
    """(file, qualified function) of each call in ``paths``, by default the
    package's files, of a function or method named ``name``."""
    return found_in(lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)) == name, paths)


def test_the_reduced_gramian_is_inverted_without_a_rank_cut():
    # chat_star is one least-squares solve with P; a cut of P's eigenvalues
    # would move under a similarity of the rom, and phi with it
    assert [where for where in called_in("significant") if where[0] == "sysmodel.py"] == []


def test_schur_factors_and_reduced_least_squares_have_one_route_each():
    # every Schur factorization is matequ's dgees call, and Chat* its one
    # dgelsd call; a library wrapper beside either is a second route, with
    # checks and a workspace of its own
    assert called_in("schur") == [] and called_in("lstsq") == []
    assert called_in("_DGEES") == [("matequ.py", "_schur_lwork"),
                                   ("matequ.py", "_complex_schur")]
    assert called_in("_complex_schur") == [("matequ.py", "SchurFactor.of")]
    assert called_in("_DGELSD") == [("sysmodel.py", "Evaluation.chat_star")]


def test_snapshot_triangles_and_fits_have_one_home_each():
    # snapshot matrices are reduced by the one streamed triangle, and every
    # least-squares fit on a triangle is the one triangle fit: the DMDc start
    # and the dual reconstruction share both, and the rank check the
    # triangle, so a second QR or triangular solve beside them is a second
    # copy of the rank rule or of the fit
    assert set(called_in("_triangle")) == {("matequ.py", "_snapshot_triangle"),
                                           ("initmor.py", "init_loewner")}
    assert set(called_in("solve_triangular")) == {("ddgrad.py", "_triangle_fit"),
                                                  ("optim.py", "_input_normal")}


def test_the_descent_gets_the_identified_model_not_the_snapshots():
    # one identification per reduction: the command line and the experiment
    # script identify the model once and hand the descent that model, so
    # neither the pipeline nor its descent holds the snapshots; run's own
    # reconstruction is for library callers that pass an ensemble
    src = Path(ddh2mor.__file__).resolve().parent
    paths = [*sorted(src.rglob("*.py")), *sorted((BENCHMARKS.parent / "scripts").glob("*.py"))]

    def calls(name):
        return [(path.name, node) for path in paths
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]

    def names(node):
        return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}

    def keywords(call):
        return {kw.arg for kw in call.keywords}

    reducers = calls("reduce_into")
    assert sorted(path for path, _ in reducers) == ["cli.py", "run_experiment.py"]
    assert "ens" not in inspect.signature(ddh2mor.cli.reduce_into).parameters
    for path, call in reducers:
        assert "dual" in keywords(call) and "ens" not in names(call), path
    # run is called by attribute (optim.run) in the pipeline; the script's
    # own run is its entry point, passed to exit_code and never called
    runs = [(path, call) for path, call in calls("run") if isinstance(call.func, ast.Attribute)]
    assert [path for path, _ in runs] == ["cli.py"]
    for _, call in runs:
        assert isinstance(call.args[0], ast.Constant) and call.args[0].value is None
        assert "dual" in keywords(call)


def test_the_rank_conditions_are_read_only_by_the_reconstructions():
    # each reconstruction decides its rank condition and gates on it; a
    # driver that reads b1 or b2 itself is a second gate, which drifts
    def reads(node):
        return (isinstance(node, ast.Attribute) and node.attr in ("b1_holds", "b2_holds")
                and isinstance(node.ctx, ast.Load))

    assert sorted(found_in(reads, PROGRAM)) == [
        ("ddgrad.py", "reconstruct_dual"), ("ddgrad.py", "reconstruct_dual_known_input")]


def test_the_usable_stop_reasons_are_named_in_one_place():
    # the descent sets its stop reason; reduce and the experiment script
    # map it to their exit code through cli.stop_exit_code alone
    reasons = ddh2mor.StopReason

    def names(node):
        return ((isinstance(node, ast.Attribute) and node.attr in reasons.__members__)
                or (isinstance(node, ast.Constant)
                    and node.value in {r.value for r in reasons}))

    assert sorted({where for where in found_in(names, PROGRAM)
                   if where[0] != "optim.py"}) == [("cli.py", "stop_exit_code")]
    assert sorted(path for path, _ in called_in("stop_exit_code", PROGRAM)) == [
        "cli.py", "run_experiment.py"]


def test_trajectories_are_drawn_and_stepped_in_one_dataio_function():
    # generate_trajectories collects trajectory_blocks, and both simulate
    # through one kernel; a second loop of state steps, or a second draw of
    # trajectories, would let the whole set and the stream drift apart
    def steps(node):
        return isinstance(node, ast.For) and any(isinstance(sub, ast.MatMult)
                                                 for sub in ast.walk(node))

    def draws(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "standard_normal")

    def in_dataio(found):
        return sorted({where for where in found if where[0] == "dataio.py"})

    assert in_dataio(found_in(steps)) == [("dataio.py", "_simulate")]
    assert in_dataio(found_in(draws)) == [("dataio.py", "_simulate"),
                                          ("dataio.py", "generate_ensemble")]


# public names that only tests call, kept on purpose: the model-based
# reference the data-driven gradients are checked against, the counterparts
# of file formats whose other half the package uses, and the known-input
# reconstruction, which a library caller hands to ``run`` as its ``dual``
TEST_ONLY_PUBLIC = {"model_based_gradients", "read_history", "save_frequency_samples",
                    "save_impulse_data", "reconstruct_dual_known_input"}


def loaded_names(path, *, imports):
    """The names a file loads and the attributes it reads, and with
    ``imports`` the names it imports from a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            names.add(getattr(node, "id", getattr(node, "attr", None)))
        elif imports and isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_used_outside_the_tests(monkeypatch):
    # a public name is called by the package itself, by a script or the
    # benchmark harness, or traced by the harness; one that only tests
    # call is code kept for its tests, and goes.  The package's own
    # imports are no use: ddh2mor/__init__ re-exports every public name
    src = Path(ddh2mor.__file__).resolve().parent
    used = set(TEST_ONLY_PUBLIC)
    for path in src.rglob("*.py"):
        used |= loaded_names(path, imports=False)
    for path in [*(BENCHMARKS.parent / "scripts").glob("*.py"), *BENCHMARKS.glob("*.py")]:
        used |= loaded_names(path, imports=True)
    tracing = load_benchmark_module(monkeypatch, "tracing")
    for target in tracing.SPANNED + tracing.COUNTED:
        used.update(target.split(".")[1:])
    unused = sorted(f"{info.name}.{name}" for info in pkgutil.iter_modules(ddh2mor.__path__)
                    for name in getattr(importlib.import_module(f"ddh2mor.{info.name}"),
                                        "__all__", ())
                    if name not in used)
    assert not unused, f"public names that only tests use: {unused}"
