"""The public surface: its optional parameters, and the documented example."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import unitarity
import unitarity.io
from unitarity import (
    CanonicalKraus,
    Trajectory,
    random_channel,
    run_tightness,
    run_witness,
    standard_channel,
)

from helpers import DU_MODULE

# Every public name. Adding or deleting one must be a deliberate edit here.
PUBLIC_NAMES = [
    "__version__",
    "BoundReport",
    "CanonicalKraus",
    "ChannelValidationError",
    "ChiMatrix",
    "DuHistogram",
    "DuResult",
    "FidelityPair",
    "KrausChannel",
    "MixedUnitaryForm",
    "MonteCarloFidelity",
    "Table1Report",
    "TightnessRecord",
    "TightnessResult",
    "Trajectory",
    "ValidationReport",
    "WitnessReport",
    "apply_channel",
    "as_mixed_unitary",
    "average_fidelity",
    "average_fidelity_mc",
    "average_from_process",
    "canonicalize",
    "chi_to_kraus",
    "closed_form_du",
    "compose",
    "convex_unitary_mixture",
    "du",
    "du_bounds",
    "du_optimize",
    "fidelity_pair",
    "haar_unitary",
    "identity_channel",
    "kraus_to_chi",
    "process_fidelity",
    "process_fidelity_chi",
    "process_from_average",
    "random_channel",
    "require_trace_preserving",
    "run_distribution",
    "run_table1",
    "run_tightness",
    "run_witness",
    "standard_channel",
    "unitary_channel",
    "validate",
]


def test_public_name_inventory():
    assert unitarity.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 46
    for name in PUBLIC_NAMES:
        assert hasattr(unitarity, name)


@pytest.mark.parametrize(
    "name", ["PolarFactors", "haar_state", "hermitian_eig", "hs_inner", "polar", "svd"]
)
def test_deleted_name_is_an_attribute_error(name):
    # linalg._svd_polar is the one SVD/polar kernel; the others were numpy
    # one-liners
    with pytest.raises(AttributeError):
        getattr(unitarity, name)
    with pytest.raises(AttributeError):
        getattr(unitarity.linalg, name)


@pytest.mark.parametrize(
    "name", ["du_exact_mixed_unitary", "OrthogonalityError", "ORTHOGONALITY_TOL"]
)
def test_deleted_exact_route_name_is_an_attribute_error(name):
    # du() is the one exact mixed-unitary route: method "exact_mixed_unitary"
    for module in (unitarity, DU_MODULE):
        with pytest.raises(AttributeError):
            getattr(module, name)


def test_unitarity_du_is_the_function_not_the_module():
    # the package re-exports du(), which shadows the submodule as an
    # attribute: "import unitarity.du as m" binds the function, so setting a
    # constant on m changes nothing; importlib and "from ... import" reach
    # the module
    import unitarity.du as shadowed
    from unitarity.du import DEFAULT_RESTARTS

    module = importlib.import_module("unitarity.du")
    assert shadowed is module.du and not hasattr(shadowed, "STRAGGLER_RATIO")
    assert module is DU_MODULE and DEFAULT_RESTARTS == module.DEFAULT_RESTARTS == 16


def test_canonical_kraus_fields():
    # the mixing matrix of the diagonalization is not kept
    assert [f.name for f in dataclasses.fields(CanonicalKraus)] == ["dim", "ops", "weights"]


# Every optional parameter of every public function. A new option, or the
# removal of one, must be a deliberate edit here.
OPTIONAL_PARAMETERS = {
    "du": ["restarts", "rng"],
    "du_optimize": ["restarts", "rng", "trace"],
    "run_distribution": ["sys_dim", "num_bins", "restarts", "du_column"],
    "run_table1": ["grid", "restarts"],
    "run_tightness": ["sys_dim", "env_dim", "seed", "stratified", "attempt_cap", "restarts"],
    "run_witness": ["threshold"],
    "validate": ["tol"],
}


def test_optional_parameter_inventory():
    found = {}
    for name in unitarity.__all__:
        obj = getattr(unitarity, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            optional = [p.name for p in params if p.default is not p.empty]
            if optional:
                found[name] = optional
    assert found == OPTIONAL_PARAMETERS
    assert sum(map(len, found.values())) == 19


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_channel(2, 2, np.random.default_rng(0), env_state=[1.0, 0.0]),
        lambda: run_tightness(4, seed=1, stratified=True, bin_width=0.25),
        lambda: run_witness(
            Trajectory((0.0,), (standard_channel("bit_flip", 0.1),)), restarts=2
        ),
    ],
    ids=["random_channel-env_state", "run_tightness-bin_width", "run_witness-restarts"],
)
def test_deleted_keyword_is_a_type_error(call):
    # the environment state, the stratification bin width and the witness's
    # restarts are fixed: |0>, harness.BIN_WIDTH and du.DEFAULT_RESTARTS
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


def test_readme_quickstart_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})


def test_format_layer_stands_on_the_channel_layer():
    # io reads and writes channels and trajectories, imports no driver, and
    # from below the channels only linalg's number rule:
    # linalg <- channels <- {fidelity, du, io} <- harness <- cli
    tree = ast.parse(Path(unitarity.io.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert imported == {"channels", "linalg"}
    assert not any(alias.name.startswith("unitarity") for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names)
    assert not hasattr(unitarity.io, "_blocks")
    assert unitarity.Trajectory is unitarity.harness.Trajectory is unitarity.channels.Trajectory


def test_only_linalg_tells_booleans_from_numbers():
    # the number rule (linalg._is_real, _require_real, _require_at_least) is
    # the only code that asks whether a value is a boolean
    offenders = []
    for path in sorted(Path(unitarity.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names_bools = "_BOOLS" in (getattr(node, "id", None), getattr(node, "name", None))
            asks_bool = (isinstance(node, ast.Call) and len(node.args) == 2
                         and getattr(node.func, "id", None) == "isinstance"
                         and any(getattr(n, "id", None) == "bool" for n in ast.walk(node.args[1])))
            if names_bools or asks_bool:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
