"""The package's public names, pinned so that each addition or deletion is deliberate,
and its private helpers, each of which something in the package must use."""
import ast
import importlib
import pkgutil
from pathlib import Path

import loqec

PUBLIC_NAMES = [
    "AMPLITUDE_TOL",
    "AnalyzerCurves",
    "ConfigurationError",
    "CurveResult",
    "DEFAULT_THETAS",
    "ExperimentConfig",
    "FitError",
    "HomScanPoint",
    "HomScanResult",
    "LinearElement",
    "LoqecError",
    "MalusFit",
    "ManifestError",
    "ModeLabel",
    "PATH_A",
    "PATH_ANCILLA_IN",
    "PATH_B",
    "PATH_C",
    "PATH_D",
    "PATH_QUBIT_IN",
    "Polarization",
    "SinglePhotonSpec",
    "SinglePhotonState",
    "StructureError",
    "SweepResult",
    "TwoPhotonState",
    "UsageError",
    "ValidationError",
    "WiringConfig",
    "Z_VALUE0_DETECTOR",
    "Z_VALUE1_DETECTOR",
    "analyzer_curve",
    "apply_element",
    "apply_feedforward",
    "bs5050",
    "coincidence_postselect",
    "computational_jones",
    "encode_qubit",
    "fit_malus",
    "hom_scan",
    "hwp",
    "pbs",
    "pockels",
    "product_state",
    "relabel_paths",
    "rewire",
    "run_analytic",
    "run_experiment",
    "sample_counts",
    "visibility",
    "z_measure",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 51
    assert len(set(loqec.__all__)) == len(loqec.__all__)
    assert sorted(loqec.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(loqec, name)] == []


def module_level_names(node):
    """The names a module-level statement binds by definition or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = []
    for target in targets:
        names += target.elts if isinstance(target, ast.Tuple) else [target]
    return [name.id for name in names if isinstance(name, ast.Name)]


def test_every_private_helper_is_used_in_the_package():
    """A module-level private function, class or constant that nothing in
    the package loads by name, as a name, an attribute or an import, is
    dead code."""
    trees = [ast.parse(path.read_text()) for path in Path(loqec.__file__).parent.glob("*.py")]
    defined = {
        name
        for tree in trees
        for node in tree.body
        for name in module_level_names(node)
        if name.startswith("_") and not name.startswith("__")
    }
    used = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    assert {"_mode_operator", "_ptrs_try", "_survivor_rows"} <= defined
    assert {"_HERALD_FORMS", "_HOM_BLOCK", "_PHILOX_M", "_Z_BASIS"} <= defined
    assert sorted(defined - used) == []


def test_the_only_caches_are_the_grid_tables_the_mode_operators_and_the_parser():
    """One owner per table: a per-function cache beside these would keep a
    second copy of what one of them holds."""
    modules = [loqec] + [
        importlib.import_module(f"loqec.{info.name}")
        for info in pkgutil.iter_modules(loqec.__path__)
    ]
    found = [value for module in modules for value in vars(module).values()]
    found += [
        value
        for owner in found
        if isinstance(owner, type) and owner.__module__.startswith("loqec")
        for value in vars(owner).values()
    ]
    cached = {
        f"{value.__module__}.{value.__qualname__}" for value in found if hasattr(value, "cache_info")
    }
    assert sorted(cached) == [
        "loqec.cli._parser", "loqec.experiment._grid_tables", "loqec.state_core._mode_operator",
    ]
