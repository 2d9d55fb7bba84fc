"""The package's public names, pinned so that each addition or deletion is deliberate,
and its private helpers, each of which something in the package must use."""
import ast
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


def test_every_private_helper_is_used_in_the_package():
    """A module-level private function or class that nothing in the package
    loads by name, as a name, an attribute or an import, is dead code."""
    trees = [ast.parse(path.read_text()) for path in Path(loqec.__file__).parent.glob("*.py")]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
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
    assert sorted(defined - used) == []
