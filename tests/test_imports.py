"""Every name a plgrad module imports is used in that module, no module
imports scipy, which only the tests need, every top-level function and
class has a consumer outside the tests of its own behaviour, so has every
name the package exports (some consumer reads it through `plgrad`) and every
parameter default (some consumer's call sets it), no random generator is
seeded through the per-process salted builtin hash, and only noise.stream
builds one.

`__init__` imports to re-export, so there a name may instead be listed in
`plgrad.__all__`.
"""

import ast
import math
import re
from pathlib import Path

import pytest

import plgrad

SRC = Path(__file__).resolve().parents[1] / "src" / "plgrad"


def imported_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported_names(tree) - used
    if path.name == "__init__.py":
        unused -= set(plgrad.__all__)
    assert not unused, f"{path.name} imports unused {sorted(unused)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    assert not {m for m in modules if m.split(".")[0] == "scipy"}, path.name


ROOT = SRC.parents[1]
MODULES = {path.stem for path in SRC.glob("*.py")}


def referenced_names(tree):
    """The names a consumer's code reads: bare names, and attributes read off
    a plgrad module alias (`harness.run`, `plgrad.run`, not `np.add`).

    A module's own aliases come from `import plgrad`, `from plgrad import
    harness` and, inside the package, `from . import noise as noise_mod`.
    Import statements themselves are not references.
    """
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "plgrad")
        elif isinstance(node, ast.ImportFrom) and node.module in ("plgrad", None):
            aliases.update(a.asname or a.name for a in node.names if a.name in MODULES)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                names.add(node.attr)
    return names


def consumer_trees():
    """Every consumer of the package: its modules, the README's fenced
    Python blocks, the benchmark scripts and the acceptance suite."""
    for path in sorted(SRC.glob("*.py")):
        yield ast.parse(path.read_text(), filename=str(path))
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.DOTALL):
        yield ast.parse(block)
    scripts = sorted((ROOT / "perfbench").glob("*.py"))
    for path in [*scripts, ROOT / "tests" / "test_acceptance.py"]:
        yield ast.parse(path.read_text(), filename=str(path))


def test_every_top_level_definition_has_a_consumer():
    # a function or class that only its tests (or the __init__ export) reach
    # is surface no run, check or README example needs
    used = set().union(*(referenced_names(tree) for tree in consumer_trees()))
    unused = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert not unused, f"no consumer references {unused}"


def package_reads(tree):
    """The names tree reads through the package namespace: `from plgrad
    import name` and `plgrad.name`.  A bare name is not one, since
    perfbench and the tests define a `run` of their own."""
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.name == "plgrad"
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "plgrad" and not node.level:
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            names.add(node.attr)
    return names


def test_every_export_has_a_consumer():
    # a name that every consumer imports from its module gains nothing from
    # a second path through the package namespace
    read = set().union(*(package_reads(tree) for tree in consumer_trees()))
    unread = sorted(set(plgrad.__all__) - read)
    assert not unread, f"no consumer reads {unread} through plgrad"


# defaults kept although only tests set them, each with its reason
UNSET_DEFAULTS_KEPT = {
    # the Bonferroni-corrected coverage gate will pass a per-test level
    "coverage_envelope(confidence)",
    # the reference oracle: tests run it from 101 to 4,001 points
    "grid_argmin_prox(points)",
}


def defaulted_parameters(tree):
    """(key, name, position) of each parameter with a default of each def in
    tree.  A function or method is keyed by its name, an __init__ by its
    class's name; position is None for a keyword-only parameter, and counts
    self or cls as 0, as a call through the instance does not."""
    for cls in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        for node in cls.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            key = cls.name if node.name == "__init__" else node.name
            a = node.args
            positional = [*a.posonlyargs, *a.args]
            skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(a.defaults)
            for i in range(first, len(positional)):
                yield key, positional[i].arg, i - skip
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield key, arg.arg, None


def call_arguments(tree):
    """(key, positions, keywords) of each call in tree, keyed by the name it
    calls: `f(...)` and `x.f(...)` call f, a class called by its name calls
    its __init__, and super().__init__(...) in a class calls its base's.  A
    *args passes every position and a **kwargs every keyword."""
    bases = {
        id(sub): [b.id for b in cls.bases if isinstance(b, ast.Name)]
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for sub in ast.walk(cls)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        keys = [getattr(func, "attr", getattr(func, "id", None))]
        if (
            isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"
        ):
            keys = bases.get(id(node), [])
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        positions = math.inf if starred else len(node.args)
        keywords = {k.arg for k in node.keywords}
        for key in keys:
            yield key, positions, keywords


def test_every_default_parameter_is_set_by_a_consumer():
    # a default that no run, check or README example overrides is a
    # constant with a parameter's cost: every caller gets the same value
    calls = {}
    for tree in consumer_trees():
        for key, positions, keywords in call_arguments(tree):
            calls.setdefault(key, []).append((positions, keywords))
    unset = [
        f"{path.stem}.{key}({name})"
        for path in sorted(SRC.glob("*.py"))
        for key, name, position in defaulted_parameters(ast.parse(path.read_text()))
        if f"{key}({name})" not in UNSET_DEFAULTS_KEPT
        and not any(
            name in keywords or None in keywords or (position is not None and position < n)
            for n, keywords in calls.get(key, ())
        )
    ]
    assert not unset, f"no consumer sets {unset}"


# constructors and seeding calls of numpy's and the stdlib's generators
SEEDERS = {"default_rng", "seed", "RandomState", "SeedSequence", "PCG64", "Random"}


def seeder_calls(tree):
    """Every call of a SEEDERS name in tree."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in SEEDERS
    ]


def hashed_seeds(tree):
    """Line numbers of hash(...) calls inside the arguments of a SEEDERS call."""
    return [
        sub.lineno
        for call in seeder_calls(tree)
        for arg in [*call.args, *(k.value for k in call.keywords)]
        for sub in ast.walk(arg)
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "hash"
    ]


def test_no_generator_is_seeded_with_hash():
    # str hashing is salted per process (PYTHONHASHSEED), so such a seed
    # draws different numbers on every run and a failure cannot be replayed
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in paths
        for line in hashed_seeds(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"generator seeded with hash(...) at {found}"


def test_only_noise_stream_builds_a_generator():
    # every seeded draw takes its generator from noise.stream, so the tags
    # in noise.STREAMS are the one place two consumers of a seed could meet
    inside, outside = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owned = {
            id(sub)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and (path.stem, node.name) == ("noise", "stream")
            for sub in ast.walk(node)
        }
        for call in seeder_calls(tree):
            (inside if id(call) in owned else outside).append(f"{path.stem}:{call.lineno}")
    assert inside, "noise.stream builds no generator"
    assert not outside, f"generator built outside noise.stream at {outside}"


# the noise functions that draw raw noise or give its moments and envelope
ERROR_SOURCES = {"sample", "norm_moments", "envelope_norm"}


def test_only_gradient_errors_draws_and_bounds_the_noise():
    # the errors a run draws, the norms it records and the moments and K its
    # certificates take all come from noise.GradientErrors, so an error
    # kind added there reaches all three
    inside, outside = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owned = {
            id(sub)
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            and (path.stem, node.name) == ("noise", "GradientErrors")
            for sub in ast.walk(node)
        }
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            if name not in ERROR_SOURCES:
                continue
            if id(call) in owned:
                inside.add(name)
            else:
                outside.append(f"{path.stem}:{call.lineno} {name}")
    assert inside == ERROR_SOURCES, f"GradientErrors calls only {sorted(inside)}"
    assert not outside, f"noise drawn or bounded outside GradientErrors at {outside}"


# the prefixes of the quantile-bound series names, which Certificate.name forms
SERIES_PREFIXES = ("highprob_", "markov_")


def test_only_the_certificate_table_names_a_series():
    # a reader that rebuilt "highprob_<delta>" would miss a record that
    # bounds.certificates adds; every reader selects bounds.Certificate
    # records by field.  Docstrings are not series names
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "bounds":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = {
            id(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        }
        found += [
            f"{path.stem}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and any(prefix in node.value for prefix in SERIES_PREFIXES)
        ]
    assert not found, f"a series name spelled outside the certificate table at {found}"
