"""The package surface resolves on first use, each pie command loads only
the layers it runs, the README's Library example prints what it says, and
every function in src/pie runs on a command or names why not (the last
three checked in fresh interpreters, with no time bound)."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pie

SRC = Path(pie.__file__).resolve().parent.parent
ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("partitions", "exact", "series", "involution", "identities", "cli", "errors")
PUBLIC = [
    "AlgorithmFault",
    "C",
    "CPolynomial",
    "CheckConfig",
    "ExpSeries",
    "IdentityId",
    "IdentityReport",
    "PairingTrace",
    "Partition",
    "TruncatedSeries",
    "bell_polynomial",
    "check_identity",
    "class_sum",
    "count_exact_part_sizes",
    "divisors",
    "in_class",
    "pair",
    "run_all",
    "sigma_int",
    "__version__",
]
HOMES = {
    "AlgorithmFault": "errors",
    "C": "exact",
    "CPolynomial": "exact",
    "CheckConfig": "identities",
    "ExpSeries": "series",
    "IdentityId": "identities",
    "IdentityReport": "identities",
    "PairingTrace": "involution",
    "Partition": "partitions",
    "TruncatedSeries": "series",
    "bell_polynomial": "exact",
    "check_identity": "identities",
    "class_sum": "partitions",
    "count_exact_part_sizes": "partitions",
    "divisors": "exact",
    "in_class": "involution",
    "pair": "involution",
    "run_all": "identities",
    "sigma_int": "exact",
}


def test_all_is_unchanged():
    assert pie.__all__ == PUBLIC
    assert pie.__version__ == "0.1.0"


@pytest.mark.parametrize("name", sorted(HOMES))
def test_public_name_is_its_home_object(name):
    home = importlib.import_module(f"pie.{HOMES[name]}")
    assert getattr(pie, name) is getattr(home, name)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from pie import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)
    assert all(namespace[name] is getattr(pie, name) for name in PUBLIC)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        pie.nonesuch
    assert not hasattr(pie, "series_A")
    with pytest.raises(ImportError):
        exec("from pie import nonesuch", {})


# public with no reader in the library: exact.bell_polynomial, which acceptance
# criterion 8 imports, while the checks take every Y_m from the private
# exact._bell_polynomials
UNREAD_BY_DESIGN = {"exact.bell_polynomial"}


def test_every_public_function_and_class_has_a_reader_in_the_library():
    # a public module-level def or class no code in src/pie reads is a
    # test-only twin: the tests keep such oracles in their own helpers.  A
    # read inside the definition itself does not count, and __init__ names
    # its re-exports as strings, which are no reads
    defined, reads = [], set()
    for path in sorted((SRC / "pie").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined.append(f"{path.stem}.{own}")
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    reads.add(name)
    unread = {name for name in defined if name.partition(".")[2] not in reads}
    assert unread == UNREAD_BY_DESIGN


# -- import footprint, each case in a fresh interpreter -----------------------------


LOADED = "sorted(m for m in sys.modules if m == 'pie' or m.startswith('pie.'))"


def _fresh(code: str, result: str = LOADED):
    """Run code in a fresh interpreter with its output swallowed, then
    return the JSON value of the expression result (by default the pie
    modules loaded).  The child runs with -S, so no site start-up hook loads
    a module the case would count: each case sees what pie alone loads."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PIE_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    script = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        f"with redirect_stdout(io.StringIO()):\n{textwrap.indent(code, '    ')}\n"
        f"print(json.dumps({result}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def _main(*argv: str) -> str:
    return f"import pie.cli; assert pie.cli.main({list(argv)!r}) == 0"


def test_plain_import_loads_no_layer():
    assert _fresh("import pie") == ["pie"]


def test_dir_lists_public_names_and_layers_without_loading_them():
    listed, loaded = _fresh("import pie; names = dir(pie)", f"[names, {LOADED}]")
    assert set(PUBLIC) <= set(listed)
    assert set(LAYERS) <= set(listed)
    assert listed == sorted(listed)
    assert loaded == ["pie"]


def test_public_name_loads_only_its_home_and_what_it_imports():
    assert _fresh("import pie; pie.AlgorithmFault") == ["pie", "pie.errors"]
    assert _fresh("import pie; pie.pair") == [
        "pie", "pie.errors", "pie.involution", "pie.partitions"
    ]
    assert _fresh("from pie import Partition") == ["pie", "pie.partitions"]


def test_importing_the_cli_loads_only_errors():
    assert _fresh("import pie.cli") == ["pie", "pie.cli", "pie.errors"]


def test_plain_import_resolves_every_layer():
    code = "import pie; [getattr(pie, name) for name in " + repr(LAYERS) + "]"
    assert _fresh(code) == ["pie", *sorted(f"pie.{layer}" for layer in LAYERS)]


def test_involution_sweep_loads_the_pairing_and_partitions():
    loaded = _fresh(_main("involution", "--n", "8", "--N-divisor", "1", "--sweep"))
    assert loaded == ["pie", "pie.cli", "pie.errors", "pie.involution", "pie.partitions"]


@pytest.mark.parametrize(
    "code",
    [
        "import pie.involution",
        _main("involution", "--n", "8", "--N-divisor", "1", "--sweep"),
        _main("involution", "--n", "8", "--N-divisor", "3", "--trace"),
    ],
    ids=["import", "sweep", "trace"],
)
def test_the_pairing_loads_neither_dataclasses_nor_inspect(code):
    # Partition and PairingTrace are plain classes, so the pairing path pays
    # no import of dataclasses, which brings in inspect
    assert _fresh(code, "[m for m in ('dataclasses', 'inspect') if m in sys.modules]") == []


@pytest.mark.parametrize(
    "code",
    [
        "import pie.identities",
        _main("report-all", "--n-max", "4", "--q-order", "4"),
        _main("verify", "--id", "bs_basic", "--n-max", "4"),
    ],
    ids=["import", "report-all", "verify"],
)
def test_the_identity_checks_load_neither_dataclasses_nor_inspect(code):
    # CheckConfig and IdentityReport are plain classes on the same record base
    assert _fresh(code, "[m for m in ('dataclasses', 'inspect') if m in sys.modules]") == []


def test_series_dump_loads_neither_identities_nor_involution():
    loaded = _fresh(_main("series", "--name", "A", "--order", "5"))
    assert loaded == ["pie", "pie.cli", "pie.errors", "pie.exact", "pie.series"]


@pytest.mark.parametrize(
    "argv",
    [
        ("report-all", "--n-max", "4", "--q-order", "4"),
        ("verify", "--id", "bs_basic", "--n-max", "4"),
    ],
    ids=["report-all", "verify"],
)
def test_identity_commands_load_every_layer(argv):
    # every layer but the pairing: class_sum reads H_n from partitions
    loaded = _fresh(_main(*argv))
    assert loaded == ["pie", *sorted(f"pie.{layer}" for layer in LAYERS if layer != "involution")]


def test_only_the_csv_format_loads_csv():
    argv = ("report-all", "--n-max", "4", "--q-order", "4", "--format")
    assert _fresh(_main(*argv, "json"), "'csv' in sys.modules") is False
    assert _fresh(_main(*argv, "text"), "'csv' in sys.modules") is False
    assert _fresh(_main(*argv, "csv"), "'csv' in sys.modules") is True


# -- the README's Library example ----------------------------------------------------


def _readme_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    return block


def test_readme_library_example_runs():
    block = _readme_example()
    env = {k: v for k, v in os.environ.items() if not k.startswith("PIE_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "pass",
        "3+2+1",
        # the divisor counts d(1..10) = 1, 2, 2, 3, 2, 4, 2, 4, 3, 4
        "q + 2*q^2 + 2*q^3 + 3*q^4 + 2*q^5 + 4*q^6 + 2*q^7 + 4*q^8 + 3*q^9 + 4*q^10 + O(q^11)",
    ]


def test_readme_profile_pair_table_lists_the_declared_pairs():
    # the tag column of the README's profile-pair table: every _PAIRS tag,
    # plus eq_1_13, whose right side needs the run's n_max
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Statements checked as profile pairs\n", 1)[1].split("\n## ", 1)[0]
    tags = re.findall(r"^\| `(\w+)` \|", section, re.M)
    from pie.identities import _PAIRS

    declared = [tag.value for tag in _PAIRS]
    assert sorted(tags) == sorted([*declared, "eq_1_13"])


# -- every function runs on a command ------------------------------------------------


# the defs in src/pie that no command below runs, each with the reason it stays.
# perfbench/traced_pie.py wraps its METHODS by name, so those stay until the
# benchmark untraces them; a row that runs or names no def fails the gate, so
# each row leaves together with its code
TRACED = {
    "exact.CPolynomial": "__add__ __neg__ __sub__ __rsub__ __mul__ __truediv__ __pow__ __eq__ evaluate",
    "series.TruncatedSeries": "__sub__ __neg__ shift truncate inverse exp log",
    "series.ExpSeries": "__add__ __mul__ scale_coeffs __eq__",
}
EXCUSED = {
    **{
        f"{cls}.{name}": "wrapped by name in perfbench/traced_pie.py's METHODS; no command runs it"
        for cls, names in TRACED.items()
        for name in names.split()
    },
    "exact._plus": "the row sum that only CPolynomial's traced arithmetic calls",
    "exact._times": "the row product that only CPolynomial's traced arithmetic calls",
    "exact.CPolynomial.items": "read only by the traced evaluate and by __repr__",
    "series.ExpSeries._check": "the order check of the traced ExpSeries sum and product",
    "partitions._Value.__eq__": "records are equal by their fields, as the README states",
    "partitions._Value.__repr__": "a record's repr, for the library and the tests",
    "partitions._Value.__setattr__": "keeps Partition, CheckConfig and PairingTrace frozen",
    "partitions._Value.__delattr__": "keeps Partition, CheckConfig and PairingTrace frozen",
    "exact.CPolynomial.__repr__": "the repr of a library value; no command prints one",
    "series.TruncatedSeries.__repr__": "the repr of a library value; no command prints one",
    "exact.bell_polynomial": "public Bell polynomial, the oracle of acceptance criterion 8; "
    "the checks read every Y_m from _bell_polynomials",
    "involution._fault": "builds the AlgorithmFault of a pairing fault, which the proof excludes",
}


def _defs() -> dict:
    """(module, first line, name) -> 'module.qualname' for every def in
    src/pie, methods and nested functions included: lambdas, comprehensions
    and class and module bodies are no defs.  The first line is that of a
    code object, the first decorator's where there is one."""
    found = {}

    def walk(node, prefix: str, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                line = min(d.lineno for d in [*child.decorator_list, child])
                found[module, line, child.name] = f"{module}.{prefix}{child.name}"
                walk(child, f"{prefix}{child.name}.<locals>.", module)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", module)
            else:
                walk(child, prefix, module)

    for path in sorted((SRC / "pie").glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), "", path.stem)
    return found


def _commands() -> list:
    """(env, argv) of every command the gate runs, the last a usage error."""
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "scripts" / "output_digests.py"
    )
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return [
        *digests.commands(0.3),
        ({}, ["verify", "--all", "--mode", "exact"]),
        ({}, ["verify", "--all", "--mode", "numeric"]),
        ({}, ["report-all", "--timings", "--format", "text"]),
        ({"PIE_MODE": "numeric", "PIE_FORMAT": "csv"}, ["verify", "--all"]),
        ({}, ["report-all", "--q-order", "3"]),
    ]


def test_every_function_runs_on_a_command_or_is_excused():
    # the profile hook goes in before pie is imported, so calls made at
    # import count; a generator counts when it first resumes
    commands = _commands()
    code = f"""
ran = set()
sys.setprofile(lambda frame, event, arg: event == "call" and ran.add(frame.f_code))
import os
import pie.cli
statuses = []
for env, argv in {commands!r}:
    os.environ.update(env)
    statuses.append(pie.cli.run(argv))
    for name in env:
        del os.environ[name]
exec({_readme_example()!r}, {{}})
dir(pie)
sys.setprofile(None)
"""
    result = "[sorted({(f.co_filename, f.co_firstlineno, f.co_name) for f in ran}), statuses]"
    ran, statuses = _fresh(code, result)
    assert statuses == [0] * (len(commands) - 1) + [2]
    pie_dir = SRC / "pie"
    ran = {(Path(file).stem, line, name) for file, line, name in ran if Path(file).parent == pie_dir}
    never = {qualname for key, qualname in _defs().items() if key not in ran}
    unexcused = sorted(never - EXCUSED.keys())
    assert not unexcused, f"no command runs these, and EXCUSED gives no reason: {unexcused}"
    stale = sorted(EXCUSED.keys() - never)
    assert not stale, f"EXCUSED rows that run or name no def: {stale}"
