"""The package loads its submodules lazily; each check runs in a fresh
interpreter, since the test session itself has imported everything."""

import subprocess
import sys
import textwrap

import pytest

from .conftest import BENCHMARK_PROFILE, extern_command, src_env


def run_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", textwrap.dedent(code), *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=src_env(),
    )


@pytest.fixture(scope="module")
def bare_modules():
    """What a bare ``python -c`` already holds before any import."""
    proc = run_python("import sys; sys.stderr.write('\\n'.join(sys.modules))")
    return set(proc.stderr.split("\n"))


# After main(argv) returns, the modules it loaded go to stderr: the
# commands below write nothing there when they succeed.
RUN_MAIN = """
import sys
from intervalagg.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as stop:
    code = stop.code
sys.stderr.write("\\n".join(sys.modules))
sys.exit(code)
"""

AXIOMS, PREFERENCES, TRANSFORMS = (
    "intervalagg.axioms", "intervalagg.preferences", "intervalagg.transforms"
)
# What ``dataclasses`` costs a child to import, with ``inspect`` under it.
DATACLASSES = {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv,exit_code,loaded,unloaded", [
    (
        ["aggregate", "--rule", "median", "--profile", "{profile}"],
        0,
        set(),
        {AXIOMS, PREFERENCES, TRANSFORMS, "csv", "subprocess", *DATACLASSES},
    ),
    (
        ["aggregate", "--rule", "{extern}", "--profile", "{profile}"],
        0,
        {"subprocess"},
        {AXIOMS, PREFERENCES, TRANSFORMS, "csv", *DATACLASSES},
    ),
    (
        ["sweep", "--profile", "{profile}", "--out", "{csv}"],
        0,
        {"csv"},
        {AXIOMS, PREFERENCES, TRANSFORMS, *DATACLASSES},
    ),
    (
        ["manipulate", "--rule", "averaging", "--profile", "{profile}", "--agent", "1"],
        1,
        {PREFERENCES},
        {AXIOMS, TRANSFORMS, *DATACLASSES},
    ),
    (
        ["identify", "--rule", "median", "--n", "3"],
        0,
        set(),
        {
            AXIOMS, PREFERENCES, TRANSFORMS, "csv", "subprocess", *DATACLASSES,
            "intervalagg._worker", "pickle",
        },
    ),
    (
        ["audit", "--rule", "median", "--n", "3", "--samples", "5", "--out", "{report}"],
        0,
        # The positive control: AuditConfig is still a dataclass, as
        # bench/layers.py:308 calls dataclasses.replace on it.
        {AXIOMS, "dataclasses"},
        {"csv", "subprocess"},
    ),
    (["--help"], 0, set(), {AXIOMS, PREFERENCES, TRANSFORMS, *DATACLASSES}),
], ids=["aggregate", "aggregate-extern", "sweep", "manipulate", "identify", "audit", "help"])
def test_subcommand_loads_only_what_it_runs(
    tmp_path, write_profile, bare_modules, argv, exit_code, loaded, unloaded
):
    paths = {
        "profile": str(write_profile(BENCHMARK_PROFILE)),
        "csv": str(tmp_path / "s.csv"),
        "report": str(tmp_path / "report.json"),
        "extern": "extern:" + extern_command("midpoint_window.py"),
    }
    proc = run_python(RUN_MAIN, *(arg.format(**paths) for arg in argv))
    assert proc.returncode == exit_code, proc.stderr
    modules = set(proc.stderr.split("\n")) - bare_modules
    assert "intervalagg.rules" in modules
    assert loaded <= modules
    assert not unloaded & modules


def test_value_type_modules_load_no_dataclasses(bare_modules):
    proc = run_python(
        "import sys\nimport intervalagg.preferences, intervalagg.transforms\n"
        "sys.stderr.write('\\n'.join(sys.modules))"
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stderr.split("\n")) - bare_modules
    assert {PREFERENCES, TRANSFORMS} <= modules
    assert not DATACLASSES & modules


def test_identification_starts_no_worker():
    # Two CPUs and no audit before: identification has no live worker to
    # share its confirmations with, and starts none.
    proc = run_python("""
import os
from intervalagg import _worker, averaging_rule_handle, identify_endpoint_rule, median_rule_handle
_worker._usable_cpus = lambda: 2
def spawn(*args, **kwargs):
    raise AssertionError("spawned a worker")
os.posix_spawn = spawn
assert identify_endpoint_rule(median_rule_handle(), 3) == (2, 2)
assert identify_endpoint_rule(averaging_rule_handle(), 3) is None
assert _worker._live() is None
""")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("code", [
    # The import system binds a loaded submodule onto its package; loading
    # the module that defines ``audit`` must leave it the function.
    "import intervalagg.axioms\nfrom intervalagg import audit",
    "from intervalagg.axioms import _AXIOMS\nfrom intervalagg import audit",
    "import intervalagg\nintervalagg.AuditConfig\nimport intervalagg.axioms\n"
    "audit = intervalagg.audit",
], ids=["import-submodule", "from-submodule", "name-then-submodule"])
def test_audit_stays_the_function(code):
    proc = run_python(code + """
import types
assert callable(audit) and not isinstance(audit, types.ModuleType), audit
assert audit.__module__ == "intervalagg.axioms"
""")
    assert proc.returncode == 0, proc.stderr


def test_audit_stays_the_function_after_the_audit_command(tmp_path):
    report = tmp_path / "report.json"
    proc = run_python("""
import contextlib, io, sys, types
import intervalagg
from intervalagg.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["audit", "--rule", "median", "--n", "3", "--samples", "5",
                 "--out", sys.argv[1]])
assert code == 0, code
assert not isinstance(intervalagg.audit, types.ModuleType), intervalagg.audit
assert intervalagg.audit.__name__ == "audit"
""", str(report))
    assert proc.returncode == 0, proc.stderr


def test_submodule_names_give_the_modules():
    proc = run_python("""
import types
from intervalagg import core, rules, transforms
for module, name in ((core, "core"), (rules, "rules"), (transforms, "transforms")):
    assert isinstance(module, types.ModuleType), module
    assert module.__name__ == "intervalagg." + name, module
""")
    assert proc.returncode == 0, proc.stderr


def test_dir_lists_every_public_name_before_any_is_loaded():
    proc = run_python("""
import sys, intervalagg
assert "intervalagg.axioms" not in sys.modules
missing = set(intervalagg.__all__) - set(dir(intervalagg))
assert not missing, missing
""")
    assert proc.returncode == 0, proc.stderr


def test_unknown_name_is_an_attribute_error_naming_it():
    proc = run_python("""
import intervalagg
try:
    intervalagg.no_such_name
except AttributeError as error:
    assert "no_such_name" in str(error), error
else:
    raise AssertionError("no AttributeError")
""")
    assert proc.returncode == 0, proc.stderr


def test_an_earlier_copy_keeps_working_after_a_reload_by_purging(tmp_path):
    # A reload that drops the package from sys.modules and imports it anew
    # leaves the earlier copy in use.  What that copy loads late must match
    # the classes it already holds, and the new copy must stay in place.
    proc = run_python("""
import contextlib, io, random, sys

def fresh():
    for name in [m for m in sys.modules if m.split(".")[0] == "intervalagg"]:
        del sys.modules[name]
    import intervalagg, intervalagg.cli
    return intervalagg

old = fresh()
old.median_rule_handle()
new = fresh()
assert old.Interval is not new.Interval
profile = old.Profile(list(old.sample_profile(random.Random(0), 3)))
old.find_manipulation(
    old.median_rule_handle(), profile, 0, old.WeightedL1Preference(profile[0])
)
old.apply_map_profile(old.random_increasing_map(0, [0.0, 1.0]), profile)
with contextlib.redirect_stdout(io.StringIO()):
    assert old.cli.main(["audit", "--rule", "median", "--n", "3", "--samples", "5",
                         "--out", sys.argv[1]]) == 0
    assert old.cli.main(["identify", "--rule", "median", "--n", "3"]) == 0
assert sys.modules["intervalagg"] is new
assert sys.modules["intervalagg.core"] is new.core
assert "intervalagg.axioms" not in sys.modules
new.Profile(list(new.sample_profile(random.Random(0), 3)))
""", str(tmp_path / "report.json"))
    assert proc.returncode == 0, proc.stderr


def test_every_module_the_worker_runs_is_recorded_at_import():
    # What caches fill in later is not a change of code: pickling stores
    # __slotnames__ on a class, a warning stores __warningregistry__ on the
    # module it is attributed to.
    proc = run_python("""
import importlib, pickle, warnings
import intervalagg.axioms
from intervalagg import AuditConfig, Interval, _worker, core, median_rule_handle
unrecorded = [
    name for name in _worker._MODULES
    if "__record__" not in vars(importlib.import_module(name))
]
assert not unrecorded, unrecorded
before = _worker._fingerprint()
assert before is not None
for value in (Interval(0.0, 1.0), median_rule_handle(), AuditConfig(n_agents=3)):
    pickle.loads(pickle.dumps(value))
    assert "__slotnames__" in vars(type(value)), type(value)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    exec("__import__('warnings').warn('attributed to core')", vars(core))
assert "__warningregistry__" in vars(core)
assert _worker._fingerprint() == before
""")
    assert proc.returncode == 0, proc.stderr
