import ast
import subprocess
import sys
from pathlib import Path

import pytest

import klwishart


def test_import_loads_no_scipy():
    code = (
        "import sys, klwishart; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_import_loads_no_thread_pool_or_logging():
    # The sampler's helper thread uses `threading`; concurrent.futures would
    # bring in logging and lengthen every start-up.
    code = (
        "import sys, klwishart; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'logging' or m.startswith('concurrent')))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_import_loads_no_numpy_random_or_queue():
    # The sampler reaches np.random only when it is called, and its threads
    # share plain threading primitives, so neither adds to start-up.
    code = (
        "import sys, klwishart; "
        "print(sorted(m for m in sys.modules "
        "if m == 'queue' or m == 'numpy.random' or m.startswith('numpy.random.')))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_import_loads_no_cli():
    code = "import sys, klwishart; print('klwishart.cli' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_cli_loads_no_process_pool():
    # sample's formatter child and fit's parser child are bare os.forks;
    # subprocess, multiprocessing and concurrent.futures would lengthen
    # every start-up.
    code = (
        "import sys, klwishart.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('subprocess', 'multiprocessing', 'concurrent')))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_kl_does_not_import_the_check_suite(tmp_path):
    # `verify` is imported by `check` alone; -X importtime lists every
    # module the command loaded.
    dist = tmp_path / "g.json"
    dist.write_text('{"mean": [0.0], "cov": [[1.0]]}')
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "klwishart", "kl", str(dist), str(dist)],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()}
    assert "klwishart.cli" in loaded
    assert "klwishart.verify" not in loaded


def test_only_pdcore_and_verify_use_linalg():
    # Factoring and solving live in pdcore; verify keeps its reference maths.
    src = Path(klwishart.__file__).parent
    for name in ("gaussian.py", "klpriors.py", "wishart.py", "inference.py", "cli.py"):
        assert "linalg" not in (src / name).read_text(), name


def _functions_reading(tree: ast.AST, name: str) -> list:
    """The qualified name of the innermost function around each read of
    `name`, as a bare name or as an attribute: "f", "f.inner" or
    "Class.method"; None for a read outside any function."""
    found = []

    def visit(node, scope, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
            if not isinstance(node, ast.ClassDef):
                function = ".".join(scope)
        read = (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        )
        if read and isinstance(node.ctx, ast.Load):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, function)

    visit(tree, (), None)
    return found


def _readers(name: str) -> set:
    """(file, function) for each read of `name` in the package's source."""
    src = Path(klwishart.__file__).parent
    return {
        (path.name, function)
        for path in src.glob("*.py")
        for function in _functions_reading(ast.parse(path.read_text()), name)
    }


@pytest.mark.parametrize(
    "name, owner",
    [("LOG_2PI", ("gaussian.py", "_log_density")), ("log_normaliser", ("wishart.py", "_log_pdf"))],
)
def test_one_owner_reads_each_density_constant(name, owner):
    # The Gaussian log-density and the Wishart density each have one copy;
    # a second copy would read the constant outside its owner.
    assert _readers(name) == {owner}


@pytest.mark.parametrize(
    "name, owner",
    [("marshal", ("cli.py", "_child_frames")), ("standard_gamma", ("wishart.py", "_Draws.step"))],
)
def test_one_function_owns_each_step(name, owner):
    # The CLI child's wire format (marshal) and the sampler's claim-and-draw
    # step each have one owner, which may read the name in a nested function.
    readers = _readers(name)
    assert readers, name
    for file, function in readers:
        assert file == owner[0] and f"{function}.".startswith(f"{owner[1]}."), readers


def test_one_mean_check():
    # pdcore.finite_vector checks a (d,) mean and the (T, d) means of a
    # stack alike; there is no second check for stacks.
    src = Path(klwishart.__file__).parent
    for path in src.glob("*.py"):
        assert "finite_vectors" not in path.read_text(), path.name


def test_only_pdcore_sets_the_floating_point_error_state():
    # One overflow policy, pdcore.raise_fp_errors; the CLI and the other
    # modules inherit it from the library calls they make.
    src = Path(klwishart.__file__).parent
    for path in src.glob("*.py"):
        if path.name != "pdcore.py":
            assert "errstate" not in path.read_text(), path.name


def test_only_pdcore_freezes_arrays():
    # PDMatrix freezes the arrays it builds, and finite_vector its own copy
    # of a caller's vector; no other module makes an array read-only.
    src = Path(klwishart.__file__).parent
    for path in src.glob("*.py"):
        if path.name != "pdcore.py":
            assert "setflags(write=False)" not in path.read_text(), path.name


def test_inference_constructs_no_wishart_params():
    # The shape rule nu = t + d (+ 1 for a known mean) has one owner,
    # klpriors._classical; the posteriors ask it rather than spell it.
    src = Path(klwishart.__file__).parent
    assert "WishartParams(" not in (src / "inference.py").read_text()


def test_no_negative_control_switches_in_src():
    # Negative controls are the tests' monkeypatched mutants, not options
    # shipped in the library.
    src = Path(klwishart.__file__).parent
    for path in src.glob("*.py"):
        text = path.read_text()
        assert "corrupt_" not in text and "at_perturbed" not in text, path.name


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
def test_version_matches_pyproject():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == klwishart.__version__
