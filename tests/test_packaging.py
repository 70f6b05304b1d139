"""Declared dependencies match what the package and its tests import, and the
benchmark's bindings into the package resolve."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _imported_top_level_modules(directory: Path = ROOT / "src" / "crosstill") -> set[str]:
    found = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found


def test_third_party_imports_equal_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) - {"crosstill"}
    assert third_party == declared


def _requirement_names(specs: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_") for spec in specs}


def test_test_imports_equal_declared_test_dependencies():
    """What tests/*.py import from outside the standard library, the package and
    each other is exactly the runtime dependencies plus the `test` extra."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = _requirement_names(
        project["dependencies"] + project["optional-dependencies"]["test"]
    )
    tests = ROOT / "tests"
    local = {path.stem for path in tests.glob("*.py")}
    third_party = (
        _imported_top_level_modules(tests) - set(sys.stdlib_module_names) - {"crosstill"} - local
    )
    assert third_party == declared


def test_import_loads_no_scipy():
    """scipy is a test dependency only: importing the package must not load it."""
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, crosstill; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_public_names_are_unique_and_bound():
    """`crosstill.__all__` lists each name once, and every name it lists exists."""
    import crosstill

    names = crosstill.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(crosstill, name)] == []


BENCH = ROOT / "bench"


def _bench_module_reads(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) for every attribute a bench script reads off a package module.

    Modules are reached through `import crosstill.X as Y` aliases or spelled
    out as `crosstill.X.attr`.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.asname and alias.name.startswith("crosstill.")
    }
    reads = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in aliases:
            reads.add((aliases[owner.id], node.attr))
        elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
              and owner.value.id == "crosstill"):
            reads.add((f"crosstill.{owner.attr}", node.attr))
    return reads


def test_bench_bindings_resolve(monkeypatch):
    """Every package name the benchmark patches, calls or reads still exists."""
    monkeypatch.syspath_prepend(str(BENCH))
    instrument = importlib.import_module("instrument")
    importlib.import_module("workloads")
    # installing looks up every patched name, AUTODIFF_OPS included
    with instrument.Probe(reference=False).installed():
        pass
    with instrument.Tracer().installed():
        pass

    reads = _bench_module_reads(BENCH / "run.py") | _bench_module_reads(BENCH / "workloads.py")
    assert ("crosstill.pipeline", "run_single_stage") in reads
    assert ("crosstill.losses", "clamp_warning_count") in reads
    missing = sorted(
        f"{module}.{attr}" for module, attr in reads
        if not hasattr(importlib.import_module(module), attr)
    )
    assert missing == []


def test_every_imported_name_is_read():
    """Each name a package module other than `__init__` imports is read in
    that module, so a caller's leftover import shows up when code moves."""
    unread = []
    for path in sorted((ROOT / "src" / "crosstill").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert unread == []


def test_every_private_module_name_is_read():
    """Each module-level name with one leading underscore in a package module
    is read somewhere: by name in its own module, or as an attribute or a
    `from` import in the package or its tests."""
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "crosstill").glob("*.py"))}
    others = modules | {path: ast.parse(path.read_text(encoding="utf-8"))
                        for path in sorted((ROOT / "tests").glob("*.py"))}
    read_elsewhere = set()
    for tree in others.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read_elsewhere.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read_elsewhere.update(alias.name for alias in node.names)
    unread = []
    for path, tree in modules.items():
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
        read_here = {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [
            f"{path.stem}.{name}" for name in defined
            if name.startswith("_") and not name.startswith("__")
            and name not in read_here and name not in read_elsewhere
        ]
    assert unread == []


# -- the census: every function under src/crosstill is reached from an entry point

# Functions no command-line run enters, each with the one caller that needs it.
NOT_ENTERED = {
    "autodiff.gelu": "bench/instrument.py's AUTODIFF_OPS binds it",
    "autodiff.layer_norm": "bench/instrument.py's AUTODIFF_OPS binds it",
    "autodiff.reshape": "bench/instrument.py's AUTODIFF_OPS binds it",
    "autodiff.softmax_last": "criterion 4 (loss_ce's softmax mode) and AUTODIFF_OPS",
    "autodiff._drop_helper": "the fork handler, run only in a forked child",
    "autodiff.Tensor.__repr__": "a debugging aid",
    "encoder.unroll": "criterion 3 and bench/workloads.py",
    "encoder.EncoderConfig.effective_depth": "criterion 3 and bench/workloads.py",
    "encoder.SentenceEncoder.n_params": "the live count tests/test_sizes.py holds the formulas to",
    "pipeline.MetricsLog.stage_losses": "criterion 6",
    "pipeline.MetricsLog.read": "the one typed reader of metrics.jsonl",
    "corpus.unknown_token_count": "bench/run.py and bench/workloads.py read it",
    "corpus.reset_unknown_token_count": "bench/run.py and bench/workloads.py call it",
    "losses.clamp_warning_count": "bench/run.py and bench/workloads.py read it",
    "losses.reset_clamp_warnings": "bench/run.py and bench/workloads.py call it",
}

# Entered only on a machine where the helper thread may start, and so the
# pipeline's side worker too: at least two CPUs and an OpenBLAS whose thread
# count can be set.
HELPER_ONLY = {
    "autodiff._loaded_openblas", "autodiff._pin_openblas_to_one_thread",
    "autodiff._alone", "autodiff._submit", "autodiff.alongside", "autodiff.two_sides",
    "autodiff._Side.__init__", "pipeline._aligned", "pipeline._SideWorker.__init__",
    "pipeline._SideWorker.__enter__", "pipeline._SideWorker.__exit__",
    "pipeline._SideWorker.close", "pipeline._SideWorker._arrange", "pipeline._SideWorker.stage",
    "pipeline._SideWorker.both_sides", "pipeline._SideWorker._receive",
    "pipeline._SideWorker._walk_source", "pipeline._SideWorker._sums",
}

# Run only in the forked side worker, which the census's profile does not
# see: excused where the worker started, and where it cannot start.
WORKER_ONLY = {
    "pipeline._SideWorker._serve": "the worker's message loop",
    "pipeline._SideWorker._build": "the worker's copy of a stage's models",
    "pipeline._SideWorker._fold_into_shared": "the worker's walk of the side it kept",
}

# Entered only where no side worker starts: both sides then run on the caller.
ONE_CORE_ONLY = {"pipeline._both_sides"}

# Run in a fresh process, so that the helper thread starts under the profile
# and no earlier test's state leaks in. Its one argument is a directory
# holding plan.json; it writes census.json there.
CENSUS = r'''
import importlib, json, sys, threading
from dataclasses import replace
from pathlib import Path

# id -> code: holding each entered code object keeps its id from passing to
# a code object made later, such as a function of a module imported after a
# module body ran and was freed
entered = {}


def profile(frame, event, arg):
    if event == "call":
        entered[id(frame.f_code)] = frame.f_code


threading.setprofile(profile)
sys.setprofile(profile)
from crosstill import default_stage_plans, toy_config
from crosstill.cli import main
from crosstill.encoder import EncoderConfig

work = Path(sys.argv[1])
plan = json.loads((work / "plan.json").read_text())
# the config file, written the way README's quick start writes one
cfg = replace(
    toy_config(work / "corpus", work / "run", sts_path=work / "corpus" / "sts.tsv", seed=11),
    assistant=EncoderConfig(**plan["assistant"]), student=EncoderConfig(**plan["student"]),
    stages=default_stage_plans(epochs=(1, 1, 1, 1), batch_size=50),
)
(work / "config.json").write_text(json.dumps(cfg.to_dict()))
codes = [main(argv) for argv in plan["runs"]]
sys.setprofile(None)
threading.setprofile(None)

defined = {}
for path in sorted(Path(sys.modules["crosstill"].__file__).parent.glob("*.py")):
    module = importlib.import_module(f"crosstill.{path.stem}")
    found = list(vars(module).values())
    for cls in [v for v in found if isinstance(v, type) and v.__module__ == module.__name__]:
        for attr in vars(cls).values():
            attr = getattr(attr, "__func__", attr)
            found += [attr] if not isinstance(attr, property) else [attr.fget, attr.fset]
    for fn in found:
        code = getattr(fn, "__code__", None)
        # dataclass-generated methods are compiled from a string, not the file
        if code is not None and code.co_filename == module.__file__:
            defined[f"{path.stem}.{code.co_qualname}"] = (
                f"src/crosstill/{path.name}:{code.co_firstlineno}", id(code) in entered
            )
helper = bool(sys.modules["crosstill.autodiff"]._HELPER)
(work / "census.json").write_text(json.dumps({"codes": codes, "defined": defined, "helper": helper}))
'''


def test_every_src_function_is_entered_from_an_entry_point(tmp_path):
    """Every subcommand and mode of the command line, and one malformed input
    per parser, in one process: each function or method defined under
    src/crosstill is entered, unless it is on NOT_ENTERED or the census
    cannot reach it (WORKER_ONLY, and ONE_CORE_ONLY or HELPER_ONLY), and
    nothing excused is."""
    from crosstill.corpus import VocabSpec
    from test_pipeline import K, micro_assistant, micro_student

    corpus, run, config = tmp_path / "corpus", tmp_path / "run", tmp_path / "config.json"
    # one malformed input per parser: a corpus TSV (a zero-padded token the
    # lookup table misses, then a line with one field), a checkpoint, a
    # config and a vocabulary manifest
    bad_tsv, bad_vocab = tmp_path / "bad-tsv", tmp_path / "bad-vocab"
    bad_tsv.mkdir()
    bad_vocab.mkdir()
    VocabSpec.create(tokens_per_language=K, seed=0).save_manifest(bad_tsv / "vocab.json")
    (bad_tsv / "test.tsv").write_text("l1_007 l1_1\tl2_3 l2_4\nno tab here\n", encoding="utf-8")
    (bad_vocab / "vocab.json").write_text('{"tokens_per_language": 3}', encoding="utf-8")
    (tmp_path / "truncated.xdst").write_bytes(b"XDST1\x01\x00")
    (tmp_path / "bad-config.json").write_text("{", encoding="utf-8")
    train = ["train", "--config", str(config)]
    stage4 = str(run / "stage4.xdst")
    plan = [
        (["gen-corpus", "--out", str(corpus), "--pairs", "450", "--tokens-per-language", str(K),
          "--min-len", "5", "--max-len", "5", "--splits", "0.6,0.2,0.2"], 0),
        (["gen-sts", "--config", str(config), "--out", str(corpus / "sts.tsv"),
          "--examples", "30", "--min-len", "5", "--max-len", "5"], 0),
        (train, 0),
        (train + ["--stage", "3"], 0),
        (train + ["--stage", "random_init"], 0),
        (train + ["--stage", "pre_distill"], 0),
        *((train + ["--stage", "4", "--variant", variant], 0) for variant in ("bool", "ce", "none")),
        (["eval", "--checkpoint", stage4, "--corpus", str(corpus),
          "--sts", str(corpus / "sts.tsv")], 0),
        (["count-params"], 0),
        (["count-params", "--preset", "toy-student"], 0),
        (["grad-check", "--loss", "all"], 0),
        (["sweep-depth", "--config", str(config), "--depths", "1,2"], 0),
        (["eval", "--checkpoint", stage4, "--corpus", str(bad_tsv)], 2),
        (["eval", "--checkpoint", str(tmp_path / "truncated.xdst"), "--corpus", str(corpus)], 2),
        (train[:2] + [str(tmp_path / "bad-config.json")], 2),
        (["eval", "--checkpoint", stage4, "--corpus", str(bad_vocab)], 2),
    ]
    (tmp_path / "plan.json").write_text(json.dumps({
        "assistant": micro_assistant().to_dict(), "student": micro_student().to_dict(),
        "runs": [argv for argv, _ in plan],
    }), encoding="utf-8")
    result = subprocess.run([sys.executable, "-c", CENSUS, str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    census = json.loads((tmp_path / "census.json").read_text(encoding="utf-8"))
    assert census["codes"] == [code for _, code in plan], result.stderr
    # each malformed input fails in its own parser
    for refusal in ("test.tsv: line 2:", "truncated checkpoint", "is not valid JSON",
                    "vocab.json: a manifest is"):
        assert refusal in result.stderr
    defined = census["defined"]
    # what the census cannot enter: the worker's own code always, and the
    # caller's side of whichever of the two paths did not run
    unreachable = WORKER_ONLY.keys() | (ONE_CORE_ONLY if census["helper"] else HELPER_ONLY)
    never = [f"{where} {name}" for name, (where, hit) in defined.items()
             if not hit and name not in NOT_ENTERED.keys() | unreachable]
    stale = [f"{defined[name][0]} {name}" if name in defined else f"{name} (not defined)"
             for name in NOT_ENTERED.keys() | unreachable
             if name not in defined or defined[name][1]]
    assert not never, "never entered and not excused:\n" + "\n".join(never)
    assert not stale, "excused but entered, or not defined:\n" + "\n".join(stale)
