"""Rules on the package source as a whole, checked by parsing it."""

import ast
import importlib
import re
import sys
from pathlib import Path

import polscissors

PACKAGE = Path(polscissors.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def test_one_compaction_tolerance_named_in_fock():
    # fock.DEFAULT_TOL is the one compaction tolerance: no state carries its own
    reads = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "tol"
    ]
    assert reads == []
    literal = re.compile(r"\b1(?:\.0*)?e-0*14\b")
    hits = [path.name for path in MODULES if literal.search(path.read_text(encoding="utf-8"))]
    assert hits == ["fock.py"]


def test_the_package_imports_only_the_standard_library():
    # pyproject declares dependencies = []
    imported = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported
    assert sorted(imported - sys.stdlib_module_names - {"polscissors"}) == []


def test_the_package_starts_no_process_pool():
    # every sweep runs in process: a numeric cell costs less than a worker's start-up
    banned = ("concurrent.futures", "multiprocessing")
    hits = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            hits += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if any(name == b or name.startswith(b + ".") for b in banned)
            ]
    assert hits == []


def test_the_package_declares_no_global():
    # no module-level cache: state a call needs belongs to that call
    hits = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert hits == []


def test_every_lru_cache_names_a_finite_size():
    # a module-level cache outlives every call, so it may hold only a bounded number of entries:
    # each ``lru_cache`` (or ``cache``) is called with a maxsize, and that maxsize is not None
    caches, hits = 0, []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sizes = {
            call.func: call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
        }
        for node in ast.walk(tree):
            if {getattr(node, "id", None), getattr(node, "attr", None)} & {"lru_cache", "cache"}:
                caches += 1
                size = (sizes.get(node) or [None])[0]  # a bare or empty call names no size
                if size is None or (isinstance(size, ast.Constant) and size.value is None):
                    hits.append(f"{path.name}:{node.lineno}")
    assert caches >= 1 and hits == []


def test_the_package_calls_no_id():
    # an object's id is reused once it dies, so no cache may key on one
    hits = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert hits == []


def test_the_package_calls_no_builtin_sum():
    # from Python 3.12 ``sum`` adds floats with compensation, so a result read
    # through it would change with the interpreter; plain loops add left to right.
    # The ban covers every ``sum`` call on purpose: an integer or complex sum
    # (plain through 3.13) is not told apart from a float one by its syntax.
    hits = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert hits == []


SIMULATOR = ("sources.py", "scissors.py", "elements.py", "fock.py", "preparations.py")
# the closed forms' own readers in ``preparations``: the analytic route, not the simulator
ANALYTIC_ROUTE = ("analytic_named", "closed_form_halves")


def _simulator_nodes():
    for name in SIMULATOR:
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        skipped = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in ANALYTIC_ROUTE:
                skipped.update(ast.walk(node))
        yield from (node for node in ast.walk(tree) if node not in skipped)


def test_the_simulator_reads_only_the_listed_analytics_names():
    # both routes read these from ``analytics``, so an error in one of them
    # passes the cross-check; a new shared name needs a deliberate edit here
    read = set()
    for node in _simulator_nodes():
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "analytics":
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "analytics":
            read.update(alias.name for alias in node.names)
    assert sorted(read) == ["alpha_beta", "cat_norm", "f_n", "m_n"]


def test_only_sources_expands_a_sum_of_products():
    # ``sources.expand`` is the one writer of a sum of products as a joint state
    tree = ast.parse((PACKAGE / "preparations.py").read_text(encoding="utf-8"))
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert imported & {"tensor", "add", "scale", "reduce"} == set()


def test_the_sum_of_products_algebra_has_one_home():
    # one module knows the (coefficient, factors) layout: it builds a source
    # point, expands a sum of products and reads its Gram matrices
    names = {"_gram", "_overlap", "_with", "expand", "SourcePart"}
    defined = sorted(
        f"{path.name} {node.name}"
        for path in MODULES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names
    )
    assert defined == sorted(f"sources.py {name}" for name in names)


def test_only_sources_names_the_pieces_of_the_sum_of_products_algebra():
    # ``sources`` weighs, renormalizes, flips and scores each stage; no other
    # module names the pieces those steps are made of
    pieces = {"PHOTONS", "_gram", "_overlap", "_with"}
    hits = []
    for path in MODULES:
        if path.name == "sources.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            hits += [f"{path.name}:{node.lineno} {name}" for name in sorted(names & pieces)]
    assert hits == []


def _reads_m_n(node):
    if isinstance(node, ast.Attribute):
        return node.attr == "m_n"
    if isinstance(node, ast.Name):
        return node.id == "m_n"
    return isinstance(node, ast.ImportFrom) and any(alias.name == "m_n" for alias in node.names)


def test_analytics_m_n_has_one_reader():
    # ``sources.SourcePart`` is the one place the source's normalization
    # is read, so a change to it has one home
    reads = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _reads_m_n(node)
    ]
    assert len(reads) == 1 and reads[0].startswith("sources.py:")


# each module may import only the package modules before it; ``__init__`` re-exports them all
LAYERS = (
    "analytics", "fock", "elements", "sources", "scissors", "preparations",
    "config", "sweep", "verify", "cli", "__main__",
)


def _package_imports(tree):
    """The package modules imported by ``from .x import``, ``from . import x`` or ``from polscissors...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("polscissors")):
            module = (node.module or "").removeprefix("polscissors").lstrip(".")
            yield from [module.split(".")[0]] if module else (alias.name for alias in node.names)


def test_each_module_imports_only_earlier_layers():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES if p.stem != "__init__")
    hits = []
    for path in MODULES:
        if path.stem == "__init__":
            continue
        earlier = LAYERS[: LAYERS.index(path.stem)]
        tree = ast.parse(path.read_text(encoding="utf-8"))
        hits += [f"{path.stem} imports {m}" for m in _package_imports(tree) if m not in earlier]
    assert hits == []


def test_the_listed_private_names_are_all_one_module_imports_from_another():
    # a private name read across a module boundary couples the two modules;
    # a new one needs a deliberate edit here
    crossings = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set(_package_imports(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                crossings.update(f"{path.stem} {node.module}.{a.name}" for a in node.names if a.name[0] == "_")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in imported and node.attr[0] == "_":
                    crossings.add(f"{path.stem} {node.value.id}.{node.attr}")
    assert sorted(crossings) == [
        "cli analytics._zero_probability",
        "elements fock._raw_state",
        "sources fock._compact",
        "sources fock._raw_state",
        "sweep analytics._zero_probability",
    ]


def _calls_named(tree, name):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) == name
    ]


def test_one_rule_tells_underflow_from_degenerate():
    # ``analytics._zero_probability`` alone decides whether a zero heralding
    # probability is float underflow or degenerate, on either route
    ruled, sites = 0, []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rule = {
            node
            for f in ast.walk(tree)
            if path.name == "analytics.py" and isinstance(f, ast.FunctionDef) and f.name == "_zero_probability"
            for node in ast.walk(f)
        }
        for call in _calls_named(tree, "ProbabilityUnderflowError"):
            if call in rule:
                ruled += 1
            else:
                sites.append(f"{path.name}:{call.lineno}")
    assert ruled == 1 and sites == []


def test_the_squeezer_prefactors_are_read_in_the_knob_factors_alone():
    # ``analytics.knob_factors`` is the one home of the pqs2 factor expressions:
    # every closed form reads k_n(|gamma|, n) through it
    inside, sites = 0, []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        home = {
            node
            for f in ast.walk(tree)
            if path.name == "analytics.py" and isinstance(f, ast.FunctionDef) and f.name == "knob_factors"
            for node in ast.walk(f)
        }
        for call in _calls_named(tree, "k_n"):
            if call in home:
                inside += 1
            else:
                sites.append(f"{path.name}:{call.lineno}")
    assert inside == 3 and sites == []


def test_the_simulator_raises_no_degenerate_parameter_error():
    # a degenerate parameter is the closed forms' and the rule's to report
    hits = [
        f"{name}:{node.lineno}"
        for name in SIMULATOR
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and any(
            isinstance(c, ast.Constant) and isinstance(c.value, str) and "degenerate" in c.value.lower()
            for c in ast.walk(node.exc)
        )
    ]
    assert hits == []


def test_one_function_compares_the_routes():
    # ``preparations.compare`` is the one analytic-minus-numeric comparison and
    # the one budget test, and ``preparations.DEFAULT_BUDGET`` the one budget
    from polscissors import preparations, verify

    outcomes = {"probability", "fidelity", "total_probability"}
    inside, sites, budgets, gates = 0, [], [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        compare = {
            node
            for f in ast.walk(tree)
            if path.name == "preparations.py" and isinstance(f, ast.FunctionDef) and f.name == "compare"
            for node in ast.walk(f)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                if {getattr(node.left, "attr", None), getattr(node.right, "attr", None)} & outcomes:
                    if node in compare:
                        inside += 1
                    else:
                        sites.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Constant) and node.value == preparations.DEFAULT_BUDGET:
                budgets.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Compare) and node not in compare:
                names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}
                if names & {"budget", "DEFAULT_BUDGET"}:
                    gates.append(f"{path.name}:{node.lineno}")
    assert inside == 2 and sites == [] and gates == []
    assert len(budgets) == 1 and budgets[0].startswith("preparations.py:")
    assert verify.DEFAULT_BUDGET is preparations.DEFAULT_BUDGET
    # the spot text spells the budget by hand; it must read as the constant
    lines, _ = verify.run_spot("bell-pqs1")
    assert float(lines[-2].rsplit("<= ", 1)[1]) == preparations.DEFAULT_BUDGET


def test_one_rule_ranks_a_nan_deviation_worst():
    # ``preparations.worst`` is the one NaN-aware max: verify keeps no NaN rule
    # of its own, and no other module hands ``max`` a key that reads ``isnan``
    keyed = [
        f"{path.name}:{call.lineno}"
        for path in MODULES
        for call in _calls_named(ast.parse(path.read_text(encoding="utf-8")), "max")
        if any(k.arg == "key" and _calls_named(k.value, "isnan") for k in call.keywords)
    ]
    assert len(keyed) == 1 and keyed[0].startswith("preparations.py:")
    assert _calls_named(ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8")), "isnan") == []


GOLDEN = Path(__file__).parent / "golden"
# the traffic: every CLI command, one call at least per documented exit code
TRAFFIC = [
    (["verify", "--seed", "1", "--samples", "2"], 0),
    (["verify", "--seed", "1", "--samples", "1", "--budget", "1e-30"], 1),
    (["spot", "--point", "bell-pqs1"], 0),
    (["spot", "--point", "bell-pqs2"], 0),
    (["sweep", "--reference", "hybrid-pqs1", "--backend", "both"], 0),
    (["sweep", "--reference", "bell-pqs2", "--format", "json"], 0),
    (["sweep", "--reference", "bell-pqs1", "--format", "matrix"], 0),
    # the numeric-zero golden's cells read ``mismatch``: a sweep's exit 1
    *(
        (["sweep", "--config", str(ini)], int(ini.stem.endswith("numeric-zero")))
        for ini in sorted(GOLDEN.glob("*.ini"))
    ),
    *(
        (["state", "--prep", descriptor], 0)
        for descriptor in (
            "coherent:gamma=0.8,pol=V",
            "cat:delta=1.1,phi=0.6",
            "xi:delta=0.9,phi=0.7",
            "xi-circuit:delta=0.9,phi=0.7",
            "lambda:delta=0.6,n=3,t1=0.5",
            "lambda-circuit:delta=0.6,n=3,t1=0.5",
            "target-omega:delta=1,phi=0.7,n=3,j=2,t1=0.4",
            "hybrid-pqs1:delta=1.1,t=0.8",
            "hybrid-pqs2:delta=1.4,gamma_abs=0.07",
            "bell-pqs1:delta=0.8,t=0.9",
            "bell-pqs2:delta=0.9,gamma_abs=0.06",
        )
    ),
    (["state", "--prep", "bell-pqs2:delta=0.8,gamma_abs=0"], 2),
    (["state", "--prep", "xi-circuit:delta=1,cutoff=3"], 3),
]
# what the traffic never enters, each with its reason
UNTRAVELLED = {
    # the expand-then-project oracle route: it moves to the tests once the
    # benchmark's herald-waste probe stops counting its keys
    "elements.apply_pol_phase": "oracle route",
    "fock.permute_modes": "oracle route",
    "fock.project_number": "oracle route",
    "preparations._run_stages": "oracle route",
    "preparations.prepare_bell": "oracle route",
    "scissors._kept_mode_back": "oracle route",
    # read by the benchmark's source-circuits workload and CSV round-trip gate
    "sources.xi_direct": "benchmark only",
    "sweep.grid_from_csv": "benchmark only",
    # a public accessor the tests read
    "fock.PureState.amplitude": "tests only",
}


def _package_functions():
    """(file, first line) -> name of every module function and class method of the package.

    A decorated function's code starts at its first decorator.
    """
    found = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(path.stem, tree.body)]
        scopes += [(f"{path.stem}.{node.name}", node.body) for node in tree.body if isinstance(node, ast.ClassDef)]
        for prefix, body in scopes:
            for node in body:
                if isinstance(node, ast.FunctionDef):
                    line = node.decorator_list[0].lineno if node.decorator_list else node.lineno
                    found[str(path), line] = f"{prefix}.{node.name}"
    return found


def _own_modules():
    return {name: module for name, module in sys.modules.items() if name.partition(".")[0] == "polscissors"}


def test_the_package_holds_no_function_its_traffic_never_enters(capsys):
    # code in ``src/`` that only the tests or the benchmark run is listed, each
    # name with its reason; a new one needs a deliberate edit here
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # a fresh import, so that no cache an earlier test filled hides a function
    saved = _own_modules()
    for name in saved:
        del sys.modules[name]
    previous = sys.getprofile()
    try:
        cli = importlib.import_module("polscissors.cli")
        sys.setprofile(record)
        codes = [(argv, expected, cli.main(argv)) for argv, expected in TRAFFIC]
    finally:
        sys.setprofile(previous)
        for name in _own_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    capsys.readouterr()
    assert [(argv, code) for argv, expected, code in codes if code != expected] == []
    functions = _package_functions()
    for code in entered:
        functions.pop((code.co_filename, code.co_firstlineno), None)
    never = set(functions.values())
    # (never entered but not listed, listed but entered)
    assert (sorted(never - UNTRAVELLED.keys()), sorted(UNTRAVELLED.keys() - never)) == ([], [])
