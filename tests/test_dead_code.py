"""Every private helper of the library is used somewhere in the library,
every parameter of a function is read by its body, and every imported name is
read by its module."""

import ast
import inspect
from pathlib import Path

from affine_hecke import repn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "affine_hecke"
BENCH = ROOT / "bench"


def _private_defs(tree):
    """Module-level functions and methods whose names start with one '_'."""
    defs = []
    for node in tree.body:
        scopes = [node]
        if isinstance(node, ast.ClassDef):
            scopes = node.body
        for item in scopes:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name.startswith("_")
                    and not item.name.endswith("__")):
                defs.append(item.name)
    return defs


def _references(node, inside=frozenset()):
    """Names referenced under node, leaving out each def's references to
    itself: a helper that only calls itself is still dead."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside = inside | {node.name}
    names = set()
    if isinstance(node, ast.Name):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
    elif isinstance(node, ast.alias):
        names.add(node.name)
    names -= inside
    for child in ast.iter_child_nodes(node):
        names |= _references(child, inside)
    return names


def test_no_private_helper_is_unreferenced():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert "rootsys.py" in trees
    used = set().union(*(_references(tree) for tree in trees.values()))
    dead = sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in _private_defs(tree) if name not in used)
    assert not dead, f"private helpers with no reference in src: {dead}"


def _unread_imports(tree):
    """Names an import binds that the module never loads; a dotted import
    binds its first part."""
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - loaded


def test_no_imported_name_is_unread():
    unread = sorted(f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
                    for name in _unread_imports(ast.parse(path.read_text())))
    assert not unread, f"imported names that their module never reads: {unread}"


def test_every_public_function_of_algebra_has_a_reader():
    # the bench drives orbit_sum and is_central; nothing else reads them
    trees = [ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))]
    used = set().union(*map(_references, trees))
    algebra = ast.parse((SRC / "algebra.py").read_text())
    public = [node.name for node in algebra.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")]
    assert "orbit_sum" in public
    unread = sorted(name for name in public if name not in used)
    assert not unread, f"public functions of algebra.py with no reader: {unread}"


def _unread_parameters(tree):
    """Parameters that a def's body never reads, self and cls aside. Lambdas
    are left out: those of one dispatch table share a signature."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                  + [args.vararg, args.kwarg] if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{node.name}({p})" for p in params
                   if p not in read and p not in ("self", "cls")]
    return unread


def test_no_parameter_is_unread():
    unread = sorted(f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
                    for name in _unread_parameters(ast.parse(path.read_text())))
    assert not unread, f"parameters that their function never reads: {unread}"


# Each size cap is decided in one place, from its environment variable.
CAP_READERS = {"rootsys.py:weyl_cap", "tableaux.py:_enum_cap"}


def _reads(tree, module, hit, scope="<module>"):
    """module:def for each node under tree that hit accepts, by the def that
    holds it."""
    reads = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            reads += _reads(child, module, hit, child.name)
            continue
        if hit(child):
            reads.append(f"{module}:{scope}")
        reads += _reads(child, module, hit, scope)
    return reads


def _reads_in_src(hit):
    return {read for path in sorted(SRC.glob("*.py"))
            for read in _reads(ast.parse(path.read_text()), path.name, hit)}


def _is_environment_read(node):
    """A read of os.environ or os.getenv."""
    return (isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            or isinstance(node, ast.Name) and node.id in ("environ", "getenv"))


def test_caps_are_read_from_the_environment_in_one_place_each():
    assert _reads_in_src(_is_environment_read) == CAP_READERS


def test_no_def_takes_a_cap_argument():
    takes = sorted(
        f"{path.name}:{node.name}" for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "cap" in {a.arg for a in node.args.posonlyargs + node.args.args
                      + node.args.kwonlyargs})
    assert not takes, f"defs with a cap parameter: {takes}"


# The dense t_mats/x_mats view serves describe() only; every other reader
# works on the sparse columns.
DENSE_VIEW_READERS = {"repn.py:describe"}


def _is_dense_view_read(node):
    return (isinstance(node, ast.Attribute)
            and node.attr in ("t_mats", "x_mats"))


def test_the_dense_view_is_read_by_describe_only():
    assert _reads_in_src(_is_dense_view_read) == DENSE_VIEW_READERS


# Every rank in repn is taken by _nullity.
RANK_READERS = {"repn.py:_nullity"}


def _is_rank_call(node):
    return (isinstance(node, ast.Name)
            and node.id in ("_rank_nullspace", "_numeric_nullity"))


def test_ranks_go_through_one_helper():
    assert _reads_in_src(_is_rank_call) == RANK_READERS


# Triangular solves are back-substitutions (repn._coordinates), and lattice
# coordinates are coroot pairings: no span solver is left, and the one
# elimination serves the fundamental weights and the exact rank.
def _defined_names():
    return {node.id if isinstance(node, ast.Name) else node.name
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            or isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Store)}


def test_no_span_solver_is_defined():
    defined = _defined_names()
    assert "_rref" in defined
    assert not defined & {"solve_linear", "_solve_in_span"}
    tree = ast.parse((SRC / "rootsys.py").read_text())
    rref = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_rref")
    assert [a.arg for a in rref.args.args] == ["rows", "ncols", "ops"]


def _is_rref_read(node):
    return isinstance(node, ast.Name) and node.id == "_rref"


def test_rref_serves_the_fundamental_weights_and_the_rank_only():
    assert _reads_in_src(_is_rref_read) == {"rootsys.py:_compute_weights",
                                            "rootsys.py:_rank_nullspace"}


# Lower ideals of the weak order come from RootSystem._lower_ideal, already
# in order; _walk_up serves the one walk that is not a lower ideal, the
# interval of the integral reflection subgroup.
def _is_walk_up_read(node):
    return isinstance(node, ast.Name) and node.id == "_walk_up"


def test_walk_up_serves_the_interval_only():
    assert _reads_in_src(_is_walk_up_read) == {
        "regions.py:interval_structure"}
    tree = ast.parse((SRC / "regions.py").read_text())
    pruned = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "chamber_set_pruned")
    names = _references(pruned)
    assert "_lower_ideal" in names
    assert not names & {"_walk_up", "sorted", "sort", "sort_key"}


# Every X is upper triangular in the module basis: ModuleRep.__init__ checks
# it once, and nothing downstream tests the shape again.
def _is_upper_read(node):
    return isinstance(node, ast.Name) and node.id == "_is_upper"


def test_x_is_checked_upper_triangular_in_one_place():
    assert _reads_in_src(_is_upper_read) == {"repn.py:__init__"}
    tree = ast.parse((SRC / "repn.py").read_text())
    module_rep = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef)
                      and node.name == "ModuleRep")
    assert _reads(module_rep, "repn.py", _is_upper_read) == [
        "repn.py:__init__"]


# numpy serves the numeric rank (singular values) and nothing else.
def _is_numpy_import(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return (isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "numpy")


def test_numpy_is_imported_in_one_place():
    assert _reads_in_src(_is_numpy_import) == {"repn.py:_numeric_nullity"}


# J is checked against P(t) in one place per module: regions' J check and
# the assembly step that the three tableaux builders share.
J_CHECKERS = {"regions.py:_checked_J", "tableaux.py:_pairs_and_chains"}


def _is_j_refusal(node):
    return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "JNotSubsetOfP")


def test_j_is_checked_against_p_in_two_places():
    assert _reads_in_src(_is_j_refusal) == J_CHECKERS


def _is_closure_gate(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "nonempty_criterion")


def test_builders_share_one_closure_gate():
    assert _reads_in_src(_is_closure_gate) == {
        "tableaux.py:_pairs_and_chains"}


def _is_filling_coercion(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and isinstance(node.args[1], ast.Name)
            and node.args[1].id == "StandardFilling")


def test_fillings_are_coerced_in_one_place():
    assert _reads_in_src(_is_filling_coercion) == {
        "tableaux.py:filling_from_entries"}


# The commutant has one route per kind of module and no knob: Frobenius
# reciprocity for principal series, the block solve for the rest, both in the
# module's own scalars, so no exact module is copied to floats.
def test_commutant_dim_takes_the_module_alone():
    assert list(inspect.signature(repn.commutant_dim).parameters) == ["rep"]


def test_no_float_copy_of_an_exact_module_is_defined():
    defined = _defined_names()
    assert "commutant_dim" in defined
    assert "_specialized_copy" not in defined


def _rootsys_method(name):
    tree = ast.parse((SRC / "rootsys.py").read_text())
    root_system = next(node for node in tree.body
                       if isinstance(node, ast.ClassDef)
                       and node.name == "RootSystem")
    return next(node for node in root_system.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


# W is the lower ideal with nothing banned, and every lower ideal is walked
# in (length, reduced word) order by _lower_ideal: the closure of arbitrary
# generators and its sort serve other subgroups only.
def test_weyl_elements_neither_closes_nor_sorts():
    names = _references(_rootsys_method("weyl_elements"))
    assert "_lower_ideal" in names
    assert not names & {"_elt", "subgroup", "sorted", "sort", "sort_key"}
    walk = _references(_rootsys_method("_lower_ideal"))
    assert "_elt" in walk
    assert not walk & {"subgroup", "sorted", "sort", "sort_key"}


# The fundamental weights come from one elimination of [C^T | I].
def test_fundamental_weights_take_one_elimination():
    names = _references(_rootsys_method("_compute_weights"))
    assert "_rref" in names
    assert not names & {"solve_linear", "_solve_in_span"}
