"""Structural gates: what must stay *absent*, asserted on the objects.

Each block names a duplicate path or a second copy of a fact that a PR
removed, and fails if it grows back.  The checks import the modules and
look at classes, signatures and source text — nothing here runs the
pipeline, and one tiny simulation shows what a run leaves behind (table
completeness lives in ``tests/sim/test_op_table.py``).
"""

from __future__ import annotations

import ast
import dataclasses
import gc
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro
import repro.frontend
import repro.parallel
import repro.runtime
import repro.service
import repro.sim.lockstep
from repro.api import run_multi_job, run_vsensor, simulate_instrumented
from repro.frontend import parse_source
from repro.instrument import annotations
from repro.parallel import JobTask
import repro.pipeline
from repro.pipeline import PASSES, ArtifactStore, Pass, passes
from repro.runtime import batch_detector, columnar, governor, records
from repro.runtime.batch_detector import BatchDetector, RankView, SummaryLog
from repro.runtime.channel import Envelope, LossyChannel
from repro.runtime.governor import GovernorConfig
from repro.runtime.live import LiveReporter
from repro.runtime.columnar import ColumnarStore
from repro.runtime.records import SliceSummary, SummaryColumns
from repro.runtime.reference import ReferenceStore
from repro.runtime.server import AnalysisServer
from repro.runtime.transport import FileSpool, ReliableTransport, _Pending
from repro.runtime.vsensor_hooks import VSensorRuntime
from repro.sensors import identify, rules
from repro.sensors.extern import default_extern_registry
from repro.sensors.identify import identify_vsensors
from repro.service import AnalysisService, QueryMerger, ShardWorker, TenantPort
from repro.sim import MachineConfig, Simulator
from repro.sim import clock, engine, interp
from repro.sim.bytecode import BytecodeInterp, compile_module, compiler, dispatch, render
from repro.sim.interp import RankInterp
from repro.sim.lockstep import clocks
from repro.sim.lockstep import runner as lockstep_runner


def _package_sources(package) -> dict[str, str]:
    root = Path(package.__file__).parent
    return {str(path.relative_to(root)): path.read_text() for path in root.rglob("*.py")}


def _public_methods(cls) -> set[str]:
    return {
        name
        for name, member in inspect.getmembers(cls, inspect.isfunction)
        if not name.startswith("_")
    }


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


# -- the rank -> server hop holds each fact once ------------------------------


def test_transport_does_not_poll_for_acks():
    """Acceptance is the ack: ``pump`` acts on ``receive_batch``'s return."""
    assert "is_acked" not in inspect.getsource(ReliableTransport.pump)
    assert "is_acked" not in inspect.getsource(inspect.getmodule(ReliableTransport))


def test_a_transport_carries_one_tenant():
    assert "job" not in _field_names(Envelope)
    assert "job" not in _field_names(_Pending)
    assert "job_id" not in _field_names(ReliableTransport)
    assert "job" not in inspect.signature(LossyChannel.send).parameters


def test_server_is_endpoint_accounting_over_one_store():
    removed = {
        "_columns", "_store", "_analysis", "_max_window", "_sensor_types", "_last_seen",
    }
    assert not removed & set(AnalysisServer.__slots__)
    for name in ("_ingest", "_replay", "_note_ingest", "_replay_columnar", "export_rows"):
        assert not hasattr(AnalysisServer, name)
    assert "_rows" in AnalysisServer.__slots__


def test_both_stores_answer_the_same_questions():
    assert _public_methods(ColumnarStore) == _public_methods(ReferenceStore)
    for cls in (ColumnarStore, ReferenceStore):
        # self + the batch: rows, a log view or decoded columns alike
        assert len(inspect.signature(cls.ingest_summaries).parameters) == 2
        assert not hasattr(cls, "ingest_columns")
    assert not hasattr(ColumnarStore, "export_summaries")


def test_columnar_store_keeps_only_columns_a_query_reads():
    names = [name for name, _ in columnar._COLUMNS]
    assert "count" not in names and "miss" not in names
    assert set(ColumnarStore(1000.0, 1)._cols) == set(names)


# -- a closed slice is a row of columns from the detector to the store --------

_ROW_FIELD_NAMES = _field_names(SliceSummary)
#: fields a column batch carries only as codes: reading them means rows
_ROW_ONLY_FIELD_NAMES = _ROW_FIELD_NAMES - _field_names(SummaryColumns)
_ARRAY_MAKERS = {"array", "asarray", "empty", "fromiter", "full", "zeros"}


def _are_row_reads(attrs: set[str]) -> bool:
    return len(attrs & _ROW_FIELD_NAMES) >= 3 and bool(attrs & _ROW_ONLY_FIELD_NAMES)


def _row_field_getters(tree: ast.Module) -> set[str]:
    """Module-level names bound to an ``attrgetter`` over row fields."""
    names = set()
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        fields = {a.value for a in node.value.args if isinstance(a, ast.Constant)}
        if getattr(node.value.func, "id", "") == "attrgetter" and _are_row_reads(fields):
            names.update(target.id for target in node.targets)
    return names


def _takes_rows_apart_into_arrays(fn: ast.FunctionDef, getters: set[str]) -> bool:
    """True when ``fn`` builds NumPy arrays and reads three or more
    ``SliceSummary`` fields (the enum or the group string among them) per
    row — off a loop variable, or through an ``attrgetter`` over them."""
    nodes = list(ast.walk(fn))
    makes_arrays = any(
        isinstance(n, ast.Attribute)
        and n.attr in _ARRAY_MAKERS
        and getattr(n.value, "id", "") == "np"
        for n in nodes
    )
    if not makes_arrays:
        return False
    if any(isinstance(n, ast.Name) and n.id in getters for n in nodes):
        return True
    for loop in nodes:
        if isinstance(loop, ast.For):
            targets = [loop.target]
        elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            targets = [gen.target for gen in loop.generators]
        else:
            continue
        loop_vars = {
            n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)
        }
        for name in loop_vars:
            read = {
                n.attr
                for n in ast.walk(loop)
                if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == name
            }
            if _are_row_reads(read):
                return True
    return False


def test_rows_become_columns_in_exactly_one_function():
    converters = []
    for name, source in _package_sources(repro).items():
        tree = ast.parse(source)
        getters = _row_field_getters(tree)
        converters += [
            f"{name}::{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and _takes_rows_apart_into_arrays(node, getters)
        ]
    assert converters == ["runtime/records.py::from_rows"]


def test_records_define_one_columnar_record_class():
    columnar_classes = [
        name
        for name, cls in inspect.getmembers(records, inspect.isclass)
        if cls.__module__ == records.__name__
        and "np.ndarray" in inspect.get_annotations(cls).values()
    ]
    assert columnar_classes == ["SummaryColumns"]


def test_the_batch_path_makes_no_row_objects_and_the_store_keeps_no_key_set():
    assert "SliceSummary" not in inspect.getsource(batch_detector)
    assert "_keys" not in inspect.getsource(columnar)
    assert not hasattr(ColumnarStore(1000.0, 1), "_keys")
    assert "_buffers" not in VSensorRuntime.__slots__
    transport_source = inspect.getsource(ReliableTransport)
    assert "tuple(summaries)" not in transport_source
    assert "list(envelope.payload)" not in transport_source


# -- one detector state on every tier ------------------------------------------


def test_the_per_rank_detector_objects_stay_gone():
    """§5.1–§5.3 state lives in ``BatchDetector`` only: no per-rank
    detector, aggregator or shutoff rule is kept beside it, and nothing
    converts one form of the state into the other."""
    for name in ("RankDetector", "SliceAggregator"):
        assert not hasattr(repro.runtime, name)
        assert name not in repro.runtime.__all__
    assert importlib.util.find_spec("repro.runtime.smoothing") is None
    assert not hasattr(governor, "PaperShutoff")
    assert not hasattr(governor.OverheadGovernor, "lifecycle")
    assert callable(governor.OverheadGovernor.on_shutoff)
    assert not hasattr(BatchDetector, "adopt")
    assert not hasattr(SummaryLog, "extend")
    assert not {"add", "finish"} & set(dir(RankView)), "a view is read-only"


def test_every_rank_reads_one_shared_detector():
    runtime = VSensorRuntime(sensors={}, n_ranks=4)
    runtime.on_program_start(4)
    assert type(runtime.detector) is BatchDetector
    assert list(runtime.detectors) == [0, 1, 2, 3]
    for rank, view in runtime.detectors.items():
        assert type(view) is RankView and view.rank == rank
        assert view._vec is runtime.detector


def test_slice_summaries_are_built_only_in_records():
    """Closed slices are log rows; ``SliceSummary`` objects exist only
    where :mod:`repro.runtime.records` materialises them for a consumer."""
    builders = sorted(
        name
        for name, source in _package_sources(repro).items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "SliceSummary"
    )
    assert builders == ["runtime/records.py"]


def test_dead_state_and_unset_knobs_stay_gone():
    assert "_summaries_seen" not in VSensorRuntime.__slots__
    assert "vnodes" not in inspect.signature(run_multi_job).parameters
    assert "vnodes" not in inspect.signature(AnalysisService.__init__).parameters


def test_surfaces_only_tests_selected_stay_gone():
    """One governor policy with its fixed constants as module constants,
    an in-memory compile cache, no tenant rate limiter, no dominator or
    natural-loop analysis and no IR or CFG dataflow (identification reads
    the AST alone), no
    spooling mixin and no second shard drain loop."""
    assert not _field_names(GovernorConfig) & {
        "policy", "promote_confirm", "probation_us", "check_cost", "promote_sensor_types",
    }
    knobs = {"governor_policy", "disk_dir", "rate_limit_rows_per_ms"}
    for fn in (
        run_vsensor, simulate_instrumented, ArtifactStore.__init__, AnalysisService.__init__
    ):
        assert not knobs & set(inspect.signature(fn).parameters), fn.__qualname__
    assert "cache_dir" not in _field_names(JobTask)
    for gone in ("repro.cfa", "repro.ir", "repro.dataflow"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(gone)
    assert not hasattr(inspect.getmodule(FileSpool), "SpoolingRuntimeMixin")
    assert not hasattr(ShardWorker, "drain")


def test_the_api_loads_no_graph_library():
    """The call graph is a dict and its order comes from ``graphlib``, so
    ``import repro.api`` leaves networkx unloaded."""
    code = "import sys, repro.api; print('networkx' in sys.modules)"
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


def test_the_static_passes_run_in_one_written_order():
    """``PASSES`` is the schedule: four passes, each reading only passes
    before it.  No pass manager, context record, per-pass version or store
    statistics grows back beside it."""
    gone = {"PassManager", "CompilerContext", "PipelineError", "StoreStats"}
    assert not gone & set(dir(repro.pipeline))
    for module in ("repro.pipeline.manager", "repro.pipeline.context"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    names = [p.name for p in PASSES]
    assert names == ["parse", "identify", "select", "instrument"]
    for index, pass_ in enumerate(PASSES):
        assert set(pass_.inputs) <= set(names[:index]), pass_.name
    assert _field_names(Pass) == {"name", "inputs", "run", "config_keys"}
    assert not hasattr(ArtifactStore(), "stats")


# -- each compile-path rule has one statement ---------------------------------


def _callers_of(module, method: str) -> set[str]:
    """Names of the functions in ``module`` whose bodies call ``.method()``."""
    tree = ast.parse(inspect.getsource(module))
    return {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
    }


def test_work_charges_land_by_one_rule():
    """``dispatch.LANDS_CHARGES`` says where a pending charge lands: the
    compiler's ``emit`` lands before those ops and ``bind`` at labels (no
    call site flushes by hand), and the renderer merges ``CHARGE``s by the
    same set and folds no ``CU`` of its own."""
    assert _callers_of(compiler, "flush_charges") == {"emit", "bind"}
    assert compiler.LANDS_CHARGES is dispatch.LANDS_CHARGES
    assert render.LANDS_CHARGES is dispatch.LANDS_CHARGES
    assert not hasattr(render, "_folded_cu")
    render_attrs = {
        node.attr
        for node in ast.walk(ast.parse(inspect.getsource(render)))
        if isinstance(node, ast.Attribute)
    }
    assert "CU" not in render_attrs


def test_one_classifier_and_one_annotation_step():
    own = {
        name
        for name, fn in inspect.getmembers(annotations, inspect.isfunction)
        if fn.__module__ == annotations.__name__
    }
    assert own == {"apply_annotations", "_find_snippet"}
    assert annotations.classify_snippet is identify.classify_snippet
    assert not hasattr(identify._Identifier, "_classify")
    assert not _callers_of(passes, "is_excluded") | _callers_of(passes, "forced_sensors")
    assert not hasattr(rules, "MaxLoopDepthRule")


def test_a_program_starts_at_one_entry():
    for fn in (
        Simulator.__init__, RankInterp.__init__, BytecodeInterp.__init__,
        identify_vsensors, identify._Identifier.__init__,
    ):
        assert "entry" not in inspect.signature(fn).parameters, fn.__qualname__
    identify_pass = next(p for p in PASSES if p.name == "identify")
    assert "entry" not in identify_pass.config_keys


def test_one_point_to_point_table():
    assert compiler._MPI_P2P is interp._MPI_P2P
    assert lockstep_runner._P2P_OPS == frozenset(interp._MPI_P2P.values())
    assert not hasattr(engine, "_P2P_OPS")
    spelled = [
        node
        for node in ast.walk(ast.parse(inspect.getsource(interp)))
        if isinstance(node, ast.Constant) and node.value == "MPI_Sendrecv"
    ]
    assert len(spelled) == 1
    assert not hasattr(repro.frontend, "parse_file")


def test_a_run_has_one_variance_threshold():
    """The detector config's threshold is the run's; the service and the
    live reporter keep no threshold of their own."""
    assert "threshold" not in inspect.signature(AnalysisService.__init__).parameters
    assert "threshold" not in _field_names(LiveReporter)


# -- gates that used to be grep steps in ci.yml -------------------------------


def test_no_opcode_number_literals_in_the_lockstep_tier():
    """Its loops are rendered from ``OP_TABLE``; an ``op == 17`` is a
    second statement of an opcode's number."""
    literal = re.compile(r"op (==|!=|<=|>=) [0-9]|[0-9]+ <= op")
    for name, source in _package_sources(repro.sim.lockstep).items():
        assert not literal.search(source), name


def _table_builders() -> list[str]:
    """Functions of ``repro.sim`` that sum capacity or make a chunk table."""
    builders = []
    for name, source in _package_sources(repro.sim).items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and any(
                getattr(n.func, "attr", getattr(n.func, "id", "")) in ("cumsum", "_Chunk")
                for n in ast.walk(node)
                if isinstance(n, ast.Call)
            ):
                builders.append(f"{name}::{node.name}")
    return builders


def _module_held(value) -> list:
    if isinstance(value, dict):
        return [*value, *value.values()]
    if isinstance(value, (list, tuple, set, frozenset)):
        return list(value)
    return [value]


def test_no_per_slice_round_loop_in_the_lockstep_clocks():
    """One capacity kernel serves both tiers: neither clock module steps
    slices or lays out a block grid, one function builds capacity tables,
    and no module of ``repro.sim`` keeps a table past its run."""
    gone = re.compile(
        r"range\((10_000_000|STEP_CAP)\)|_chunk_speeds|_chunk_spiky"
        r"|_BLOCK_SLICES|_BLOCK_CELLS|subtract\.accumulate"
    )
    for module in (clock, clocks):
        assert not gone.search(inspect.getsource(module)), module.__name__
    assert _table_builders() == ["clock.py::chunk"]

    module = parse_source("int main() { compute_units(90000); MPI_Barrier(); return 0; }")
    sim = Simulator(module, MachineConfig(n_ranks=16, ranks_per_node=4), engine="lockstep")
    sim.run()
    table = sim._lockstep_runner.clocks.table
    assert table._chunks and isinstance(table, clock.CapacityTable)
    tables = {id(table), *map(id, table._chunks.values())}
    for name, mod in list(sys.modules.items()):
        if name.startswith("repro.sim"):
            for value in vars(mod).values():
                assert not any(id(x) in tables for x in _module_held(value)), name
    alive = weakref.ref(table)
    del sim, table
    gc.collect()
    assert alive() is None


def test_one_analysis_store_per_tenant():
    """A tenant port is its job's analysis server: the accounting, the
    watermarks and the degraded set live once, on the inherited server,
    and no query is forwarded to a second store.  Shards fold rows in
    with ``port.apply``; nothing re-exports rows."""
    assert issubclass(TenantPort, AnalysisServer)
    removed = {
        "bytes_received", "batches_received", "summaries_received", "duplicate_batches",
        "degraded", "_seqs", "_merger", "store", "server", "is_acked", "ack_watermark",
        "mark_degraded", "inter_events", "duplicate_summaries", "stored_summaries",
        "history", "detect_inter_process", "performance_matrix", "mean_rank_performance",
        "silent_ranks",
    }
    assert not removed & set(vars(TenantPort)), removed & set(vars(TenantPort))
    assert not hasattr(AnalysisServer, "ack_watermark")
    # The port's own receive_batch is what a spool drain reaches.
    assert TenantPort.receive_batch_columns is TenantPort.__dict__["receive_batch"]
    port = AnalysisService(1).register_job(0, 1)
    assert QueryMerger(port).refresh() is port  # the benchmark's shim
    for name, source in _package_sources(repro.service).items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
                    node.func, "id", None
                )
                assert callee != "AnalysisServer", f"{name} builds a second store"
                if name == "shard.py":
                    assert callee != "receive_batch", "a shard re-counts what the port admitted"
    hop = re.compile(r"export_rows|export_summaries|_sub_seqs")
    for name, source in _package_sources(repro).items():
        assert not hop.search(source), name


# -- one scalar path, rendered per program -------------------------------------


def test_the_generic_scalar_chain_is_gone():
    """``engine="bytecode"`` runs the program's rendered core; the chain
    over opcodes is not kept beside it."""
    for name in ("DISPATCH_CORE", "_render_core_source", "_build_core"):
        assert not hasattr(dispatch, name)
    assert not hasattr(BytecodeInterp, "_dispatch_core")


def test_rendering_added_no_engine_name_or_parameter():
    module = parse_source("int main() { return 0; }")
    machine = MachineConfig(n_ranks=2, ranks_per_node=2)
    for engine in ("bytecode", "ast", "lockstep", "auto"):
        Simulator(module, machine, engine=engine)
    with pytest.raises(ValueError, match=r"\(bytecode\|ast\|lockstep\|auto\)"):
        Simulator(module, machine, engine="rendered")
    assert list(inspect.signature(Simulator.__init__).parameters) == [
        "self", "module", "machine", "faults", "sensors", "externs",
        "engine", "obs", "probe_control",
    ]


def test_a_rendered_core_lives_and_dies_with_its_program():
    """No module-level container in the renderer holds rendered functions:
    the 16 cold programs of a ``tenants_*`` operation must not accumulate."""
    program = compile_module(
        parse_source("int main() { MPI_Barrier(); return 0; }"),
        default_extern_registry(),
    )
    core = program.core()
    for name, value in vars(render).items():
        if isinstance(value, dict):
            held = [*value, *value.values()]
        elif isinstance(value, (list, tuple, set, frozenset)):
            held = list(value)
        else:
            continue
        assert core not in held and program not in held, name
    alive = weakref.ref(core)
    del core, program
    assert alive() is None  # by reference count: the function is in no cycle


# -- the pool hop speaks the standard library ----------------------------------


def test_the_pool_has_no_framing_of_its_own():
    """``WorkerPool`` rides ``multiprocessing.connection``; the hand-rolled
    frame protocol is not kept beside it."""
    imports = re.compile(r"^\s*(import|from)\s+(socket|selectors|struct)\b", re.M)
    assert not imports.search(inspect.getsource(repro.parallel.pool))
    for name in ("FrameConn", "socket_pair", "PeerDied"):
        assert not hasattr(repro.parallel, name)
        assert not hasattr(repro.parallel.wire, name)
    # (the spool codec's private ``_FRAME_HEADER`` is its own file format)
    framing = re.compile(r"\bFRAME_HEADER\b|has_buffered_frame|selectors")
    for name, source in _package_sources(repro).items():
        assert not framing.search(source), name


def test_a_summary_row_carries_no_job():
    """A spool, like a transport, holds one tenant."""
    assert "job_id" not in _field_names(SliceSummary)
    assert "job" not in _field_names(SummaryColumns)
    assert "job" not in inspect.signature(FileSpool.drain_into).parameters
    assert "job" not in inspect.signature(repro.parallel.decode_rows).parameters
