"""Round-trip tests of the stage-artifact codecs and the artifact store.

Acceptance criteria of the artifacts subsystem: every stage boundary of the
flow serializes to a JSON-safe, schema-versioned payload whose round trip is
exact (``from_dict(to_dict(x))`` equals ``x``), unknown schema versions and
corrupt payloads raise the typed errors from :mod:`repro.core.schema`, and
the :class:`~repro.artifacts.ArtifactStore` enforces its size bound.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.artifacts import (
    ARTIFACT_SCHEMA,
    STAGES,
    ArtifactError,
    ArtifactStore,
    CorruptArtifactError,
    UnknownSchemaError,
    decode_envelope,
    encode_envelope,
    flow_artifact_key,
    load_flow_artifacts,
    stage_key,
)
from repro.cad.flow import CadFlow, FlowOptions
from repro.cad.lemap import MappedDesign
from repro.cad.place import Placement
from repro.cad.route import RoutingResult
from repro.cad.timing import TimingReport
from repro.circuits.registry import build_circuit
from repro.core.bitstream import Bitstream, BitstreamBudget
from repro.core.params import ArchitectureParams
from repro.core.schema import LEGACY_VERSION, decoding, require_version
from repro.netlist.builder import NetlistBuilder
from repro.netlist.netlist import Netlist

ARCH = ArchitectureParams()


@pytest.fixture(scope="module")
def flow_and_result():
    flow = CadFlow(ARCH, FlowOptions())
    return flow, flow.run(build_circuit("qdi_full_adder"))


def _json_round_trip(payload):
    """Assert the payload is JSON-safe and return the reloaded copy."""
    return json.loads(json.dumps(payload))


# ----------------------------------------------------------------------
# Stage codecs: exact round trips through JSON
# ----------------------------------------------------------------------
def test_mapped_design_round_trips(flow_and_result):
    _, result = flow_and_result
    payload = _json_round_trip(result.mapped.to_dict())
    rebuilt = MappedDesign.from_dict(payload)
    assert rebuilt.to_dict() == result.mapped.to_dict()
    # PLB membership must be reconstructed by identity, not by copies.
    for plb in rebuilt.plbs:
        for le in plb.les:
            assert any(le is candidate for candidate in rebuilt.les)


def test_placement_round_trips(flow_and_result):
    _, result = flow_and_result
    payload = _json_round_trip(result.placement.to_dict())
    assert Placement.from_dict(payload).to_dict() == result.placement.to_dict()


def test_routing_round_trips(flow_and_result):
    flow, result = flow_and_result
    payload = _json_round_trip(result.routing.to_dict(flow.rr_graph))
    rebuilt = RoutingResult.from_dict(payload, flow.rr_graph)
    assert rebuilt.to_dict(flow.rr_graph) == result.routing.to_dict(flow.rr_graph)
    for net, routed in rebuilt.routed.items():
        assert routed.nodes == result.routing.routed[net].nodes


def test_legacy_routing_payload_with_grouping_counters_decodes(flow_and_result):
    # Payloads written before routing became serial-only carry two extra
    # counters; they must still decode, and are no longer emitted.
    flow, result = flow_and_result
    current = result.routing.to_dict(flow.rr_graph)
    assert "parallel_groups" not in current
    assert "conflict_replays" not in current
    legacy = _json_round_trip({**current, "parallel_groups": 3, "conflict_replays": 5})
    rebuilt = RoutingResult.from_dict(legacy, flow.rr_graph)
    assert rebuilt.to_dict(flow.rr_graph) == current


def test_timing_round_trips(flow_and_result):
    _, result = flow_and_result
    payload = _json_round_trip(result.timing.to_dict())
    assert TimingReport.from_dict(payload) == result.timing


def test_bitstream_round_trips(flow_and_result):
    _, result = flow_and_result
    payload = _json_round_trip(result.bitstream.to_dict())
    rebuilt = Bitstream.from_dict(payload)
    assert rebuilt == result.bitstream
    assert rebuilt.to_bytes() == result.bitstream.to_bytes()
    # An explicitly supplied budget is honoured too.
    budget = BitstreamBudget.for_architecture(ARCH)
    assert Bitstream.from_dict(payload, budget) == result.bitstream


def test_netlist_round_trips():
    builder = NetlistBuilder("codec_probe")
    a, b = builder.inputs("a", "b")
    x = builder.and2(a, b)
    builder.or2(x, a, out="y")
    builder.output("y")
    netlist = builder.netlist
    payload = _json_round_trip(netlist.to_dict())
    rebuilt = Netlist.from_dict(payload)
    assert rebuilt.to_dict() == netlist.to_dict()
    assert rebuilt.stats() == netlist.stats()


# ----------------------------------------------------------------------
# Hypothesis: codecs over generated values
# ----------------------------------------------------------------------
net_names = st.text(
    alphabet="abcdefgh_0123456789", min_size=1, max_size=8
).filter(lambda s: not s.isdigit())


@given(
    delays=st.dictionaries(net_names, st.integers(0, 10_000), max_size=8),
    levels=st.integers(0, 64),
    cycle=st.integers(0, 1_000_000),
    crit=st.dictionaries(net_names, st.floats(0, 1, allow_nan=False), max_size=8),
    notes=st.lists(st.text(max_size=20), max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_timing_report_round_trips_generated(delays, levels, cycle, crit, notes):
    report = TimingReport(
        net_delays_ps=delays,
        max_net_delay_ps=max(delays.values(), default=0),
        le_levels=levels,
        forward_latency_ps=cycle // 2,
        cycle_time_ps=cycle,
        criticalities=crit,
        notes=notes,
        critical_path_ps=cycle // 2,
    )
    assert TimingReport.from_dict(_json_round_trip(report.to_dict())) == report


@given(data=st.binary(min_size=0, max_size=64))
@settings(max_examples=40, deadline=None)
def test_bitstream_round_trips_generated(data):
    budget = BitstreamBudget.for_architecture(ARCH)
    padded = data.ljust((budget.total_bits + 7) // 8, b"\x00")
    bitstream = Bitstream.from_bytes(budget, padded)
    rebuilt = Bitstream.from_dict(_json_round_trip(bitstream.to_dict()))
    assert rebuilt.to_bytes() == bitstream.to_bytes()


@given(chain=st.integers(1, 6), invert=st.lists(st.booleans(), min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_netlist_round_trips_generated(chain, invert):
    builder = NetlistBuilder("gen")
    net = builder.input("in0")
    for index in range(chain):
        flip = invert[index % len(invert)]
        net = builder.inv(net) if flip else builder.buf(net)
    builder.netlist.add_net("out0")
    builder.buf(net, out="out0")
    builder.output("out0")
    payload = _json_round_trip(builder.netlist.to_dict())
    assert Netlist.from_dict(payload).to_dict() == builder.netlist.to_dict()


# ----------------------------------------------------------------------
# Typed decode errors
# ----------------------------------------------------------------------
def _stage_payloads(flow, result):
    return {
        "mapped": result.mapped.to_dict(),
        "placement": result.placement.to_dict(),
        "routing": result.routing.to_dict(flow.rr_graph),
        "timing": result.timing.to_dict(),
        "bitstream": result.bitstream.to_dict(),
    }


def _decoder_for(stage, flow):
    return {
        "mapped": MappedDesign.from_dict,
        "placement": Placement.from_dict,
        "routing": lambda data: RoutingResult.from_dict(data, flow.rr_graph),
        "timing": TimingReport.from_dict,
        "bitstream": Bitstream.from_dict,
    }[stage]


@pytest.mark.parametrize("stage", ["mapped", "placement", "routing", "timing", "bitstream"])
def test_unknown_schema_version_raises_typed_error(stage, flow_and_result):
    flow, result = flow_and_result
    payload = dict(_stage_payloads(flow, result)[stage])
    payload["schema"] = 999
    with pytest.raises(UnknownSchemaError):
        _decoder_for(stage, flow)(payload)
    # The typed errors stay catchable as ValueError (legacy call sites).
    assert issubclass(UnknownSchemaError, ValueError)
    assert issubclass(CorruptArtifactError, ValueError)


@pytest.mark.parametrize("stage", ["mapped", "placement", "routing", "timing", "bitstream"])
def test_corrupt_payload_raises_typed_error(stage, flow_and_result):
    flow, result = flow_and_result
    decoder = _decoder_for(stage, flow)
    with pytest.raises(CorruptArtifactError):
        decoder("not a mapping")
    gutted = {"schema": _stage_payloads(flow, result)[stage]["schema"]}
    with pytest.raises(CorruptArtifactError):
        decoder(gutted)


def test_placement_accepts_legacy_unversioned_payload(flow_and_result):
    _, result = flow_and_result
    legacy = dict(result.placement.to_dict())
    del legacy["schema"]  # pre-artifact records carried no version stamp
    assert Placement.from_dict(legacy).to_dict() == result.placement.to_dict()


def test_routing_rejects_foreign_fabric_nodes(flow_and_result):
    flow, result = flow_and_result
    payload = json.loads(json.dumps(result.routing.to_dict(flow.rr_graph)))
    net = next(iter(payload["routed"]))
    payload["routed"][net]["nodes"][0] = "no_such_node"
    with pytest.raises(CorruptArtifactError):
        RoutingResult.from_dict(payload, flow.rr_graph)


def test_require_version_and_decoding_primitives():
    assert require_version({"schema": 3}, "probe", 3) == 3
    assert require_version({}, "probe", 1, legacy=True) == LEGACY_VERSION
    with pytest.raises(CorruptArtifactError):
        require_version({}, "probe", 1)
    with pytest.raises(UnknownSchemaError):
        require_version({"schema": 2}, "probe", 1)
    with pytest.raises(CorruptArtifactError):
        require_version({"schema": True}, "probe", 1)
    with pytest.raises(CorruptArtifactError):
        with decoding("probe"):
            raise KeyError("missing")
    # Typed errors pass through undisturbed instead of being re-wrapped.
    with pytest.raises(UnknownSchemaError):
        with decoding("probe"):
            raise UnknownSchemaError("inner")


# ----------------------------------------------------------------------
# Envelope and keys
# ----------------------------------------------------------------------
def test_envelope_round_trips_and_pins_stage():
    options = FlowOptions()
    key = flow_artifact_key("qdi_full_adder", ARCH, options)
    record = encode_envelope("mapped", key, "qdi_full_adder", ARCH, options, {"x": 1})
    record = _json_round_trip(record)
    assert record["schema"] == ARTIFACT_SCHEMA
    assert decode_envelope(record) == {"x": 1}
    assert decode_envelope(record, "mapped") == {"x": 1}
    with pytest.raises(CorruptArtifactError):
        decode_envelope(record, "routing")
    bad = dict(record)
    bad["kind"] = "flow"
    with pytest.raises(CorruptArtifactError):
        decode_envelope(bad)


def test_stage_keys_are_distinct_and_validated():
    options = FlowOptions()
    key = flow_artifact_key("qdi_full_adder", ARCH, options)
    assert len({stage_key(key, stage) for stage in STAGES}) == len(STAGES)
    with pytest.raises(ValueError):
        stage_key(key, "netlist")
    with pytest.raises(ValueError):
        encode_envelope("netlist", key, "c", ARCH, options, {})


def test_flow_key_ignores_execution_side_options(tmp_path):
    plain = flow_artifact_key("qdi_full_adder", ARCH, FlowOptions())
    stored = flow_artifact_key(
        "qdi_full_adder",
        ARCH,
        FlowOptions(artifact_store=str(tmp_path), checkpoint_stages=("mapped",)),
    )
    assert plain == stored
    assert plain != flow_artifact_key("qdi_ripple_adder_2", ARCH, FlowOptions())
    assert plain != flow_artifact_key("qdi_full_adder", ARCH, FlowOptions(timing_driven=True))


# ----------------------------------------------------------------------
# The store: bound enforcement, GC, grouped loads
# ----------------------------------------------------------------------
def test_artifact_store_round_trips_records(tmp_path):
    store = ArtifactStore(tmp_path / "arts")
    store.put("aa" + "0" * 62, {"kind": "artifact", "x": 1})
    assert store.get("aa" + "0" * 62) == {"kind": "artifact", "x": 1}
    assert store.get("bb" + "0" * 62) is None


def test_artifact_store_enforces_size_bound(tmp_path):
    store = ArtifactStore(tmp_path / "arts", max_bytes=None)
    sizes = []
    for index in range(4):
        path = store.put(f"{index:02d}" + "0" * 62, {"payload": "x" * 256, "index": index})
        sizes.append(path.stat().st_size)
    # Budget exactly one record so the three oldest get evicted.
    store.max_bytes = max(sizes)
    removed, freed = store.enforce_size_bound()
    assert removed == 3 and freed == sum(sizes[:3])
    # The newest record survives the oldest-mtime eviction order.
    assert store.get("03" + "0" * 62) is not None
    assert store.get("00" + "0" * 62) is None
    unbounded = ArtifactStore(tmp_path / "loose", max_bytes=None)
    unbounded.put("aa" + "0" * 62, {"payload": "x"})
    assert unbounded.enforce_size_bound() == (0, 0)


def test_sweep_store_gc_accepts_size_bound(tmp_path):
    store = ArtifactStore(tmp_path / "arts", max_bytes=None)
    fingerprint = "f" * 16
    for index in range(3):
        store.put(f"{index:02d}" + "0" * 62, {"fingerprint": fingerprint, "i": index})
    outcome = store.gc(current_fingerprint=fingerprint, max_bytes=1)
    assert outcome["size_evicted"] >= 2
    assert outcome["removed"] == outcome["size_evicted"]  # nothing was retired


def test_checkpointed_flow_loads_back_as_grouped_views(tmp_path):
    store_dir = tmp_path / "arts"
    options = FlowOptions(artifact_store=str(store_dir))
    result = CadFlow(ARCH, options).run(build_circuit("qdi_full_adder"))
    views = load_flow_artifacts(ArtifactStore(store_dir))
    assert len(views) == 1
    view = views[0]
    assert view.circuit == "qdi_full_adder"
    assert view.stages == STAGES
    assert view.flow_key == flow_artifact_key("qdi_full_adder", ARCH, options)
    assert view.bitstream() == result.bitstream
    assert view.placement().to_dict() == result.placement.to_dict()
    assert view.timing() == result.timing
    assert view.design().to_dict() == result.mapped.to_dict()
    # Re-rendering from packed + placement reproduces the stored bytes.
    view.payloads.pop("bitstream")
    assert view.render_bitstream().to_bytes() == result.bitstream.to_bytes()
    # Filters: wrong circuit or fingerprint yields nothing.
    assert load_flow_artifacts(ArtifactStore(store_dir), circuit="nope") == []
    assert load_flow_artifacts(ArtifactStore(store_dir), fingerprint="stale") == []


def test_resume_requires_a_stored_artifact(tmp_path):
    options = FlowOptions(artifact_store=str(tmp_path / "arts"))
    with pytest.raises(ArtifactError):
        CadFlow(ARCH, options).run(build_circuit("qdi_full_adder"), resume_from="routing")
    with pytest.raises(ValueError):
        CadFlow(ARCH, FlowOptions()).run(
            build_circuit("qdi_full_adder"), resume_from="auto"
        )
