"""Golden regression tests.

These lock the *reproduced numbers* (not just their shape) so refactors of the
mapper, packer or metrics cannot silently drift the values this repo exists to
reproduce:

* the Section 5 filling ratios measured by :func:`api.reproduce_filling_ratios`
  (paper: 0.51 micropipeline, 0.76 QDI; the behavioural model measures 0.5185
  and 0.6462 under the DESIGN.md definition);
* the key set of :meth:`FlowResult.summary`, which is the sweep engine's
  stored/pickled contract;
* determinism of the placement seed and of the sweep engine's parallel path.
"""

import pytest

from repro import api
from repro.cad.flow import CadFlow, FlowOptions
from repro.circuits.fulladder import qdi_full_adder
from repro.core.params import ArchitectureParams

GOLDEN_FILLING_RATIOS = {
    "micropipeline": 0.5185,
    "qdi-dual-rail": 0.6462,
}
PAPER_FILLING_RATIOS = {
    "micropipeline": 0.51,
    "qdi-dual-rail": 0.76,
}

#: The exact summary() key set of a full (place + route + bitstream) flow.
FULL_FLOW_SUMMARY_KEYS = {
    "circuit",
    "style",
    "les",
    "plbs",
    "pdes",
    "filling_ratio",
    "filling_ratio_per_plb",
    "le_occupancy",
    "placement_cost",
    "placement_moves",
    "placement_net_evals",
    "routed_nets",
    "total_wirelength",
    "routing_success",
    "router_iterations",
    "router_nets_rerouted",
    "router_node_pops",
    "max_net_delay_ps",
    "le_levels",
    "forward_latency_ps",
    "cycle_time_ps",
    "bitstream_bits_set",
    "bitstream_bits_total",
}

#: The key set when placement/routing/bitstream are skipped (analysis only).
ANALYSIS_ONLY_SUMMARY_KEYS = {
    "circuit",
    "style",
    "les",
    "plbs",
    "pdes",
    "filling_ratio",
    "filling_ratio_per_plb",
    "le_occupancy",
    "max_net_delay_ps",
    "le_levels",
    "forward_latency_ps",
    "cycle_time_ps",
}


# ----------------------------------------------------------------------
# Section 5 headline numbers
# ----------------------------------------------------------------------
def test_golden_filling_ratios_exact():
    rows = api.reproduce_filling_ratios()
    assert [row["style"] for row in rows] == ["micropipeline", "qdi-dual-rail"]
    for row in rows:
        style = row["style"]
        assert row["measured_filling_ratio"] == GOLDEN_FILLING_RATIOS[style]
        assert row["paper_filling_ratio"] == PAPER_FILLING_RATIOS[style]
    by_style = {row["style"]: row for row in rows}
    assert (by_style["micropipeline"]["les"], by_style["micropipeline"]["plbs"]) == (2, 1)
    assert (by_style["qdi-dual-rail"]["les"], by_style["qdi-dual-rail"]["plbs"]) == (5, 3)


# ----------------------------------------------------------------------
# FlowResult.summary() contract
# ----------------------------------------------------------------------
def test_golden_full_flow_summary_key_set():
    result = CadFlow(ArchitectureParams(width=5, height=5)).run(qdi_full_adder())
    assert set(result.summary().keys()) == FULL_FLOW_SUMMARY_KEYS


def test_golden_analysis_only_summary_key_set():
    options = FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False)
    result = CadFlow(options=options).run(qdi_full_adder())
    assert set(result.summary().keys()) == ANALYSIS_ONLY_SUMMARY_KEYS


def test_golden_summary_keys_with_verify_stages_gate():
    # The lint gate adds exactly two conditional keys; the locked base set
    # is otherwise untouched (sweep pickles from older runs stay loadable).
    arch = ArchitectureParams(width=5, height=5)
    result = CadFlow(arch, FlowOptions(verify_stages=True)).run(qdi_full_adder())
    assert set(result.summary().keys()) == FULL_FLOW_SUMMARY_KEYS | {
        "lint_errors",
        "lint_warnings",
    }
    assert result.summary()["lint_errors"] == 0
    assert result.summary()["lint_warnings"] == 0


# ----------------------------------------------------------------------
# Wide-function decomposition: multiplier LE/PLB counts and summary keys
# ----------------------------------------------------------------------
def test_golden_decomposed_multiplier_counts():
    # Locks the decomposition result for the 2x2 multiplier: 8 nine-input
    # rail functions split into 41 intermediates, coalesced onto 24 LEs in
    # 12 PLBs.  A mapper/decomposer refactor that drifts these numbers must
    # be deliberate.
    from repro.circuits.registry import build_circuit
    from repro.core.params import RoutingParams

    routable = ArchitectureParams(routing=RoutingParams(channel_width=10))
    result = CadFlow(routable).run(build_circuit("qdi_multiplier_2x2"))
    summary = result.summary()
    assert (summary["les"], summary["plbs"]) == (24, 12)
    assert summary["decomposed_functions"] == 8
    assert summary["decomposition_intermediates"] == 41
    assert summary["routing_success"] is True
    # Decomposition summary keys appear *in addition to* the locked base set.
    assert set(summary.keys()) == FULL_FLOW_SUMMARY_KEYS | {
        "decomposed_functions",
        "decomposition_intermediates",
    }


# ----------------------------------------------------------------------
# Determinism: placement seed and bitstream
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 42])
def test_same_seed_same_placement_cost_and_bitstream(seed):
    arch = ArchitectureParams(width=5, height=5)
    options = FlowOptions(placement_seed=seed)
    first = CadFlow(arch, options).run(qdi_full_adder())
    second = CadFlow(arch, options).run(qdi_full_adder())
    assert first.placement is not None and second.placement is not None
    assert first.placement.cost == second.placement.cost
    assert first.placement.plb_sites == second.placement.plb_sites
    assert first.bitstream is not None and second.bitstream is not None
    assert first.bitstream.to_bytes() == second.bitstream.to_bytes()
    assert first.summary() == second.summary()
